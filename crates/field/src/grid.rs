//! Interpolation and evaluation on the **share grid** `x = 1..=n`.
//!
//! Every sharing in this workspace evaluates polynomials at the fixed
//! points `x_i = i + 1` (player `i`'s share), so interpolation and
//! evaluation almost never see arbitrary field elements — they see small
//! grid indices, and the same few index sets over and over: an AVSS
//! instance recovers every coordinate of its secret vector from echoes at
//! the same share indices, and every opening of one MPC run reconstructs
//! over the same early senders. Two kernels exploit that:
//!
//! * [`interpolate_indices`] is a matrix–vector product. For a sorted
//!   index subset the map from share values to coefficients is a fixed
//!   `m × m` matrix (column `i` holds the scaled Lagrange basis polynomial
//!   `w_i · M(x)/(x − x_i)`). It is built once per subset — one master
//!   polynomial, one batched inversion ([`Fp::batch_inv`]) — and cached,
//!   keyed by the subset's bitmask; each interpolation is then `m` dot
//!   products with a single reduction each ([`Fp::dot`]) and no inversion.
//! * [`eval_index`] and [`eval_grid`] evaluate at grid points as a dot
//!   product against a cached table of the powers `(j+1)^a`: one
//!   `u128`-accumulated reduction per evaluation, where Horner's rule
//!   reduces once per coefficient. Dealing, echoing and consistency
//!   witnesses all evaluate this way.
//!
//! Both tables live in one thread-local cache: no lock on the hot path,
//! and the matrices are dropped wholesale once they exceed a fixed cell
//! budget. Unsorted index lists, indices of 64 and above, and polynomials
//! with more than 64 coefficients take the plain barycentric or Horner
//! path. Results are identical either way: interpolation and evaluation
//! are exact in the field, only the amount of work differs.

use crate::gf::Fp;
use crate::poly::Poly;
use std::cell::RefCell;
use std::collections::HashMap;

/// Largest grid index plus one (and largest coefficient count) the cache
/// serves: index subsets are keyed by a `u64` bitmask.
const GRID_MAX: usize = 64;

/// Cell budget of the cached interpolation matrices (8 bytes per cell),
/// per thread. Exceeding it clears the matrices; they rebuild on demand.
const MATRIX_CELL_BUDGET: usize = 1 << 16;

/// The per-thread share-grid cache.
#[derive(Default)]
struct GridCache {
    /// Interpolation matrices keyed by index bitmask, row-major `m × m`:
    /// row `k` maps the share values to coefficient `k`.
    matrices: HashMap<u64, Box<[Fp]>>,
    /// Total cells held in `matrices`.
    cells: usize,
    /// Powers table, `pows[j * cols + a] = (j + 1)^a`.
    pows: Vec<Fp>,
    rows: usize,
    cols: usize,
}

thread_local! {
    static CACHE: RefCell<GridCache> = RefCell::new(GridCache::default());
}

impl GridCache {
    /// Grows the powers table to cover grid indices `< rows` and
    /// exponents `< cols`.
    fn ensure_powers(&mut self, rows: usize, cols: usize) {
        if rows <= self.rows && cols <= self.cols {
            return;
        }
        self.rows = self.rows.max(rows);
        self.cols = self.cols.max(cols);
        self.pows.clear();
        for j in 0..self.rows {
            let x = Fp::new(j as u64 + 1);
            let mut p = Fp::ONE;
            for _ in 0..self.cols {
                self.pows.push(p);
                p *= x;
            }
        }
    }

    /// `(j+1)^0 .. (j+1)^(len-1)`; the table must cover `(j, len)`.
    fn powers(&self, j: usize, len: usize) -> &[Fp] {
        &self.pows[j * self.cols..j * self.cols + len]
    }

    /// The interpolation matrix of the sorted index subset `idxs`
    /// (`mask` is its bitmask), built on first use.
    fn matrix(&mut self, mask: u64, idxs: &[usize]) -> &[Fp] {
        if !self.matrices.contains_key(&mask) {
            let m = idxs.len();
            if self.cells + m * m > MATRIX_CELL_BUDGET {
                self.matrices.clear();
                self.cells = 0;
            }
            self.cells += m * m;
            self.matrices.insert(mask, interpolation_matrix(idxs));
        }
        &self.matrices[&mask]
    }
}

/// Inverted barycentric denominators of a grid subset:
/// `weights[i] = 1 / ∏_{j≠i}(x_i − x_j)` with `x_i = idxs[i] + 1`.
///
/// # Panics
///
/// Panics if two indices coincide (duplicate share points).
fn subset_weights(idxs: &[usize]) -> Vec<Fp> {
    let denoms: Vec<Fp> = idxs
        .iter()
        .enumerate()
        .map(|(a, &i)| {
            let mut d = Fp::ONE;
            for (b, &j) in idxs.iter().enumerate() {
                if b != a {
                    // A duplicated index zeroes the product, which the
                    // distinctness assertion below then rejects.
                    d *= Fp::from_i64(i as i64 - j as i64);
                }
            }
            d
        })
        .collect();
    assert!(
        denoms.iter().all(|d| !d.is_zero()),
        "interpolation points must be distinct"
    );
    Fp::batch_inv(&denoms)
}

/// The row-major `m × m` matrix taking the share values at `idxs` to the
/// interpolant's coefficients: `matrix[k * m + i]` is coefficient `k` of
/// `w_i · M(x)/(x − x_i)`.
fn interpolation_matrix(idxs: &[usize]) -> Box<[Fp]> {
    let m = idxs.len();
    let weights = subset_weights(idxs);
    let x_of = |i: usize| Fp::new(idxs[i] as u64 + 1);
    let master = Poly::master_coeffs(m, x_of);
    let mut matrix = vec![Fp::ZERO; m * m].into_boxed_slice();
    for (i, &w) in weights.iter().enumerate() {
        // Synthetic division of the master polynomial by (x − x_i).
        let xi = x_of(i);
        let mut carry = master[m];
        for k in (0..m).rev() {
            matrix[k * m + i] = carry * w;
            carry = master[k] + xi * carry;
        }
        debug_assert!(carry.is_zero(), "x_i must be a root of the master poly");
    }
    matrix
}

/// The bitmask of a strictly increasing index list below [`GRID_MAX`], or
/// `None` when the list is unsorted, repeats an index, or leaves the grid.
fn subset_mask(idxs: &[usize]) -> Option<u64> {
    let mut mask = 0u64;
    let mut next = 0usize;
    for &i in idxs {
        if i < next || i >= GRID_MAX {
            return None;
        }
        mask |= 1 << i;
        next = i + 1;
    }
    Some(mask)
}

/// Interpolates the unique polynomial of degree `< idxs.len()` through the
/// share points `(idxs[i] + 1, ys[i])`, in coefficient form.
///
/// # Panics
///
/// Panics if the lengths differ or two indices coincide.
pub fn interpolate_indices(idxs: &[usize], ys: &[Fp]) -> Poly {
    assert_eq!(idxs.len(), ys.len(), "one y per share index");
    let m = idxs.len();
    if m == 0 {
        return Poly::zero();
    }
    let Some(mask) = subset_mask(idxs) else {
        let weights = subset_weights(idxs);
        let x_of = |i: usize| Fp::new(idxs[i] as u64 + 1);
        let master = Poly::master_coeffs(m, x_of);
        return Poly::interpolate_with_master(&master, x_of, |i| ys[i], &weights);
    };
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        let matrix = cache.matrix(mask, idxs);
        Poly::from_coeffs(matrix.chunks_exact(m).map(|row| Fp::dot(row, ys)).collect())
    })
}

/// Horner evaluation, the fallback outside the cached powers table.
fn horner(coeffs: &[Fp], x: Fp) -> Fp {
    coeffs.iter().rev().fold(Fp::ZERO, |acc, &c| acc * x + c)
}

/// Evaluates the polynomial with low-to-high coefficients `coeffs` at
/// grid point `j` (`x = j + 1`).
pub fn eval_index(coeffs: &[Fp], j: usize) -> Fp {
    if j >= GRID_MAX || coeffs.len() > GRID_MAX {
        return horner(coeffs, Fp::new(j as u64 + 1));
    }
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        cache.ensure_powers(j + 1, coeffs.len());
        Fp::dot(coeffs, cache.powers(j, coeffs.len()))
    })
}

/// Evaluates the polynomial with low-to-high coefficients `coeffs` at the
/// first `out.len()` grid points: `out[j] = p(j + 1)`.
pub fn eval_grid(coeffs: &[Fp], out: &mut [Fp]) {
    let n = out.len();
    if n > GRID_MAX || coeffs.len() > GRID_MAX {
        for (j, o) in out.iter_mut().enumerate() {
            *o = horner(coeffs, Fp::new(j as u64 + 1));
        }
        return;
    }
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        cache.ensure_powers(n, coeffs.len());
        for (j, o) in out.iter_mut().enumerate() {
            *o = Fp::dot(coeffs, cache.powers(j, coeffs.len()));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn subset_weights_match_direct_products() {
        for idxs in [vec![0usize, 2, 5, 6, 9], (0..9).collect()] {
            let w = subset_weights(&idxs);
            for (a, &i) in idxs.iter().enumerate() {
                let mut d = Fp::ONE;
                for &j in &idxs {
                    if j != i {
                        d *= Fp::from_i64(i as i64 - j as i64);
                    }
                }
                assert_eq!(w[a], d.inv().unwrap());
            }
        }
    }

    #[test]
    fn interpolate_indices_matches_generic_interpolation() {
        let mut rng = StdRng::seed_from_u64(3);
        for deg in 0..8usize {
            let p = Poly::random_with_secret(Fp::new(99), deg, &mut rng);
            let on_grid = |idxs: &[usize]| -> Vec<Fp> {
                idxs.iter()
                    .map(|&i| p.eval(Fp::new(i as u64 + 1)))
                    .collect()
            };
            // Non-contiguous, contiguous, reversed (fallback) and
            // off-grid (fallback) index sets.
            let sparse: Vec<usize> = (0..=deg).map(|i| i * 2 + 1).collect();
            let prefix: Vec<usize> = (0..=deg).collect();
            let reversed: Vec<usize> = prefix.iter().rev().copied().collect();
            let large: Vec<usize> = (0..=deg).map(|i| 60 + i).collect();
            for idxs in [sparse, prefix, reversed, large] {
                let q = interpolate_indices(&idxs, &on_grid(&idxs));
                assert_eq!(p, q, "deg {deg} idxs {idxs:?}");
                // Second call hits the cached matrix.
                assert_eq!(interpolate_indices(&idxs, &on_grid(&idxs)), p);
            }
        }
    }

    #[test]
    fn grid_evaluation_matches_horner() {
        let mut rng = StdRng::seed_from_u64(4);
        for deg in [0usize, 3, 70] {
            let p = Poly::random_with_secret(Fp::new(5), deg, &mut rng);
            let mut out = vec![Fp::ZERO; 70];
            eval_grid(p.coeffs(), &mut out);
            for (j, &v) in out.iter().enumerate() {
                assert_eq!(v, p.eval(Fp::new(j as u64 + 1)), "deg {deg} j {j}");
                assert_eq!(eval_index(p.coeffs(), j), v, "deg {deg} j {j}");
            }
        }
    }

    #[test]
    fn matrix_budget_clears_and_rebuilds() {
        let mut cache = GridCache::default();
        let all: Vec<usize> = (0..GRID_MAX).collect();
        let reference = interpolation_matrix(&all[1..]);
        // 64 distinct 63-point subsets hold far more than the budget.
        for skip in 0..GRID_MAX {
            let idxs: Vec<usize> = all.iter().copied().filter(|&i| i != skip).collect();
            let mask = u64::MAX ^ (1 << skip);
            assert_eq!(cache.matrix(mask, &idxs), &interpolation_matrix(&idxs)[..]);
            assert!(cache.cells <= MATRIX_CELL_BUDGET);
            assert_eq!(cache.cells, cache.matrices.len() * idxs.len() * idxs.len());
        }
        assert_eq!(cache.matrix(u64::MAX ^ 1, &all[1..]), &reference[..]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_indices_rejected() {
        let _ = interpolate_indices(&[1, 3, 1], &[Fp::ONE; 3]);
    }

    #[test]
    fn empty_interpolation_is_zero() {
        assert!(interpolate_indices(&[], &[]).is_zero());
    }
}
