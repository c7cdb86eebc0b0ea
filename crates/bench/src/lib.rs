//! Shared helpers for the benchmark harness and the `experiments` binary.
//!
//! Every quantitative claim of the paper maps to an experiment E1–E11 (see
//! DESIGN.md §4). The experiments and the Criterion benches configure their
//! games through the `Scenario` builder in `mediator_core::scenario`, the
//! one validated way to run a cheap-talk or mediator game; this crate adds
//! only the input vectors they share, the E5 scaling fit, and the
//! [`measure`] timing helpers.

pub mod measure;

use mediator_field::Fp;

/// Bit inputs `1,0,1,0,...` (scheduler-sensitive majority for odd n).
pub fn alternating_inputs(n: usize) -> Vec<Vec<Fp>> {
    (0..n).map(|i| vec![Fp::new((i % 2 == 0) as u64)]).collect()
}

/// All-ones inputs (scheduler-proof majority).
pub fn ones_inputs(n: usize) -> Vec<Vec<Fp>> {
    vec![vec![Fp::ONE]; n]
}

/// Least-squares slope of `log y` against `log x` — the fitted scaling
/// exponent used by the E5 tables.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_exact_power_law() {
        let pts: Vec<(f64, f64)> = (1..=5).map(|i| (i as f64, (i as f64).powi(3))).collect();
        assert!((loglog_slope(&pts) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn input_vectors_have_one_bit_per_player() {
        assert_eq!(
            alternating_inputs(3),
            vec![vec![Fp::ONE], vec![Fp::ZERO], vec![Fp::ONE]]
        );
        assert_eq!(ones_inputs(4), vec![vec![Fp::ONE]; 4]);
    }
}
