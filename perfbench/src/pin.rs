//! Keeping set-ups on one CPU.
//!
//! A set-up hands work between threads (the atlas's fan-out, the reactor
//! and the generator), and on a virtual machine a wake-up across CPUs
//! costs an amount that drifts from minute to minute. Set-ups therefore
//! run with the whole process on one CPU, so that `setup_s` counts their
//! work rather than that drift; the timed passes run on every CPU. When
//! the kernel refuses the Linux affinity calls, nothing is pinned.

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn get() -> Option<CpuSet> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// Sets the CPUs of thread `tid` (0: the calling thread).
fn set(tid: i32, mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a readable buffer of the size passed.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), mask.as_ptr()) == 0 }
}

/// The ids of the process's threads.
fn threads() -> Vec<i32> {
    std::fs::read_dir("/proc/self/task")
        .map(|tasks| {
            tasks
                .flatten()
                .filter_map(|t| t.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// The lowest CPU of `mask` alone.
fn first_cpu(mask: &CpuSet) -> Option<CpuSet> {
    let word = mask.iter().position(|&w| w != 0)?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << mask[word].trailing_zeros();
    Some(one)
}

/// Threads placed until this is dropped.
pub struct Pinned {
    all: Option<CpuSet>,
}

impl Pinned {
    /// Moves the calling thread, and so every thread it starts from now
    /// on, to the lowest of its allowed CPUs.
    pub fn one_cpu() -> Pinned {
        let all = get();
        let pinned = all
            .as_ref()
            .and_then(first_cpu)
            .is_some_and(|one| set(0, &one));
        Pinned {
            all: all.filter(|_| pinned),
        }
    }
}

impl Drop for Pinned {
    /// Gives every thread of the process, including those started while
    /// pinned, all the CPUs the process had before.
    fn drop(&mut self) {
        let Some(all) = self.all else { return };
        set(0, &all);
        for tid in threads() {
            set(tid, &all);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn first_cpu_keeps_the_lowest_bit() {
        let mut mask: CpuSet = [0; 16];
        mask[1] = 0b1100;
        mask[3] = 0b101;
        let one = first_cpu(&mask).expect("a CPU");
        assert_eq!(
            (one[1], one.iter().filter(|&&w| w != 0).count()),
            (0b100, 1)
        );
        assert_eq!(first_cpu(&[0; 16]), None);
    }

    /// Pins with a thread started before and one started while pinned;
    /// returns the masks the caller and the two threads had while pinned,
    /// and checks that all get every CPU back.
    fn placed() -> Option<(CpuSet, CpuSet, CpuSet, CpuSet)> {
        let before = get()?;
        let worker = || {
            let (mask_tx, mask_rx) = mpsc::channel();
            let (go_tx, go_rx) = mpsc::channel::<()>();
            let handle = std::thread::spawn(move || {
                go_rx.recv().expect("asked");
                mask_tx.send(get()).expect("test alive");
                go_rx.recv().expect("released");
                get()
            });
            (go_tx, mask_rx, handle)
        };
        let early = worker();
        let guard = Pinned::one_cpu();
        let late = worker();
        let mine = get()?;
        let mut pinned = Vec::new();
        for (go, mask, _) in [&early, &late] {
            go.send(()).expect("worker alive");
            pinned.push(mask.recv().expect("worker's mask")?);
        }
        drop(guard);
        assert_eq!(get(), Some(before), "the caller is restored");
        for (go, _, handle) in [early, late] {
            go.send(()).expect("worker alive");
            assert_eq!(handle.join().expect("worker"), Some(before), "restored");
        }
        Some((before, mine, pinned[0], pinned[1]))
    }

    #[test]
    fn one_cpu_holds_the_caller_and_the_threads_it_starts() {
        let Some((before, mine, early, late)) = placed() else {
            return;
        };
        assert_eq!(Some(mine), first_cpu(&before));
        assert_eq!(early, before, "a thread started before is left alone");
        assert_eq!(late, mine, "a thread started while pinned inherits it");
    }
}
