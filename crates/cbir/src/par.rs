//! Deterministic chunked parallelism for the offline CBIR kernels.
//!
//! The same contract as `reach-bench::ScenarioRunner`, applied inside a
//! kernel: work is cut into **items whose boundaries never depend on the
//! worker count** (fixed-size row chunks, or one PQ subspace's Lloyd loop),
//! every item writes a disjoint slice of the output, and each output
//! element is produced by exactly the same scalar code (same
//! floating-point accumulation order) whether the item runs on the calling
//! thread or a spawned one. Results are therefore byte-identical
//! at any worker count — there is nothing to re-verify when the machine or
//! `REACH_KERNEL_JOBS` changes, which is what lets the experiments suite
//! keep its byte-identical-stdout determinism contract while the kernels
//! fan out.
//!
//! Items are pre-partitioned round-robin instead of pulled from a shared
//! queue: the items of one kernel call are uniform in cost, so work
//! stealing would buy nothing and dynamic assignment would add
//! synchronization for zero benefit (scheduling still cannot change the
//! result — it would only add atomics to prove it).

use std::sync::OnceLock;

/// Rows per work unit. Fixed: chunk *boundaries* must not depend on the
/// worker count, or per-chunk code could see different slice extents.
pub(crate) const CHUNK_ROWS: usize = 64;

/// Worker threads used by the parallel kernels: `REACH_KERNEL_JOBS` if set
/// (use `1` to force the sequential path), otherwise the machine's available
/// parallelism.
pub(crate) fn kernel_jobs() -> usize {
    static JOBS: OnceLock<usize> = OnceLock::new();
    *JOBS.get_or_init(|| {
        std::env::var("REACH_KERNEL_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// Runs `work` over every item, fanning out across up to `jobs` threads:
/// the calling thread and up to `jobs - 1` scoped ones. Item `i` goes to
/// worker `i % jobs` (round-robin), so the partition is a pure function of
/// the item list and the job count — and since each item owns a disjoint
/// `&mut` output slice, the result does not depend on the partition at
/// all. The last bucket runs on the calling thread.
pub(crate) fn run_items<I, F>(items: Vec<I>, jobs: usize, work: F)
where
    I: Send,
    F: Fn(I) + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        for item in items {
            work(item);
        }
        return;
    }
    let workers = jobs.min(items.len());
    let mut buckets: Vec<Vec<I>> = Vec::with_capacity(workers);
    buckets.resize_with(workers, Vec::new);
    for (i, item) in items.into_iter().enumerate() {
        buckets[i % workers].push(item);
    }
    let last = buckets.pop().expect("at least two workers");
    let work = &work;
    std::thread::scope(|scope| {
        for bucket in buckets {
            scope.spawn(move || {
                for item in bucket {
                    work(item);
                }
            });
        }
        for item in last {
            work(item);
        }
    });
}

/// `f(i)` for every row index `i < rows`, computed in fixed
/// [`CHUNK_ROWS`]-row chunks across [`kernel_jobs`] workers. Each output is
/// produced by the same call whichever worker runs its chunk, so the
/// vector is identical at any worker count.
pub(crate) fn map_rows<T, F>(rows: usize, f: F) -> Vec<T>
where
    T: Default + Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<T> = (0..rows).map(|_| T::default()).collect();
    let chunks: Vec<(usize, &mut [T])> = out
        .chunks_mut(CHUNK_ROWS)
        .enumerate()
        .map(|(ch, slice)| (ch * CHUNK_ROWS, slice))
        .collect();
    run_items(chunks, kernel_jobs(), |(row0, slice)| {
        for (off, slot) in slice.iter_mut().enumerate() {
            *slot = f(row0 + off);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_items_run_exactly_once() {
        let n = 1000;
        let mut out = vec![0u32; n];
        let items: Vec<(usize, &mut u32)> = out.iter_mut().enumerate().collect();
        run_items(items, 4, |(i, slot)| *slot = i as u32 + 1);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u32 + 1);
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let n = 257;
        let mut seq = vec![0u64; n];
        let mut par = vec![0u64; n];
        run_items(seq.iter_mut().enumerate().collect(), 1, |(i, s)| {
            *s = (i as u64).wrapping_mul(0x9e37_79b9)
        });
        run_items(par.iter_mut().enumerate().collect(), 7, |(i, s)| {
            *s = (i as u64).wrapping_mul(0x9e37_79b9)
        });
        assert_eq!(seq, par);
    }
}
