//! Deterministic data-parallel execution on scoped threads.
//!
//! The analysis pipeline is embarrassingly parallel per probe, per AS, and
//! per panel, but its outputs must be byte-identical regardless of how many
//! workers run. This crate provides chunked [`par_map`]/[`par_map_flat`]
//! built on [`std::thread::scope`] — no external dependencies — that always
//! reassemble results in input order, so any pure per-item function
//! produces exactly the same output at any thread count.
//!
//! Worker count resolution, highest priority first:
//! 1. a process-wide override set with [`set_threads`] (used by the
//!    `--threads` CLI flags),
//! 2. the `DYNADDR_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! Whichever wins is capped at [`MAX_THREADS`].
//!
//! With one worker every combinator degrades to a plain sequential loop on
//! the calling thread — no scope, no spawns — so single-threaded runs have
//! zero threading overhead.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The most workers a parallel call uses, whatever the override,
/// `DYNADDR_THREADS` or the host ask for. Each worker is a scoped OS
/// thread, so `--threads 100000` must not ask for 100,000 of them.
pub const MAX_THREADS: usize = 256;

/// Cumulative executor telemetry: how parallel regions actually ran.
///
/// Strictly observational — nothing in the executor branches on it, so it
/// cannot affect chunking or output bytes. `tasks_per_worker[i]` counts the
/// items handled by chunk slot `i` (slot, not OS thread: slot 0 is also the
/// calling thread on sequential fast-paths). `spawn_wait_ns` accumulates
/// spawn-to-first-instruction latency — the closest thing a scoped-thread
/// pool has to queue wait. `utilization()` near `1/workers` is the
/// signature of a serialized "parallel" region; near 1.0 means the chunks
/// genuinely overlapped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Parallel regions executed (every par_map/par_fold/par_run call).
    pub regions: u64,
    /// Regions that took the sequential fast-path (threads <= 1 or tiny input).
    pub sequential_regions: u64,
    /// Total items processed across all regions.
    pub tasks: u64,
    /// Items handled per worker slot, summed over regions.
    pub tasks_per_worker: Vec<u64>,
    /// Busy time per worker slot, summed over regions.
    pub busy_ns_per_worker: Vec<u64>,
    /// Wall-clock time summed over regions.
    pub wall_ns: u64,
    /// Total spawn-to-start latency across all spawned workers.
    pub spawn_wait_ns: u64,
    /// Workers actually spawned (0 for sequential fast-path regions).
    pub spawned_workers: u64,
}

impl ExecStats {
    /// Busy time across all workers divided by `wall_ns × slots`; 1.0 means
    /// every slot was busy for the whole region time.
    pub fn utilization(&self) -> f64 {
        let slots = self.busy_ns_per_worker.len().max(1) as f64;
        let busy: u64 = self.busy_ns_per_worker.iter().sum();
        if self.wall_ns == 0 {
            return 0.0;
        }
        busy as f64 / (self.wall_ns as f64 * slots)
    }

    /// Mean spawn-to-start latency per spawned worker, in milliseconds.
    pub fn queue_wait_ms(&self) -> f64 {
        if self.spawned_workers == 0 {
            return 0.0;
        }
        self.spawn_wait_ns as f64 / 1e6 / self.spawned_workers as f64
    }

    fn slot(&mut self, i: usize) -> (&mut u64, &mut u64) {
        if self.tasks_per_worker.len() <= i {
            self.tasks_per_worker.resize(i + 1, 0);
            self.busy_ns_per_worker.resize(i + 1, 0);
        }
        (
            &mut self.tasks_per_worker[i],
            &mut self.busy_ns_per_worker[i],
        )
    }
}

static EXEC_STATS: Mutex<ExecStats> = Mutex::new(ExecStats {
    regions: 0,
    sequential_regions: 0,
    tasks: 0,
    tasks_per_worker: Vec::new(),
    busy_ns_per_worker: Vec::new(),
    wall_ns: 0,
    spawn_wait_ns: 0,
    spawned_workers: 0,
});

/// Snapshot of the cumulative executor telemetry.
pub fn exec_stats() -> ExecStats {
    EXEC_STATS.lock().unwrap().clone()
}

/// Reset the cumulative executor telemetry (benchmark iterations, tests).
pub fn reset_exec_stats() {
    *EXEC_STATS.lock().unwrap() = ExecStats::default();
}

/// Fold one region's per-slot measurements into the global stats. One lock
/// acquisition per region, after workers have joined — never on the item
/// path.
fn record_region(per_slot: &[(u64, u64, u64)], wall_ns: u64, sequential: bool) {
    let mut s = EXEC_STATS.lock().unwrap();
    s.regions += 1;
    if sequential {
        s.sequential_regions += 1;
    } else {
        s.spawned_workers += per_slot.len() as u64;
    }
    s.wall_ns += wall_ns;
    for (i, &(tasks, busy_ns, wait_ns)) in per_slot.iter().enumerate() {
        s.tasks += tasks;
        s.spawn_wait_ns += wait_ns;
        let (t, b) = s.slot(i);
        *t += tasks;
        *b += busy_ns;
    }
}

/// Sets (or with `None` clears) the process-wide worker-count override.
/// Takes precedence over `DYNADDR_THREADS` and the detected parallelism.
pub fn set_threads(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// The worker count the next parallel call will use, at most
/// [`MAX_THREADS`].
pub fn current_threads() -> usize {
    requested_threads().min(MAX_THREADS)
}

fn requested_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(var) = std::env::var("DYNADDR_THREADS") {
        if let Ok(n) = var.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items`, in parallel over contiguous chunks, returning
/// results in input order. Deterministic for pure `f`: the output is
/// identical at any worker count.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = current_threads().min(items.len().max(1));
    let region_start = Instant::now();
    if threads <= 1 {
        let out: Vec<R> = items.iter().map(f).collect();
        let busy = region_start.elapsed().as_nanos() as u64;
        record_region(&[(items.len() as u64, busy, 0)], busy, true);
        return out;
    }
    let chunk_size = items.len().div_ceil(threads);
    let mut measured: Vec<(Vec<R>, u64, u64, u64)> = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| {
                let spawned_at = Instant::now();
                scope.spawn(move || {
                    let wait_ns = spawned_at.elapsed().as_nanos() as u64;
                    let t0 = Instant::now();
                    let out: Vec<R> = chunk.iter().map(f).collect();
                    (
                        out,
                        chunk.len() as u64,
                        t0.elapsed().as_nanos() as u64,
                        wait_ns,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map worker panicked"))
            .collect()
    });
    let wall_ns = region_start.elapsed().as_nanos() as u64;
    let per_slot: Vec<(u64, u64, u64)> = measured
        .iter()
        .map(|&(_, tasks, busy, wait)| (tasks, busy, wait))
        .collect();
    record_region(&per_slot, wall_ns, false);
    let mut out = Vec::with_capacity(items.len());
    for (chunk, ..) in &mut measured {
        out.append(chunk);
    }
    out
}

/// Like [`par_map`] but flattens per-item result vectors, preserving input
/// order: the output equals `items.iter().flat_map(f).collect()`.
pub fn par_map_flat<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Vec<R> + Sync,
{
    let per_item = par_map(items, f);
    let mut out = Vec::with_capacity(per_item.iter().map(Vec::len).sum());
    for mut v in per_item {
        out.append(&mut v);
    }
    out
}

/// Chunked parallel reduction: folds `items` into per-chunk accumulators
/// (each starting from `init()`), then merges the accumulators left to
/// right in chunk order.
///
/// Chunk boundaries depend on the worker count, so the result is identical
/// at any thread count **iff** `(init, merge)` form a monoid and `fold` is
/// compatible with it: `merge` associative, `init()` its identity, and
/// `fold(merge(a, init()), x) == merge(a, fold(init(), x))`. Every
/// concatenation- or counter-shaped reduction (Vec append, sums, per-key
/// map merges) satisfies this; a unit test pins the property for those
/// shapes. With one worker this degrades to a plain sequential fold.
pub fn par_fold<T, A, I, F, M>(items: Vec<T>, init: I, fold: F, merge: M) -> A
where
    T: Send,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(A, T) -> A + Sync,
    M: Fn(A, A) -> A,
{
    let threads = current_threads().min(items.len().max(1));
    let region_start = Instant::now();
    if threads <= 1 {
        let n = items.len() as u64;
        let out = items.into_iter().fold(init(), fold);
        let busy = region_start.elapsed().as_nanos() as u64;
        record_region(&[(n, busy, 0)], busy, true);
        return out;
    }
    let chunk_size = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut rest = items.into_iter();
    loop {
        let chunk: Vec<T> = rest.by_ref().take(chunk_size).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    let measured: Vec<(A, u64, u64, u64)> = std::thread::scope(|scope| {
        let (init, fold) = (&init, &fold);
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let spawned_at = Instant::now();
                scope.spawn(move || {
                    let wait_ns = spawned_at.elapsed().as_nanos() as u64;
                    let t0 = Instant::now();
                    let n = chunk.len() as u64;
                    let acc = chunk.into_iter().fold(init(), fold);
                    (acc, n, t0.elapsed().as_nanos() as u64, wait_ns)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_fold worker panicked"))
            .collect()
    });
    let wall_ns = region_start.elapsed().as_nanos() as u64;
    let per_slot: Vec<(u64, u64, u64)> = measured
        .iter()
        .map(|&(_, tasks, busy, wait)| (tasks, busy, wait))
        .collect();
    record_region(&per_slot, wall_ns, false);
    measured
        .into_iter()
        .map(|(acc, ..)| acc)
        .reduce(merge)
        .expect("at least one chunk")
}

/// Runs a set of heterogeneous tasks, one scoped thread each, returning
/// their results in task order. With one worker the tasks run sequentially
/// on the calling thread. Use for a handful of coarse independent jobs
/// (e.g. the pipeline's figure panels), not for fine-grained items.
pub fn par_run<'env, R: Send>(tasks: Vec<Box<dyn FnOnce() -> R + Send + 'env>>) -> Vec<R> {
    let region_start = Instant::now();
    if current_threads() <= 1 || tasks.len() <= 1 {
        let n = tasks.len() as u64;
        let out: Vec<R> = tasks.into_iter().map(|t| t()).collect();
        let busy = region_start.elapsed().as_nanos() as u64;
        record_region(&[(n, busy, 0)], busy, true);
        return out;
    }
    let measured: Vec<(R, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .into_iter()
            .map(|t| {
                let spawned_at = Instant::now();
                scope.spawn(move || {
                    let wait_ns = spawned_at.elapsed().as_nanos() as u64;
                    let t0 = Instant::now();
                    let out = t();
                    (out, t0.elapsed().as_nanos() as u64, wait_ns)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_run task panicked"))
            .collect()
    });
    let wall_ns = region_start.elapsed().as_nanos() as u64;
    let per_slot: Vec<(u64, u64, u64)> = measured
        .iter()
        .map(|&(_, busy, wait)| (1, busy, wait))
        .collect();
    record_region(&per_slot, wall_ns, false);
    measured.into_iter().map(|(out, ..)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Serializes tests that toggle the global override.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn par_map_matches_sequential_at_every_thread_count() {
        let _guard = LOCK.lock().unwrap();
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 7, 64] {
            set_threads(Some(threads));
            assert_eq!(
                par_map(&items, |x| x * x + 1),
                expected,
                "threads={threads}"
            );
        }
        set_threads(None);
    }

    #[test]
    fn par_map_flat_preserves_order_and_handles_empty_outputs() {
        let _guard = LOCK.lock().unwrap();
        set_threads(Some(3));
        let items: Vec<u32> = (0..100).collect();
        let flat = par_map_flat(&items, |&x| {
            if x % 3 == 0 {
                vec![]
            } else {
                vec![x * 10, x * 10 + 1]
            }
        });
        let expected: Vec<u32> = items
            .iter()
            .flat_map(|&x| {
                if x % 3 == 0 {
                    vec![]
                } else {
                    vec![x * 10, x * 10 + 1]
                }
            })
            .collect();
        assert_eq!(flat, expected);
        set_threads(None);
    }

    #[test]
    fn par_fold_matches_sequential_at_every_thread_count() {
        let _guard = LOCK.lock().unwrap();
        let items: Vec<u64> = (0..1000).collect();
        let expected_sum: u64 = items.iter().sum();
        // Concatenation is the order-sensitive case: any chunk reassembly
        // mistake shows up as a permuted vector.
        let expected_cat: Vec<u64> = items.clone();
        for threads in [1, 2, 3, 4, 7, 64] {
            set_threads(Some(threads));
            let sum = par_fold(items.clone(), || 0u64, |a, x| a + x, |a, b| a + b);
            assert_eq!(sum, expected_sum, "sum at threads={threads}");
            let cat = par_fold(
                items.clone(),
                Vec::new,
                |mut a, x| {
                    a.push(x);
                    a
                },
                |mut a, mut b| {
                    a.append(&mut b);
                    a
                },
            );
            assert_eq!(cat, expected_cat, "concat at threads={threads}");
        }
        set_threads(None);
    }

    #[test]
    fn par_fold_merges_per_key_maps_deterministically() {
        let _guard = LOCK.lock().unwrap();
        let items: Vec<u32> = (0..500).collect();
        let count = |items: Vec<u32>| -> std::collections::BTreeMap<u32, usize> {
            par_fold(
                items,
                std::collections::BTreeMap::new,
                |mut m, x| {
                    *m.entry(x % 7).or_insert(0) += 1;
                    m
                },
                |mut a, b| {
                    for (k, v) in b {
                        *a.entry(k).or_insert(0) += v;
                    }
                    a
                },
            )
        };
        set_threads(Some(1));
        let seq = count(items.clone());
        for threads in [2, 5, 64] {
            set_threads(Some(threads));
            assert_eq!(count(items.clone()), seq, "threads={threads}");
        }
        set_threads(None);
    }

    #[test]
    fn par_fold_empty_input_returns_init() {
        let _guard = LOCK.lock().unwrap();
        set_threads(Some(8));
        let empty: Vec<u8> = Vec::new();
        assert_eq!(par_fold(empty, || 41, |a, _| a, |a, _| a), 41);
        set_threads(None);
    }

    #[test]
    fn par_run_returns_results_in_task_order() {
        let _guard = LOCK.lock().unwrap();
        for threads in [1, 4] {
            set_threads(Some(threads));
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
                .map(|i| Box::new(move || i * 2) as Box<dyn FnOnce() -> usize + Send>)
                .collect();
            assert_eq!(par_run(tasks), vec![0, 2, 4, 6, 8, 10, 12, 14]);
        }
        set_threads(None);
    }

    #[test]
    fn empty_and_single_inputs() {
        let _guard = LOCK.lock().unwrap();
        set_threads(Some(8));
        let empty: Vec<i32> = Vec::new();
        assert!(par_map(&empty, |x| *x).is_empty());
        assert_eq!(par_map(&[5], |x| x + 1), vec![6]);
        set_threads(None);
    }

    #[test]
    fn override_beats_env() {
        let _guard = LOCK.lock().unwrap();
        set_threads(Some(3));
        assert_eq!(current_threads(), 3);
        set_threads(None);
        assert!(current_threads() >= 1);
    }

    #[test]
    fn worker_count_is_capped() {
        // Only resolves the count: no parallel call, so no thread starts.
        let _guard = LOCK.lock().unwrap();
        set_threads(Some(usize::MAX));
        assert_eq!(current_threads(), MAX_THREADS);
        set_threads(Some(MAX_THREADS + 1));
        assert_eq!(current_threads(), MAX_THREADS);
        set_threads(Some(64));
        assert_eq!(current_threads(), 64);
        set_threads(None);
    }

    #[test]
    fn exec_stats_counts_tasks_and_workers() {
        let _guard = LOCK.lock().unwrap();
        set_threads(Some(4));
        reset_exec_stats();
        let items: Vec<u64> = (0..100).collect();
        let _ = par_map(&items, |x| x + 1);
        let s = exec_stats();
        assert_eq!(s.regions, 1);
        assert_eq!(s.sequential_regions, 0);
        assert_eq!(s.tasks, 100);
        assert_eq!(s.tasks_per_worker.iter().sum::<u64>(), 100);
        assert_eq!(s.tasks_per_worker, vec![25, 25, 25, 25]);
        assert_eq!(s.spawned_workers, 4);
        assert!(s.wall_ns > 0);
        assert!(s.utilization() >= 0.0 && s.utilization() <= 1.5);

        set_threads(Some(1));
        let _ = par_map(&items, |x| x + 1);
        let s = exec_stats();
        assert_eq!(s.regions, 2);
        assert_eq!(s.sequential_regions, 1);
        assert_eq!(s.tasks, 200);
        assert_eq!(s.tasks_per_worker[0], 125);

        reset_exec_stats();
        assert_eq!(exec_stats(), ExecStats::default());
        set_threads(None);
    }

    #[test]
    fn exec_stats_does_not_change_results() {
        let _guard = LOCK.lock().unwrap();
        let items: Vec<u64> = (0..777).collect();
        set_threads(Some(1));
        let seq = par_fold(
            items.clone(),
            || 0u64,
            |a, x| a ^ x.rotate_left(7),
            |a, b| a ^ b,
        );
        set_threads(Some(6));
        let par = par_fold(items, || 0u64, |a, x| a ^ x.rotate_left(7), |a, b| a ^ b);
        assert_eq!(seq, par);
        set_threads(None);
    }

    proptest! {
        /// par_map must agree with the sequential map for arbitrary inputs
        /// and worker counts, in content and in order.
        #[test]
        fn par_map_equals_vec_map(
            items in proptest::collection::vec(any::<u32>(), 0..300),
            threads in 1usize..9,
        ) {
            let _guard = LOCK.lock().unwrap();
            set_threads(Some(threads));
            let par: Vec<u64> = par_map(&items, |&x| x as u64 * 3 + 7);
            set_threads(None);
            let seq: Vec<u64> = items.iter().map(|&x| x as u64 * 3 + 7).collect();
            prop_assert_eq!(par, seq);
        }
    }
}
