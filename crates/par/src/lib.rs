//! # cbsp-par — scoped thread pool with deterministic reduction
//!
//! The workspace's shared parallel substrate. Every hot path that fans
//! out — the k×restart clustering grid, per-binary profiling, the
//! Lloyd assignment loop, per-binary detailed simulation — goes through
//! this crate instead of hand-rolled `std::thread::scope` worker loops.
//!
//! Two design rules make the parallelism safe to use anywhere in the
//! pipeline:
//!
//! 1. **Determinism by construction.** Work is expressed as fixed-size
//!    chunks of an index range. Chunk boundaries depend only on the
//!    input size (never on the thread count), each chunk is folded
//!    serially, and partial results are merged *in chunk order* on the
//!    caller's thread. Floating-point reductions therefore associate
//!    identically at any thread count: `threads = 1` and `threads = 64`
//!    produce bit-identical results.
//! 2. **No unsafe, no dependencies.** Workers are scoped threads
//!    (`std::thread::scope`); results land in per-slot mutexes indexed
//!    by job id, so no ordering is ever inferred from completion order.
//!
//! A [`Pool`] is a lightweight handle (just a thread count); it spawns
//! scoped workers per parallel call. That makes it freely shareable and
//! nestable — inner code running on a worker can itself hold a serial
//! pool — at the cost of a per-call spawn (~tens of microseconds per
//! thread), which the intended call sites (whole k-means runs, whole
//! program simulations, Lloyd iterations over thousands of points)
//! amortize comfortably. Calls with a single chunk or a single job
//! run inline on the caller's thread, so small inputs never pay for
//! threads they cannot use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Estimated serial work, in nanoseconds, below which a parallel
/// fan-out costs more in scoped-thread spawn and queue overhead than
/// it can possibly save. The per-call spawn cost is on the order of
/// tens of microseconds per worker; one millisecond of total work is
/// the point where an 8-way fan-out reliably wins.
pub const PARALLEL_WORK_THRESHOLD_NS: u64 = 1_000_000;

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Default number of index elements per chunk for chunked operations.
///
/// Fixed (never derived from the thread count) so that reduction trees
/// — and therefore floating-point results — are identical at any
/// parallelism level.
pub const DEFAULT_CHUNK: usize = 1024;

/// Number of worker threads the machine offers (≥ 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A shareable handle describing how much parallelism to use.
///
/// `Pool` is cheap to create and copy; it owns no threads. Each
/// parallel call spawns scoped workers for its own duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::auto()
    }
}

impl Pool {
    /// A pool with `threads` workers; `0` means
    /// [`available_threads()`].
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: if threads == 0 {
                available_threads()
            } else {
                threads
            },
        }
    }

    /// A pool sized to the machine.
    pub fn auto() -> Pool {
        Pool::new(0)
    }

    /// A single-threaded pool: every call runs inline on the caller.
    pub fn serial() -> Pool {
        Pool { threads: 1 }
    }

    /// Worker count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` if this pool never spawns.
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Downgrades to a serial pool when a fan-out cannot pay for
    /// itself: either `estimated_serial_ns` of total work is too small
    /// to amortize the spawn/queue overhead (below
    /// [`PARALLEL_WORK_THRESHOLD_NS`]), or the machine offers a single
    /// hardware thread — workers can never actually run concurrently
    /// there, so a fan-out of any size only adds overhead. Otherwise
    /// returns `self` unchanged.
    ///
    /// Stages whose cost can be estimated up front (the map stages,
    /// from instruction and boundary counts) use this to skip pool
    /// fan-out entirely instead of paying more in spawn and queue wait
    /// than the work itself costs: 4 jobs of ~15 µs each pay ~100 µs
    /// of spawn overhead, and on a single hardware thread every
    /// fan-out is pure overhead.
    pub fn for_work(&self, estimated_serial_ns: u64) -> Pool {
        if estimated_serial_ns < PARALLEL_WORK_THRESHOLD_NS || available_threads() == 1 {
            Pool::serial()
        } else {
            *self
        }
    }

    /// Splits `self.threads()` among `outer` concurrent callers: the
    /// pool an inner computation should use when `outer` of them run
    /// side by side (≥ 1 thread each).
    pub fn split(&self, outer: usize) -> Pool {
        Pool {
            threads: (self.threads / outer.max(1)).max(1),
        }
    }

    /// Runs `f(i)` for every `i` in `0..n` and returns the results in
    /// index order. Jobs are claimed dynamically by up to
    /// `min(threads, n)` scoped workers; with one worker (or one job)
    /// everything runs inline, in order, on the caller's thread.
    ///
    /// Each `f(i)` must be a pure function of `i` for the output to be
    /// deterministic — the pool guarantees placement, not purity.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job.
    pub fn run_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.threads.min(n);
        if workers <= 1 {
            cbsp_trace::add("pool/jobs_inline", n as u64);
            return (0..n).map(f).collect();
        }
        // When tracing is on, each worker accumulates its queue-wait
        // (claim time minus fan-out start — time the job sat waiting
        // while workers were busy or still spawning) and execute time
        // locally, then merges once into the global counters. When
        // off, `submitted` is `None` and the loop takes no clock
        // readings at all.
        let submitted = cbsp_trace::enabled().then(Instant::now);
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut jobs = 0u64;
                    let mut queue_wait_ns = 0u64;
                    let mut exec_ns = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        if let Some(t0) = submitted {
                            let claimed = Instant::now();
                            queue_wait_ns = queue_wait_ns.saturating_add(elapsed_ns(t0));
                            let result = f(i);
                            exec_ns = exec_ns.saturating_add(elapsed_ns(claimed));
                            jobs += 1;
                            *slots[i].lock().expect("worker slot lock") = Some(result);
                        } else {
                            let result = f(i);
                            *slots[i].lock().expect("worker slot lock") = Some(result);
                        }
                    }
                    if submitted.is_some() {
                        cbsp_trace::add("pool/jobs_executed", jobs);
                        cbsp_trace::add("pool/queue_wait_ns", queue_wait_ns);
                        cbsp_trace::add("pool/exec_ns", exec_ns);
                    }
                });
            }
            if submitted.is_some() {
                cbsp_trace::add("pool/fan_outs", 1);
                cbsp_trace::add("pool/workers_spawned", workers as u64);
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("worker slot lock")
                    .expect("every job ran")
            })
            .collect()
    }

    /// Splits `0..n` into [`chunk_ranges`]-style chunks of `chunk`
    /// elements, folds each chunk with `fold`, and returns the per-chunk
    /// results **in chunk order**.
    ///
    /// The chunk layout depends only on `(n, chunk)`, so any
    /// fold-then-merge built on top of this is bit-identical at every
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero; propagates panics from `fold`.
    pub fn map_chunks<A, F>(&self, n: usize, chunk: usize, fold: F) -> Vec<A>
    where
        A: Send,
        F: Fn(Range<usize>) -> A + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        let chunks = n.div_ceil(chunk);
        self.run_indexed(chunks, |c| {
            let start = c * chunk;
            fold(start..(start + chunk).min(n))
        })
    }

    /// Deterministic chunked reduction over `0..n`: folds each chunk
    /// serially with `fold`, then merges the partials in chunk order on
    /// the caller's thread. Returns `None` when `n == 0`.
    ///
    /// This is the reduction primitive behind the parallel Lloyd update
    /// step: per-chunk partial centroid sums merged left-to-right give
    /// the same floating-point sum regardless of which worker computed
    /// which chunk.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero; propagates panics from the closures.
    pub fn reduce_chunks<A, F, M>(&self, n: usize, chunk: usize, fold: F, mut merge: M) -> Option<A>
    where
        A: Send,
        F: Fn(Range<usize>) -> A + Sync,
        M: FnMut(A, A) -> A,
    {
        let mut partials = self.map_chunks(n, chunk, fold).into_iter();
        let first = partials.next()?;
        Some(partials.fold(first, &mut merge))
    }
}

/// The chunk layout [`Pool::map_chunks`] uses: consecutive
/// `chunk`-sized ranges covering `0..n` (last one possibly short).
pub fn chunk_ranges(n: usize, chunk: usize) -> impl Iterator<Item = Range<usize>> {
    assert!(chunk > 0, "chunk size must be positive");
    (0..n.div_ceil(chunk)).map(move |c| {
        let start = c * chunk;
        start..(start + chunk).min(n)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_preserves_order() {
        let _guard = cbsp_trace::test_lock();
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            let out = pool.run_indexed(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_indexed_handles_empty_and_single() {
        let _guard = cbsp_trace::test_lock();
        let pool = Pool::new(4);
        assert_eq!(pool.run_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn chunk_layout_is_thread_independent() {
        let ranges: Vec<_> = chunk_ranges(10, 4).collect();
        assert_eq!(ranges, vec![0..4, 4..8, 8..10]);
        assert_eq!(chunk_ranges(0, 4).count(), 0);
        assert_eq!(chunk_ranges(4, 4).collect::<Vec<_>>(), vec![0..4]);
    }

    #[test]
    fn reduction_is_bit_identical_across_thread_counts() {
        let _guard = cbsp_trace::test_lock();
        // A floating-point sum whose value depends on association
        // order: if chunking or merge order varied with the thread
        // count, these results would differ in the low bits.
        let values: Vec<f64> = (0..10_000)
            .map(|i| ((i * 2_654_435_761_usize) % 1_000_003) as f64 * 1e-7 + 1e9)
            .collect();
        let sum_with = |threads: usize| {
            Pool::new(threads)
                .reduce_chunks(
                    values.len(),
                    64,
                    |r| r.map(|i| values[i]).fold(0.0f64, |a, b| a + b),
                    |a, b| a + b,
                )
                .expect("nonempty")
        };
        let s1 = sum_with(1);
        for threads in [2, 3, 5, 8, 16] {
            assert_eq!(s1.to_bits(), sum_with(threads).to_bits());
        }
    }

    #[test]
    fn reduce_chunks_empty_is_none() {
        let _guard = cbsp_trace::test_lock();
        let pool = Pool::new(4);
        assert_eq!(
            pool.reduce_chunks(0, 8, |_| 0.0f64, |a: f64, b| a + b),
            None
        );
    }

    #[test]
    fn split_distributes_threads() {
        let pool = Pool::new(8);
        assert_eq!(pool.split(2).threads(), 4);
        assert_eq!(pool.split(3).threads(), 2);
        assert_eq!(pool.split(100).threads(), 1);
        assert_eq!(pool.split(0).threads(), 8);
    }

    #[test]
    fn zero_means_auto() {
        assert_eq!(Pool::new(0).threads(), available_threads());
        assert!(Pool::serial().is_serial());
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_panics() {
        let _guard = cbsp_trace::test_lock();
        let _ = Pool::serial().map_chunks(10, 0, |r| r.len());
    }

    #[test]
    fn for_work_gates_small_fan_outs() {
        let pool = Pool::new(8);
        assert!(pool.for_work(0).is_serial());
        assert!(pool.for_work(PARALLEL_WORK_THRESHOLD_NS - 1).is_serial());
        if available_threads() > 1 {
            assert_eq!(pool.for_work(PARALLEL_WORK_THRESHOLD_NS), pool);
            assert_eq!(pool.for_work(u64::MAX), pool);
        } else {
            // One hardware thread: no estimate justifies a fan-out.
            assert!(pool.for_work(u64::MAX).is_serial());
        }
        // A serial pool stays serial regardless of the estimate.
        assert!(Pool::serial().for_work(u64::MAX).is_serial());
    }

    #[test]
    fn trace_counters_merge_exactly_under_concurrent_jobs() {
        let _guard = cbsp_trace::test_lock();
        cbsp_trace::enable();
        cbsp_trace::reset();
        let out = Pool::new(8).run_indexed(200, |i| {
            cbsp_trace::add("par/test_jobs", 1);
            i * 3
        });
        Pool::serial().run_indexed(5, |_| ());
        let snap = cbsp_trace::snapshot();
        cbsp_trace::disable();
        cbsp_trace::reset();
        assert_eq!(out, (0..200).map(|i| i * 3).collect::<Vec<_>>());
        // Per-job increments from 8 concurrent workers merge without
        // loss, and the pool's own batched counters agree.
        assert_eq!(snap.counters["par/test_jobs"], 200);
        assert_eq!(snap.counters["pool/jobs_executed"], 200);
        assert_eq!(snap.counters["pool/jobs_inline"], 5);
        assert_eq!(snap.counters["pool/fan_outs"], 1);
        assert_eq!(snap.counters["pool/workers_spawned"], 8);
        assert!(snap.counters.contains_key("pool/exec_ns"));
        assert!(snap.counters.contains_key("pool/queue_wait_ns"));
    }

    #[test]
    fn tracing_does_not_change_results() {
        let _guard = cbsp_trace::test_lock();
        let values: Vec<f64> = (0..5000).map(|i| (i as f64).sin() * 1e6).collect();
        let sum = |pool: &Pool| {
            pool.reduce_chunks(
                values.len(),
                64,
                |r| r.map(|i| values[i]).fold(0.0f64, |a, b| a + b),
                |a, b| a + b,
            )
            .expect("nonempty")
        };
        let pool = Pool::new(8);
        cbsp_trace::disable();
        let off = sum(&pool);
        cbsp_trace::enable();
        cbsp_trace::reset();
        let on = sum(&pool);
        cbsp_trace::disable();
        cbsp_trace::reset();
        assert_eq!(off.to_bits(), on.to_bits());
    }

    #[test]
    fn worker_panics_propagate() {
        let _guard = cbsp_trace::test_lock();
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).run_indexed(16, |i| {
                if i == 7 {
                    panic!("job 7 exploded");
                }
                i
            })
        });
        assert!(result.is_err());
    }
}
