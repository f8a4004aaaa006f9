//! A minimal in-tree thread pool: a scoped [`parallel_map`] for batches of
//! coarse independent items, and a persistent [`TaskPool`] for services.
//!
//! The workspace is deliberately zero-external-dependency, so instead of
//! `rayon` this module provides the two primitives its callers need.
//! [`parallel_map`] spawns scoped workers that claim items one at a time
//! from a single shared atomic cursor, so a slow item never holds up the
//! rest of the batch. Results are written back by input index, so the
//! output order — and therefore every fold over it — is **identical to
//! the serial map** regardless of thread count or claim schedule. With one
//! worker the map never spawns a thread at all.
//!
//! Thread count resolution ([`num_threads`]): the `KPT_THREADS`
//! environment variable if set to a positive integer, otherwise
//! [`std::thread::available_parallelism`].
//!
//! [`TaskPool`] is a small *persistent* executor for long-running services
//! (kpt-server). Independent boxed jobs are queued behind a bounded
//! injector and drained by a fixed set of workers; [`TaskPool::try_spawn`]
//! refuses work once the queue is full (backpressure the caller turns into
//! a typed `busy` error), and [`TaskPool::shutdown`] drains every queued
//! job before the workers exit (graceful drain). The current injector
//! depth is published on the `pool.queue.depth` gauge.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Number of worker threads [`parallel_map`] uses: `KPT_THREADS` if set to
/// a positive integer, else [`std::thread::available_parallelism`] (1 if
/// even that is unavailable).
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("KPT_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Map `f` over `items` on [`num_threads`] workers, preserving input order.
///
/// Equivalent to `items.iter().map(f).collect()` — same results in the
/// same order — but fanned out across scoped workers. `f` runs exactly
/// once per item. Panics in `f` propagate.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(num_threads(), items, f)
}

/// [`parallel_map`] with an explicit worker count (used by tests to force
/// the multi-threaded path regardless of the machine, and by callers that
/// must stay serial regardless of `KPT_THREADS`).
///
/// # Panics
/// Panics if `threads == 0`.
pub fn parallel_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    assert!(threads >= 1, "thread count must be positive");
    let n = items.len();
    let workers = threads.min(n);
    if workers <= 1 {
        kpt_obs::counter!("pool.serial_maps").incr();
        kpt_obs::counter!("pool.tasks").add(n as u64);
        return items.iter().map(f).collect();
    }

    let span = kpt_obs::span("pool.map");
    let traced = span.is_live();
    // The workers gauge tracks the fan-out of the most recent parallel map.
    kpt_obs::gauge!("pool.workers").set(workers as u64);
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(workers);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    let mut busy_ns = 0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // Per-item timing only when tracing: a clock read
                        // per item is noise in a trace but not in the
                        // always-on path.
                        let t0 = traced.then(std::time::Instant::now);
                        local.push((i, f(&items[i])));
                        if let Some(t0) = t0 {
                            busy_ns += t0.elapsed().as_nanos() as u64;
                        }
                    }
                    let stats = WorkerStats {
                        tasks: local.len() as u64,
                        busy_ns,
                    };
                    (local, stats)
                })
            })
            .collect();
        for h in handles {
            let (local, stats) = h.join().expect("pool worker panicked");
            for (i, r) in local {
                out[i] = Some(r);
            }
            worker_stats.push(stats);
        }
    });

    record_pool_map(span, n, workers, &worker_stats);

    out.into_iter()
        .map(|r| r.expect("every index executed exactly once"))
        .collect()
}

/// Per-worker tallies from one `parallel_map` run.
#[derive(Debug)]
struct WorkerStats {
    tasks: u64,
    /// Nanoseconds spent inside `f` (0 unless the run was traced).
    busy_ns: u64,
}

/// Fold one parallel run's worker tallies into the global `pool.*` metrics
/// and, when traced, close the `pool.map` span with a per-worker breakdown.
fn record_pool_map(mut span: kpt_obs::Span, items: usize, workers: usize, stats: &[WorkerStats]) {
    kpt_obs::counter!("pool.maps").incr();
    kpt_obs::counter!("pool.tasks").add(stats.iter().map(|s| s.tasks).sum());
    if span.is_live() {
        let per_worker = stats
            .iter()
            .enumerate()
            .map(|(w, s)| format!("w{w}: tasks={} busy_us={}", s.tasks, s.busy_ns / 1_000))
            .collect::<Vec<_>>()
            .join("; ");
        span.field("items", items as u64);
        span.field("workers", workers as u64);
        span.field(
            "busy_us_total",
            stats.iter().map(|s| s.busy_ns).sum::<u64>() / 1_000,
        );
        span.field("per_worker", per_worker);
        span.finish();
    }
}

/// One queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The pool refused a job because its queue is at capacity (or the pool
/// is shutting down). Callers surface this as backpressure; the job is
/// handed back untouched so it can be retried or rejected upstream.
pub struct PoolSaturated(pub Job);

impl std::fmt::Debug for PoolSaturated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PoolSaturated(..)")
    }
}

struct TaskPoolState {
    queue: VecDeque<Job>,
    /// Jobs currently executing on a worker.
    active: usize,
    /// No new jobs are accepted; workers exit once the queue drains.
    shutting_down: bool,
}

struct TaskPoolShared {
    state: Mutex<TaskPoolState>,
    /// Signalled when a job is queued or shutdown begins.
    work_ready: Condvar,
    capacity: usize,
}

impl TaskPoolShared {
    fn publish_depth(&self, depth: usize) {
        kpt_obs::gauge!("pool.queue.depth").set(depth as u64);
    }
}

/// A persistent fixed-size executor over the same worker budget as
/// [`parallel_map`]: jobs go into one bounded injector queue, workers pop
/// in FIFO order. Unlike the scoped map this pool outlives any one call —
/// it is the dispatch substrate for long-running services.
///
/// Shutdown is a *drain*: [`TaskPool::shutdown`] (also run on drop) stops
/// accepting work, lets the workers finish everything already queued, and
/// joins them.
pub struct TaskPool {
    shared: Arc<TaskPoolShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl TaskPool {
    /// A pool with `workers` threads (clamped to ≥ 1) and a `capacity`-job
    /// injector queue (clamped to ≥ 1).
    pub fn new(workers: usize, capacity: usize) -> TaskPool {
        let workers = workers.max(1);
        let shared = Arc::new(TaskPoolShared {
            state: Mutex::new(TaskPoolState {
                queue: VecDeque::new(),
                active: 0,
                shutting_down: false,
            }),
            work_ready: Condvar::new(),
            capacity: capacity.max(1),
        });
        kpt_obs::gauge!("pool.workers").set(workers as u64);
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        TaskPool {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Queue `job`, refusing with [`PoolSaturated`] when the injector is
    /// at capacity or the pool is shutting down. Never blocks.
    ///
    /// # Panics
    /// Panics if the queue mutex was poisoned by a panicking job.
    pub fn try_spawn(&self, job: impl FnOnce() + Send + 'static) -> Result<(), PoolSaturated> {
        let job: Job = Box::new(job);
        let mut st = self.shared.state.lock().expect("task pool poisoned");
        if st.shutting_down || st.queue.len() >= self.shared.capacity {
            kpt_obs::counter!("pool.exec.rejected").incr();
            return Err(PoolSaturated(job));
        }
        st.queue.push_back(job);
        let depth = st.queue.len();
        drop(st);
        self.shared.publish_depth(depth);
        kpt_obs::counter!("pool.exec.spawned").incr();
        self.shared.work_ready.notify_one();
        Ok(())
    }

    /// Jobs currently executing on a worker.
    pub fn active(&self) -> usize {
        self.shared.state.lock().expect("task pool poisoned").active
    }

    /// Whether a [`TaskPool::try_spawn`] right now would be refused.
    pub fn is_saturated(&self) -> bool {
        let st = self.shared.state.lock().expect("task pool poisoned");
        st.shutting_down || st.queue.len() >= self.shared.capacity
    }

    /// Graceful drain: refuse new work, run everything already queued to
    /// completion, join the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.state.lock().expect("task pool poisoned");
            st.shutting_down = true;
        }
        self.shared.work_ready.notify_all();
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("task pool poisoned")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &TaskPoolShared) {
    loop {
        let job = {
            let mut st = shared.state.lock().expect("task pool poisoned");
            loop {
                if let Some(job) = st.queue.pop_front() {
                    st.active += 1;
                    shared.publish_depth(st.queue.len());
                    break job;
                }
                if st.shutting_down {
                    return;
                }
                st = shared.work_ready.wait(st).expect("task pool poisoned");
            }
        };
        // A panicking job must not take the worker (or the whole pool)
        // down with it: the server maps panics to error frames upstream,
        // and the pool just keeps serving.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        let mut st = shared.state.lock().expect("task pool poisoned");
        st.active -= 1;
        drop(st);
        kpt_obs::counter!("pool.exec.completed").incr();
        if outcome.is_err() {
            kpt_obs::counter!("pool.exec.panicked").incr();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map_for_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 7, 16] {
            assert_eq!(
                parallel_map_with(threads, &items, |x| x * x + 1),
                expect,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let n = 513;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..n).collect();
        parallel_map_with(8, &items, |&i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn skewed_workloads_keep_input_order() {
        // The heavy items all sit at the front; the other workers take
        // the light tail from the shared cursor and order is preserved.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map_with(4, &items, |&i| {
            if i < 16 {
                let mut acc = i;
                for k in 0..50_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                std::hint::black_box(acc);
            }
            i * 2
        });
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map_with(4, &empty, |&x| x).is_empty());
        assert_eq!(parallel_map_with(4, &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn task_pool_runs_every_job() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = TaskPool::new(4, 1024);
        for _ in 0..200 {
            let done = Arc::clone(&done);
            pool.try_spawn(move || {
                done.fetch_add(1, Ordering::Relaxed);
            })
            .expect("queue has room");
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn task_pool_saturation_refuses_and_drain_completes() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let done = Arc::new(AtomicUsize::new(0));
        let pool = TaskPool::new(1, 2);
        // One job blocks the single worker on the gate…
        {
            let gate = Arc::clone(&gate);
            let done = Arc::clone(&done);
            pool.try_spawn(move || {
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        // …wait for it to be picked up, then fill the 2-slot queue.
        while pool.active() == 0 {
            std::thread::yield_now();
        }
        for _ in 0..2 {
            let done = Arc::clone(&done);
            pool.try_spawn(move || {
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert!(pool.is_saturated());
        let refused = pool.try_spawn(|| {});
        assert!(refused.is_err(), "full queue must refuse work");
        // Open the gate; shutdown must drain both queued jobs.
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn task_pool_survives_panicking_jobs() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = TaskPool::new(2, 64);
        pool.try_spawn(|| panic!("job panics, pool must not"))
            .unwrap();
        for _ in 0..10 {
            let done = Arc::clone(&done);
            pool.try_spawn(move || {
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 10);
    }
}
