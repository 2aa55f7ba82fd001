//! Deterministic parallel execution of independent experiment runs.
//!
//! The paper's evaluation is dozens of independent `(profile, RunConfig) →
//! RunResult` simulations — per workload, per system variant, per sweep
//! point. Each run is a pure function of its configuration and seed (the
//! same-seed bit-identity guarantee the tier-1 gate pins), so fanning them out
//! across threads cannot change any result; it only changes wall-clock
//! time. [`JobPool`] exploits that: a zero-dependency work-sharing pool
//! over [`std::thread::scope`] that executes a job list on a bounded
//! number of workers and returns results **in input order**, byte-for-byte
//! identical to a sequential run.
//!
//! Worker count resolution, strongest first:
//!
//! 1. [`set_global_jobs`] (the CLI's `--jobs` flag, test harnesses);
//! 2. the `STARNUMA_JOBS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! Harness entry points validate `STARNUMA_JOBS` via [`JobPool::from_env`]
//! and fail loudly on garbage; [`JobPool::global`], which can be reached
//! from deep inside library code, treats an unparsable value as unset
//! rather than panicking.
//!
//! No wall-clock feeds any *result* (SN002): the pool schedules *host*
//! threads, while every simulated timestamp stays virtual and is derived
//! only from the run's own configuration. The one deliberate exception is
//! the opt-in progress meter ([`set_progress`], the CLI's `--progress`
//! flag), which reads host time through `starnuma_prof::SessionTimer`
//! purely for the operator-facing ETA printed to stderr — it never
//! touches a simulated quantity.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use starnuma_prof::SessionTimer;
use starnuma_types::StarNumaError;

/// Process-wide worker-count override; 0 means "not set".
static GLOBAL_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Whether top-level fan-outs report progress on stderr.
static PROGRESS: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Whether the current thread is itself a pool worker. Nested
    /// [`JobPool::run`] calls (a sweep point whose experiment tunes its
    /// baseline pair, say) then run inline: the worker budget is global,
    /// not per-level, so `--jobs 4` means at most 4 concurrent runs — not
    /// 4 × 2 × 2 threads time-slicing each other off the same cores.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Overrides the worker count used by [`JobPool::global`] for the rest of
/// the process (clamped to at least 1). Intended for harness entry points:
/// the CLI's `--jobs` flag and determinism tests. Later calls win.
pub fn set_global_jobs(workers: usize) {
    GLOBAL_JOBS.store(workers.max(1), Ordering::SeqCst);
}

/// Enables (or disables) progress reporting for the rest of the process:
/// every subsequent *top-level* [`JobPool::run`] fan-out of more than one
/// job prints `k/n runs complete` lines with an ETA to stderr as results
/// land. Nested fan-outs (a sweep point tuning its baseline pair) stay
/// silent — only the outermost job list is the operator-visible unit of
/// work. Off by default; the CLI's `--progress` flag turns it on.
pub fn set_progress(enabled: bool) {
    PROGRESS.store(enabled, Ordering::SeqCst);
}

/// Counts completed jobs of one top-level fan-out and prints progress/ETA
/// lines to stderr. Its host wall-clock feeds *only* the operator ETA —
/// never a simulated quantity.
struct ProgressMeter {
    total: usize,
    done: AtomicUsize,
    timer: SessionTimer,
}

impl ProgressMeter {
    fn new(total: usize) -> Self {
        ProgressMeter {
            total,
            done: AtomicUsize::new(0),
            timer: SessionTimer::start(),
        }
    }

    /// Records one finished job and reports. Called from worker threads;
    /// `eprintln!` takes a lock per call, so concurrent lines never shear.
    #[expect(clippy::print_stderr, reason = "operator-facing progress, stderr only")]
    fn tick(&self) {
        let done = self.done.fetch_add(1, Ordering::SeqCst) + 1;
        let elapsed = self.timer.elapsed_ns() as f64 / 1e9;
        if done < self.total {
            let eta = elapsed / done as f64 * (self.total - done) as f64;
            eprintln!(
                "starnuma: {done}/{} runs complete, ETA ~{eta:.0}s",
                self.total
            );
        } else {
            eprintln!(
                "starnuma: {done}/{} runs complete in {elapsed:.1}s",
                self.total
            );
        }
    }
}

/// Parses `STARNUMA_JOBS`; `Ok(None)` when unset.
///
/// # Errors
///
/// Returns [`StarNumaError`] when the variable is set but is not a
/// positive integer — a misconfigured harness run must not silently fall
/// back to a default.
fn env_jobs() -> Result<Option<usize>, StarNumaError> {
    match std::env::var("STARNUMA_JOBS") {
        Err(_) => Ok(None),
        Ok(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(StarNumaError::new(format!(
                "STARNUMA_JOBS = '{v}': must be a positive integer"
            ))),
        },
    }
}

/// The host's available parallelism, defaulting to 1 when unknown.
#[expect(
    clippy::disallowed_methods,
    reason = "sizes the worker pool only; merge order is fixed, results never differ"
)]
fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A bounded, order-preserving parallel runner for independent jobs.
///
/// # Examples
///
/// ```
/// use starnuma::JobPool;
///
/// let squares = JobPool::new(4).run(vec![1u64, 2, 3, 4, 5], |_, n| n * n);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JobPool {
    workers: usize,
}

impl JobPool {
    /// Creates a pool with a fixed worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        JobPool {
            workers: workers.max(1),
        }
    }

    /// Creates a pool from `STARNUMA_JOBS`, defaulting to the host's
    /// available parallelism when unset. Harness entry points call this
    /// once so a typo in the variable fails the run instead of silently
    /// changing the worker count.
    ///
    /// # Errors
    ///
    /// Returns [`StarNumaError`] when `STARNUMA_JOBS` is set to
    /// anything but a positive integer.
    pub fn from_env() -> Result<Self, StarNumaError> {
        Ok(match env_jobs()? {
            Some(n) => JobPool::new(n),
            None => JobPool::new(default_parallelism()),
        })
    }

    /// The pool every multi-run library path uses: the [`set_global_jobs`]
    /// override if set, else `STARNUMA_JOBS`, else available parallelism.
    /// An unparsable `STARNUMA_JOBS` counts as unset here — validation
    /// happens at harness entry via [`JobPool::from_env`].
    pub fn global() -> Self {
        let n = GLOBAL_JOBS.load(Ordering::SeqCst);
        if n > 0 {
            return JobPool::new(n);
        }
        match env_jobs() {
            Ok(Some(n)) => JobPool::new(n),
            _ => JobPool::new(default_parallelism()),
        }
    }

    /// The worker count this pool fans out to.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` over every job and returns the results **in input order**.
    ///
    /// Jobs are handed to workers dynamically (a shared queue, so a slow
    /// job does not idle the other workers), but each result is written to
    /// the slot of its input index: the output is independent of worker
    /// count and scheduling, and — because every job is a pure function of
    /// its input — bit-identical to a sequential run. `f` also receives
    /// the job's input index for labelling.
    ///
    /// With one worker, at most one job, or when called from inside
    /// another pool's worker (nesting — see the module docs), everything
    /// runs inline on the caller's thread and no threads are spawned.
    ///
    /// # Panics
    ///
    /// If `f` panics on any job, the panic is re-raised on the calling
    /// thread (after the remaining workers wind down) with its original
    /// payload.
    pub fn run<T, R, F>(&self, jobs: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = jobs.len();
        let workers = self.workers.min(n);
        let nested = IN_WORKER.with(Cell::get);
        let meter =
            (PROGRESS.load(Ordering::SeqCst) && !nested && n > 1).then(|| ProgressMeter::new(n));
        if workers <= 1 || nested {
            return jobs
                .into_iter()
                .enumerate()
                .map(|(i, j)| {
                    let r = f(i, j);
                    if let Some(m) = &meter {
                        m.tick();
                    }
                    r
                })
                .collect();
        }
        let queue = Mutex::new(jobs.into_iter().enumerate());
        let queue = &queue;
        let f = &f;
        let meter = &meter;
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(move || {
                        IN_WORKER.with(|flag| flag.set(true));
                        let mut done: Vec<(usize, R)> = Vec::new();
                        loop {
                            let next = match queue.lock() {
                                Ok(mut q) => q.next(),
                                // A poisoned queue means another worker
                                // panicked mid-`next`; stop taking work and
                                // let the join below propagate the panic.
                                Err(_) => None,
                            };
                            let Some((i, job)) = next else { break };
                            done.push((i, f(i, job)));
                            if let Some(m) = meter {
                                m.tick();
                            }
                        }
                        done
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(done) => {
                        for (i, r) in done {
                            slots[i] = Some(r);
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        let out: Vec<R> = slots.into_iter().flatten().collect();
        assert_eq!(out.len(), n, "JobPool lost results");
        out
    }
}

impl Default for JobPool {
    /// Equivalent to [`JobPool::global`].
    fn default() -> Self {
        JobPool::global()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let jobs: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = jobs.iter().map(|n| n * 3 + 1).collect();
        for workers in [1, 2, 4, 16, 200] {
            let got = JobPool::new(workers).run(jobs.clone(), |_, n| n * 3 + 1);
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn passes_the_input_index() {
        let got = JobPool::new(4).run(vec!["a", "b", "c"], |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn empty_and_single_job_lists_work() {
        let empty: Vec<u32> = Vec::new();
        assert!(JobPool::new(8).run(empty, |_, n: u32| n).is_empty());
        assert_eq!(JobPool::new(8).run(vec![7u32], |_, n| n + 1), vec![8]);
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(JobPool::new(0).workers(), 1);
        assert_eq!(JobPool::new(3).workers(), 3);
    }

    #[test]
    #[should_panic(expected = "job 2 exploded")]
    fn worker_panics_propagate_to_the_caller() {
        let _ = JobPool::new(2).run(vec![0u32, 1, 2, 3], |_, n| {
            if n == 2 {
                panic!("job {n} exploded");
            }
            n
        });
    }

    #[test]
    fn nested_pools_run_inline_and_stay_ordered() {
        // Outer fan-out parallel, inner calls inline on the worker: total
        // live threads stay bounded by the outer worker count, and results
        // keep input order at both levels.
        let outer = JobPool::new(4).run(vec![10u64, 20, 30], |_, base| {
            JobPool::new(4).run(vec![1u64, 2, 3], move |_, off| base + off)
        });
        assert_eq!(
            outer,
            vec![vec![11, 12, 13], vec![21, 22, 23], vec![31, 32, 33]]
        );
    }

    #[test]
    fn global_override_wins() {
        set_global_jobs(3);
        assert_eq!(JobPool::global().workers(), 3);
        set_global_jobs(0); // clamps to 1, still an override
        assert_eq!(JobPool::global().workers(), 1);
    }

    #[test]
    fn env_values_are_validated() {
        // Serialized within this one test: env mutation must not race.
        std::env::set_var("STARNUMA_JOBS", "6");
        assert_eq!(
            JobPool::from_env().map(|p| p.workers()),
            Ok(JobPool::new(6).workers())
        );
        std::env::set_var("STARNUMA_JOBS", "zero");
        let err = JobPool::from_env().map(|p| p.workers());
        assert!(err.is_err(), "bad STARNUMA_JOBS must error, got {err:?}");
        std::env::set_var("STARNUMA_JOBS", "0");
        assert!(JobPool::from_env().is_err());
        std::env::remove_var("STARNUMA_JOBS");
        assert!(JobPool::from_env().map(|p| p.workers() >= 1).is_ok());
    }
}
