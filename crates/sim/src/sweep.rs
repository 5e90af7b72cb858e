//! The experiment engine: declarative sweeps over (workload × configuration)
//! grids with point deduplication, an on-disk result cache, parallel
//! execution, per-job tracing — and a hardened failure path: every job runs
//! panic-isolated, failures come back as structured [`JobError`]s instead of
//! tearing down the sweep, a journal of completed points makes a killed
//! sweep resumable with zero recomputation, and failing jobs leave a crash
//! dump behind (see [`crate::crash`]).
//!
//! Every figure of the paper is a sweep over the same few suites and design
//! points, and many figures share points (all sensitivity studies re-run the
//! SVR-16/64 and in-order baselines). The engine hashes the *full*
//! simulation configuration ([`SimConfig::cache_key`]) together with the
//! workload identity, so
//!
//! * identical points inside one sweep are simulated once (dedup), and
//! * points simulated by *any* earlier invocation are loaded from
//!   `results/cache/<hash>.json` instead of re-simulated (cache).
//!
//! ```no_run
//! use svr_sim::{Sweep, SimConfig};
//! use svr_workloads::{irregular_suite, Scale};
//!
//! let res = Sweep::new(irregular_suite(), Scale::Small)
//!     .configs(vec![SimConfig::inorder(), SimConfig::svr(16)])
//!     .run(8);
//! res.assert_verified();
//! println!("speedup {:.2}", res.speedup(0, 1));
//! eprintln!("{}", res.stats.summary());
//! ```

use crate::cache::{load_cached, point_key, store_cached, PointKey};
use crate::config::{ConfigError, SimConfig};
use crate::crash::{default_crash_dir, write_crash_dump};
use crate::error::SimError;
use crate::fnv1a64;
use crate::metrics::CacheMetrics;
use crate::options::{ExecMode, RunOptions};
use crate::runner::{run_workload_traced, RunReport};
use crate::shutdown;
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;
use svr_trace::RingSink;
use svr_workloads::{Kernel, Scale, Workload};

/// Where a job's report came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobSource {
    /// Freshly simulated in this sweep.
    Simulated,
    /// Loaded from the on-disk result cache.
    Cached,
    /// Loaded from the cache *and* recorded in this sweep's journal — i.e.
    /// completed by an earlier (killed) invocation of the same sweep.
    Journal,
    /// The job failed; see the matching [`JobError`].
    Failed,
}

/// One failed sweep job: the structured error plus the crash-dump path when
/// the flight recorder managed to write one.
#[derive(Debug, Clone)]
pub struct JobError {
    /// Workload name.
    pub workload: String,
    /// Configuration label.
    pub config: String,
    /// What went wrong.
    pub error: SimError,
    /// Where the crash dump landed, if one was written.
    pub crash_dump: Option<PathBuf>,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)?;
        if let Some(p) = &self.crash_dump {
            write!(f, " (crash dump: {})", p.display())?;
        }
        Ok(())
    }
}

impl std::error::Error for JobError {}

/// The outcome of one sweep job: a report, or the structured failure that
/// replaced it.
pub type JobResult = Result<RunReport, JobError>;

/// Trace record for one resolved design point (the progress hook payload).
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// Workload name.
    pub workload: String,
    /// Configuration label.
    pub config: String,
    /// How the report was obtained.
    pub source: JobSource,
    /// Wall time spent simulating (or loading) this point, in milliseconds.
    pub wall_ms: f64,
}

/// Aggregate counters for one sweep invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Requested (workload, config) pairs.
    pub pairs: usize,
    /// Unique design points after dedup.
    pub points: usize,
    /// Points resolved by fresh simulation.
    pub simulated: usize,
    /// Points resolved from the on-disk cache.
    pub cache_hits: usize,
    /// Cache hits that were journaled by a killed invocation of this sweep
    /// (a subset of `cache_hits`).
    pub journal_hits: usize,
    /// Points whose job failed (panic, watchdog, invariant violation).
    pub failed: usize,
    /// Points skipped because a shutdown signal arrived mid-sweep (their
    /// slots carry [`SimError::Interrupted`]; the journal is kept so an
    /// identical re-run resumes the completed points).
    pub interrupted: usize,
    /// Pairs that aliased an identical point inside this sweep.
    pub deduped: usize,
    /// Total wall time of the sweep in milliseconds.
    pub wall_ms: u64,
}

impl SweepStats {
    /// One-line human summary (binaries print this to stderr).
    pub fn summary(&self) -> String {
        let interrupted = if self.interrupted > 0 {
            format!(" interrupted={}", self.interrupted)
        } else {
            String::new()
        };
        format!(
            "[sweep] pairs={} points={} simulated={} cached={} journal={} \
             failed={}{interrupted} deduped={} wall={:.1}s",
            self.pairs,
            self.points,
            self.simulated,
            self.cache_hits,
            self.journal_hits,
            self.failed,
            self.deduped,
            self.wall_ms as f64 / 1e3
        )
    }
}

/// A declarative sweep over `suite × configs` at one scale.
pub struct Sweep {
    suite: Vec<Kernel>,
    scale: Scale,
    configs: Vec<SimConfig>,
    options: RunOptions,
    cache_dir: Option<PathBuf>,
    cache_max_bytes: Option<u64>,
    crash_dir: Option<PathBuf>,
    on_job: Option<fn(&JobTrace)>,
    stop: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    metrics: Option<std::sync::Arc<CacheMetrics>>,
}

impl Sweep {
    /// Sweep of `suite` at `scale`. The result cache defaults to
    /// `$SVR_CACHE_DIR` or `results/cache`; see [`Sweep::no_cache`]. Crash
    /// dumps default to `$SVR_CRASH_DIR` or `results/crash`.
    pub fn new(suite: Vec<Kernel>, scale: Scale) -> Self {
        let dir = std::env::var("SVR_CACHE_DIR").unwrap_or_else(|_| "results/cache".into());
        Sweep {
            suite,
            scale,
            configs: Vec::new(),
            options: RunOptions::default(),
            cache_dir: Some(PathBuf::from(dir)),
            cache_max_bytes: None,
            crash_dir: Some(default_crash_dir()),
            on_job: None,
            stop: None,
            metrics: None,
        }
    }

    /// Sets the execution mode for every point (default:
    /// [`ExecMode::Detailed`]). Warp points are cached under distinct keys
    /// (`;mode=warp` suffix), so a warp sweep never pollutes — or reuses —
    /// detailed results.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.options.mode = mode;
        self
    }

    /// Replaces the full per-run options (mode, instruction cap, watchdog
    /// override). The effective cap of each point is the minimum of
    /// [`Scale::max_insts`] and [`RunOptions::max_insts`].
    pub fn options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the configuration axis.
    pub fn configs(mut self, configs: Vec<SimConfig>) -> Self {
        self.configs = configs;
        self
    }

    /// Appends one configuration.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.configs.push(config);
        self
    }

    /// Disables the on-disk result cache (in-sweep dedup still applies; the
    /// resume journal is also disabled, since it lives in the cache dir).
    pub fn no_cache(mut self) -> Self {
        self.cache_dir = None;
        self
    }

    /// Uses `dir` for the on-disk result cache.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Caps the on-disk result cache at `max_bytes`: after the sweep
    /// resolves, the oldest entries (LRU by mtime) are evicted until the
    /// cache fits (see [`crate::ResultCache::gc`]; journal and quarantine
    /// files are never evicted). `None` (the default) means unbounded.
    pub fn cache_max_bytes(mut self, max_bytes: u64) -> Self {
        self.cache_max_bytes = Some(max_bytes);
        self
    }

    /// Uses `dir` for crash dumps (the flight recorder output).
    pub fn crash_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.crash_dir = Some(dir.into());
        self
    }

    /// Disables the crash flight recorder (failures still come back as
    /// structured [`JobError`]s, just without a dump on disk).
    pub fn no_crash_dumps(mut self) -> Self {
        self.crash_dir = None;
        self
    }

    /// Installs a progress hook called once per resolved point (from worker
    /// threads, so interleaving is possible) with its wall time and source.
    pub fn on_job(mut self, hook: fn(&JobTrace)) -> Self {
        self.on_job = Some(hook);
        self
    }

    /// Adds a sweep-local stop flag, checked alongside the process-wide
    /// [`crate::shutdown`] flag: when either is set, workers stop claiming
    /// points and surface the remainder as [`SimError::Interrupted`]. The
    /// simulation server drains individual sweeps this way without asking
    /// the whole process to shut down (and tests interrupt deterministically
    /// without touching global state).
    pub fn stop_flag(mut self, flag: std::sync::Arc<std::sync::atomic::AtomicBool>) -> Self {
        self.stop = Some(flag);
        self
    }

    /// Attaches a cache instrument cluster (see [`CacheMetrics`]): cache
    /// probes, stores and GC evictions performed by this sweep are counted
    /// into it. Out-of-band — reports and cache bytes are unaffected.
    pub fn metrics(mut self, metrics: std::sync::Arc<CacheMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Resolves every (workload, config) pair across `threads` OS threads
    /// and returns the full grid. Deterministic: simulation results do not
    /// depend on the thread count or on cache state.
    ///
    /// # Panics
    ///
    /// Panics if any configuration fails [`SimConfig::validate`] or if any
    /// job failed (listing every failure and its crash dump); see
    /// [`Sweep::try_run`] for the non-panicking form.
    ///
    /// # Exits
    ///
    /// When a shutdown signal (SIGINT/SIGTERM, with
    /// [`crate::shutdown::install`]ed handlers) arrives mid-sweep, the sweep
    /// stops claiming new points, journals what completed, prints the
    /// partial summary, and exits the process with status 130 — the
    /// conventional interrupted-by-signal code — instead of panicking over
    /// the unfinished points. Re-running the identical command resumes from
    /// the journal. Library callers that need to survive an interruption
    /// should use [`Sweep::try_run`] and inspect
    /// [`SweepStats::interrupted`].
    pub fn run(self, threads: usize) -> SweepResult {
        let res = self.try_run(threads).unwrap_or_else(|e| panic!("{e}"));
        if res.stats.interrupted > 0 {
            eprintln!("{}", res.stats.summary());
            eprintln!(
                "[sweep] interrupted by signal: {} of {} points unresolved; \
                 completed points are journaled — re-run the same command to resume",
                res.stats.interrupted, res.stats.points
            );
            std::process::exit(130);
        }
        let errors = res.errors();
        if !errors.is_empty() {
            let lines: Vec<String> = errors.iter().map(|e| format!("  {e}")).collect();
            panic!("{} sweep job(s) failed:\n{}", errors.len(), lines.join("\n"));
        }
        res
    }

    /// [`Sweep::run`], but failures are data instead of panics:
    ///
    /// * an invalid configuration is surfaced eagerly as a [`ConfigError`]
    ///   naming the offending point, before any simulation starts;
    /// * a job that panics, trips the watchdog, or violates a simulator
    ///   invariant becomes a [`JobError`] on its own grid slot — sibling
    ///   jobs complete normally ([`SweepResult::errors`] lists failures).
    ///
    /// When the cache is enabled, completed points are journaled under
    /// `<cache_dir>/journal/`; re-running an identical sweep after a kill
    /// resumes from the journal with zero recomputation, and a sweep that
    /// completes with no failures removes its journal.
    pub fn try_run(self, threads: usize) -> Result<SweepResult, ConfigError> {
        let t0 = Instant::now();
        for cfg in &self.configs {
            cfg.validate().map_err(|e| match self.suite.first() {
                Some(k) => e.for_workload(&k.name()),
                None => e,
            })?;
        }
        let mut stats = SweepStats {
            pairs: self.suite.len() * self.configs.len(),
            ..SweepStats::default()
        };

        // Dedup identical points within the grid.
        struct Point {
            kernel: Kernel,
            config: SimConfig,
            key: String,
            hash: u64,
            outcome: Option<JobResult>,
        }
        let mut points: Vec<Point> = Vec::new();
        let mut by_hash: HashMap<u64, usize> = HashMap::new();
        let mut point_of: Vec<Vec<usize>> = Vec::with_capacity(self.configs.len());
        // Point identity comes from the shared `point_key` (see
        // `crate::cache`): byte-identical to the historical sweep format so
        // existing caches stay valid, with mode/sampling tags appended for
        // non-detailed runs.
        for cfg in &self.configs {
            let mut row = Vec::with_capacity(self.suite.len());
            for k in &self.suite {
                let PointKey { key, hash } =
                    point_key(&k.name(), self.scale, cfg, &self.options);
                let idx = *by_hash.entry(hash).or_insert_with(|| {
                    points.push(Point {
                        kernel: *k,
                        config: cfg.clone(),
                        key,
                        hash,
                        outcome: None,
                    });
                    points.len() - 1
                });
                row.push(idx);
            }
            point_of.push(row);
        }
        stats.points = points.len();
        stats.deduped = stats.pairs - stats.points;

        let mut traces: Vec<JobTrace> = Vec::with_capacity(points.len());

        // The resume journal is keyed by the full point set, so "the same
        // sweep, invoked again" maps to the same journal file.
        let journal = self.cache_dir.as_ref().map(|dir| {
            let mut id_src = String::new();
            for p in &points {
                id_src.push_str(&p.key);
                id_src.push('\n');
            }
            Journal::new(dir, fnv1a64(&id_src))
        });
        let journaled: HashSet<u64> = journal.as_ref().map(Journal::load).unwrap_or_default();

        // Probe the on-disk cache.
        let cache_metrics = self.metrics.clone();
        if let Some(dir) = &self.cache_dir {
            for p in &mut points {
                let t = Instant::now();
                if let Some(report) = load_cached(dir, p.hash, &p.key) {
                    if let Some(m) = &cache_metrics {
                        m.hits.inc();
                    }
                    let source = if journaled.contains(&p.hash) {
                        stats.journal_hits += 1;
                        JobSource::Journal
                    } else {
                        JobSource::Cached
                    };
                    let trace = JobTrace {
                        workload: report.workload.clone(),
                        config: report.config.clone(),
                        source,
                        wall_ms: t.elapsed().as_secs_f64() * 1e3,
                    };
                    emit(&self.on_job, &trace);
                    traces.push(trace);
                    p.outcome = Some(Ok(report));
                    stats.cache_hits += 1;
                }
            }
        }

        // Simulate the misses in parallel (deterministic per point). Points
        // are grouped by workload so each kernel is *built once per sweep*,
        // not once per configuration: a full-scale graph build (~0.3 s for
        // PR_KR, ~0.6 s for the denser ORK input) costs about as much as a
        // sampled point's whole simulation, so rebuilding per configuration
        // would spend a sampled sweep largely on identical inputs. Workers
        // claim whole groups; the built workload is reused for every
        // configuration in the group and dropped before the next.
        //
        // Every job — including workload construction — runs panic-isolated:
        // one failing point (panic, watchdog trip, invariant violation)
        // becomes a `JobError` on its own slot and its siblings finish
        // normally.
        let todo: Vec<usize> = (0..points.len())
            .filter(|&i| points[i].outcome.is_none())
            .collect();
        if let Some(m) = &cache_metrics {
            m.misses.add(todo.len() as u64);
        }
        if !todo.is_empty() {
            use std::sync::atomic::{AtomicUsize, Ordering};
            let mut groups: Vec<(Kernel, Vec<usize>)> = Vec::new();
            for &i in &todo {
                let k = points[i].kernel;
                match groups.iter_mut().find(|(g, _)| *g == k) {
                    Some((_, idxs)) => idxs.push(i),
                    None => groups.push((k, vec![i])),
                }
            }
            let next = AtomicUsize::new(0);
            let done: Mutex<Vec<(usize, JobResult, JobTrace)>> =
                Mutex::new(Vec::with_capacity(todo.len()));
            let scale = self.scale;
            let options = self.options;
            let cache_dir = self.cache_dir.as_deref();
            let crash_dir = self.crash_dir.as_deref();
            let journal = journal.as_ref();
            let on_job = self.on_job;
            let stop = self.stop.clone();
            let interrupted_now = move || {
                shutdown::requested()
                    || stop
                        .as_ref()
                        .is_some_and(|f| f.load(Ordering::SeqCst))
            };
            {
                let interrupted_now = &interrupted_now;
                let groups = &groups;
                let points = &points;
                let next = &next;
                let done = &done;
                let cache_metrics = &cache_metrics;
                std::thread::scope(|s| {
                    for _ in 0..threads.max(1).min(groups.len()) {
                        s.spawn(move || loop {
                            let g = next.fetch_add(1, Ordering::Relaxed);
                            if g >= groups.len() {
                                break;
                            }
                            let (kernel, idxs) = &groups[g];
                            // A shutdown signal mid-sweep: stop claiming
                            // work. Every unstarted point is surfaced as a
                            // structured `Interrupted` error; completed
                            // points are already journaled, so an identical
                            // re-run resumes without recomputation.
                            if interrupted_now() {
                                for &idx in idxs {
                                    let p = &points[idx];
                                    let job = interrupt_failure(kernel, p.config.label());
                                    let trace = JobTrace {
                                        workload: job.workload.clone(),
                                        config: job.config.clone(),
                                        source: JobSource::Failed,
                                        wall_ms: 0.0,
                                    };
                                    emit(&on_job, &trace);
                                    lock_ok(done).push((idx, Err(job), trace));
                                }
                                continue;
                            }
                            // Workload construction can panic too (a build
                            // bug); that fails this group's points only.
                            let built = catch_unwind(AssertUnwindSafe(|| kernel.build(scale)));
                            let workload = match built {
                                Ok(w) => w,
                                Err(payload) => {
                                    let msg = panic_message(payload);
                                    for &idx in idxs {
                                        let p = &points[idx];
                                        let job = build_failure(
                                            kernel,
                                            p.config.label(),
                                            &p.key,
                                            &msg,
                                            crash_dir,
                                        );
                                        let trace = JobTrace {
                                            workload: job.workload.clone(),
                                            config: job.config.clone(),
                                            source: JobSource::Failed,
                                            wall_ms: 0.0,
                                        };
                                        emit(&on_job, &trace);
                                        lock_ok(done).push((idx, Err(job), trace));
                                    }
                                    continue;
                                }
                            };
                            for &idx in idxs {
                                let p = &points[idx];
                                if interrupted_now() {
                                    let job = interrupt_failure(kernel, p.config.label());
                                    let trace = JobTrace {
                                        workload: job.workload.clone(),
                                        config: job.config.clone(),
                                        source: JobSource::Failed,
                                        wall_ms: 0.0,
                                    };
                                    emit(&on_job, &trace);
                                    lock_ok(done).push((idx, Err(job), trace));
                                    continue;
                                }
                                let t = Instant::now();
                                let result = simulate_point(
                                    &workload, &p.config, &p.key, scale, &options, crash_dir,
                                );
                                let source = match &result {
                                    Ok(report) => {
                                        if let Some(dir) = cache_dir {
                                            store_cached(dir, p.hash, &p.key, scale, report);
                                            if let Some(m) = cache_metrics {
                                                m.stores.inc();
                                            }
                                        }
                                        if let Some(j) = journal {
                                            j.append(p.hash);
                                        }
                                        JobSource::Simulated
                                    }
                                    Err(_) => JobSource::Failed,
                                };
                                let trace = JobTrace {
                                    workload: workload.name.clone(),
                                    config: p.config.label(),
                                    source,
                                    wall_ms: t.elapsed().as_secs_f64() * 1e3,
                                };
                                emit(&on_job, &trace);
                                lock_ok(done).push((idx, result, trace));
                            }
                        });
                    }
                });
            }
            for (idx, outcome, trace) in lock_ok(&done).drain(..) {
                points[idx].outcome = Some(outcome);
                traces.push(trace);
            }
        }

        let reports: Vec<JobResult> = points
            .into_iter()
            .map(
                #[allow(clippy::result_large_err)] // cold path: errors only exist on failed jobs
                |p| p.outcome.expect("all points resolved"),
            )
            .collect();
        stats.interrupted = reports
            .iter()
            .filter(|r| {
                matches!(r, Err(e) if matches!(e.error, SimError::Interrupted { .. }))
            })
            .count();
        stats.failed = reports.iter().filter(|r| r.is_err()).count() - stats.interrupted;
        stats.simulated = todo.len() - stats.failed - stats.interrupted;
        // A fully successful sweep no longer needs its journal (the cache
        // answers everything); keep it when anything failed or was
        // interrupted, so a fixed or resumed re-run still skips the
        // completed points.
        if stats.failed == 0 && stats.interrupted == 0 {
            if let Some(j) = &journal {
                j.remove();
            }
        }
        // Size-capped cache: evict the oldest entries now that this sweep's
        // results are stored (so the points just computed are the newest and
        // survive preferentially).
        if let (Some(dir), Some(max)) = (&self.cache_dir, self.cache_max_bytes) {
            let mut store = crate::ResultCache::new(dir);
            if let Some(m) = &cache_metrics {
                store = store.with_metrics(m.clone());
            }
            let gc = store.gc(max);
            if gc.evicted > 0 {
                eprintln!(
                    "[sweep] cache gc: evicted {} entr{} ({} bytes) to fit {max} bytes",
                    gc.evicted,
                    if gc.evicted == 1 { "y" } else { "ies" },
                    gc.evicted_bytes
                );
            }
        }
        stats.wall_ms = t0.elapsed().as_millis() as u64;
        Ok(SweepResult {
            suite: self.suite,
            config_labels: self.configs.iter().map(SimConfig::label).collect(),
            point_of,
            reports,
            traces,
            stats,
        })
    }
}

/// Locks a mutex, riding through poisoning: a panicking sweep worker is
/// already caught at the job boundary, and the per-slot data is consistent.
fn lock_ok<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Renders a panic payload (the common `&str`/`String` cases).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs one design point exactly as a sweep job would — panic-isolated,
/// with one bounded retry and a crash dump on failure — without requiring a
/// [`Sweep`]. This is the job executor the simulation server (`svr-serve`)
/// schedules onto; the caller owns cache lookup/store (see
/// [`crate::ResultCache`]) and supplies the point's content key for the
/// crash dump.
///
/// # Errors
///
/// A structured [`JobError`] naming the workload and configuration, with
/// the crash-dump path when the flight recorder managed to write one.
#[allow(clippy::result_large_err)] // cold path: the Err carries full diagnostics by design
pub fn run_point(
    workload: &Workload,
    config: &SimConfig,
    key: &PointKey,
    scale: Scale,
    options: &RunOptions,
    crash_dir: Option<&Path>,
) -> JobResult {
    simulate_point(workload, config, &key.key, scale, options, crash_dir)
}

/// [`run_point`] with a caller-owned trace sink attached (the simulation
/// server streams windowed progress to its clients this way). The sink sees
/// the events of every attempt: if the panic-isolated first attempt fails
/// and the traced retry runs, cycle timestamps restart from zero — live
/// consumers should treat a cycle regression as "the run restarted".
#[allow(clippy::result_large_err)] // cold path: the Err carries full diagnostics by design
pub fn run_point_traced<S: svr_trace::TraceSink>(
    workload: &Workload,
    config: &SimConfig,
    key: &PointKey,
    scale: Scale,
    options: &RunOptions,
    crash_dir: Option<&Path>,
    sink: &mut S,
) -> JobResult {
    simulate_point_traced(workload, config, &key.key, scale, options, crash_dir, sink)
}

/// The structured error for a point skipped because shutdown was requested.
fn interrupt_failure(kernel: &Kernel, config_label: String) -> JobError {
    let workload = kernel.name();
    JobError {
        error: SimError::Interrupted {
            workload: workload.clone(),
            config: config_label.clone(),
        },
        workload,
        config: config_label,
        crash_dump: None,
    }
}

/// Runs one point panic-isolated, with one bounded retry.
///
/// The first attempt is untraced (full speed). If it fails *in any way* —
/// panic or structured error — the point is retried once with the ring sink
/// attached: the simulator is deterministic, so a real failure reproduces
/// with the event history needed for the crash dump, while a flaky
/// host-environment panic (OOM kill of a neighbor, filesystem hiccup in a
/// workload build) gets its one retry and recovers.
#[allow(clippy::result_large_err)] // cold path: the Err carries full diagnostics by design
fn simulate_point(
    workload: &Workload,
    config: &SimConfig,
    key: &str,
    scale: Scale,
    options: &RunOptions,
    crash_dir: Option<&Path>,
) -> JobResult {
    simulate_point_traced(
        workload,
        config,
        key,
        scale,
        options,
        crash_dir,
        &mut svr_trace::NullSink,
    )
}

#[allow(clippy::result_large_err)] // cold path: the Err carries full diagnostics by design
fn simulate_point_traced<S: svr_trace::TraceSink>(
    workload: &Workload,
    config: &SimConfig,
    key: &str,
    scale: Scale,
    options: &RunOptions,
    crash_dir: Option<&Path>,
    sink: &mut S,
) -> JobResult {
    let opts = RunOptions {
        max_insts: scale.max_insts().min(options.max_insts),
        ..*options
    };
    if let Ok(Ok(report)) = catch_unwind(AssertUnwindSafe(|| {
        // The worker-panic fault lives inside the first attempt ONLY: the
        // panic-isolated retry below is deliberately not a site, so an
        // injected panic always recovers (that recovery is the thing the
        // chaos suite is proving).
        crate::fault::maybe_panic(crate::fault::FaultSite::WorkerPanic);
        run_workload_traced(workload, config, &opts, &mut *sink)
    })) {
        return Ok(report);
    }
    // The ring lives OUTSIDE the closure (inside the tee) so the events
    // leading into a panic survive the unwind and reach the crash dump.
    let mut tee = (RingSink::new(config.trace.ring_capacity), &mut *sink);
    let second = catch_unwind(AssertUnwindSafe(|| {
        run_workload_traced(workload, config, &opts, &mut tee)
    }));
    let ring = tee.0;
    let error = match second {
        Ok(Ok(report)) => return Ok(report), // flaky first failure, recovered
        Ok(Err(e)) => e,
        Err(payload) => SimError::Panic {
            workload: workload.name.clone(),
            config: config.label(),
            message: panic_message(payload),
        },
    };
    let crash_dump = crash_dir.and_then(|dir| {
        write_crash_dump(dir, &workload.name, &config.label(), key, &error, &ring)
            .map_err(|e| eprintln!("[sweep] warning: could not write crash dump: {e}"))
            .ok()
    });
    Err(JobError {
        workload: workload.name.clone(),
        config: config.label(),
        error,
        crash_dump,
    })
}

/// A workload-build panic fails every point of its group; there is no trace
/// history yet, so the dump records only the point identity and the error.
fn build_failure(
    kernel: &Kernel,
    config_label: String,
    key: &str,
    message: &str,
    crash_dir: Option<&Path>,
) -> JobError {
    let workload = kernel.name();
    let error = SimError::Panic {
        workload: workload.clone(),
        config: config_label.clone(),
        message: format!("workload build panicked: {message}"),
    };
    let empty = RingSink::new(1);
    let crash_dump = crash_dir.and_then(|dir| {
        write_crash_dump(dir, &workload, &config_label, key, &error, &empty).ok()
    });
    JobError {
        workload,
        config: config_label,
        error,
        crash_dump,
    }
}

/// Append-only journal of completed point hashes, enabling kill-and-resume.
///
/// Format: one `{hash:016x}` line per completed point, appended (fsync-free;
/// a torn final line is ignored on load). The file lives at
/// `<cache_dir>/journal/<sweep_id:016x>.journal` where the sweep id hashes
/// the full point-key set — identical sweep invocations share a journal,
/// different sweeps never collide.
struct Journal {
    path: PathBuf,
    lock: Mutex<()>,
}

impl Journal {
    fn new(cache_dir: &Path, sweep_id: u64) -> Journal {
        Journal {
            path: cache_dir.join("journal").join(format!("{sweep_id:016x}.journal")),
            lock: Mutex::new(()),
        }
    }

    /// The completed-point hashes from a previous (killed) invocation.
    fn load(&self) -> HashSet<u64> {
        let Ok(text) = std::fs::read_to_string(&self.path) else {
            return HashSet::new();
        };
        text.lines()
            .filter_map(|l| u64::from_str_radix(l.trim(), 16).ok())
            .collect()
    }

    /// Records `hash` as completed. Best-effort: journaling failures cost
    /// resumability, never correctness.
    fn append(&self, hash: u64) {
        let _guard = self.lock.lock().unwrap_or_else(|p| p.into_inner());
        let Some(parent) = self.path.parent() else { return };
        if std::fs::create_dir_all(parent).is_err() {
            return;
        }
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
        {
            let line = format!("{hash:016x}");
            if crate::fault::fires(crate::fault::FaultSite::JournalTorn) {
                // Injected crash mid-append: half a line, no newline. The
                // loader's per-line parse skips it, costing one resume hit.
                let _ = f.write_all(&line.as_bytes()[..line.len() / 2]);
                return;
            }
            if crate::fault::fires(crate::fault::FaultSite::JournalDup) {
                let _ = writeln!(f, "{line}");
            }
            let _ = writeln!(f, "{line}");
        }
    }

    fn remove(&self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn emit(hook: &Option<fn(&JobTrace)>, trace: &JobTrace) {
    if let Some(f) = hook {
        f(trace);
    }
    if std::env::var_os("SVR_SWEEP_LOG").is_some() {
        eprintln!(
            "[sweep] {:10} {:9.1} ms  {} / {}",
            format!("{:?}", trace.source).to_lowercase(),
            trace.wall_ms,
            trace.workload,
            trace.config
        );
    }
}

/// The resolved grid of a [`Sweep`], indexed `[config][workload]` in the
/// order the axes were declared.
#[derive(Debug)]
pub struct SweepResult {
    suite: Vec<Kernel>,
    config_labels: Vec<String>,
    /// `point_of[config][workload]` → index into `reports`.
    point_of: Vec<Vec<usize>>,
    /// One outcome per *unique* design point.
    reports: Vec<JobResult>,
    /// Per-point traces (simulation order; cache hits first).
    pub traces: Vec<JobTrace>,
    /// Aggregate counters.
    pub stats: SweepStats,
}

impl SweepResult {
    /// The workload axis.
    pub fn suite(&self) -> &[Kernel] {
        &self.suite
    }

    /// The configuration labels, in axis order.
    pub fn config_labels(&self) -> &[String] {
        &self.config_labels
    }

    /// The report for (config `ci`, workload `wi`).
    ///
    /// # Panics
    ///
    /// Panics (with the structured error) if that job failed; use
    /// [`SweepResult::try_report`] to handle failures.
    pub fn report(&self, ci: usize, wi: usize) -> &RunReport {
        match &self.reports[self.point_of[ci][wi]] {
            Ok(r) => r,
            Err(e) => panic!("sweep point ({ci},{wi}) failed: {e}"),
        }
    }

    /// The outcome for (config `ci`, workload `wi`).
    pub fn try_report(&self, ci: usize, wi: usize) -> Result<&RunReport, &JobError> {
        self.reports[self.point_of[ci][wi]].as_ref()
    }

    /// All reports for configuration `ci`, in suite order.
    ///
    /// # Panics
    ///
    /// Panics if any job of that configuration failed.
    pub fn config_reports(&self, ci: usize) -> Vec<&RunReport> {
        (0..self.suite.len()).map(|wi| self.report(ci, wi)).collect()
    }

    /// The deduplicated successful reports (one per unique design point
    /// whose job succeeded).
    pub fn unique_reports(&self) -> Vec<&RunReport> {
        self.reports.iter().filter_map(|r| r.as_ref().ok()).collect()
    }

    /// Every failed job, in point order.
    pub fn errors(&self) -> Vec<&JobError> {
        self.reports.iter().filter_map(|r| r.as_ref().err()).collect()
    }

    /// Harmonic-mean IPC speedup of configuration `ci` over `base_ci`
    /// (Fig. 1's metric), matched per workload.
    ///
    /// # Panics
    ///
    /// Panics if any involved job failed, or if any speedup is non-positive
    /// or non-finite.
    pub fn speedup(&self, base_ci: usize, ci: usize) -> f64 {
        let mut denom = 0.0;
        for wi in 0..self.suite.len() {
            let b = self.report(base_ci, wi);
            let n = self.report(ci, wi);
            let s = n.ipc() / b.ipc();
            assert!(s.is_finite() && s > 0.0, "bad speedup for {}", b.workload);
            denom += 1.0 / s;
        }
        self.suite.len() as f64 / denom
    }

    /// Asserts every job succeeded and passed its architectural check.
    ///
    /// # Panics
    ///
    /// Panics if any job failed or any report failed verification.
    pub fn assert_verified(&self) {
        let errors = self.errors();
        assert!(
            errors.is_empty(),
            "{} sweep job(s) failed; first: {}",
            errors.len(),
            errors[0]
        );
        for r in self.reports.iter().filter_map(|r| r.as_ref().ok()) {
            assert!(
                r.verified,
                "workload {} under {} failed its architectural check",
                r.workload, r.config
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::runner::run_kernel;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A unique temp cache dir per test (removed on drop).
    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            static SEQ: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "svr-sweep-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).expect("temp dir");
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tiny_suite() -> Vec<Kernel> {
        use svr_workloads::GraphInput;
        vec![Kernel::Camel, Kernel::Pr(GraphInput::Ur), Kernel::NasIs]
    }

    #[test]
    fn second_run_is_all_cache_hits_and_bit_identical() {
        let dir = TempDir::new("roundtrip");
        let configs = vec![SimConfig::inorder(), SimConfig::svr(16)];
        let fresh = Sweep::new(tiny_suite(), Scale::Tiny)
            .configs(configs.clone())
            .cache_dir(&dir.0)
            .run(2);
        assert_eq!(fresh.stats.simulated, 6);
        assert_eq!(fresh.stats.cache_hits, 0);

        let cached = Sweep::new(tiny_suite(), Scale::Tiny)
            .configs(configs)
            .cache_dir(&dir.0)
            .run(2);
        assert_eq!(cached.stats.simulated, 0, "zero simulations on second run");
        assert_eq!(cached.stats.cache_hits, 6);
        for ci in 0..2 {
            for wi in 0..3 {
                assert_eq!(
                    fresh.report(ci, wi),
                    cached.report(ci, wi),
                    "cached report differs at ({ci},{wi})"
                );
            }
        }
    }

    #[test]
    fn identical_points_are_deduped_within_a_sweep() {
        let configs = vec![
            SimConfig::inorder(),
            SimConfig::svr(16),
            SimConfig::inorder(), // shared baseline, declared twice
        ];
        let res = Sweep::new(tiny_suite(), Scale::Tiny)
            .configs(configs)
            .no_cache()
            .run(2);
        assert_eq!(res.stats.pairs, 9);
        assert_eq!(res.stats.points, 6, "baseline simulated once");
        assert_eq!(res.stats.deduped, 3);
        for wi in 0..3 {
            assert_eq!(res.report(0, wi), res.report(2, wi));
        }
    }

    #[test]
    fn sweep_matches_direct_runs_and_is_thread_count_invariant() {
        let configs = vec![SimConfig::inorder(), SimConfig::svr(16)];
        let base = Sweep::new(tiny_suite(), Scale::Tiny)
            .configs(configs.clone())
            .no_cache()
            .run(1);
        for threads in [2, 8] {
            let res = Sweep::new(tiny_suite(), Scale::Tiny)
                .configs(configs.clone())
                .no_cache()
                .run(threads);
            for ci in 0..2 {
                for wi in 0..3 {
                    assert_eq!(
                        base.report(ci, wi),
                        res.report(ci, wi),
                        "threads={threads} diverged at ({ci},{wi})"
                    );
                }
            }
        }
        // And against the plain runner.
        let direct = run_kernel(
            Kernel::Camel,
            Scale::Tiny,
            &SimConfig::svr(16),
            &RunOptions::default(),
        )
        .expect("camel runs");
        assert_eq!(&direct, base.report(1, 0));
    }

    #[test]
    fn warp_points_use_distinct_cache_keys() {
        let dir = TempDir::new("warpkey");
        let sweep = || {
            Sweep::new(vec![Kernel::Camel], Scale::Tiny)
                .config(SimConfig::inorder())
                .cache_dir(&dir.0)
        };
        let detailed = sweep().run(1);
        let warp = sweep().mode(ExecMode::Warp).run(1);
        assert_eq!(warp.stats.cache_hits, 0, "warp must not reuse detailed results");
        assert_eq!(warp.stats.simulated, 1);
        let r = warp.report(0, 0);
        assert_eq!(r.core.cycles, 0, "warp reports carry no timing");
        assert_eq!(r.core.retired, detailed.report(0, 0).core.retired);
        // Warp results are themselves cached, under their own key.
        let again = sweep().mode(ExecMode::Warp).run(1);
        assert_eq!(again.stats.cache_hits, 1);
        assert_eq!(again.report(0, 0), r);
    }

    #[test]
    fn sampled_points_key_on_mode_and_sampling_params() {
        let dir = TempDir::new("samplekey");
        let sweep = |opts: RunOptions| {
            Sweep::new(vec![Kernel::Camel], Scale::Tiny)
                .config(SimConfig::inorder())
                .cache_dir(&dir.0)
                .options(opts)
        };
        let detailed = sweep(RunOptions::default()).run(1);
        let sampled = sweep(RunOptions::sampled(u64::MAX)).run(1);
        assert_eq!(
            sampled.stats.cache_hits, 0,
            "sampled must not reuse detailed results"
        );
        let r = sampled.report(0, 0);
        let est = r.sampled.expect("sampled reports carry the estimator");
        assert_eq!(est.total_retired, detailed.report(0, 0).core.retired);
        // Same sampling parameters hit the cache; different ones miss.
        let again = sweep(RunOptions::sampled(u64::MAX)).run(1);
        assert_eq!(again.stats.cache_hits, 1);
        assert_eq!(again.report(0, 0), r);
        let other = sweep(RunOptions::sampled(u64::MAX).with_sampling(500, 500, 5_000)).run(1);
        assert_eq!(other.stats.cache_hits, 0, "params are part of the key");
    }

    #[test]
    fn run_parallel_is_deterministic_across_thread_counts() {
        let jobs: Vec<(Kernel, Scale, SimConfig)> = tiny_suite()
            .into_iter()
            .map(|k| (k, Scale::Tiny, SimConfig::svr(16)))
            .collect();
        let one = crate::run_parallel(jobs.clone(), 1).expect("jobs valid");
        for threads in [2, 8] {
            let many = crate::run_parallel(jobs.clone(), threads).expect("jobs valid");
            assert_eq!(one, many, "threads={threads}");
        }
    }

    #[test]
    fn corrupt_cache_entries_are_quarantined_and_resimulated() {
        let dir = TempDir::new("corrupt");
        let run = || {
            Sweep::new(vec![Kernel::Camel], Scale::Tiny)
                .config(SimConfig::inorder())
                .cache_dir(&dir.0)
                .run(1)
        };
        let fresh = run();
        assert_eq!(fresh.stats.simulated, 1);
        // Truncate every cache file.
        for entry in std::fs::read_dir(&dir.0).expect("dir") {
            let path = entry.expect("entry").path();
            if path.extension().and_then(|e| e.to_str()) == Some("json") {
                std::fs::write(path, "{not json").expect("truncate");
            }
        }
        let again = run();
        assert_eq!(again.stats.cache_hits, 0, "corrupt entry must not hit");
        assert_eq!(again.stats.simulated, 1);
        assert_eq!(fresh.report(0, 0), again.report(0, 0));
        // The corrupt original was moved aside for forensics, not deleted.
        let quarantined = std::fs::read_dir(dir.0.join("quarantine"))
            .expect("quarantine dir exists")
            .count();
        assert_eq!(quarantined, 1, "corrupt entry lands in quarantine/");
    }

    #[test]
    fn cache_loader_survives_arbitrary_corruption() {
        // Property test: feed `load_cached` every prefix truncation of a
        // valid entry plus a batch of random single-byte corruptions (and a
        // guaranteed non-UTF-8 one); it must never panic — `None` and
        // quarantining are the only acceptable outcomes.
        let dir = TempDir::new("fuzz");
        Sweep::new(vec![Kernel::Camel], Scale::Tiny)
            .config(SimConfig::inorder())
            .cache_dir(&dir.0)
            .run(1);
        let (path, hash) = std::fs::read_dir(&dir.0)
            .expect("dir")
            .filter_map(|e| {
                let p = e.ok()?.path();
                let stem = p.file_stem()?.to_str()?;
                let hash = u64::from_str_radix(stem, 16).ok()?;
                Some((p, hash))
            })
            .next()
            .expect("one cache entry");
        let valid = std::fs::read(&path).expect("entry bytes");
        let key = "v-any;does-not-matter";
        // Every prefix truncation.
        for len in 0..valid.len() {
            std::fs::write(&path, &valid[..len]).expect("write");
            let _ = load_cached(&dir.0, hash, key);
        }
        // Random single-byte corruptions (deterministic xorshift).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..256 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let mut bytes = valid.clone();
            let pos = (state as usize) % bytes.len();
            bytes[pos] = (state >> 32) as u8;
            std::fs::write(&path, &bytes).expect("write");
            let _ = load_cached(&dir.0, hash, key);
        }
        // Guaranteed invalid UTF-8.
        std::fs::write(&path, [0xff, 0xfe, b'{', 0xff]).expect("write");
        assert!(load_cached(&dir.0, hash, key).is_none());
    }

    #[test]
    fn panicking_and_livelocking_jobs_fail_in_isolation() {
        let dir = TempDir::new("isolate");
        let crash = TempDir::new("isolate-crash");
        let res = Sweep::new(
            vec![Kernel::Camel, Kernel::DiagSpin, Kernel::DiagPanic],
            Scale::Tiny,
        )
        .config(SimConfig::inorder())
        .cache_dir(&dir.0)
        .crash_dir(&crash.0)
        .try_run(2)
        .expect("configs valid");
        assert_eq!(res.stats.failed, 2);
        assert_eq!(res.stats.simulated, 1);

        // The healthy sibling completed normally.
        let camel = res.try_report(0, 0).expect("camel unaffected");
        assert!(camel.verified);

        // The livelocking guest was terminated by the forward-progress
        // watchdog, with a non-empty flight recording.
        let spin = res.try_report(0, 1).expect_err("DiagSpin must fail");
        assert!(
            matches!(spin.error, SimError::NoForwardProgress { .. }),
            "expected NoForwardProgress, got: {}",
            spin.error
        );
        let dump = spin.crash_dump.as_ref().expect("crash dump written");
        let doc = Json::parse(&std::fs::read_to_string(dump).expect("dump readable"))
            .expect("dump is valid JSON");
        let events = doc.get("events").and_then(Json::as_arr).expect("events array");
        assert!(!events.is_empty(), "flight recording must not be empty");
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("no_forward_progress")
        );

        // The build panic was contained to its own point, payload preserved.
        let pan = res.try_report(0, 2).expect_err("DiagPanic must fail");
        assert!(matches!(pan.error, SimError::Panic { .. }), "{}", pan.error);
        assert!(pan.error.to_string().contains("DiagPanic"), "{}", pan.error);
        assert!(pan.crash_dump.is_some(), "build panics get a dump too");

        // errors() lists exactly the two failures.
        assert_eq!(res.errors().len(), 2);
    }

    #[test]
    fn failed_sweeps_keep_their_journal_and_resume_from_it() {
        let dir = TempDir::new("resume");
        let crash = TempDir::new("resume-crash");
        let run = || {
            Sweep::new(vec![Kernel::Camel, Kernel::DiagSpin], Scale::Tiny)
                .config(SimConfig::inorder())
                .cache_dir(&dir.0)
                .crash_dir(&crash.0)
                .try_run(2)
                .expect("configs valid")
        };
        let first = run();
        assert_eq!(first.stats.failed, 1);
        assert_eq!(first.stats.simulated, 1);
        let journal_dir = dir.0.join("journal");
        assert_eq!(
            std::fs::read_dir(&journal_dir).expect("journal dir").count(),
            1,
            "a failed sweep keeps its journal"
        );

        let second = run();
        assert_eq!(second.stats.journal_hits, 1, "Camel resumes from the journal");
        assert_eq!(second.stats.simulated, 0, "zero recomputation on resume");
        assert_eq!(second.stats.failed, 1, "the livelock still fails");
        assert!(second
            .traces
            .iter()
            .any(|t| t.source == JobSource::Journal));
    }

    #[test]
    fn interrupted_sweeps_journal_partial_work_and_resume() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let dir = TempDir::new("interrupt");
        // Stop flag pre-set: every point is surfaced as Interrupted without
        // simulating anything. (A sweep-local flag, not the global shutdown
        // flag, so parallel sibling tests are unaffected.)
        let stop = Arc::new(AtomicBool::new(true));
        let first = Sweep::new(vec![Kernel::Camel, Kernel::Kangaroo], Scale::Tiny)
            .config(SimConfig::inorder())
            .cache_dir(&dir.0)
            .stop_flag(stop)
            .try_run(2)
            .expect("configs valid");
        assert_eq!(first.stats.interrupted, 2);
        assert_eq!(first.stats.simulated, 0);
        assert_eq!(first.stats.failed, 0, "interruption is not failure");
        assert!(first.stats.summary().contains("interrupted=2"));
        let err = first.try_report(0, 0).expect_err("point was interrupted");
        assert!(
            matches!(err.error, SimError::Interrupted { .. }),
            "{}",
            err.error
        );
        assert!(err.crash_dump.is_none(), "no crash dump for interruption");

        // The identical sweep without the flag resumes and completes.
        let second = Sweep::new(vec![Kernel::Camel, Kernel::Kangaroo], Scale::Tiny)
            .config(SimConfig::inorder())
            .cache_dir(&dir.0)
            .try_run(2)
            .expect("configs valid");
        assert_eq!(second.stats.interrupted, 0);
        assert_eq!(second.stats.simulated, 2);
        second.assert_verified();
        let journal_dir = dir.0.join("journal");
        assert_eq!(
            std::fs::read_dir(&journal_dir).map(|d| d.count()).unwrap_or(0),
            0,
            "completed resume removes the journal"
        );
    }

    #[test]
    fn stop_flag_set_mid_sweep_keeps_completed_points() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let dir = TempDir::new("interrupt-mid");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        // Single worker, two workload groups: flip the flag from the first
        // group's progress hook, so the second group must be interrupted.
        static FLAG: Mutex<Option<Arc<AtomicBool>>> = Mutex::new(None);
        *lock_ok(&FLAG) = Some(flag);
        fn hook(_: &JobTrace) {
            if let Some(f) = lock_ok(&FLAG).as_ref() {
                f.store(true, Ordering::SeqCst);
            }
        }
        let res = Sweep::new(vec![Kernel::Camel, Kernel::Kangaroo], Scale::Tiny)
            .config(SimConfig::inorder())
            .cache_dir(&dir.0)
            .stop_flag(stop)
            .on_job(hook)
            .try_run(1)
            .expect("configs valid");
        *lock_ok(&FLAG) = None;
        assert_eq!(res.stats.simulated, 1, "first point completed");
        assert_eq!(res.stats.interrupted, 1, "second point interrupted");
        // The completed point is cached: a re-run only simulates the rest.
        let second = Sweep::new(vec![Kernel::Camel, Kernel::Kangaroo], Scale::Tiny)
            .config(SimConfig::inorder())
            .cache_dir(&dir.0)
            .try_run(1)
            .expect("configs valid");
        assert_eq!(second.stats.simulated, 1, "completed work is not redone");
        assert_eq!(second.stats.interrupted, 0);
        second.assert_verified();
    }

    #[test]
    fn successful_sweeps_remove_their_journal() {
        let dir = TempDir::new("journal-gc");
        Sweep::new(vec![Kernel::Camel], Scale::Tiny)
            .config(SimConfig::inorder())
            .cache_dir(&dir.0)
            .run(1);
        let journal_dir = dir.0.join("journal");
        let remaining = std::fs::read_dir(&journal_dir)
            .map(|d| d.count())
            .unwrap_or(0);
        assert_eq!(remaining, 0, "completed sweep leaves no journal behind");
    }

    #[test]
    fn journal_roundtrip_ignores_garbage_lines() {
        let dir = TempDir::new("journal-unit");
        let j = Journal::new(&dir.0, 0xabcd);
        assert!(j.load().is_empty());
        j.append(42);
        j.append(0xdead_beef);
        std::fs::OpenOptions::new()
            .append(true)
            .open(&j.path)
            .and_then(|mut f| writeln!(f, "not-hex"))
            .expect("garbage line");
        j.append(7);
        let loaded = j.load();
        assert_eq!(loaded.len(), 3);
        assert!(loaded.contains(&42) && loaded.contains(&0xdead_beef) && loaded.contains(&7));
        j.remove();
        assert!(j.load().is_empty());
    }

    #[test]
    fn scales_do_not_share_cache_entries() {
        let dir = TempDir::new("scales");
        let run = |scale| {
            Sweep::new(vec![Kernel::Camel], scale)
                .config(SimConfig::inorder())
                .cache_dir(&dir.0)
                .run(1)
        };
        assert_eq!(run(Scale::Tiny).stats.simulated, 1);
        assert_eq!(run(Scale::Small).stats.simulated, 1, "different scale");
        assert_eq!(run(Scale::Tiny).stats.cache_hits, 1);
    }

    #[test]
    fn traces_cover_every_point() {
        let res = Sweep::new(tiny_suite(), Scale::Tiny)
            .config(SimConfig::inorder())
            .no_cache()
            .run(2);
        assert_eq!(res.traces.len(), 3);
        assert!(res.traces.iter().all(|t| t.source == JobSource::Simulated));
        assert!(res.traces.iter().all(|t| t.wall_ms >= 0.0));
        assert!(res.stats.summary().contains("simulated=3"));
    }

    #[test]
    fn speedup_matches_harmonic_mean_helper() {
        let res = Sweep::new(tiny_suite(), Scale::Tiny)
            .configs(vec![SimConfig::inorder(), SimConfig::svr(16)])
            .no_cache()
            .run(4);
        let base: Vec<RunReport> = res.config_reports(0).into_iter().cloned().collect();
        let new: Vec<RunReport> = res.config_reports(1).into_iter().cloned().collect();
        let expect = crate::harmonic_mean_speedup(&base, &new);
        assert!((res.speedup(0, 1) - expect).abs() < 1e-12);
    }

    #[test]
    fn try_run_surfaces_invalid_configs_with_context() {
        let mut bad = SimConfig::imp();
        bad.mem.imp = None; // representable, but silently equals plain InO
        let err = Sweep::new(tiny_suite(), Scale::Tiny)
            .configs(vec![SimConfig::inorder(), bad])
            .no_cache()
            .try_run(1)
            .expect_err("invalid config must fail the sweep eagerly");
        assert_eq!(err.config, "IMP");
        assert_eq!(err.workload.as_deref(), Some("Camel"));
        assert!(err.to_string().starts_with("invalid SimConfig IMP"), "{err}");
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned: changing the hash silently orphans every cache entry.
        assert_eq!(fnv1a64(""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64("a"), 0xaf63dc4c8601ec8c);
    }
}
