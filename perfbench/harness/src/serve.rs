//! The `serve_open` workload: the shipped `svr_serve` daemon, driven by an
//! open-loop load generator over HTTP.
//!
//! Set-up (timed, repeated): a fresh cache directory pre-warmed by library
//! `Sweep`s over the seed's hot points (tiny scale), then the daemon started on
//! an ephemeral port with `--workers 2`. The load generator runs 2 threads
//! with at most 2 connections in flight. Every request is due at a fixed
//! time on a ladder of arrival rates; it is one `POST /v1/jobs` followed by
//! `GET /v1/jobs/{hash}/stream` to the terminal event, and its latencies
//! count from when it was due. The traced run repeats the load on a second
//! daemon with spans around each HTTP call, then probes the layers directly
//! on the same points.

use crate::points::{serve_plan, Kind, Phase, Req, ServePlan, ServePoint};
use crate::spans::{timed, SpanLog};
use crate::stats::{digest, median, peak_rss_mb, quantile};
use crate::sweeps::core_kind;
use crate::{fresh_dir, Ctx, Outcome, THREADS};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use svr_isa::DecodedProgram;
use svr_serve::http;
use svr_sim::json::Json;
use svr_sim::metrics::{find_sample, parse_exposition, Sample};
use svr_sim::{
    point_key, report_from_json, report_to_json, run_workload, ResultCache, RunOptions, RunReport,
    SimConfig, Sweep,
};
use svr_workloads::{Kernel, Scale};

/// Daemon worker threads.
const WORKERS: usize = 2;
/// `result_ms_p90` limit a ladder rate must meet to count towards goodput.
const LIMIT_MS: f64 = 250.0;
/// Per-HTTP-call timeout; a request that hits it fails.
const TIMEOUT: Duration = Duration::from_secs(30);
/// Submit attempts per request (the first included) on 429/503/transport
/// errors.
const ATTEMPTS: u32 = 4;
/// Arrival rates (requests/s) of the ladder, the share of the pass each
/// rung gets, and the reference rung for the latency metrics. With two
/// connections the generator and daemon together sustain roughly 60
/// requests/s, so the top rung is an overload.
const RATES: [f64; 4] = [10.0, 20.0, 40.0, 120.0];
const SHARES: [f64; 4] = [0.15, 0.5, 0.25, 0.1];
const REFERENCE: usize = 1;
/// Points whose daemon reports are compared with library runs.
const SPOT_CHECKS: usize = 6;
const SCALE: Scale = Scale::Tiny;

fn ladder(ctx: &Ctx) -> Vec<Phase> {
    if ctx.smoke {
        return vec![
            Phase {
                rate: 10.0,
                seconds: 1.0,
            },
            Phase {
                rate: 20.0,
                seconds: 1.0,
            },
            Phase {
                rate: 40.0,
                seconds: 0.5,
            },
            Phase {
                rate: 120.0,
                seconds: 0.25,
            },
        ];
    }
    let pass = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    RATES
        .iter()
        .zip(SHARES)
        .map(|(&rate, share)| Phase {
            rate,
            seconds: pass * share,
        })
        .collect()
}

fn options() -> RunOptions {
    RunOptions::default().with_max_insts(SCALE.max_insts())
}

fn resolve(p: &ServePoint) -> (Kernel, SimConfig) {
    (
        Kernel::from_name(&p.workload).expect("plan names registry kernels"),
        SimConfig::from_label(&p.config).expect("plan names known configs"),
    )
}

/// A running daemon; killed and reaped on drop if not shut down.
struct Daemon {
    child: Option<Child>,
    /// Kept open so the daemon's stdout never sees a closed pipe.
    stdout: Option<BufReader<ChildStdout>>,
    addr: String,
    cache: PathBuf,
    log: PathBuf,
}

impl Daemon {
    fn start(bin: &Path, dir: &Path) -> Result<Daemon, String> {
        let cache = dir.join("cache");
        let log = dir.join("daemon.log");
        let stderr = std::fs::File::create(&log).map_err(|e| format!("create {log:?}: {e}"))?;
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &WORKERS.to_string(),
                "--no-resume",
            ])
            .arg("--cache-dir")
            .arg(&cache)
            .arg("--crash-dir")
            .arg(dir.join("crash"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {bin:?}: {e}"))?;
        let pipe = child.stdout.take().expect("piped stdout");
        let mut daemon = Daemon {
            child: Some(child),
            stdout: None,
            addr: String::new(),
            cache,
            log,
        };
        let mut stdout = BufReader::new(pipe);
        let mut line = String::new();
        loop {
            line.clear();
            let n = stdout
                .read_line(&mut line)
                .map_err(|e| format!("daemon stdout: {e}"))?;
            if n == 0 {
                return Err(format!(
                    "daemon exited before listening; see {:?}",
                    daemon.log
                ));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                daemon.addr = addr.to_string();
                break;
            }
        }
        daemon.stdout = Some(stdout);
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Drains the daemon over the wire and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let _ = http::request(&self.addr, "POST", "/v1/shutdown", None, TIMEOUT, |_| {});
        let mut child = self.child.take().expect("daemon running");
        let t0 = Instant::now();
        loop {
            match child.try_wait().map_err(|e| format!("wait daemon: {e}"))? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("daemon exited with {status}")),
                None if t0.elapsed() > TIMEOUT => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not drain in time".into());
                }
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Set-up: pre-warm a fresh cache with the hot points, then start a
/// daemon on it.
fn setup(ctx: &Ctx, plan: &ServePlan, i: usize) -> Result<Daemon, String> {
    let dir = ctx.work.join(format!("daemon-{i}"));
    fresh_dir(&dir)?;
    for (kernels, configs) in &plan.hot {
        let res = Sweep::new(kernels.clone(), SCALE)
            .configs(configs.clone())
            .options(options())
            .cache_dir(dir.join("cache"))
            .crash_dir(dir.join("crash"))
            .try_run(THREADS)
            .map_err(|e| format!("pre-warm sweep: {e}"))?;
        if let Some(e) = res.errors().first() {
            return Err(format!("pre-warm sweep failed: {e}"));
        }
    }
    Daemon::start(
        ctx.serve_bin
            .as_deref()
            .ok_or("serve_open needs --serve-bin")?,
        &dir,
    )
}

/// What happened to one request.
#[derive(Debug, Clone, Default)]
struct ReqOut {
    /// ms from due to the first byte sent.
    lag_ms: f64,
    /// ms from due to the submit response.
    submit_ms: f64,
    /// ms from due to the terminal stream event.
    result_ms: f64,
    ok: bool,
    retries: u32,
    rejected: u32,
    /// Streams that ended before the terminal event.
    truncated: u32,
    /// Requests due but not yet started when this one started.
    backlog: usize,
    hash: Option<String>,
    error: Option<String>,
}

fn submit_body(req: &Req) -> String {
    Json::Obj(vec![
        ("client".into(), Json::str(&req.user)),
        (
            "points".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("workload".into(), Json::str(&req.point.workload)),
                ("config".into(), Json::str(&req.point.config)),
                ("scale".into(), Json::str(SCALE.name())),
                ("mode".into(), Json::str("detailed")),
            ])]),
        ),
    ])
    .dump()
}

/// One request: submit (retrying 429/503/transport errors) then stream.
fn one_request(addr: &str, req: &Req, due: Instant, log: Option<&SpanLog>, rid: u64) -> ReqOut {
    let mut out = ReqOut {
        lag_ms: ms_since(due),
        ..ReqOut::default()
    };
    let body = submit_body(req);
    let run = |parent: u64, out: &mut ReqOut| -> Result<(), String> {
        let mut attempt = 0;
        let resp = loop {
            attempt += 1;
            let (r, _) = timed(log, "serve.http.submit", parent, rid, |_| {
                http::request(
                    addr,
                    "POST",
                    "/v1/jobs",
                    Some(body.as_bytes()),
                    TIMEOUT,
                    |_| {},
                )
            });
            let retry = match &r {
                Ok(resp) if resp.status == 429 || resp.status == 503 => {
                    out.rejected += 1;
                    Duration::from_secs(resp.retry_after.unwrap_or(1))
                }
                Ok(_) => break r?,
                Err(_) => Duration::from_millis(50),
            };
            if attempt >= ATTEMPTS {
                return Err(match r {
                    Ok(resp) => format!(
                        "submit refused with {} after {attempt} attempts",
                        resp.status
                    ),
                    Err(e) => format!("submit failed after {attempt} attempts: {e}"),
                });
            }
            out.retries += 1;
            std::thread::sleep(retry);
        };
        out.submit_ms = ms_since(due);
        if resp.status != 200 {
            return Err(format!("submit returned {}", resp.status));
        }
        let doc = Json::parse(&String::from_utf8_lossy(&resp.body))
            .map_err(|e| format!("submit response: {e}"))?;
        let hash = doc
            .get("jobs")
            .and_then(Json::as_arr)
            .and_then(|j| j.first())
            .and_then(|j| j.get("hash"))
            .and_then(Json::as_str)
            .ok_or("submit response names no job hash")?
            .to_string();
        let path = format!("/v1/jobs/{hash}/stream");
        out.hash = Some(hash);
        // A stream that ends before the terminal event (the daemon can
        // finish the response after replaying a non-terminal state while
        // the job completes) is a failed attempt: count it and re-read.
        let mut attempt = 0;
        let state = loop {
            attempt += 1;
            let (r, _) = timed(log, "serve.http.stream", parent, rid, |_| {
                http::request(addr, "GET", &path, None, TIMEOUT, |_| {})
            });
            let state = r.and_then(|resp| last_state(&resp.body));
            match state {
                Ok(Some(s)) => break s,
                _ if attempt < ATTEMPTS => {
                    out.retries += 1;
                    out.truncated += 1;
                }
                Ok(None) => return Err(format!("{attempt} streams ended before a terminal event")),
                Err(e) => return Err(e),
            }
        };
        out.result_ms = ms_since(due);
        if state == "done" {
            Ok(())
        } else {
            Err(format!("terminal event {state:?}, not done"))
        }
    };
    match timed(log, "serve.request", 0, rid, |id| run(id, &mut out)).0 {
        Ok(()) => out.ok = true,
        Err(e) => out.error = Some(e),
    }
    out
}

/// The terminal state a stream body ends with, `None` if its last state
/// event is not terminal.
fn last_state(body: &[u8]) -> Result<Option<String>, String> {
    let text = String::from_utf8_lossy(body);
    let last = text
        .lines()
        .rev()
        .filter_map(|l| Json::parse(l).ok())
        .find(|e| e.get("event").and_then(Json::as_str) == Some("state"))
        .ok_or("stream carried no state event")?;
    if last.get("terminal").and_then(Json::as_bool) != Some(true) {
        return Ok(None);
    }
    Ok(last.get("state").and_then(Json::as_str).map(str::to_string))
}

fn ms_since(t: Instant) -> f64 {
    Instant::now().saturating_duration_since(t).as_secs_f64() * 1e3
}

/// Plays the plan's schedule against `addr` from `THREADS` threads.
fn run_load(addr: &str, plan: &ServePlan, log: Option<&SpanLog>) -> (Vec<ReqOut>, f64) {
    let start = Instant::now() + Duration::from_millis(20);
    let due: Vec<f64> = plan.reqs.iter().map(|r| r.due_s).collect();
    let next = AtomicUsize::new(0);
    let outs: Mutex<Vec<(usize, ReqOut)>> = Mutex::new(Vec::with_capacity(plan.reqs.len()));
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(req) = plan.reqs.get(i) else { break };
                let due_at = start + Duration::from_secs_f64(req.due_s);
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                let elapsed = start.elapsed().as_secs_f64();
                let backlog = due.partition_point(|&d| d <= elapsed).saturating_sub(i + 1);
                let mut o = one_request(addr, req, due_at, log, i as u64);
                o.backlog = backlog;
                outs.lock().expect("load results lock").push((i, o));
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut outs = outs.into_inner().expect("load results lock");
    outs.sort_by_key(|(i, _)| *i);
    (outs.into_iter().map(|(_, o)| o).collect(), wall)
}

/// Scrape of `/v1/metrics`.
fn scrape(addr: &str) -> Result<Vec<Sample>, String> {
    let resp = http::request(addr, "GET", "/v1/metrics", None, TIMEOUT, |_| {})?;
    if resp.status != 200 {
        return Err(format!("/v1/metrics returned {}", resp.status));
    }
    Ok(parse_exposition(&String::from_utf8_lossy(&resp.body)))
}

fn value(samples: &[Sample], name: &str) -> f64 {
    find_sample(samples, name, &[]).map_or(0.0, |s| s.value)
}

/// Cumulative histogram buckets `(le, count)` of `name`, sorted by `le`.
fn buckets(samples: &[Sample], name: &str) -> Vec<(f64, f64)> {
    let bucket = format!("{name}_bucket");
    let mut v: Vec<(f64, f64)> = samples
        .iter()
        .filter(|s| s.name == bucket)
        .filter_map(|s| {
            let le = s.labels.iter().find(|(k, _)| k == "le")?.1.as_str();
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, s.value))
        })
        .collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    v
}

/// Quantile of the observations a histogram gained between two scrapes,
/// as the upper edge of the bucket holding it (µs). Empty buckets are
/// elided from the exposition, so a missing edge inherits the cumulative
/// count of the edge below it.
fn delta_quantile(before: &[Sample], after: &[Sample], name: &str, q: f64) -> f64 {
    let b = buckets(before, name);
    let a = buckets(after, name);
    let cum_before = |le: f64| {
        b.iter()
            .take_while(|(l, _)| *l <= le)
            .last()
            .map_or(0.0, |x| x.1)
    };
    let deltas: Vec<(f64, f64)> = a.iter().map(|&(le, c)| (le, c - cum_before(le))).collect();
    let total = deltas.last().map_or(0.0, |x| x.1);
    if total <= 0.0 {
        return 0.0;
    }
    let edge = deltas
        .iter()
        .filter(|(le, _)| le.is_finite())
        .find(|(_, c)| *c >= q * total)
        .map(|x| x.0);
    edge.unwrap_or_else(|| {
        a.iter()
            .rev()
            .find(|x| x.0.is_finite())
            .map_or(0.0, |x| x.0)
    })
}

/// Per-phase health of the open loop.
struct PhaseStats {
    rate: f64,
    sent: usize,
    ok: usize,
    failed: usize,
    retries: u32,
    rejected: u32,
    truncated: u32,
    lag_p50: f64,
    lag_p99: f64,
    backlog_max: usize,
    backlog_end: usize,
    submit: Vec<f64>,
    result: Vec<f64>,
}

impl PhaseStats {
    /// Latency at quantile `q`, failed requests counting as misses.
    fn result_q(&self, q: f64) -> f64 {
        quantile(&self.result, q)
    }
}

fn phase_stats(plan: &ServePlan, outs: &[ReqOut]) -> Vec<PhaseStats> {
    plan.phases
        .iter()
        .enumerate()
        .map(|(pi, ph)| {
            let rows: Vec<&ReqOut> = plan
                .reqs
                .iter()
                .zip(outs)
                .filter(|(r, _)| r.phase == pi)
                .map(|(_, o)| o)
                .collect();
            let lags: Vec<f64> = rows.iter().map(|o| o.lag_ms).collect();
            let miss = |v: f64, ok: bool| if ok { v } else { f64::INFINITY };
            PhaseStats {
                rate: ph.rate,
                sent: rows.len(),
                ok: rows.iter().filter(|o| o.ok).count(),
                failed: rows.iter().filter(|o| !o.ok).count(),
                retries: rows.iter().map(|o| o.retries).sum(),
                rejected: rows.iter().map(|o| o.rejected).sum(),
                truncated: rows.iter().map(|o| o.truncated).sum(),
                lag_p50: quantile(&lags, 0.5),
                lag_p99: quantile(&lags, 0.99),
                backlog_max: rows.iter().map(|o| o.backlog).max().unwrap_or(0),
                backlog_end: rows.last().map_or(0, |o| o.backlog),
                submit: rows.iter().map(|o| miss(o.submit_ms, o.ok)).collect(),
                result: rows.iter().map(|o| miss(o.result_ms, o.ok)).collect(),
            }
        })
        .collect()
}

/// One load pass against a fresh daemon, with scrapes around it.
struct Pass {
    outs: Vec<ReqOut>,
    phases: Vec<PhaseStats>,
    wall_s: f64,
    before: Vec<Sample>,
    after: Vec<Sample>,
    rss_mb: f64,
}

fn pass(daemon: &Daemon, plan: &ServePlan, log: Option<&SpanLog>) -> Result<Pass, String> {
    let before = scrape(&daemon.addr)?;
    let (outs, wall_s) = run_load(&daemon.addr, plan, log);
    let after = scrape(&daemon.addr)?;
    let rss_mb = peak_rss_mb(daemon.pid())?;
    let phases = phase_stats(plan, &outs);
    Ok(Pass {
        outs,
        phases,
        wall_s,
        before,
        after,
        rss_mb,
    })
}

impl Pass {
    fn delta(&self, name: &str) -> f64 {
        value(&self.after, name) - value(&self.before, name)
    }

    fn hist_ms(&self, name: &str, q: f64) -> f64 {
        delta_quantile(&self.before, &self.after, name, q) / 1e3
    }

    /// Highest ladder rate whose p90 result latency meets the limit
    /// without a growing backlog.
    fn goodput(&self) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.result_q(0.9) <= LIMIT_MS && p.backlog_end <= THREADS)
            .map(|p| p.rate)
            .fold(0.0, f64::max)
    }

    /// The `point -> job hash` map this pass saw.
    fn hashes(&self, plan: &ServePlan) -> BTreeMap<ServePoint, String> {
        plan.reqs
            .iter()
            .zip(&self.outs)
            .filter_map(|(r, o)| Some((r.point.clone(), o.hash.clone()?)))
            .collect()
    }
}

/// Reports of every distinct requested point, read back from the daemon's
/// result store, in point order.
fn stored_reports(
    daemon: &Daemon,
    plan: &ServePlan,
) -> Result<Vec<(ServePoint, RunReport)>, String> {
    let points: BTreeSet<&ServePoint> = plan.reqs.iter().map(|r| &r.point).collect();
    let cache = ResultCache::new(&daemon.cache);
    points
        .into_iter()
        .map(|p| {
            let (k, cfg) = resolve(p);
            let key = point_key(&k.name(), SCALE, &cfg, &options());
            let r = cache.load(&key).ok_or_else(|| {
                format!(
                    "{}/{} is missing from the daemon's store",
                    p.workload, p.config
                )
            })?;
            Ok((p.clone(), r))
        })
        .collect()
}

/// Output checks on one pass; returns the digest of the stored reports.
fn check_pass(
    out: &mut Outcome,
    daemon: &Daemon,
    plan: &ServePlan,
    p: &Pass,
    truth: &BTreeMap<ServePoint, String>,
    tag: &str,
) -> Result<String, String> {
    // An operation is one request: submit, then read to the terminal
    // event. It fails if it ends without `done` or was ever refused (429
    // or 503); transport-error retries and re-read truncated streams are
    // counted in the health lines and `serve.retries` instead.
    let failed: Vec<&ReqOut> = p.outs.iter().filter(|o| !o.ok).collect();
    out.attempted += p.outs.len() as u64;
    out.failed += p.outs.iter().filter(|o| !o.ok || o.rejected > 0).count() as u64;
    if let Some(o) = failed.first() {
        out.check(false, || {
            format!(
                "{tag}: {} request(s) failed, first: {:?}",
                failed.len(),
                o.error
            )
        });
    }
    let cold = plan
        .reqs
        .iter()
        .filter(|r| r.kind == Kind::ColdFirst)
        .count() as f64;
    let simulated = p.delta("jobs_simulated_total");
    out.check(simulated == cold, || {
        format!("{tag}: {simulated} simulations for {cold} never-seen points")
    });
    let errors = p.delta("jobs_errors_total");
    out.check(errors == 0.0, || {
        format!("{tag}: daemon reported {errors} job errors")
    });
    let reports = stored_reports(daemon, plan)?;
    let unverified = reports.iter().filter(|(_, r)| !r.verified).count();
    out.check(unverified == 0, || {
        format!("{tag}: {unverified} unverified reports")
    });
    // Spot checks: the daemon's in-memory report equals the library run.
    let hashes = p.hashes(plan);
    for (point, want) in truth {
        let Some(hash) = hashes.get(point) else {
            out.check(false, || {
                format!("{tag}: spot-check point {point:?} was never submitted")
            });
            continue;
        };
        let resp = http::request(
            &daemon.addr,
            "GET",
            &format!("/v1/jobs/{hash}"),
            None,
            TIMEOUT,
            |_| {},
        )?;
        let doc = Json::parse(&String::from_utf8_lossy(&resp.body))
            .map_err(|e| format!("job view: {e}"))?;
        let got = doc
            .get("report")
            .ok_or("job view has no report")
            .and_then(|j| report_from_json(j).map_err(|_| "job view report does not parse"))
            .map(|r| report_to_json(&r).dump())?;
        out.check(&got == want, || {
            format!(
                "{tag}: daemon report for {}/{} differs from run_workload",
                point.workload, point.config
            )
        });
    }
    Ok(digest(reports.iter().map(|(_, r)| r)))
}

fn health_lines(out: &mut Outcome, p: &Pass, tag: &str) {
    for (i, s) in p.phases.iter().enumerate() {
        out.line(format!(
            "health {tag} phase={i} rate={}/s sent={} attempts={} ok={} failed={} retries={} rejected_429={} truncated_streams={} \
             lag_ms_p50={:.2} lag_ms_p99={:.2} backlog_max={} backlog_end={} result_ms_p50={:.2} result_ms_p90={:.2}",
            s.rate, s.sent, s.sent + s.retries as usize, s.ok, s.failed, s.retries, s.rejected, s.truncated, s.lag_p50, s.lag_p99,
            s.backlog_max, s.backlog_end, s.result_q(0.5), s.result_q(0.9)
        ));
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let plan = serve_plan(ctx.seed, &ladder(ctx), SPOT_CHECKS);
    let mut out = Outcome::default();
    let count = |k: Kind| plan.reqs.iter().filter(|r| r.kind == k).count();
    out.line(format!(
        "plan: requests={} repeat={} hot_first={} cold_first={} cold_twin={} pre_warmed={} ladder={:?}",
        plan.reqs.len(),
        count(Kind::Repeat),
        count(Kind::HotFirst),
        count(Kind::ColdFirst),
        count(Kind::ColdTwin),
        plan.hot.iter().map(|(k, c)| k.len() * c.len()).sum::<usize>(),
        plan.phases.iter().map(|p| (p.rate, p.seconds)).collect::<Vec<_>>(),
    ));

    // Library truth for the spot checks (untimed).
    let truth: BTreeMap<ServePoint, String> = plan
        .spot_checks
        .iter()
        .map(|p| {
            let (k, cfg) = resolve(p);
            let r = run_workload(&k.build(SCALE), &cfg, &options()).map_err(|e| e.to_string())?;
            Ok((p.clone(), report_to_json(&r).dump()))
        })
        .collect::<Result<_, String>>()?;

    // Set-up several times; keep the last daemon(s) for the passes.
    let keep = if ctx.trace { 2 } else { 1 };
    let n = ctx.setup_reps().max(keep);
    let mut setups = Vec::new();
    let mut daemons = Vec::new();
    for i in 0..n {
        let t0 = Instant::now();
        let d = setup(ctx, &plan, i)?;
        setups.push(t0.elapsed().as_secs_f64());
        if n - i <= keep {
            daemons.push(d);
        } else {
            d.shutdown()?;
        }
    }
    let traced_daemon = if ctx.trace { daemons.pop() } else { None };
    let daemon = daemons.pop().expect("one daemon kept");

    let p = pass(&daemon, &plan, None)?;
    let dg = check_pass(&mut out, &daemon, &plan, &p, &truth, "untraced")?;
    health_lines(&mut out, &p, "untraced");
    out.line(format!(
        "digest {dg} reports={}",
        stored_reports(&daemon, &plan)?.len()
    ));
    let reference = &p.phases[REFERENCE.min(p.phases.len() - 1)];
    out.metric("setup_s", median(&setups));
    out.metric(
        "sim_minst_per_s",
        delivered_minst_per_s(&daemon, &plan, &p)?,
    );
    out.metric("peak_rss_mb", p.rss_mb);
    out.metric("submit_ms_p50", quantile(&reference.submit, 0.5));
    out.metric("submit_ms_p90", quantile(&reference.submit, 0.9));
    out.metric("result_ms_p50", reference.result_q(0.5));
    out.metric("result_ms_p90", reference.result_q(0.9));
    out.metric("goodput_rps", p.goodput());
    out.line(format!(
        "reference rate {}/s: {} requests",
        reference.rate, reference.sent
    ));
    daemon.shutdown()?;

    if let Some(td) = traced_daemon {
        let log = SpanLog::new();
        let t = pass(&td, &plan, Some(&log))?;
        let tg = check_pass(&mut out, &td, &plan, &t, &truth, "traced")?;
        health_lines(&mut out, &t, "traced");
        out.line(format!("digest {tg} traced"));
        out.check(tg == dg, || format!("traced digest {tg} != untraced {dg}"));
        traced_metrics(&mut out, &plan, &p, &t, &log);
        let hashes = t.hashes(&plan);
        let cache = td.cache.clone();
        let daemon_log = td.log.clone();
        td.shutdown()?;
        probe_layers(ctx, &mut out, &plan, &log, &cache, &daemon_log, &hashes)?;
        log.write(&ctx.spans_path())?;
    }
    let (attempted, failed) = (out.attempted, out.failed);
    out.metric(
        "success_rate",
        (attempted - failed) as f64 / attempted.max(1) as f64,
    );
    Ok(out)
}

/// Simulation throughput the service delivered: guest instructions of the
/// never-seen points the daemon simulated during the pass, per second of
/// the pass. Each rung asks for a fixed share of never-seen points, so the
/// figure is set by the offered load while the daemon keeps up, and falls
/// when simulating them holds the load back (the top rung is an overload).
/// The simulator's own speed on tiny points swings by a third with the
/// host's load from one minute to the next; the traced run reports it per
/// layer (`serve.simulate_ms_p50`, `core.*`).
fn delivered_minst_per_s(daemon: &Daemon, plan: &ServePlan, p: &Pass) -> Result<f64, String> {
    let cold = cold_points(plan);
    let insts: u64 = stored_reports(daemon, plan)?
        .iter()
        .filter(|(point, _)| cold.contains(point))
        .map(|(_, r)| r.core.retired)
        .sum();
    Ok(insts as f64 / p.wall_s / 1e6)
}

fn cold_points(plan: &ServePlan) -> BTreeSet<&ServePoint> {
    plan.reqs
        .iter()
        .filter(|r| r.kind == Kind::ColdFirst)
        .map(|r| &r.point)
        .collect()
}

/// Per-layer metrics read from the traced pass: client spans and the
/// daemon's scraped counters and histograms.
fn traced_metrics(out: &mut Outcome, plan: &ServePlan, untraced: &Pass, t: &Pass, log: &SpanLog) {
    let client_submit = median(&log.durations_ms("serve.http.submit"));
    out.metric(
        "serve.accept_gap_ms_p50",
        client_submit - t.hist_ms("submit_latency_us", 0.5),
    );
    out.metric("serve.queue_wait_ms_p50", t.hist_ms("queue_wait_us", 0.5));
    out.metric("serve.queue_wait_ms_p99", t.hist_ms("queue_wait_us", 0.99));
    out.metric("serve.simulate_ms_p50", t.hist_ms("simulate_us", 0.5));
    out.metric("serve.stream_ms_p50", t.hist_ms("stream_us", 0.5));
    let busy_us = t.delta("simulate_us_sum") + t.delta("claim_wait_us_sum");
    out.metric(
        "serve.workers_busy_share",
        busy_us / (WORKERS as f64 * t.wall_s * 1e6),
    );
    out.metric("serve.jobs_joined", t.delta("jobs_joined_total"));
    out.metric("serve.jobs_cached", t.delta("jobs_cached_total"));
    out.metric("serve.jobs_simulated", t.delta("jobs_simulated_total"));
    out.metric("serve.rejected", t.delta("jobs_rejected_total"));
    out.metric(
        "serve.retries",
        t.outs.iter().map(|o| f64::from(o.retries)).sum(),
    );
    let cold = plan
        .reqs
        .iter()
        .filter(|r| r.kind == Kind::ColdFirst)
        .count();
    out.metric(
        "serve.sims_per_cold_point",
        t.delta("jobs_simulated_total") / cold.max(1) as f64,
    );
    let hits = t.delta("cache_hits_total");
    out.metric(
        "cache.hit_ratio",
        hits / (hits + t.delta("cache_misses_total")).max(1.0),
    );
    out.metric("cache.claim_ms_p50", t.hist_ms("claim_wait_us", 0.5));
    let reference = &t.phases[REFERENCE.min(t.phases.len() - 1)];
    out.metric("loadgen.lag_ms_p99", reference.lag_p99);
    out.metric("loadgen.backlog_max", reference.backlog_max as f64);
    let base = untraced.phases[REFERENCE.min(untraced.phases.len() - 1)].result_q(0.5);
    out.metric(
        "bench.trace_overhead_pct",
        (reference.result_q(0.5) / base - 1.0) * 100.0,
    );
}

/// Direct calls into the lower layers on the traced pass's never-seen
/// points: build, instantiate, lower, detailed and warp runs, and the
/// result store; the daemon's own per-job simulate time (from its log)
/// over the direct run time gives the progress-relay overhead.
#[allow(clippy::too_many_arguments)]
fn probe_layers(
    ctx: &Ctx,
    out: &mut Outcome,
    plan: &ServePlan,
    log: &SpanLog,
    daemon_cache: &Path,
    daemon_log: &Path,
    hashes: &BTreeMap<ServePoint, String>,
) -> Result<(), String> {
    let sim_us = daemon_simulate_us(daemon_log)?;
    let store = ResultCache::new(ctx.work.join("probe-cache"));
    let served = ResultCache::new(daemon_cache);
    let opts = options();
    let warp = RunOptions::warp(SCALE.max_insts());
    let points = cold_points(plan);
    let mut by_core: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    let (mut build_ms, mut run_ms, mut cycles, mut l1d, mut l2m, mut dram) =
        (0.0, 0.0, 0u64, 0u64, 0u64, 0u64);
    let (mut warp_insts, mut warp_ms, mut relay_daemon, mut relay_direct) = (0u64, 0.0, 0.0, 0.0);
    for (i, p) in points.iter().enumerate() {
        let req = i as u64;
        let (k, cfg) = resolve(p);
        let (w, b) = log.span("workloads.Kernel::build", 0, req, |_| k.build(SCALE));
        build_ms += b;
        log.span("workloads.Workload::instantiate", 0, req, |_| {
            w.instantiate()
        });
        log.span("isa.DecodedProgram::lower", 0, req, |_| {
            DecodedProgram::lower(&w.program)
        });
        let (r, ms) = log.span("sim.run_workload.detailed", 0, req, |_| {
            run_workload(&w, &cfg, &opts)
        });
        let r = r.map_err(|e| e.to_string())?;
        let (wr, wms) = log.span("sim.run_workload.warp", 0, req, |_| {
            run_workload(&w, &cfg, &warp)
        });
        let wr = wr.map_err(|e| e.to_string())?;
        warp_insts += wr.core.retired;
        warp_ms += wms;
        let key = point_key(&k.name(), SCALE, &cfg, &opts);
        log.span("sim.cache.store", 0, req, |_| store.store(&key, SCALE, &r));
        log.span("sim.cache.load", 0, req, |_| served.load(&key));
        let e = by_core.entry(core_kind(&cfg)).or_default();
        e.0 += r.core.retired;
        e.1 += ms;
        run_ms += ms;
        cycles += r.core.cycles;
        l1d += r.mem.l1d_hits + r.mem.l1d_misses;
        l2m += r.mem.l2_misses;
        dram += r.mem.dram_reads();
        if let Some(us) = hashes.get(*p).and_then(|h| sim_us.get(h)) {
            relay_daemon += us;
            relay_direct += ms * 1e3;
        }
    }
    out.metric(
        "workloads.build_ms",
        median(&log.durations_ms("workloads.Kernel::build")),
    );
    out.metric(
        "workloads.build_share",
        build_ms / (build_ms + run_ms).max(1e-9),
    );
    out.metric(
        "isa.lower_ms",
        median(&log.durations_ms("isa.DecodedProgram::lower")),
    );
    out.metric(
        "isa.warp_minst_per_s",
        warp_insts as f64 / warp_ms.max(1e-9) / 1e3,
    );
    for (kind, (retired, ms)) in by_core {
        out.metric(kind, retired as f64 / ms / 1e3);
    }
    out.metric(
        "core.host_ns_per_sim_cycle",
        run_ms * 1e6 / cycles.max(1) as f64,
    );
    out.metric("mem.l1d_accesses", l1d as f64);
    out.metric("mem.l2_misses", l2m as f64);
    out.metric("mem.dram_reads", dram as f64);
    out.metric("mem.host_ns_per_access", run_ms * 1e6 / l1d.max(1) as f64);
    out.metric(
        "cache.store_ms_p50",
        median(&log.durations_ms("sim.cache.store")),
    );
    out.metric(
        "cache.load_ms_p50",
        median(&log.durations_ms("sim.cache.load")),
    );
    out.metric(
        "trace.relay_overhead_ratio",
        relay_daemon / relay_direct.max(1e-9),
    );
    Ok(())
}

/// `hash -> simulate_us` from the daemon's `job_simulated` log lines.
fn daemon_simulate_us(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|j| j.get("event").and_then(Json::as_str) == Some("job_simulated"))
        .filter_map(|j| {
            let hash = j.get("hash")?.as_str()?.to_string();
            Some((hash, j.get("simulate_us")?.as_f64()?))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, le: &str, v: f64) -> Sample {
        Sample {
            name: format!("{name}_bucket"),
            labels: vec![("le".into(), le.into())],
            value: v,
        }
    }

    #[test]
    fn delta_quantile_uses_only_new_observations() {
        let before = vec![sample("h", "10", 5.0), sample("h", "+Inf", 5.0)];
        let after = vec![
            sample("h", "10", 5.0),
            sample("h", "100", 14.0),
            sample("h", "1000", 15.0),
            sample("h", "+Inf", 15.0),
        ];
        assert_eq!(delta_quantile(&before, &after, "h", 0.5), 100.0);
        assert_eq!(delta_quantile(&before, &after, "h", 0.99), 1000.0);
        assert_eq!(delta_quantile(&after, &after, "h", 0.5), 0.0);
    }
}
