//! Load generator + p99 latency benchmark for the `svr_serve` daemon.
//!
//! ```text
//! svr_loadgen [--clients N] [--points P] [--addr HOST:PORT]
//!             [--workers N] [--out PATH]
//! ```
//!
//! Drives N concurrent clients over *overlapping* sweep spaces — every
//! client submits the same P design points, one `POST /v1/jobs` each, then
//! streams every job to a terminal state — so the benchmark exercises
//! exactly the contended dedup path the service exists for. Client-side
//! submit latency lands in a shared [`svr_sim::metrics::Histogram`]; the
//! daemon's `/v1/metrics` is scraped before and after the run and the
//! counter *deltas* are the accounting the benchmark judges:
//!
//! * `jobs_errors_total` delta must be 0;
//! * every stream must end with a terminal `state` event: a stream cut
//!   short is a client error, reported as `truncated_streams`;
//! * `jobs_simulated_total + jobs_cached_total` delta must equal the
//!   number of unique points (each unique point resolved exactly once);
//! * without `--addr` (self-hosted daemon, fresh cache) the simulated
//!   delta alone must equal unique points: **simulations per unique point
//!   == 1**, no matter how many clients raced.
//!
//! Results go to `results/serve_load.json` (override with `--out`):
//! p50/p90/p99/max submit latency, end-to-end throughput, the dedup
//! verdict. Exit status is nonzero when any invariant fails, so CI can
//! gate on it.
//!
//! Without `--addr` the benchmark hosts its own daemon in-process on an
//! ephemeral port with a fresh temp cache (torn down afterwards); with
//! `--addr` it targets a running daemon and only asserts the weaker
//! warm-cache form of the invariant.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use svr_serve::http;
use svr_serve::protocol::PointSpec;
use svr_serve::{Server, ServerConfig};
use svr_sim::json::Json;
use svr_sim::metrics::{find_sample, parse_exposition, Histogram, Sample};

const TIMEOUT: Duration = Duration::from_secs(600);

/// The benchmark's point space: one workload, swept across configs (the
/// same axis the paper's figures sweep). `--points P` takes the first P.
const CONFIGS: &[&str] = &[
    "InO", "IMP", "OoO", "SVR8", "SVR16", "SVR32", "SVR64", "SVR128",
];

fn usage() -> String {
    "usage: svr_loadgen [--clients N] [--points P] [--addr HOST:PORT] \
     [--workers N] [--out PATH]"
        .to_string()
}

struct Args {
    clients: usize,
    points: usize,
    addr: Option<String>,
    workers: usize,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        clients: 3,
        points: CONFIGS.len(),
        addr: None,
        workers: 2,
        out: PathBuf::from("results/serve_load.json"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value\n{}", usage()))
        };
        match flag.as_str() {
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
            }
            "--points" => {
                args.points = value("--points")?
                    .parse()
                    .map_err(|e| format!("--points: {e}"))?;
            }
            "--addr" => args.addr = Some(value("--addr")?),
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if args.clients == 0 {
        return Err("--clients must be at least 1".into());
    }
    if args.points == 0 || args.points > CONFIGS.len() {
        return Err(format!("--points must be in 1..={}", CONFIGS.len()));
    }
    Ok(args)
}

/// Scrapes `/v1/metrics` and pulls the benchmark's counters.
fn scrape(addr: &str) -> Result<Vec<Sample>, String> {
    let resp = http::request(addr, "GET", "/v1/metrics", None, TIMEOUT, |_| {})?;
    if resp.status != 200 {
        return Err(format!("/v1/metrics returned {}", resp.status));
    }
    Ok(parse_exposition(&String::from_utf8_lossy(&resp.body)))
}

fn counter(samples: &[Sample], name: &str) -> u64 {
    find_sample(samples, name, &[]).map_or(0, |s| s.value as u64)
}

/// What one client saw.
#[derive(Default)]
struct ClientTally {
    submits: u64,
    /// Streams that failed: non-200, an `error` state, or truncated.
    errors: u64,
    /// Streams whose last `state` event is not terminal (the daemon closed
    /// the response before the job's final state arrived).
    truncated: u64,
}

/// One client's run: submit every point (latency recorded per POST), then
/// stream every job to a terminal state.
fn run_client(
    addr: &str,
    name: &str,
    specs: &[PointSpec],
    latency: &Histogram,
) -> Result<ClientTally, String> {
    let policy = http::RetryPolicy::new(u64::from(std::process::id()) ^ name.len() as u64);
    let mut hashes = Vec::new();
    let mut tally = ClientTally::default();
    for spec in specs {
        let body = Json::Obj(vec![
            ("client".into(), Json::str(name)),
            ("points".into(), Json::Arr(vec![spec.to_json()])),
        ])
        .pretty();
        let t0 = Instant::now();
        let resp = http::request_with_retry(
            addr,
            "POST",
            "/v1/jobs",
            Some(body.as_bytes()),
            TIMEOUT,
            &policy,
            |_| {},
        )?;
        latency.record_duration_us(t0.elapsed());
        tally.submits += 1;
        if resp.status != 200 {
            return Err(format!("submit returned {}", resp.status));
        }
        let doc = Json::parse(&String::from_utf8_lossy(&resp.body))
            .map_err(|e| format!("bad submit response: {e}"))?;
        if let Some(jobs) = doc.get("jobs").and_then(Json::as_arr) {
            for j in jobs {
                if let Some(h) = j.get("hash").and_then(Json::as_str) {
                    hashes.push(h.to_string());
                }
            }
        }
    }
    for hash in &hashes {
        let resp = http::request_with_retry(
            addr,
            "GET",
            &format!("/v1/jobs/{hash}/stream"),
            None,
            TIMEOUT,
            &policy,
            |_| {},
        )?;
        let text = String::from_utf8_lossy(&resp.body);
        let states: Vec<Json> = text
            .lines()
            .filter_map(|l| Json::parse(l).ok())
            .filter(|e| e.get("event").and_then(Json::as_str) == Some("state"))
            .collect();
        let errored = states
            .iter()
            .any(|e| e.get("state").and_then(Json::as_str) == Some("error"));
        let truncated = resp.status == 200
            && states.last().and_then(|e| e.get("terminal")).and_then(Json::as_bool)
                != Some(true);
        tally.truncated += u64::from(truncated);
        if resp.status != 200 || errored || truncated {
            tally.errors += 1;
        }
    }
    Ok(tally)
}

fn run() -> Result<i32, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let specs: Vec<PointSpec> = CONFIGS[..args.points]
        .iter()
        .map(|c| PointSpec {
            workload: "Camel".into(),
            config: (*c).to_string(),
            scale: "tiny".into(),
            mode: "detailed".into(),
        })
        .collect();

    // Self-host a daemon unless one was pointed at. The self-hosted cache
    // is fresh, so every unique point must cost exactly one simulation.
    let self_hosted = args.addr.is_none();
    let mut tmp_cache = None;
    let (addr, server) = match &args.addr {
        Some(a) => (a.clone(), None),
        None => {
            let dir = std::env::temp_dir()
                .join(format!("svr-loadgen-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| format!("temp cache dir: {e}"))?;
            tmp_cache = Some(dir.clone());
            let listener = TcpListener::bind("127.0.0.1:0")
                .map_err(|e| format!("bind: {e}"))?;
            let addr = listener
                .local_addr()
                .map_err(|e| format!("local_addr: {e}"))?
                .to_string();
            let srv = Arc::new(Server::new(ServerConfig {
                workers: args.workers,
                cache_dir: dir,
                ..ServerConfig::default()
            }));
            let handle = {
                let srv = Arc::clone(&srv);
                std::thread::spawn(move || srv.serve(listener))
            };
            (addr, Some((srv, handle)))
        }
    };

    let before = scrape(&addr)?;
    let latency = Arc::new(Histogram::default());
    let wall = Instant::now();
    let results: Vec<Result<ClientTally, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.clients)
            .map(|i| {
                let addr = addr.clone();
                let name = format!("loadgen-{i}");
                let specs = &specs;
                let latency = Arc::clone(&latency);
                s.spawn(move || run_client(&addr, &name, specs, &latency))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall_ms = wall.elapsed().as_millis() as u64;
    let after = scrape(&addr)?;

    // Tear the self-hosted daemon down before judging, so a failed verdict
    // never leaks a listener thread or the temp cache.
    if let Some((_, handle)) = server {
        let _ = http::request(&addr, "POST", "/v1/shutdown", None, TIMEOUT, |_| {});
        let _ = handle.join();
    }
    if let Some(dir) = tmp_cache {
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut total_submits = 0u64;
    let mut client_errors = 0u64;
    let mut truncated_streams = 0u64;
    for r in results {
        let t = r?;
        total_submits += t.submits;
        client_errors += t.errors;
        truncated_streams += t.truncated;
    }

    let delta = |name: &str| counter(&after, name).saturating_sub(counter(&before, name));
    let simulated = delta("jobs_simulated_total");
    let cached = delta("jobs_cached_total");
    let joined = delta("jobs_joined_total");
    let errors = delta("jobs_errors_total");
    let unique = specs.len() as u64;

    // The invariant the whole service tier exists for: N clients racing on
    // one sweep space cost one resolution per unique point — and, against
    // a fresh cache, exactly one *simulation* per unique point.
    let resolved_once = simulated + cached == unique;
    let dedup_ok = errors == 0
        && client_errors == 0
        && resolved_once
        && (!self_hosted || simulated == unique);
    let sims_per_unique = simulated as f64 / unique as f64;

    let snap = latency.snapshot();
    let secs = (wall_ms as f64 / 1000.0).max(1e-9);
    let report = Json::Obj(vec![
        ("clients".into(), Json::u64(args.clients as u64)),
        ("unique_points".into(), Json::u64(unique)),
        ("total_submits".into(), Json::u64(total_submits)),
        ("wall_ms".into(), Json::u64(wall_ms)),
        (
            "throughput_jobs_per_s".into(),
            Json::f64(total_submits as f64 / secs),
        ),
        (
            "submit_latency_us".into(),
            Json::Obj(vec![
                ("count".into(), Json::u64(snap.count)),
                ("p50".into(), Json::u64(snap.p50())),
                ("p90".into(), Json::u64(snap.p90())),
                ("p99".into(), Json::u64(snap.p99())),
                ("max".into(), Json::u64(snap.max)),
            ]),
        ),
        ("simulated".into(), Json::u64(simulated)),
        ("cached".into(), Json::u64(cached)),
        ("joined".into(), Json::u64(joined)),
        ("errors".into(), Json::u64(errors)),
        ("truncated_streams".into(), Json::u64(truncated_streams)),
        ("sims_per_unique_point".into(), Json::f64(sims_per_unique)),
        ("self_hosted".into(), Json::Bool(self_hosted)),
        ("dedup_ok".into(), Json::Bool(dedup_ok)),
    ]);
    if let Some(parent) = args.out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {parent:?}: {e}"))?;
        }
    }
    std::fs::write(&args.out, report.pretty() + "\n")
        .map_err(|e| format!("write {:?}: {e}", args.out))?;
    println!(
        "loadgen: {} clients x {} points -> {} submits in {} ms \
         (p50={}us p99={}us); simulated={simulated} cached={cached} \
         joined={joined} errors={errors} truncated_streams={truncated_streams} \
         dedup_ok={dedup_ok}",
        args.clients,
        unique,
        total_submits,
        wall_ms,
        snap.p50(),
        snap.p99(),
    );
    println!("wrote {}", args.out.display());
    if !dedup_ok {
        eprintln!(
            "loadgen: DEDUP VIOLATION: simulated={simulated} cached={cached} \
             unique={unique} errors={errors} client_errors={client_errors} \
             truncated_streams={truncated_streams}"
        );
        return Ok(1);
    }
    Ok(0)
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("svr_loadgen: {e}");
            std::process::exit(2);
        }
    }
}
