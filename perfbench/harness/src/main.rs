//! `svr-perfbench`: the repository benchmark's harness.
//!
//! ```text
//! svr-perfbench --workload sweep_detailed|sweep_sampled|serve_open
//!               --seed N --seconds S --trace 0|1 [--smoke]
//!               [--serve-bin PATH] [--work-dir DIR]
//! ```
//!
//! Prints informational lines (sample, digests, open-loop health, check
//! results), then, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced
//! (`--trace 0`), the per-layer metrics traced (`--trace 1`). See
//! `perfbench/README.md` for what each workload and metric means.

mod points;
mod serve;
mod spans;
mod stats;
mod sweeps;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Worker threads for sweeps and load-generator threads.
pub const THREADS: usize = 2;

/// End-to-end metrics: name and unit. Every workload reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_minst_per_s", "Minst/s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("submit_ms_p50", "ms"),
    ("submit_ms_p90", "ms"),
    ("result_ms_p50", "ms"),
    ("result_ms_p90", "ms"),
    ("goodput_rps", "1/s"),
];

/// Per-layer metrics of the traced run: name and unit. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_ms", "ms"),
    ("workloads.build_share", "ratio"),
    ("isa.lower_ms", "ms"),
    ("isa.warp_minst_per_s", "Minst/s"),
    ("core.inorder_minst_per_s", "Minst/s"),
    ("core.ooo_minst_per_s", "Minst/s"),
    ("core.svr_minst_per_s", "Minst/s"),
    ("core.host_ns_per_sim_cycle", "ns"),
    ("mem.l1d_accesses", "count"),
    ("mem.l2_misses", "count"),
    ("mem.dram_reads", "count"),
    ("mem.host_ns_per_access", "ns"),
    ("sim.sampled_detailed_share", "ratio"),
    ("sim.sampled_ms_per_point", "ms"),
    ("sim.sampled_cpi_err_pct", "%"),
    ("sweep.worker_busy_share", "ratio"),
    ("cache.store_ms_p50", "ms"),
    ("cache.load_ms_p50", "ms"),
    ("cache.claim_ms_p50", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("serve.accept_gap_ms_p50", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.workers_busy_share", "ratio"),
    ("serve.simulate_ms_p50", "ms"),
    ("serve.stream_ms_p50", "ms"),
    ("serve.jobs_joined", "count"),
    ("serve.jobs_cached", "count"),
    ("serve.jobs_simulated", "count"),
    ("serve.rejected", "count"),
    ("serve.retries", "count"),
    ("serve.sims_per_cold_point", "ratio"),
    ("trace.relay_overhead_ratio", "ratio"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.backlog_max", "count"),
    ("bench.trace_overhead_pct", "%"),
];

/// One run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub serve_bin: Option<PathBuf>,
    /// Scratch directory of this run (removed at the end).
    pub work: PathBuf,
    /// Where the traced run's spans are written.
    pub spans_dir: PathBuf,
}

impl Ctx {
    /// How many times set-up is repeated (its median is `setup_s`).
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            2
        } else {
            5
        }
    }

    pub fn spans_path(&self) -> PathBuf {
        self.spans_dir
            .join(format!("{}-seed{}.json", self.workload, self.seed))
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// Informational lines printed before the result.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(message());
        }
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }
}

/// Creates `dir` empty.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("remove {dir:?}: {e}"))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))
}

fn usage() -> String {
    "usage: svr-perfbench --workload sweep_detailed|sweep_sampled|serve_open --seed N \
     --seconds S --trace 0|1 [--smoke] [--serve-bin PATH] [--work-dir DIR]"
        .into()
}

fn parse_args(argv: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut serve_bin = None;
    let mut work_dir = PathBuf::from(".bench_work");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => smoke = true,
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            "--work-dir" => work_dir = PathBuf::from(value()?),
            _ => return Err(format!("unknown flag {flag:?}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !["sweep_detailed", "sweep_sampled", "serve_open"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    let seconds = seconds.ok_or_else(usage)?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Ctx {
        work: work_dir.join(format!("run-{}", std::process::id())),
        spans_dir: work_dir.join("spans"),
        workload,
        seed: seed.ok_or_else(usage)?,
        seconds,
        trace: trace.ok_or_else(usage)?,
        smoke,
        serve_bin,
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(ctx: &Ctx, out: &mut Outcome) -> String {
    let wanted = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let v = match out.metrics.get(name) {
            Some(&v) => v,
            // A layer this workload does not exercise reports 0.
            None if ctx.trace => 0.0,
            None => {
                out.failures.push(format!("metric {name} was not measured"));
                0.0
            }
        };
        if !v.is_finite() {
            out.failures
                .push(format!("metric {name} is not finite ({v})"));
        }
        let v = if v.is_finite() { v } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    )
}

fn run(ctx: &Ctx) -> Result<Outcome, String> {
    fresh_dir(&ctx.work)?;
    let result = match ctx.workload.as_str() {
        "sweep_detailed" => sweeps::run(ctx, sweeps::Flavor::Detailed),
        "sweep_sampled" => sweeps::run(ctx, sweeps::Flavor::Sampled),
        _ => serve::run(ctx),
    };
    let cleanup =
        std::fs::remove_dir_all(&ctx.work).map_err(|e| format!("remove {:?}: {e}", ctx.work));
    let out = result?;
    cleanup?;
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse_args(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("svr-perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&ctx) {
        Ok(mut out) => {
            let line = result_line(&ctx, &mut out);
            for l in &out.lines {
                println!("{l}");
            }
            for f in &out.failures {
                println!("CHECK FAILED: {f}");
            }
            println!("{line}");
        }
        Err(e) => {
            eprintln!("svr-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn args_require_every_run_flag() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args(
            "--workload serve_open --seed 1 --seconds 2 --trace 0"
        ))
        .is_ok());
        assert!(parse_args(&args("--workload serve_open --seed 1 --seconds 2")).is_err());
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 2 --trace 0")).is_err());
        assert!(parse_args(&args(
            "--workload serve_open --seed 1 --seconds 2 --trace 2"
        ))
        .is_err());
    }
}
