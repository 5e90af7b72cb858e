//! What each seed selects. The seed picks the design points and the
//! request schedule; the simulator and the daemon only ever see the
//! generated inputs.
//!
//! The sweep sample is the same for every seed; the seed picks only the
//! cells the untimed check phase re-runs. Which kernels and configs a
//! sweep simulates sets its host cost and its peak memory, so a
//! seed-chosen sample would move every sweep metric with the seed.

use svr_sim::SimConfig;
use svr_workloads::{irregular_suite, GraphInput, Kernel, Rng64};

/// Sub-streams of one seed, so adding a draw in one place does not shift
/// the others.
const CHECK_STREAM: u64 = 0x5eed_0002;
const ACCURACY_STREAM: u64 = 0x5eed_0004;
const SERVE_STREAM: u64 = 0x5eed_0003;

/// SVR widths the serve workload offers.
const SVR_WIDTHS: [usize; 6] = [4, 8, 16, 32, 64, 128];

fn rng(seed: u64, stream: u64) -> Rng64 {
    Rng64::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Fisher–Yates shuffle driven by `rng`.
fn shuffle<T>(v: &mut [T], rng: &mut Rng64) {
    for i in (1..v.len()).rev() {
        let j = rng.index(i + 1);
        v.swap(i, j);
    }
}

/// The kernel × config grid one sweep workload simulates.
pub struct SweepSample {
    pub kernels: Vec<Kernel>,
    pub configs: Vec<SimConfig>,
    /// Grid cells `(config index, kernel index)` re-run in the check phase.
    pub check: Vec<(usize, usize)>,
    /// Points of the sampled-accuracy check: any irregular-suite kernel,
    /// so that the check does not inherit the timed sample's choice.
    pub accuracy: Vec<(Kernel, SimConfig)>,
}

/// Kernels of every sweep sample: PageRank on the RMAT graph and the
/// Graph500 HPC-DB kernel. Each builds a large graph (the build dominates a
/// full-scale sampled point) and their groups take about as long, so the
/// two sweep threads each hold one for the whole sweep: the same two
/// workloads share memory every time, whatever the host's speed. With more
/// kernels than threads, which group a thread took next depended on which
/// finished first, and the peak RSS of a run jumped by a third with it.
const SWEEP_KERNELS: [Kernel; 2] = [Kernel::Pr(GraphInput::Kr), Kernel::G500];
/// SVR width of every sweep sample. A seed-chosen width moved the sweep's
/// speed by a tenth (SVR4 runs fastest, SVR64 slowest).
const SWEEP_SVR_WIDTH: usize = 16;

/// Draws the sweep sample for `seed`: `SWEEP_KERNELS` crossed with InO,
/// IMP, OoO and SVR16, `checks` seed-chosen grid cells for the check
/// phase, and `checks` seed-chosen accuracy points: distinct
/// irregular-suite kernels, with the configs rotating through InO or IMP,
/// OoO and a seed-chosen SVR width.
pub fn sweep_sample(seed: u64, checks: usize) -> SweepSample {
    let kernels = SWEEP_KERNELS.to_vec();
    let configs = vec![
        SimConfig::inorder(),
        SimConfig::imp(),
        SimConfig::ooo(),
        SimConfig::svr(SWEEP_SVR_WIDTH),
    ];
    // Check cells: the configs rotate through the three core models
    // (in-order incl. IMP, out-of-order, SVR) so that the check phase
    // times each detailed core model; the kernels are seeded.
    let mut c = rng(seed, CHECK_STREAM);
    let check = (0..checks)
        .map(|i| {
            let ci = match i % 3 {
                0 => c.index(2),
                1 => 2,
                _ => 3,
            };
            (ci, c.index(kernels.len()))
        })
        .collect();
    let mut a = rng(seed, ACCURACY_STREAM);
    let mut suite = irregular_suite();
    shuffle(&mut suite, &mut a);
    let accuracy = suite
        .into_iter()
        .take(checks)
        .enumerate()
        .map(|(i, k)| {
            let cfg = match i % 3 {
                0 if a.index(2) == 0 => SimConfig::inorder(),
                0 => SimConfig::imp(),
                1 => SimConfig::ooo(),
                _ => SimConfig::svr(SVR_WIDTHS[a.index(SVR_WIDTHS.len())]),
            };
            (k, cfg)
        })
        .collect();
    SweepSample {
        kernels,
        configs,
        check,
        accuracy,
    }
}

/// Config labels the serve workload draws from (the daemon resolves
/// labels with `SimConfig::from_label`).
fn serve_config_labels() -> Vec<String> {
    let mut v: Vec<String> = vec!["InO".into(), "IMP".into(), "OoO".into()];
    v.extend(SVR_WIDTHS.iter().map(|w| format!("SVR{w}")));
    v
}

/// A tiny-scale point the serve workload requests.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServePoint {
    pub workload: String,
    pub config: String,
}

/// How a request relates to what the daemon has seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A point requested before: an in-memory registry join.
    Repeat,
    /// First request for a pre-warmed point: a worker and a disk read.
    HotFirst,
    /// First request for a never-seen point: build, simulate, store, stream.
    ColdFirst,
    /// The same never-seen point again, due at the same instant (in flight).
    ColdTwin,
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Req {
    /// Ladder phase index.
    pub phase: usize,
    /// Offset of the due time from the start of the load, in seconds.
    pub due_s: f64,
    pub user: String,
    pub point: ServePoint,
    pub kind: Kind,
}

/// One rung of the arrival-rate ladder.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub rate: f64,
    pub seconds: f64,
}

/// The serve workload's inputs for one seed.
pub struct ServePlan {
    /// Pre-warmed points, stored in set-up: each group is a grid of
    /// kernels × configs.
    pub hot: Vec<(Vec<Kernel>, Vec<SimConfig>)>,
    pub phases: Vec<Phase>,
    pub reqs: Vec<Req>,
    /// Points whose daemon reports are compared with library runs.
    pub spot_checks: Vec<ServePoint>,
}

/// Request mix, in percent of each rung's requests: first touches of cold
/// points (each followed by an in-flight twin with probability
/// `TWIN_PCT`), first touches of pre-warmed points; the rest repeat
/// earlier points.
const COLD_PCT: u64 = 6;
const TWIN_PCT: u64 = 40;
const HOT_PCT: u64 = 12;
/// Size of the seeded user pool.
const USERS: usize = 48;
/// Configs pre-warmed per kernel.
const HOT_PER_KERNEL: usize = 3;

/// Draws the serve plan for `seed`. Every irregular-suite kernel has
/// `HOT_PER_KERNEL` pre-warmed configs and its other configs are never
/// seen before the load. The configs are dealt so that each is pre-warmed
/// for the same number of kernels and the never-seen points cycle through
/// kernels and configs evenly: the cost of the work (pre-warm, simulation)
/// depends little on the seed, while the points themselves do.
pub fn serve_plan(seed: u64, phases: &[Phase], spot: usize) -> ServePlan {
    let mut r = rng(seed, SERVE_STREAM);
    let mut kernels = irregular_suite();
    shuffle(&mut kernels, &mut r);
    let mut labels = serve_config_labels();
    shuffle(&mut labels, &mut r);
    let groups = labels.len() / HOT_PER_KERNEL;
    let hot_labels = |i: usize| {
        let g = i % groups;
        &labels[g * HOT_PER_KERNEL..(g + 1) * HOT_PER_KERNEL]
    };
    let mut hot: Vec<ServePoint> = Vec::new();
    let mut per_kernel: Vec<Vec<ServePoint>> = Vec::new();
    for (i, k) in kernels.iter().enumerate() {
        let point = |c: &String| ServePoint {
            workload: k.name(),
            config: c.clone(),
        };
        hot.extend(hot_labels(i).iter().map(point));
        let mut cold: Vec<ServePoint> = labels
            .iter()
            .filter(|c| !hot_labels(i).contains(c))
            .map(point)
            .collect();
        let len = cold.len();
        cold.rotate_left(i / groups % len);
        per_kernel.push(cold);
    }
    shuffle(&mut hot, &mut r);
    // Never-seen points, dealt round-robin over the kernels.
    let rounds = per_kernel.iter().map(Vec::len).max().unwrap_or(0);
    let cold: Vec<ServePoint> = (0..rounds)
        .flat_map(|i| per_kernel.iter().filter_map(move |v| v.get(i).cloned()))
        .collect();

    let mut reqs: Vec<Req> = Vec::new();
    let mut seen: Vec<ServePoint> = Vec::new();
    let (mut next_hot, mut next_cold) = (0, 0);
    let mut t0 = 0.0;
    for (pi, ph) in phases.iter().enumerate() {
        let n = (ph.rate * ph.seconds).round().max(1.0) as usize;
        // Exact shares per rung, in seeded positions: the amount of
        // simulation a run asks for does not depend on the seed.
        let share = |pct: u64| (n as f64 * pct as f64 / 100.0).round() as usize;
        let (n_cold, n_hot) = (share(COLD_PCT), share(HOT_PCT));
        let mut kinds: Vec<Kind> = (0..n)
            .map(|i| match i {
                _ if i < n_cold => Kind::ColdFirst,
                _ if i < n_cold + n_hot => Kind::HotFirst,
                _ => Kind::Repeat,
            })
            .collect();
        shuffle(&mut kinds, &mut r);
        for (i, want) in kinds.into_iter().enumerate() {
            let due_s = t0 + i as f64 / ph.rate;
            let user = format!("user-{:02}", r.index(USERS));
            let (point, kind) = if want == Kind::ColdFirst && next_cold < cold.len() {
                next_cold += 1;
                (cold[next_cold - 1].clone(), Kind::ColdFirst)
            } else if (want == Kind::HotFirst || seen.is_empty()) && next_hot < hot.len() {
                next_hot += 1;
                (hot[next_hot - 1].clone(), Kind::HotFirst)
            } else if seen.is_empty() {
                next_cold += 1;
                (cold[next_cold - 1].clone(), Kind::ColdFirst)
            } else {
                (seen[r.index(seen.len())].clone(), Kind::Repeat)
            };
            if kind != Kind::Repeat {
                seen.push(point.clone());
            }
            let twin = kind == Kind::ColdFirst && r.below(100) < TWIN_PCT;
            reqs.push(Req {
                phase: pi,
                due_s,
                user,
                point: point.clone(),
                kind,
            });
            if twin {
                reqs.push(Req {
                    phase: pi,
                    due_s,
                    user: format!("user-{:02}", r.index(USERS)),
                    point,
                    kind: Kind::ColdTwin,
                });
            }
        }
        t0 += ph.seconds;
    }
    let mut spot_checks = seen.clone();
    shuffle(&mut spot_checks, &mut r);
    spot_checks.truncate(spot);
    let to_config = |l: &String| SimConfig::from_label(l).expect("known label");
    let hot = (0..groups)
        .map(|g| {
            let ks = kernels.iter().skip(g).step_by(groups).copied().collect();
            (ks, hot_labels(g).iter().map(to_config).collect())
        })
        .collect();
    ServePlan {
        hot,
        phases: phases.to_vec(),
        reqs,
        spot_checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_sample_is_fixed_but_its_check_cells_are_seeded() {
        let mut checks = std::collections::HashSet::new();
        let mut accuracy = std::collections::HashSet::new();
        for seed in 0..20 {
            let s = sweep_sample(seed, 3);
            let names: Vec<String> = s.kernels.iter().map(|k| k.name()).collect();
            assert_eq!(names, ["PR_KR", "G500"], "seed {seed}");
            let labels: Vec<String> = s.configs.iter().map(SimConfig::label).collect();
            assert_eq!(labels, ["InO", "IMP", "OoO", "SVR16"], "seed {seed}");
            assert_eq!(s.check.len(), 3);
            assert!(
                s.check[0].0 < 2,
                "seed {seed}: first check cell is InO or IMP"
            );
            assert_eq!(s.check[1].0, 2, "seed {seed}: second check cell is OoO");
            assert_eq!(s.check[2].0, 3, "seed {seed}: third check cell is SVR");
            checks.insert(s.check.clone());
            assert_eq!(sweep_sample(seed, 3).check, s.check);
            let acc: Vec<String> = s
                .accuracy
                .iter()
                .map(|(k, c)| format!("{}/{}", k.name(), c.label()))
                .collect();
            let again: Vec<String> = sweep_sample(seed, 3)
                .accuracy
                .iter()
                .map(|(k, c)| format!("{}/{}", k.name(), c.label()))
                .collect();
            assert_eq!(acc, again);
            assert_eq!(s.accuracy.len(), 3);
            assert!(
                acc[1].ends_with("/OoO") && acc[2].contains("/SVR"),
                "{acc:?}"
            );
            accuracy.extend(s.accuracy.iter().map(|(k, _)| k.name()));
        }
        assert!(checks.len() > 4, "the seed picks the check cells");
        assert!(
            accuracy.len() > 20,
            "accuracy points range over the whole suite"
        );
    }

    #[test]
    fn serve_plan_mixes_all_request_kinds() {
        let phases = [Phase {
            rate: 20.0,
            seconds: 10.0,
        }];
        let p = serve_plan(7, &phases, 4);
        let count = |k: Kind| p.reqs.iter().filter(|r| r.kind == k).count();
        assert!(count(Kind::Repeat) > 100);
        assert!(count(Kind::HotFirst) > 10);
        assert!(count(Kind::ColdFirst) > 3);
        assert!(count(Kind::ColdTwin) > 0);
        assert_eq!(p.spot_checks.len(), 4);
        let mut hot = std::collections::BTreeSet::new();
        for (ks, cs) in &p.hot {
            for k in ks {
                for c in cs {
                    hot.insert((k.name(), c.label()));
                }
            }
        }
        assert_eq!(
            hot.len(),
            33 * 3,
            "every kernel has three pre-warmed configs"
        );
        for r in p.reqs.iter().filter(|r| r.kind == Kind::ColdFirst) {
            let key = (r.point.workload.clone(), r.point.config.clone());
            assert!(!hot.contains(&key), "cold point {key:?} is pre-warmed");
        }
        let again = serve_plan(7, &phases, 4);
        assert_eq!(again.reqs.len(), p.reqs.len());
    }
}
