//! In-memory span log for the traced run.
//!
//! Every call the benchmark makes into a layer's public API is wrapped in a
//! span: its name, start and end (ns since the log was created), the span
//! that caused it and a per-request id. Spans stay in memory until the run
//! ends; [`SpanLog::write`] then writes them out with each name's total and
//! self time (duration minus the part covered by child spans).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use svr_sim::json::Json;

/// One recorded span. `parent == 0` means a root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct SpanLog {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span; `f` receives the span's id so that it can
    /// open children. Returns `f`'s value and the span's duration in ms.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let span = Span {
            name,
            id,
            parent,
            req,
            start_ns,
            end_ns,
        };
        let ms = span.ms();
        self.spans
            .lock()
            .expect("span log lock poisoned")
            .push(span);
        (out, ms)
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span log lock poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per span name: (count, total ms, self ms).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans.lock().expect("span log lock poisoned");
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let covered = children.get(&s.id).map_or(0, |c| union_ns(c));
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total as f64 / 1e6;
            e.2 += total.saturating_sub(covered) as f64 / 1e6;
        }
        out
    }

    /// Writes every span and the per-name summary to `path` as JSON.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let summary = self.summary();
        let spans = self.spans.lock().expect("span log lock poisoned");
        let rows: Vec<Json> = spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::str(s.name)),
                    ("id".into(), Json::u64(s.id)),
                    ("parent".into(), Json::u64(s.parent)),
                    ("req".into(), Json::u64(s.req)),
                    ("start_ns".into(), Json::u64(s.start_ns)),
                    ("end_ns".into(), Json::u64(s.end_ns)),
                ])
            })
            .collect();
        let names: Vec<(String, Json)> = summary
            .into_iter()
            .map(|(name, (count, total, own))| {
                let row = Json::Obj(vec![
                    ("count".into(), Json::u64(count)),
                    ("total_ms".into(), Json::f64(total)),
                    ("self_ms".into(), Json::f64(own)),
                ]);
                (name.to_string(), row)
            })
            .collect();
        let doc = Json::Obj(vec![
            ("summary".into(), Json::Obj(names)),
            ("spans".into(), Json::Arr(rows)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {dir:?}: {e}"))?;
        }
        std::fs::write(path, doc.dump()).map_err(|e| format!("write {path:?}: {e}"))
    }
}

/// [`SpanLog::span`] when `log` is set; otherwise `f` runs untraced (its
/// span id is 0) and is only timed.
pub fn timed<T>(
    log: Option<&SpanLog>,
    name: &'static str,
    parent: u64,
    req: u64,
    f: impl FnOnce(u64) -> T,
) -> (T, f64) {
    match log {
        Some(l) => l.span(name, parent, req, f),
        None => {
            let t0 = Instant::now();
            let out = f(0);
            (out, t0.elapsed().as_secs_f64() * 1e3)
        }
    }
}

/// Total length of the union of `[start, end)` intervals.
fn union_ns(intervals: &[(u64, u64)]) -> u64 {
    let mut v = intervals.to_vec();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(&[(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(&[]), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let log = SpanLog::new();
        log.span("outer", 0, 7, |id| {
            log.span("inner", id, 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let s = log.summary();
        let (n, total, own) = s["outer"];
        assert_eq!(n, 1);
        assert!(own < total, "self {own} < total {total}");
        assert!(s["inner"].1 >= 5.0);
    }
}
