//! Small numeric helpers: order statistics, the report digest and the
//! process high-water RSS.

use svr_sim::{fnv1a64, report_to_json, RunReport};

/// Quantile of `values` (`q` in `0..=1`), interpolated linearly between
/// the two nearest order statistics; `0.0` when empty. A sweep has only a
/// few points per repetition, and a nearest-rank quantile of so few jumps
/// from one point's time to the next's as their order changes. Infinite
/// values (failed requests) stay infinite.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    if frac == 0.0 || v[lo] == v[hi] {
        return v[lo];
    }
    v[lo] + (v[hi] - v[lo]) * frac
}

/// Median (interpolated p50).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Digest of a list of reports: FNV-1a over their canonical JSON, in order.
/// Equal digests mean bit-identical simulated statistics.
pub fn digest<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> String {
    let mut text = String::new();
    for r in reports {
        text.push_str(&report_to_json(r).dump());
        text.push('\n');
    }
    format!("{:016x}", fnv1a64(&text))
}

/// High-water resident set size of process `pid` in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    status_mb(pid, "VmHWM:")
}

/// Current resident set size of process `pid` in MiB (`VmRSS`).
pub fn rss_mb(pid: u32) -> Result<f64, String> {
    status_mb(pid, "VmRSS:")
}

fn status_mb(pid: u32, field: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} line in {path}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.5);
        assert!((quantile(&v, 0.9) - 9.1).abs() < 1e-9);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 0.9), f64::INFINITY);
        assert_eq!(quantile(&[1.0, 2.0, f64::INFINITY], 0.5), 2.0);
    }

    #[test]
    fn own_rss_is_positive_and_below_its_peak() {
        let pid = std::process::id();
        let now = rss_mb(pid).unwrap();
        assert!(now > 0.0);
        assert!(now <= peak_rss_mb(pid).unwrap());
    }
}
