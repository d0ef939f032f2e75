//! Order statistics, peak memory, and the result line.

use std::fmt::Write as _;

use mosaic_types::{Error, Result};

/// The `q`-quantile of `values` (linear interpolation between closest
/// ranks); `NaN` for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The sum of each column's median over `rows`: the run time of a
/// sequence of steps, taken step by step, so that a slow spell of the
/// host in one iteration moves only the steps it overlapped.
pub fn sum_of_medians(rows: &[Vec<f64>]) -> f64 {
    let columns = rows.iter().map(Vec::len).max().unwrap_or(0);
    (0..columns)
        .map(|c| {
            let column: Vec<f64> = rows.iter().filter_map(|r| r.get(c).copied()).collect();
            median(&column)
        })
        .sum()
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
///
/// # Errors
///
/// [`Error::Io`] if the file cannot be read or has no `VmHWM` line.
pub fn peak_rss_mb(status_path: &str) -> Result<f64> {
    let text = std::fs::read_to_string(status_path).map_err(|e| Error::Io {
        path: status_path.to_string(),
        message: e.to_string(),
    })?;
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| Error::Io {
            path: status_path.to_string(),
            message: "no VmHWM line".to_string(),
        })
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` declares it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `ms`, `1/s`, `MiB`, `B`, `count`, `ratio`).
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN; a metric that was never measured is `null`.
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn sum_of_medians_takes_each_step_on_its_own() {
        let rows = [vec![1.0, 10.0], vec![5.0, 2.0], vec![2.0, 3.0]];
        assert_eq!(sum_of_medians(&rows), 2.0 + 3.0);
        assert_eq!(sum_of_medians(&[]), 0.0);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_json(true, 3, 0, &[Metric::new("wall_s", 1.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
