//! Time-series recording for figures and experiments.
//!
//! The recorder stores named series of `(seconds, value)` points and
//! exports long-format CSV (`series,time,value`) — the format the
//! benchmark harness turns into the paper's figures.

use fib_igp::time::Timestamp;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A named collection of time series.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    series: BTreeMap<String, Vec<(f64, f64)>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Append a point to a series (created on first use; only then is
    /// its name copied).
    pub fn record(&mut self, series: &str, at: Timestamp, value: f64) {
        let point = (at.as_secs_f64(), value);
        match self.series.get_mut(series) {
            Some(points) => points.push(point),
            None => {
                self.series.insert(series.to_string(), vec![point]);
            }
        }
    }

    /// The points of one series.
    pub fn series(&self, name: &str) -> &[(f64, f64)] {
        self.series.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// All series names.
    pub fn names(&self) -> Vec<&str> {
        self.series.keys().map(|s| s.as_str()).collect()
    }

    /// Maximum value of a series (`None` if empty/unknown).
    pub fn max(&self, name: &str) -> Option<f64> {
        self.series
            .get(name)?
            .iter()
            .map(|(_, v)| *v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Mean value of a series over `[from, to)` seconds.
    pub fn mean_over(&self, name: &str, from: f64, to: f64) -> Option<f64> {
        let pts: Vec<f64> = self
            .series
            .get(name)?
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|(_, v)| *v)
            .collect();
        if pts.is_empty() {
            None
        } else {
            Some(pts.iter().sum::<f64>() / pts.len() as f64)
        }
    }

    /// Long-format CSV export (`series,time,value`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,time,value\n");
        for (name, pts) in &self.series {
            for (t, v) in pts {
                let _ = writeln!(out, "{name},{t:.6},{v:.6}");
            }
        }
        out
    }

    /// Render series as a compact ASCII chart (rows = series), used by
    /// examples to visualize Fig. 2-style results in a terminal.
    pub fn ascii_chart(&self, names: &[&str], width: usize, t_max: f64, v_max: f64) -> String {
        let mut out = String::new();
        for name in names {
            let pts = self.series(name);
            let mut row = vec![b' '; width];
            for (t, v) in pts {
                if *t > t_max {
                    continue;
                }
                let x = ((t / t_max) * (width.saturating_sub(1)) as f64) as usize;
                let level = (v / v_max * 8.0).clamp(0.0, 8.0) as usize;
                const BARS: [u8; 9] = [b' ', b'.', b':', b'-', b'=', b'+', b'*', b'#', b'@'];
                row[x.min(width - 1)] = BARS[level];
            }
            let _ = writeln!(out, "{name:>10} |{}|", String::from_utf8_lossy(&row));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn record_and_query() {
        let mut r = Recorder::new();
        r.record("a", t(0), 1.0);
        r.record("a", t(500), 3.0);
        r.record("a", t(1000), 2.0);
        r.record("b", t(0), 9.0);
        assert_eq!(r.series("a"), [(0.0, 1.0), (0.5, 3.0), (1.0, 2.0)]);
        assert_eq!(r.max("a"), Some(3.0));
        assert_eq!(r.max("zzz"), None);
        assert_eq!(r.names(), vec!["a", "b"]);
        let m = r.mean_over("a", 0.0, 1.1).unwrap();
        assert!((m - 2.0).abs() < 1e-9);
    }

    #[test]
    fn csv_is_long_format() {
        let mut r = Recorder::new();
        r.record("x", t(1000), 5.0);
        let csv = r.to_csv();
        assert!(csv.starts_with("series,time,value\n"));
        assert!(csv.contains("x,1.000000,5.000000"));
    }

    #[test]
    fn ascii_chart_renders_each_series() {
        let mut r = Recorder::new();
        for i in 0..10 {
            r.record("s1", t(i * 100), i as f64);
        }
        let chart = r.ascii_chart(&["s1"], 20, 1.0, 10.0);
        assert!(chart.contains("s1"));
        assert!(chart.contains('|'));
    }
}
