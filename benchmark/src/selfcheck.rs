//! `--self-check`: does the benchmark agree with itself?
//!
//! Runs every workload in two sets of [`RUNS_PER_SET`] untraced runs (the
//! same seeds in both sets), and compares, per workload and end-to-end
//! metric, the two sets' medians against the metric's bound. Identical code
//! measured twice must agree within the bound a later change will be
//! judged by; if it does not, the fix is longer reps or a better matched
//! native reference, never a wider bound.

use crate::harness::{Budget, RunOptions};
use crate::report::END_TO_END;
use crate::stats::median;
use crate::workloads::NAMES;

/// Runs in each of the two sets.
pub const RUNS_PER_SET: usize = 3;
/// Seeds of one set's runs.
pub const SEEDS: [u64; RUNS_PER_SET] = [42, 7, 1];

/// One row of the self-check table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Median of the first set.
    pub first: f64,
    /// Median of the second set.
    pub second: f64,
    /// The metric's bound.
    pub bound: f64,
}

impl Row {
    /// `|second - first| / first`.
    pub fn gap(&self) -> f64 {
        ((self.second - self.first) / self.first).abs()
    }

    /// Whether the two sets agree within the bound.
    pub fn ok(&self) -> bool {
        self.gap() <= self.bound
    }
}

/// Runs the self-check; the rows, plus the total of failed operations.
pub fn run(seconds: f64) -> (Vec<Row>, u64) {
    let mut rows = Vec::new();
    let mut failed = 0;
    for workload in NAMES {
        let mut sets: [Vec<Vec<f64>>; 2] = Default::default();
        for set in &mut sets {
            *set = vec![Vec::new(); END_TO_END.len()];
            for seed in SEEDS {
                let opts = RunOptions {
                    seed,
                    budget: Budget::Seconds(seconds),
                    traced: false,
                };
                let (report, _) = crate::run_workload(workload, &opts).expect("catalogue name");
                failed += report.failed;
                for (values, def) in set.iter_mut().zip(END_TO_END) {
                    values.push(report.value(def.name));
                }
                eprintln!(
                    "self-check: {workload} seed {seed}: {}",
                    report.result_json()
                );
            }
        }
        for (i, def) in END_TO_END.iter().enumerate() {
            rows.push(Row {
                workload,
                metric: def.name,
                first: median(&sets[0][i]),
                second: median(&sets[1][i]),
                bound: def.bound.expect("end-to-end metrics carry a bound"),
            });
        }
    }
    (rows, failed)
}

/// Renders the rows as the table `README.md` quotes.
pub fn table(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<20} {:>14} {:>14} {:>8} {:>7}  verdict\n",
        "workload", "metric", "set 1 median", "set 2 median", "gap", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<20} {:>14.6} {:>14.6} {:>7.2}% {:>6.0}%  {}\n",
            r.workload,
            r.metric,
            r.first,
            r.second,
            r.gap() * 100.0,
            r.bound * 100.0,
            if r.ok() { "ok" } else { "GAP ABOVE BOUND" }
        ));
    }
    out
}
