//! Transformation statistics (the paper reports compilation speed in
//! instructions per second, e.g. 752.7/s for GraphChi, §4.1).

use std::time::Duration;

/// Statistics about one transformation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformReport {
    /// Number of data classes transformed.
    pub classes_transformed: usize,
    /// Number of data-path methods given facade counterparts.
    pub methods_transformed: usize,
    /// Methods of the input program left with only a declaration because
    /// the entry point cannot reach them (a data-path one's facade
    /// counterpart stays body-less too).
    pub methods_cut: usize,
    /// Instructions of the input methods actually rewritten, i.e. those not
    /// cut (the paper's speed denominator).
    pub instructions_transformed: usize,
    /// Interaction points at which conversions were synthesized (§3.5).
    pub interaction_points: usize,
    /// Virtual call sites statically resolved to direct calls (§3.6).
    pub devirtualized_calls: usize,
    /// Wall-clock transformation time.
    pub duration: Duration,
}

impl TransformReport {
    /// Compilation speed in instructions per second.
    pub fn instructions_per_second(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs > 0.0 {
            self.instructions_transformed as f64 / secs
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_instructions_over_seconds() {
        let r = TransformReport {
            classes_transformed: 1,
            methods_transformed: 2,
            methods_cut: 0,
            instructions_transformed: 1000,
            interaction_points: 0,
            devirtualized_calls: 0,
            duration: Duration::from_secs(2),
        };
        assert_eq!(r.instructions_per_second(), 500.0);
    }

    #[test]
    fn zero_duration_reports_infinity() {
        let r = TransformReport {
            classes_transformed: 0,
            methods_transformed: 0,
            methods_cut: 0,
            instructions_transformed: 10,
            interaction_points: 0,
            devirtualized_calls: 0,
            duration: Duration::ZERO,
        };
        assert!(r.instructions_per_second().is_infinite());
    }
}
