//! The out-of-memory error and byte formatting.

use std::error::Error;
use std::fmt;

/// The run exceeded its memory budget.
///
/// Mirrors the JVM's `OutOfMemoryError`: §4.2 of the paper treats a run whose
/// total consumption (heap plus native pages) passes the budget as a failed,
/// "out-of-memory" execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes the failing allocation would have brought the total to.
    pub attempted: u64,
    /// The configured budget in bytes.
    pub budget: u64,
    /// Bytes the failing allocator already held when the allocation failed
    /// (zero when the failure site did not record context).
    pub held: u64,
    /// Bytes the failing allocation itself requested (zero when the failure
    /// site did not record context).
    pub requested: u64,
    /// Static label of the failure site, e.g. `"paged-heap"`, `"oversize"`,
    /// `"heap-old-gen"`, or `"fault-injection"` for injected faults. Empty
    /// when the site did not record context.
    pub site: &'static str,
}

impl OutOfMemory {
    /// Creates an error with no site context (the pre-context shape).
    pub fn new(attempted: u64, budget: u64) -> Self {
        Self {
            attempted,
            budget,
            held: 0,
            requested: 0,
            site: "",
        }
    }

    /// Attaches held/requested byte counts and a failure-site label, so
    /// degraded-mode decisions and error messages carry the numbers.
    #[must_use]
    pub fn with_context(mut self, held: u64, requested: u64, site: &'static str) -> Self {
        self.held = held;
        self.requested = requested;
        self.site = site;
        self
    }

    /// Whether this failure was injected by the fault harness rather than a
    /// genuine budget exhaustion. Injected faults are transient: retrying at
    /// the same rung can succeed, so degradation ladders treat them
    /// differently from deterministic OOMs.
    pub fn is_injected(&self) -> bool {
        self.site == "fault-injection"
    }
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of memory: needed {} against a budget of {}",
            format_bytes(self.attempted),
            format_bytes(self.budget)
        )?;
        if !self.site.is_empty() {
            write!(
                f,
                " (at {}: held {}, requested {})",
                self.site,
                format_bytes(self.held),
                format_bytes(self.requested)
            )?;
        }
        Ok(())
    }
}

impl Error for OutOfMemory {}

/// Formats a byte count using binary units, e.g. `1.5 MiB`.
///
/// # Examples
///
/// ```
/// assert_eq!(metrics::format_bytes(0), "0 B");
/// assert_eq!(metrics::format_bytes(1536), "1.50 KiB");
/// assert_eq!(metrics::format_bytes(3 * 1024 * 1024), "3.00 MiB");
/// ```
pub fn format_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    if bytes < 1024 {
        return format!("{bytes} B");
    }
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    format!("{value:.2} {}", UNITS[unit])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_memory_displays_units() {
        let err = OutOfMemory::new(2048, 1024);
        let text = err.to_string();
        assert!(text.contains("2.00 KiB"), "{text}");
        assert!(text.contains("1.00 KiB"), "{text}");
    }

    #[test]
    fn out_of_memory_context_is_displayed_and_classified() {
        let err = OutOfMemory::new(2048, 1024).with_context(1536, 512, "paged-heap");
        let text = err.to_string();
        assert!(text.contains("paged-heap"), "{text}");
        assert!(text.contains("1.50 KiB"), "{text}");
        assert!(!err.is_injected());
        let injected = OutOfMemory::new(1, 0).with_context(0, 1, "fault-injection");
        assert!(injected.is_injected());
    }
}
