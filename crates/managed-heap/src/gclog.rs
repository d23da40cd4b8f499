//! HotSpot-style GC log: one text line per collection pause.
//!
//! # Line grammar
//!
//! ```text
//! GC(<seq>) <kind> young: <before>-><after> old: <before>-><after> promoted: <bytes> live: <bytes> pause: <ns>ns
//! ```
//!
//! where `<seq>` is a 0-based collection sequence number, `<kind>` is
//! `minor` or `full`, and every quantity is a decimal byte (or nanosecond)
//! count. Example:
//!
//! ```text
//! GC(3) minor young: 2048->96 old: 0->1024 promoted: 1024 live: 1120 pause: 18250ns
//! ```

use crate::stats::PauseRecord;

/// Formats one [`PauseRecord`] as a GC log line:
///
/// ```text
/// GC(<seq>) <kind> young: <before>-><after> old: <before>-><after> promoted: <bytes> live: <bytes> pause: <ns>ns
/// ```
///
/// `seq` is the 0-based collection sequence number.
pub fn format_gc_log_line(seq: u64, record: &PauseRecord) -> String {
    format!(
        "GC({seq}) {} young: {}->{} old: {}->{} promoted: {} live: {} pause: {}ns",
        record.kind.label(),
        record.young_before,
        record.young_after,
        record.old_before,
        record.old_after,
        record.promoted_bytes,
        record.live_bytes,
        record.pause_ns,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::PauseKind;

    #[test]
    fn line_text_is_pinned() {
        let rec = PauseRecord {
            kind: PauseKind::Minor,
            pause_ns: 18_250,
            promoted_bytes: 1_024,
            live_bytes: 1_120,
            young_before: 2_048,
            young_after: 96,
            old_before: 0,
            old_after: 1_024,
        };
        assert_eq!(
            format_gc_log_line(3, &rec),
            "GC(3) minor young: 2048->96 old: 0->1024 promoted: 1024 live: 1120 pause: 18250ns"
        );
        let full = PauseRecord {
            kind: PauseKind::Full,
            ..rec
        };
        assert!(format_gc_log_line(u64::MAX, &full).starts_with("GC(18446744073709551615) full "));
    }
}
