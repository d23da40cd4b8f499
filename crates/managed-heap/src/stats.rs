//! Allocation and collection statistics.
//!
//! Besides the aggregate counters ([`GcStats`]), the heap records one
//! [`PauseRecord`] per collection (bounded; see
//! [`GcStats::MAX_PAUSE_RECORDS`]).

use std::collections::VecDeque;
use std::time::Duration;

/// Which collector produced a pause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PauseKind {
    /// Copying young-generation collection.
    Minor,
    /// Mark-compact full collection.
    Full,
}

impl PauseKind {
    /// Short lowercase label (`"minor"`/`"full"`), used in traces and
    /// reports.
    pub fn label(self) -> &'static str {
        match self {
            PauseKind::Minor => "minor",
            PauseKind::Full => "full",
        }
    }
}

/// One stop-the-world collection, as the paper's Figure 4 pause analysis
/// wants it: what ran, how long it stopped the world, how much it tenured,
/// how the generations shrank, and how much data was live afterwards.
///
/// Rendered one-per-line in HotSpot `-Xlog:gc` style by
/// [`crate::format_gc_log_line`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauseRecord {
    /// Minor or full collection.
    pub kind: PauseKind,
    /// Stop-the-world pause in nanoseconds.
    pub pause_ns: u64,
    /// Bytes promoted (tenured) into the old generation by this collection.
    pub promoted_bytes: u64,
    /// Bytes occupied by live data when the collection finished.
    pub live_bytes: u64,
    /// Young-generation occupancy (bytes) when the collection started.
    pub young_before: u64,
    /// Young-generation occupancy (bytes) when the collection finished.
    pub young_after: u64,
    /// Old-generation occupancy (bytes) when the collection started.
    pub old_before: u64,
    /// Old-generation occupancy (bytes) when the collection finished.
    pub old_after: u64,
}

/// Counters accumulated by a [`crate::Heap`] over its lifetime.
///
/// The benchmark harness reads `gc_time` as the paper's `GT` column and
/// `peak_bytes` as part of `PM`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Number of minor (young-generation) collections.
    pub minor_collections: u64,
    /// Number of full (mark-compact) collections.
    pub full_collections: u64,
    /// Total stop-the-world pause time.
    pub gc_time: Duration,
    /// Objects visited by the collector (copied or marked).
    pub objects_traced: u64,
    /// Bytes physically moved by copying or compaction.
    pub bytes_copied: u64,
    /// Objects ever allocated.
    pub objects_allocated: u64,
    /// Objects reclaimed.
    pub objects_collected: u64,
    /// High-water mark of occupied heap bytes.
    pub peak_bytes: u64,
    /// The most recent collections, one record each, oldest first. Bounded
    /// at [`GcStats::MAX_PAUSE_RECORDS`]: when full, the oldest record is
    /// dropped (`gc_time` and the collection counters still cover every
    /// pause).
    pub pause_records: VecDeque<PauseRecord>,
}

impl GcStats {
    /// Upper bound on retained [`PauseRecord`]s; beyond it the log rotates.
    pub const MAX_PAUSE_RECORDS: usize = 4096;

    /// Total number of collections of either kind.
    pub fn collections(&self) -> u64 {
        self.minor_collections + self.full_collections
    }

    /// Records one finished collection: accumulates `gc_time` and appends
    /// the per-collection record (rotating out the oldest past
    /// [`GcStats::MAX_PAUSE_RECORDS`]).
    pub fn record_pause(&mut self, record: PauseRecord) {
        let pause = Duration::from_nanos(record.pause_ns);
        self.gc_time += pause;
        if self.pause_records.len() == Self::MAX_PAUSE_RECORDS {
            self.pause_records.pop_front();
        }
        self.pause_records.push_back(record);
    }

    /// Folds another stats block into this one (used when aggregating
    /// per-worker heaps into a run-level report).
    pub fn merge(&mut self, other: &GcStats) {
        self.minor_collections += other.minor_collections;
        self.full_collections += other.full_collections;
        self.gc_time += other.gc_time;
        self.objects_traced += other.objects_traced;
        self.bytes_copied += other.bytes_copied;
        self.objects_allocated += other.objects_allocated;
        self.objects_collected += other.objects_collected;
        self.peak_bytes += other.peak_bytes;
        self.pause_records
            .extend(other.pause_records.iter().copied());
        while self.pause_records.len() > Self::MAX_PAUSE_RECORDS {
            self.pause_records.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let mut a = GcStats {
            minor_collections: 1,
            full_collections: 2,
            gc_time: Duration::from_secs(1),
            objects_traced: 10,
            bytes_copied: 100,
            objects_allocated: 20,
            objects_collected: 5,
            peak_bytes: 1000,
            ..GcStats::default()
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.minor_collections, 2);
        assert_eq!(a.full_collections, 4);
        assert_eq!(a.gc_time, Duration::from_secs(2));
        assert_eq!(a.collections(), 6);
        assert_eq!(a.peak_bytes, 2000);
    }

    #[test]
    fn record_pause_accumulates_time_and_rotates() {
        let mut s = GcStats::default();
        for i in 0..GcStats::MAX_PAUSE_RECORDS + 10 {
            s.record_pause(PauseRecord {
                kind: PauseKind::Minor,
                pause_ns: 1_000,
                promoted_bytes: i as u64,
                live_bytes: 0,
                young_before: 0,
                young_after: 0,
                old_before: 0,
                old_after: 0,
            });
        }
        assert_eq!(s.pause_records.len(), GcStats::MAX_PAUSE_RECORDS);
        // Oldest records rotated out, newest kept.
        assert_eq!(s.pause_records.front().unwrap().promoted_bytes, 10);
        assert_eq!(
            s.gc_time,
            Duration::from_nanos(1_000) * (GcStats::MAX_PAUSE_RECORDS as u32 + 10)
        );
    }
}
