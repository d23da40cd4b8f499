//! Allocation statistics for the paged heap.

/// Counters accumulated by a [`crate::PagedHeap`] over its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NativeStats {
    /// Pages ever created (page objects — the `p` of `O(t*n + p)`).
    pub pages_created: u64,
    /// Pages recycled by iteration ends.
    pub pages_recycled: u64,
    /// Pages adopted from the shared [`crate::PagePool`].
    pub pages_from_pool: u64,
    /// Pages surrendered back to the shared [`crate::PagePool`].
    pub pages_to_pool: u64,
    /// Records ever allocated.
    pub records_allocated: u64,
    /// Oversize buffers ever created.
    pub oversize_created: u64,
    /// Oversize buffers freed (early or by iteration end).
    pub oversize_freed: u64,
    /// Iterations started.
    pub iterations_started: u64,
    /// Iterations ended.
    pub iterations_ended: u64,
    /// High-water mark of native bytes held.
    pub peak_bytes: u64,
}

impl NativeStats {
    /// Folds another stats block into this one (aggregating per-thread
    /// heaps into a run-level report).
    pub fn merge(&mut self, other: &NativeStats) {
        self.pages_created += other.pages_created;
        self.pages_recycled += other.pages_recycled;
        self.pages_from_pool += other.pages_from_pool;
        self.pages_to_pool += other.pages_to_pool;
        self.records_allocated += other.records_allocated;
        self.oversize_created += other.oversize_created;
        self.oversize_freed += other.oversize_freed;
        self.iterations_started += other.iterations_started;
        self.iterations_ended += other.iterations_ended;
        self.peak_bytes += other.peak_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let mut a = NativeStats {
            pages_created: 1,
            pages_recycled: 2,
            pages_from_pool: 9,
            pages_to_pool: 10,
            records_allocated: 3,
            oversize_created: 4,
            oversize_freed: 5,
            iterations_started: 6,
            iterations_ended: 7,
            peak_bytes: 8,
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.pages_created, 2);
        assert_eq!(a.iterations_ended, 14);
        assert_eq!(a.peak_bytes, 16);
    }
}
