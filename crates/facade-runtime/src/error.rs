//! Typed errors for paged-heap misuse.
//!
//! Hot-path accessors used to `panic!` on malformed requests (asking for the
//! element kind of a non-array record, double-freeing an oversize buffer).
//! Engines that degrade instead of dying need these as values they can
//! catch, log, and recover from, so they are a real error type.

use std::error::Error;
use std::fmt;

/// A structurally invalid request against a [`crate::PagedHeap`].
///
/// These are caller bugs rather than resource exhaustion — out-of-memory
/// conditions use [`metrics::OutOfMemory`] — but surfacing them as values
/// lets a supervising engine fail one unit of work instead of the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapError {
    /// An array operation was applied to a record whose type ID is not one
    /// of the four array kinds.
    NotAnArray {
        /// The record's actual type ID.
        type_id: u16,
    },
    /// [`crate::PagedHeap::free_oversize`] was called on a paged (non-
    /// oversize) reference.
    NotOversize,
    /// The oversize buffer at this index was already freed.
    OversizeDoubleFree {
        /// Index into the oversize table.
        index: u32,
    },
    /// [`crate::PagedHeap::monitor_enter`] needed a new lock ID while all
    /// [`crate::MAX_LOCK_IDS`] were held.
    LockIdsExhausted,
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::NotAnArray { type_id } => {
                write!(f, "record type {type_id} is not an array")
            }
            HeapError::NotOversize => write!(f, "free_oversize on a paged record"),
            HeapError::OversizeDoubleFree { index } => {
                write!(f, "oversize double free (index {index})")
            }
            HeapError::LockIdsExhausted => write!(
                f,
                "all {} lock IDs are held (15-bit lock-ID header field)",
                crate::MAX_LOCK_IDS
            ),
        }
    }
}

impl Error for HeapError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_the_numbers() {
        assert_eq!(
            HeapError::NotAnArray { type_id: 7 }.to_string(),
            "record type 7 is not an array"
        );
        assert!(
            HeapError::OversizeDoubleFree { index: 3 }
                .to_string()
                .contains("index 3")
        );
    }
}
