//! Interpreter errors.

use crate::interp::MAX_CALL_DEPTH;
use facade_runtime::MAX_LOCK_IDS;
use metrics::OutOfMemory;
use std::error::Error;
use std::fmt;

/// A runtime failure during interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// The backing store ran out of memory (heap budget or page budget).
    OutOfMemory(OutOfMemory),
    /// Null dereference, with a description of the operation.
    NullDeref(String),
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// The program has no entry point.
    NoEntry,
    /// An instruction was illegal in the current mode (e.g. a paged
    /// instruction in a heap-mode run).
    IllegalInstruction(String),
    /// Execution exceeded the configured step budget (runaway loop guard).
    StepBudgetExceeded,
    /// A call would have made more than 65 536 frames active at once
    /// (runaway recursion guard; the depth is fixed, not a setting).
    CallDepthExceeded,
    /// A paged `monitorenter` needed a lock ID while all 32 767 were held
    /// (IDs fill a 15-bit record header field; the cap is not a setting).
    LockIdsExhausted,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::OutOfMemory(e) => write!(f, "{e}"),
            VmError::NullDeref(what) => write!(f, "null dereference in {what}"),
            VmError::DivisionByZero => write!(f, "division by zero"),
            VmError::NoEntry => write!(f, "program has no entry point"),
            VmError::IllegalInstruction(what) => write!(f, "illegal instruction: {what}"),
            VmError::StepBudgetExceeded => write!(f, "step budget exceeded"),
            VmError::CallDepthExceeded => {
                write!(f, "call depth exceeded ({MAX_CALL_DEPTH} active frames)")
            }
            VmError::LockIdsExhausted => {
                write!(
                    f,
                    "lock IDs exhausted ({MAX_LOCK_IDS} record monitors held)"
                )
            }
        }
    }
}

impl Error for VmError {}

impl From<OutOfMemory> for VmError {
    fn from(e: OutOfMemory) -> Self {
        VmError::OutOfMemory(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = VmError::NullDeref("getfield Point.x".into());
        assert!(e.to_string().contains("Point.x"));
        let oom: VmError = OutOfMemory::new(10, 5).into();
        assert!(oom.to_string().contains("out of memory"));
    }
}
