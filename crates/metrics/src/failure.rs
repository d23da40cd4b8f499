//! The failure vocabulary shared by every engine's degradation ladder.
//!
//! Both simulated frameworks (`graphchi-rs`, `hyracks-rs`) classify worker
//! failures the same way — a budget exhaustion or a caught panic — and make
//! the same retry decision from that classification: injected faults and
//! panics are *transient* (an identical retry can succeed), a genuine
//! budget exhaustion is deterministic and forces the ladder down a rung.
//! This module is that vocabulary, extracted so callers match on one shape
//! regardless of which engine produced the error — [`JobFailure`] is the
//! error every engine's run ends in.

use crate::memory::OutOfMemory;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Why a worker failed.
///
/// Marked `#[non_exhaustive]`: engines may grow new failure classes (e.g.
/// I/O or network faults in a real deployment) without breaking matchers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum FailureCause {
    /// The worker's store budget was exhausted.
    OutOfMemory(OutOfMemory),
    /// The worker thread panicked, with the rendered panic message.
    WorkerPanic(String),
    /// The harness injected a process-level crash (`crash_at_interval` /
    /// `crash_in_phase`): the run is aborted mid-job to exercise
    /// crash-restart recovery. Not transient — the remedy is a restart
    /// that resumes from the last durable checkpoint, not a retry.
    InjectedCrash(String),
    /// The host canceled the job; the engine stopped at its next
    /// consistency boundary. Never enters a ladder — nothing failed.
    Canceled,
}

impl FailureCause {
    /// Transient failures may succeed on an identical retry: panics and
    /// injected faults. A genuine budget exhaustion is deterministic, so
    /// retrying at the same rung is pointless and ladders degrade instead.
    /// An injected crash is terminal by design — recovery happens in a new
    /// process, never on the ladder.
    pub fn is_transient(&self) -> bool {
        match self {
            FailureCause::OutOfMemory(e) => e.is_injected(),
            FailureCause::WorkerPanic(_) => true,
            FailureCause::InjectedCrash(_) | FailureCause::Canceled => false,
        }
    }
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureCause::OutOfMemory(e) => write!(f, "{e}"),
            FailureCause::WorkerPanic(m) => write!(f, "worker panicked: {m}"),
            FailureCause::InjectedCrash(m) => write!(f, "injected crash: {m}"),
            FailureCause::Canceled => f.write_str("job canceled"),
        }
    }
}

impl Error for FailureCause {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FailureCause::OutOfMemory(e) => Some(e),
            FailureCause::WorkerPanic(_)
            | FailureCause::InjectedCrash(_)
            | FailureCause::Canceled => None,
        }
    }
}

impl From<OutOfMemory> for FailureCause {
    fn from(e: OutOfMemory) -> Self {
        FailureCause::OutOfMemory(e)
    }
}

/// A run that ended early: its failure survived the engine's retry ladder
/// (or the host canceled it) `after` this long. Every engine's entry point
/// fails with this one type.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Time from the run's start to its failure.
    pub after: Duration,
    /// What ended the run.
    pub cause: FailureCause,
}

impl JobFailure {
    /// The paper's cell tag for this failure (§4.2, Table 3): `OME` for an
    /// exhausted budget, `CANCELED` for a host cancel, `FAILED` otherwise.
    pub fn tag(&self) -> &'static str {
        match self.cause {
            FailureCause::OutOfMemory(_) => "OME",
            FailureCause::Canceled => "CANCELED",
            _ => "FAILED",
        }
    }
}

/// The paper's convention: `OME(n)`, `CANCELED(n)` or `FAILED(n)` with `n`
/// the seconds to failure, then the cause.
impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({:.1})", self.tag(), self.after.as_secs_f64())?;
        match &self.cause {
            FailureCause::OutOfMemory(e) => write!(f, ": {e}"),
            FailureCause::WorkerPanic(m) => write!(f, ": {m}"),
            FailureCause::Canceled => Ok(()),
            cause => write!(f, ": {cause}"),
        }
    }
}

impl Error for JobFailure {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.cause)
    }
}

/// Renders a `catch_unwind` payload into the message a
/// [`FailureCause::WorkerPanic`] carries. Handles the two payload shapes
/// `panic!` produces (`&str` and `String`); anything else is opaque.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genuine_oom_is_deterministic_injected_is_transient() {
        let genuine = FailureCause::from(OutOfMemory::new(10, 5));
        assert!(!genuine.is_transient());
        let injected =
            FailureCause::from(OutOfMemory::new(10, 5).with_context(0, 0, "fault-injection"));
        assert!(injected.is_transient());
        assert!(FailureCause::WorkerPanic("boom".into()).is_transient());
    }

    #[test]
    fn display_and_source() {
        let oom = FailureCause::from(OutOfMemory::new(10, 5));
        assert!(oom.to_string().contains("out of memory"));
        assert!(Error::source(&oom).is_some());
        let panic = FailureCause::WorkerPanic("index out of bounds".into());
        assert!(panic.to_string().contains("worker panicked"), "{panic}");
        assert!(Error::source(&panic).is_none());
    }

    #[test]
    fn job_failure_displays_paper_convention() {
        let failure = |secs, cause| JobFailure {
            after: Duration::from_secs_f64(secs),
            cause,
        };
        let oom = failure(683.1, FailureCause::from(OutOfMemory::new(10, 5)));
        assert!(oom.to_string().starts_with("OME(683.1): "), "{oom}");
        let panic = failure(1.0, FailureCause::WorkerPanic("index out of bounds".into()));
        assert_eq!(panic.to_string(), "FAILED(1.0): index out of bounds");
        let crash = failure(2.0, FailureCause::InjectedCrash("after phase 0".into()));
        assert_eq!(
            crash.to_string(),
            "FAILED(2.0): injected crash: after phase 0"
        );
        let cancel = failure(0.5, FailureCause::Canceled);
        assert_eq!(cancel.to_string(), "CANCELED(0.5)");
        assert!(Error::source(&panic).is_some());
    }

    #[test]
    fn panic_payload_shapes_render() {
        let b: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(b.as_ref()), "static str");
        let b: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(b.as_ref()), "owned");
        let b: Box<dyn std::any::Any + Send> = Box::new(42u8);
        assert_eq!(panic_message(b.as_ref()), "opaque panic payload");
    }
}
