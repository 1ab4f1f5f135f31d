//! Typed errors for the parallel mining engine.
//!
//! Error-handling policy (DESIGN.md §11): every parallel run isolates each
//! worker task with `catch_unwind`. The fallible `try_count_*` APIs surface
//! failures as [`EngineError`] values carrying the failed root partitions,
//! so a long-running host process (the bench harness, a service) can report
//! and continue instead of aborting; the infallible `count_*` APIs panic
//! with the same error (plans produced by the compiler cannot panic the
//! interpreter, so a panic there is a bug).

use std::error::Error;
use std::fmt;

use fingers_verify::VerifyReport;

use crate::cancel::CancelKind;
use crate::task::MiningTask;

/// One isolated worker failure: the root partition whose task panicked,
/// plus the panic payload rendered as text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionFailure {
    /// The root range whose DFS panicked.
    pub task: MiningTask,
    /// The panic message (`"non-string panic payload"` when the payload
    /// was neither `&str` nor `String`).
    pub message: String,
}

impl fmt::Display for PartitionFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "roots [{}, {}): {}",
            self.task.start, self.task.end, self.message
        )
    }
}

/// Error produced by the fallible parallel mining APIs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// One or more worker tasks panicked. Every failed partition is
    /// reported; counts from the surviving partitions are discarded (a
    /// partial count would silently under-report).
    WorkerPanic {
        /// The failed partitions, in ascending root order.
        failures: Vec<PartitionFailure>,
    },
    /// The execution plan failed static verification before any worker
    /// ran (see `fingers_verify::verify`): the engine refuses to execute
    /// a plan that would read unmaterialized buffers or miscount.
    InvalidPlan {
        /// The verifier's full report, including every diagnostic.
        report: VerifyReport,
    },
    /// The run's [`crate::cancel::CancelToken`] fired (explicit cancel or
    /// deadline) and every worker stopped at its next root-task boundary.
    /// All partial counts were discarded — a partial count is
    /// indistinguishable from a correct smaller one, so none ever leaks.
    Cancelled {
        /// Whether the token was cancelled explicitly or by deadline.
        kind: CancelKind,
    },
    /// The query's metered memory footprint crossed its byte budget and
    /// every worker stopped at its next root-task boundary — the same
    /// cooperative, all-or-nothing contract as [`EngineError::Cancelled`]:
    /// partial counts are discarded, the miner state stays reusable, and
    /// the shared gauge returns to baseline.
    MemBudgetExceeded {
        /// Metered bytes at the boundary that tripped the budget.
        used_bytes: u64,
        /// The configured per-query budget.
        budget_bytes: u64,
    },
}

impl EngineError {
    /// The failed root partitions (empty for pre-run failures like
    /// [`EngineError::InvalidPlan`], where no task ever started).
    pub fn failed_partitions(&self) -> &[PartitionFailure] {
        match self {
            EngineError::WorkerPanic { failures } => failures,
            _ => &[],
        }
    }

    /// Why the run was cancelled, when it was (`None` for every other
    /// failure mode).
    pub fn cancel_kind(&self) -> Option<CancelKind> {
        match self {
            EngineError::Cancelled { kind } => Some(*kind),
            _ => None,
        }
    }

    /// The `(used, budget)` bytes of a memory-budget abort (`None` for
    /// every other failure mode).
    pub fn mem_budget(&self) -> Option<(u64, u64)> {
        match self {
            EngineError::MemBudgetExceeded {
                used_bytes,
                budget_bytes,
            } => Some((*used_bytes, *budget_bytes)),
            _ => None,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::WorkerPanic { failures } => {
                write!(
                    f,
                    "{} mining task{} panicked",
                    failures.len(),
                    if failures.len() == 1 { "" } else { "s" }
                )?;
                for failure in failures {
                    write!(f, "; {failure}")?;
                }
                Ok(())
            }
            EngineError::InvalidPlan { report } => {
                write!(f, "execution plan failed static verification: {report}")
            }
            EngineError::Cancelled { kind } => match kind {
                CancelKind::Explicit => write!(f, "mining run cancelled"),
                CancelKind::Deadline => write!(f, "mining run exceeded its deadline"),
            },
            EngineError::MemBudgetExceeded {
                used_bytes,
                budget_bytes,
            } => write!(
                f,
                "mining run exceeded its memory budget ({used_bytes} bytes used, \
                 budget {budget_bytes})"
            ),
        }
    }
}

impl Error for EngineError {}

/// Renders a `catch_unwind` payload as text.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_every_failed_partition() {
        let e = EngineError::WorkerPanic {
            failures: vec![
                PartitionFailure {
                    task: MiningTask { start: 0, end: 10 },
                    message: "boom".into(),
                },
                PartitionFailure {
                    task: MiningTask { start: 30, end: 40 },
                    message: "bang".into(),
                },
            ],
        };
        let msg = e.to_string();
        assert!(msg.contains("2 mining tasks panicked"), "{msg}");
        assert!(msg.contains("[0, 10): boom"), "{msg}");
        assert!(msg.contains("[30, 40): bang"), "{msg}");
        assert_eq!(e.failed_partitions().len(), 2);
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<EngineError>();
    }

    #[test]
    fn panic_payloads_render() {
        assert_eq!(panic_message(Box::new("static")), "static");
        assert_eq!(panic_message(Box::new(String::from("owned"))), "owned");
        assert_eq!(panic_message(Box::new(42u32)), "non-string panic payload");
    }
}
