//! The typed error every fallible miner returns instead of aborting.

use std::time::Duration;

/// Why a `try_mine_*` run ended without a result.
///
/// The paper's drivers assume a benign dedicated SMP and abort the whole
/// process on any worker failure; a service cannot. Every parallel driver
/// in the workspace maps the three ways a run can die onto this enum and
/// guarantees that by the time it is returned **all worker threads have
/// joined** and no shared state (trees, counters, scratch pools) is left
/// mid-mutation — a retry on the same inputs is bit-identical to a run
/// that never failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MiningError {
    /// The run's [`CancelToken`](crate::CancelToken) was cancelled.
    Cancelled {
        /// Phase in which the cancellation was observed.
        phase: &'static str,
        /// Time from run start to the driver returning.
        elapsed: Duration,
    },
    /// The token's deadline passed while the run was in flight.
    DeadlineExceeded {
        /// Phase in which the expired deadline was observed.
        phase: &'static str,
        /// Time from run start to the driver returning.
        elapsed: Duration,
    },
    /// A worker thread panicked. Siblings were cancelled, every thread
    /// was joined, and the first payload (lowest thread index) captured.
    WorkerPanicked {
        /// Index of the panicking worker.
        thread: usize,
        /// Phase the worker was executing.
        phase: &'static str,
        /// The panic payload rendered as text (`&str`/`String` payloads
        /// verbatim, anything else a placeholder).
        payload: String,
    },
    /// The configuration cannot be run; rejected before any worker
    /// thread starts.
    InvalidConfig {
        /// The offending configuration field.
        field: &'static str,
        /// What the field must be instead.
        expected: &'static str,
    },
}

impl MiningError {
    /// The phase the error was observed in (`"config"` for a rejected
    /// configuration: no phase ran).
    pub fn phase(&self) -> &'static str {
        match self {
            MiningError::Cancelled { phase, .. }
            | MiningError::DeadlineExceeded { phase, .. }
            | MiningError::WorkerPanicked { phase, .. } => phase,
            MiningError::InvalidConfig { .. } => "config",
        }
    }
}

impl std::fmt::Display for MiningError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MiningError::Cancelled { phase, elapsed } => {
                write!(f, "mining cancelled during {phase} after {elapsed:?}")
            }
            MiningError::DeadlineExceeded { phase, elapsed } => {
                write!(
                    f,
                    "mining deadline exceeded during {phase} after {elapsed:?}"
                )
            }
            MiningError::WorkerPanicked {
                thread,
                phase,
                payload,
            } => {
                write!(f, "worker {thread} panicked during {phase}: {payload}")
            }
            MiningError::InvalidConfig { field, expected } => {
                write!(f, "invalid configuration: {field} must be {expected}")
            }
        }
    }
}

impl std::error::Error for MiningError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = MiningError::WorkerPanicked {
            thread: 3,
            phase: "count",
            payload: "boom".into(),
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains("count") && s.contains("boom"));
        assert_eq!(e.phase(), "count");

        let c = MiningError::Cancelled {
            phase: "f1",
            elapsed: Duration::from_millis(5),
        };
        assert!(c.to_string().contains("cancelled during f1"));
        assert_eq!(c.phase(), "f1");

        let d = MiningError::DeadlineExceeded {
            phase: "mine",
            elapsed: Duration::ZERO,
        };
        assert!(d.to_string().contains("deadline"));

        let i = MiningError::InvalidConfig {
            field: "leaf_threshold",
            expected: "at least 1",
        };
        assert_eq!(
            i.to_string(),
            "invalid configuration: leaf_threshold must be at least 1"
        );
        assert_eq!(i.phase(), "config");
    }
}
