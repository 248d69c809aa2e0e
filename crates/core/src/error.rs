//! Error types for the RHEEM core.
//!
//! All fallible public APIs in this workspace return [`RheemError`] (or a
//! crate-local error that converts into it). The variants mirror the stages
//! of the paper's pipeline: plan construction, optimization, and execution.
//!
//! Every error also carries a *taxonomy* ([`ErrorKind`], via
//! [`RheemError::classify`]): the executor's fault-tolerance machinery
//! retries only [`ErrorKind::Transient`] failures, fails fast on
//! [`ErrorKind::Permanent`] ones, and treats
//! [`ErrorKind::ResourceExhausted`] as "this resource won't recover by
//! retrying here" (an open circuit breaker, an expired budget).

use std::fmt;

use crate::plan::NodeId;

/// Coarse failure taxonomy driving the executor's retry policy (§4.2 duty
/// iii — see `DESIGN.md` §9).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// The operation may succeed if simply retried on the same platform
    /// (engine hiccup, I/O glitch, injected chaos). The only kind the
    /// executor spends retry budget on.
    Transient,
    /// Retrying cannot help: the plan, data, or configuration is wrong
    /// (type errors, invalid plans, unknown platforms). The executor fails
    /// fast after exactly one attempt. `panic: true` marks the subclass
    /// caught by the executor's unwind barrier — a UDF or kernel panicked
    /// rather than returning an error (see `DESIGN.md` §14).
    Permanent {
        /// The failure was a caught panic, not a returned error.
        panic: bool,
    },
    /// A bounded resource is gone — the job deadline expired or a
    /// platform's circuit breaker is open. Retrying *here* is pointless;
    /// an open breaker instead makes the atom a failover candidate.
    ResourceExhausted,
    /// The job was cooperatively cancelled ([`crate::fault::CancelToken`]):
    /// the client disconnected, the deadline expired at a checkpoint, the
    /// server is shutting down, or an explicit `CANCEL` arrived. Never
    /// retried, never a failover candidate — the work is unwanted, not
    /// broken.
    Cancelled,
}

/// Why a [`crate::fault::CancelToken`] fired. Carried by
/// [`RheemError::Cancelled`] so the edge can report *who* abandoned the
/// job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// The session owning the job hung up mid-flight.
    ClientDisconnect,
    /// The request's deadline budget ran out.
    DeadlineExceeded,
    /// The service is shutting down and draining in-flight work.
    Shutdown,
    /// An explicit cancel request (wire `CANCEL` or a direct API call).
    Explicit,
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CancelReason::ClientDisconnect => "client disconnect",
            CancelReason::DeadlineExceeded => "deadline exceeded",
            CancelReason::Shutdown => "shutdown",
            CancelReason::Explicit => "explicit cancel",
        })
    }
}

/// The unified error type of the RHEEM core.
#[derive(Debug)]
pub enum RheemError {
    /// A plan failed structural validation (bad arity, cycle, dangling edge).
    InvalidPlan(String),
    /// A record did not have the shape an operator expected.
    Type {
        /// What the operator expected, e.g. `"Int at field 2"`.
        expected: String,
        /// What was actually found.
        found: String,
    },
    /// A field index was out of bounds for a record.
    FieldOutOfBounds {
        /// The requested field index.
        index: usize,
        /// The record's width.
        width: usize,
    },
    /// The optimizer could not produce an execution plan.
    Optimizer(String),
    /// No registered platform can execute the given operator.
    NoPlatformFor {
        /// Display name of the unsupported operator.
        op: String,
        /// Node carrying the operator.
        node: NodeId,
    },
    /// A platform was referenced by name but is not registered.
    UnknownPlatform(String),
    /// A platform is registered but currently unavailable: its circuit
    /// breaker is open after repeated failures (see
    /// [`crate::fault::PlatformHealth`]). Atoms hitting this error skip
    /// their retry budget and become failover candidates.
    PlatformUnavailable {
        /// The unhealthy platform.
        platform: String,
        /// Why the breaker considers it down.
        message: String,
    },
    /// A task atom failed on its platform (possibly after retries).
    Execution {
        /// Platform that ran the atom.
        platform: String,
        /// Human-readable cause.
        message: String,
    },
    /// The storage layer reported a failure.
    Storage(String),
    /// A dataset id was not found in any registered store.
    DatasetNotFound(String),
    /// A requested operation exceeded its configured budget (e.g. timeout).
    BudgetExceeded(String),
    /// A declarative query failed to parse or plan.
    Query(String),
    /// The job was cooperatively cancelled at a checkpoint (wave boundary,
    /// retry loop, morsel pull). Carries the first cancellation reason
    /// recorded on the job's [`crate::fault::CancelToken`].
    Cancelled {
        /// Who abandoned the job.
        reason: CancelReason,
    },
    /// A panic caught at the executor's unwind barrier: a UDF or kernel
    /// panicked instead of returning an error. The panic is confined to
    /// the failing atom — worker threads and sibling jobs survive.
    Panic {
        /// Platform whose atom invocation panicked.
        platform: String,
        /// The panic payload, stringified when possible.
        message: String,
    },
    /// Wrapper for I/O failures (local files, simulated HDFS spill, ...).
    Io(std::io::Error),
}

impl fmt::Display for RheemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RheemError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            RheemError::Type { expected, found } => {
                write!(f, "type error: expected {expected}, found {found}")
            }
            RheemError::FieldOutOfBounds { index, width } => {
                write!(
                    f,
                    "field index {index} out of bounds for record of width {width}"
                )
            }
            RheemError::Optimizer(msg) => write!(f, "optimizer error: {msg}"),
            RheemError::NoPlatformFor { op, node } => {
                write!(
                    f,
                    "no registered platform supports operator {op} (node {node})"
                )
            }
            RheemError::UnknownPlatform(name) => write!(f, "unknown platform: {name}"),
            RheemError::PlatformUnavailable { platform, message } => {
                write!(f, "platform {platform} unavailable: {message}")
            }
            RheemError::Execution { platform, message } => {
                write!(f, "execution failed on platform {platform}: {message}")
            }
            RheemError::Storage(msg) => write!(f, "storage error: {msg}"),
            RheemError::DatasetNotFound(id) => write!(f, "dataset not found: {id}"),
            RheemError::BudgetExceeded(msg) => write!(f, "budget exceeded: {msg}"),
            RheemError::Query(msg) => write!(f, "query error: {msg}"),
            RheemError::Cancelled { reason } => write!(f, "job cancelled: {reason}"),
            RheemError::Panic { platform, message } => {
                write!(f, "panic on platform {platform}: {message}")
            }
            RheemError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl RheemError {
    /// Where this error sits in the failure taxonomy.
    ///
    /// - [`ErrorKind::Transient`]: platform execution failures, storage
    ///   failures, and I/O errors — the engine may simply have hiccuped.
    /// - [`ErrorKind::ResourceExhausted`]: expired budgets and open
    ///   circuit breakers — retrying on the same resource cannot help.
    /// - [`ErrorKind::Cancelled`]: the job was cooperatively abandoned —
    ///   no retry, no failover; the result is unwanted.
    /// - [`ErrorKind::Permanent`]: everything else (bad plans, type
    ///   errors, missing mappings/platforms/datasets, query errors) — a
    ///   retry would deterministically fail again. Caught panics are
    ///   `Permanent { panic: true }`.
    pub fn classify(&self) -> ErrorKind {
        match self {
            RheemError::Execution { .. } | RheemError::Storage(_) | RheemError::Io(_) => {
                ErrorKind::Transient
            }
            RheemError::BudgetExceeded(_) | RheemError::PlatformUnavailable { .. } => {
                ErrorKind::ResourceExhausted
            }
            RheemError::Cancelled { .. } => ErrorKind::Cancelled,
            RheemError::Panic { .. } => ErrorKind::Permanent { panic: true },
            RheemError::InvalidPlan(_)
            | RheemError::Type { .. }
            | RheemError::FieldOutOfBounds { .. }
            | RheemError::Optimizer(_)
            | RheemError::NoPlatformFor { .. }
            | RheemError::UnknownPlatform(_)
            | RheemError::DatasetNotFound(_)
            | RheemError::Query(_) => ErrorKind::Permanent { panic: false },
        }
    }

    /// Whether the executor should spend retry budget on this error
    /// (true exactly for [`ErrorKind::Transient`]).
    pub fn is_retryable(&self) -> bool {
        self.classify() == ErrorKind::Transient
    }

    /// The platform this error implicates, when it names one.
    pub fn platform(&self) -> Option<&str> {
        match self {
            RheemError::Execution { platform, .. }
            | RheemError::PlatformUnavailable { platform, .. }
            | RheemError::Panic { platform, .. } => Some(platform),
            RheemError::UnknownPlatform(platform) => Some(platform),
            _ => None,
        }
    }
}

impl std::error::Error for RheemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RheemError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RheemError {
    fn from(e: std::io::Error) -> Self {
        RheemError::Io(e)
    }
}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, RheemError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RheemError::Type {
            expected: "Int at field 2".into(),
            found: "Str(\"x\")".into(),
        };
        let s = e.to_string();
        assert!(s.contains("expected Int at field 2"));
        assert!(s.contains("Str"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: RheemError = io.into();
        assert!(matches!(e, RheemError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn taxonomy_partitions_the_variants() {
        let transient = [
            RheemError::Execution {
                platform: "java".into(),
                message: "boom".into(),
            },
            RheemError::Storage("disk glitch".into()),
            RheemError::Io(std::io::Error::other("net")),
        ];
        for e in &transient {
            assert_eq!(e.classify(), ErrorKind::Transient, "{e}");
            assert!(e.is_retryable(), "{e}");
        }
        let permanent = [
            RheemError::InvalidPlan("bad arity".into()),
            RheemError::Type {
                expected: "Int".into(),
                found: "Str".into(),
            },
            RheemError::FieldOutOfBounds { index: 1, width: 0 },
            RheemError::Optimizer("no".into()),
            RheemError::UnknownPlatform("flink".into()),
            RheemError::DatasetNotFound("x".into()),
            RheemError::Query("parse".into()),
        ];
        for e in &permanent {
            assert_eq!(e.classify(), ErrorKind::Permanent { panic: false }, "{e}");
            assert!(!e.is_retryable(), "{e}");
        }
        let exhausted = [
            RheemError::BudgetExceeded("deadline".into()),
            RheemError::PlatformUnavailable {
                platform: "spark".into(),
                message: "breaker open".into(),
            },
        ];
        for e in &exhausted {
            assert_eq!(e.classify(), ErrorKind::ResourceExhausted, "{e}");
            assert!(!e.is_retryable(), "{e}");
        }
        // A caught panic is permanent with the panic flag raised, and a
        // cancellation is its own non-retryable kind — neither ever
        // consumes retry budget.
        let panic = RheemError::Panic {
            platform: "java".into(),
            message: "index out of bounds".into(),
        };
        assert_eq!(panic.classify(), ErrorKind::Permanent { panic: true });
        assert!(!panic.is_retryable());
        for reason in [
            CancelReason::ClientDisconnect,
            CancelReason::DeadlineExceeded,
            CancelReason::Shutdown,
            CancelReason::Explicit,
        ] {
            let e = RheemError::Cancelled { reason };
            assert_eq!(e.classify(), ErrorKind::Cancelled, "{e}");
            assert!(!e.is_retryable(), "{e}");
        }
    }

    #[test]
    fn cancel_and_panic_messages_name_their_cause() {
        let e = RheemError::Cancelled {
            reason: CancelReason::ClientDisconnect,
        };
        assert_eq!(e.to_string(), "job cancelled: client disconnect");
        let e = RheemError::Panic {
            platform: "sparklike".into(),
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "panic on platform sparklike: boom");
        assert_eq!(e.platform(), Some("sparklike"));
    }

    #[test]
    fn implicated_platform_is_surfaced() {
        let e = RheemError::PlatformUnavailable {
            platform: "spark".into(),
            message: "open".into(),
        };
        assert_eq!(e.platform(), Some("spark"));
        assert!(e.to_string().contains("spark unavailable"));
        assert_eq!(RheemError::Query("q".into()).platform(), None);
    }

    #[test]
    fn field_out_of_bounds_message() {
        let e = RheemError::FieldOutOfBounds { index: 5, width: 3 };
        assert_eq!(
            e.to_string(),
            "field index 5 out of bounds for record of width 3"
        );
    }
}
