//! Typed failures of the cluster fabric and its configuration.
//!
//! Before this module every transport failure was a `panic!`/`expect`
//! somewhere inside the fabric: a daemon dying mid-run, a reset peer
//! connection or a malformed frame aborted the whole process. The engines
//! now receive every one of those conditions as a [`TransportError`] and
//! decide what to do — retry idempotent reads, reconnect, recompute, or
//! surface a structured per-machine report (see the `RADS_FAULT_POLICY`
//! handling in `rads-serve`).
//!
//! The variants mirror the distinct *recovery strategies*, not the
//! underlying syscalls:
//!
//! * [`TransportError::ConnectRefused`] / [`TransportError::Reset`] /
//!   [`TransportError::Timeout`] / [`TransportError::Decode`] are
//!   **transient** ([`TransportError::is_transient`]): the request may
//!   never have been processed, or the reply was lost, and for an
//!   idempotent read (`fetchV` / `verifyE` / `checkR`) re-issuing it under
//!   a fresh correlation id — after a reconnect if the connection died —
//!   is always sound. A decode failure kills the whole connection (framing
//!   sync is gone), which is why it is retryable: the retry travels over a
//!   *new* connection.
//! * [`TransportError::PeerDead`] is **terminal**: the peer was confirmed
//!   gone (its process exited, or reconnecting kept failing past the
//!   deadline). Retrying cannot help; the caller escalates to the fault
//!   policy.
//! * [`TransportError::BarrierTimeout`] is **terminal and attributed**: the
//!   barrier waited out its deadline and names exactly which machines never
//!   arrived at the epoch, so the operator (or the fail-fast report) sees
//!   *who* is missing instead of a hung process.
//!
//! [`ConfigError`] is the same idea applied to environment parsing: an
//! unknown `RADS_TRANSPORT`, a malformed `RADS_MEMORY_BUDGET` or
//! `RADS_ROUND_DRIVER` used to `panic!` deep inside a constructor; parsers
//! now return a value naming the variable, the offending value and what
//! would have been accepted, and binaries exit cleanly with that message.

use rads_partition::MachineId;

/// Why an RPC, barrier or control-frame exchange failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// Establishing a connection to the peer failed (refused, unreachable,
    /// socket file missing) and kept failing until the connect deadline.
    ConnectRefused {
        /// The machine that attempted the connection.
        machine: MachineId,
        /// The peer it tried to reach.
        to: MachineId,
        /// The underlying I/O error text.
        detail: String,
    },
    /// An established connection died: the write failed, or the reader
    /// thread saw the stream close with replies still outstanding.
    Reset {
        /// The machine that held the connection.
        machine: MachineId,
        /// The peer whose connection died.
        to: MachineId,
        /// What the fabric observed.
        detail: String,
    },
    /// A reply (or an acknowledgement) did not arrive within the deadline.
    Timeout {
        /// The machine that waited.
        machine: MachineId,
        /// What was being waited for (request name or exchange).
        what: String,
        /// How long it waited before giving up.
        waited_ms: u64,
    },
    /// The peer sent bytes that are not a valid frame or message. The
    /// connection is torn down (framing sync cannot be recovered); the
    /// retry path reconnects.
    Decode {
        /// The machine that received the garbage.
        machine: MachineId,
        /// The peer that sent it.
        to: MachineId,
        /// The wire-codec error text.
        detail: String,
    },
    /// The peer is confirmed gone: reconnect attempts exhausted their
    /// deadline, or its process was observed to exit. Not retryable.
    PeerDead {
        /// The machine reporting the death.
        machine: MachineId,
        /// The dead peer.
        to: MachineId,
        /// The evidence.
        detail: String,
    },
    /// A distributed barrier timed out, naming the machines that never
    /// arrived at the epoch. Not retryable (the missing machines are either
    /// dead or wedged; re-entering the barrier cannot make them arrive).
    BarrierTimeout {
        /// The machine that waited at the barrier.
        machine: MachineId,
        /// The barrier epoch that never completed.
        epoch: u64,
        /// The machines whose arrival notification never came.
        missing: Vec<MachineId>,
        /// How long the barrier waited before giving up.
        waited_ms: u64,
    },
}

impl TransportError {
    /// Whether re-issuing the failed operation (for an idempotent request,
    /// under a fresh correlation id, reconnecting first if needed) is
    /// sound and has a chance of succeeding. See the module docs for the
    /// per-variant rationale.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            TransportError::ConnectRefused { .. }
                | TransportError::Reset { .. }
                | TransportError::Timeout { .. }
                | TransportError::Decode { .. }
        )
    }

    /// The peer this failure implicates, when there is a single one
    /// (barrier timeouts implicate a set instead).
    pub fn peer(&self) -> Option<MachineId> {
        match self {
            TransportError::ConnectRefused { to, .. }
            | TransportError::Reset { to, .. }
            | TransportError::Decode { to, .. }
            | TransportError::PeerDead { to, .. } => Some(*to),
            TransportError::Timeout { .. } | TransportError::BarrierTimeout { .. } => None,
        }
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::ConnectRefused { machine, to, detail } => {
                write!(f, "machine {machine}: connecting to machine {to} failed: {detail}")
            }
            TransportError::Reset { machine, to, detail } => {
                write!(f, "machine {machine}: connection to machine {to} reset: {detail}")
            }
            TransportError::Timeout { machine, what, waited_ms } => {
                write!(f, "machine {machine}: {what} timed out after {waited_ms} ms")
            }
            TransportError::Decode { machine, to, detail } => {
                write!(f, "machine {machine}: undecodable frame from machine {to}: {detail}")
            }
            TransportError::PeerDead { machine, to, detail } => {
                write!(f, "machine {machine}: machine {to} is dead: {detail}")
            }
            TransportError::BarrierTimeout { machine, epoch, missing, waited_ms } => {
                let names: Vec<String> = missing.iter().map(|m| format!("m{m}")).collect();
                write!(
                    f,
                    "machine {machine}: barrier epoch {epoch} timed out after {waited_ms} ms; \
                     missing: [{}]",
                    names.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// A malformed or unknown value in a `RADS_*` environment variable (or the
/// CLI flag mirroring it): names the variable, the offending value and the
/// accepted grammar, instead of panicking inside a constructor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The environment variable (or flag) that held the bad value.
    pub var: &'static str,
    /// The value that failed to parse.
    pub value: String,
    /// Human-readable statement of what would have been accepted.
    pub expected: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={:?} is invalid: expected {}", self.var, self.value, self.expected)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_classification_matches_the_recovery_table() {
        let transient: Vec<TransportError> = vec![
            TransportError::ConnectRefused { machine: 0, to: 1, detail: "refused".into() },
            TransportError::Reset { machine: 0, to: 1, detail: "eof".into() },
            TransportError::Timeout { machine: 0, what: "rpc.fetchV".into(), waited_ms: 10 },
            TransportError::Decode { machine: 0, to: 1, detail: "unknown frame kind 9".into() },
        ];
        for e in &transient {
            assert!(e.is_transient(), "{e} should be transient");
        }
        let terminal: Vec<TransportError> = vec![
            TransportError::PeerDead { machine: 0, to: 2, detail: "exited".into() },
            TransportError::BarrierTimeout { machine: 0, epoch: 3, missing: vec![2], waited_ms: 5 },
        ];
        for e in &terminal {
            assert!(!e.is_transient(), "{e} should be terminal");
        }
    }

    #[test]
    fn barrier_timeout_names_the_missing_machines() {
        let e = TransportError::BarrierTimeout {
            machine: 0,
            epoch: 7,
            missing: vec![1, 3],
            waited_ms: 1500,
        };
        let text = e.to_string();
        assert!(text.contains("epoch 7"), "{text}");
        assert!(text.contains("m1, m3"), "{text}");
        assert!(text.contains("1500 ms"), "{text}");
    }

    #[test]
    fn config_error_names_variable_value_and_grammar() {
        let e = ConfigError {
            var: "RADS_TRANSPORT",
            value: "smoke-signals".into(),
            expected: "in-process | uds | tcp",
        };
        let text = e.to_string();
        assert!(text.contains("RADS_TRANSPORT"), "{text}");
        assert!(text.contains("smoke-signals"), "{text}");
        assert!(text.contains("in-process | uds | tcp"), "{text}");
    }

    #[test]
    fn peer_attribution() {
        assert_eq!(
            TransportError::Reset { machine: 0, to: 4, detail: String::new() }.peer(),
            Some(4)
        );
        assert_eq!(
            TransportError::Timeout { machine: 0, what: "x".into(), waited_ms: 1 }.peer(),
            None
        );
    }
}
