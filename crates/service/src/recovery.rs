//! Supervised session recovery: checkpoint, journal, retry, quarantine.
//!
//! The per-session state a [supervised](crate::ServiceRegistry::supervised)
//! registry keeps in each slot, and the recovery loop run on it when a
//! round fails to close (state machine and exactness argument:
//! `docs/ARCHITECTURE.md`, "Fault tolerance"):
//!
//! * **Checkpoint** — every round boundary stores a [`Session::snapshot`]
//!   (checksummed over the whole body); the last [`CHECKPOINT_DEPTH`] are
//!   kept, so a *corrupted* newest checkpoint falls back to the previous
//!   one and re-drives two rounds instead of one.
//! * **Journal** — frames the round accepted, or refused only because its
//!   pipeline was already poisoned, are kept (bounded) for re-drive.
//!   Addressing rejections — above all
//!   [`privshape_protocol::Error::StaleGeneration`] — are **never**
//!   journaled, so a re-drive replays exactly what the failed round would
//!   have absorbed.
//! * **Retry** — under the typed [`RetryPolicy`], the newest valid
//!   checkpoint is restored *in place* in the slot (id, rotation place and
//!   producers' addresses stay put) and the journal is re-driven.
//! * **Quarantine** — when either retry bound is exhausted the registry
//!   drops the session and answers [`ServiceError::Quarantined`] for it.

use crate::error::{Result, ServiceError};
use crate::policy::RetryPolicy;
use crate::registry::Slot;
use privshape_protocol::{Error as ProtocolError, IngestConfig, RoutedFrame, Session};
use std::collections::VecDeque;

/// Round-boundary checkpoints retained per session. Depth 2 is the
/// minimum that survives one corrupted checkpoint; deeper only helps
/// against multiple *consecutive* corruptions, which the failure budget
/// quarantines anyway.
pub const CHECKPOINT_DEPTH: usize = 2;

/// Per-session recovery counters, all deterministic under a fixed
/// [`privshape_protocol::FaultPlan`] and workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Failed rounds recovered successfully (restore → re-drive).
    pub recoveries: u64,
    /// Extra tries beyond the first: failed recovery attempts plus
    /// injected-fault submit retransmissions.
    pub retries: u64,
    /// Frames replayed from the journal across all recoveries.
    pub redriven_frames: u64,
    /// Recoveries that had to fall back past a corrupted newest
    /// checkpoint to an older one.
    pub checkpoint_fallbacks: u64,
    /// Checkpoints corrupted at store time by the session's fault plan.
    pub checkpoints_corrupted: u64,
    /// Lifetime failure-budget units consumed ([`RetryPolicy::failure_budget`]).
    pub budget_used: u32,
}

/// Why and how a session left service via quarantine.
#[derive(Debug, Clone)]
pub struct QuarantineReport {
    /// The quarantined session.
    pub session_id: u64,
    /// Lifetime recovery attempts it consumed.
    pub attempts: u32,
    /// Rendering of the failure that exhausted its budget.
    pub cause: String,
    /// Its recovery counters at quarantine time.
    pub stats: RecoveryStats,
}

impl QuarantineReport {
    pub(crate) fn to_error(&self) -> ServiceError {
        ServiceError::Quarantined {
            session_id: self.session_id,
            attempts: self.attempts,
            cause: self.cause.clone(),
        }
    }
}

/// One round's replay material: the checkpoint taken at the boundary
/// *before* the round, and the frames routed into the round after it.
#[derive(Debug)]
struct RoundJournal {
    checkpoint: Vec<u8>,
    frames: Vec<Vec<u8>>,
    /// The round outgrew [`RetryPolicy::journal_capacity`]; it can no
    /// longer be re-driven and fails recovery if it has to be.
    overflowed: bool,
}

/// The recovery state a supervised registry keeps in each session's slot.
#[derive(Debug)]
pub(crate) struct Recovery {
    policy: RetryPolicy,
    /// Session RNG seed — the root of deterministic retry jitter.
    seed: u64,
    /// Newest-last; at most [`CHECKPOINT_DEPTH`] entries.
    history: VecDeque<RoundJournal>,
    pub(crate) stats: RecoveryStats,
}

fn protocol_error(msg: String) -> ServiceError {
    ServiceError::Session(ProtocolError::Protocol(msg))
}

impl Recovery {
    pub(crate) fn new(policy: RetryPolicy, seed: u64) -> Self {
        Self {
            policy,
            seed,
            history: VecDeque::with_capacity(CHECKPOINT_DEPTH),
            stats: RecoveryStats::default(),
        }
    }

    /// Stores the boundary checkpoint of the round about to open, applying
    /// any scheduled chaos corruption to the *stored* copy (the resident
    /// session is untouched), and rolls the journal window.
    pub(crate) fn checkpoint(&mut self, session: &Session) {
        let mut checkpoint = session.snapshot();
        if let Some(plan) = session.fault_plan() {
            if plan.next_checkpoint(&mut checkpoint) {
                self.stats.checkpoints_corrupted += 1;
            }
        }
        self.history.push_back(RoundJournal {
            checkpoint,
            frames: Vec::new(),
            overflowed: false,
        });
        while self.history.len() > CHECKPOINT_DEPTH {
            self.history.pop_front();
        }
    }

    /// Routes one envelope, journaling it for possible re-drive (the
    /// supervised half of [`crate::ServiceRegistry::route_frame`]). A frame
    /// refused only because the round is already poisoned is journaled and
    /// reported `Ok`: the round is recovered wholesale when it closes.
    /// Addressing rejections propagate typed and are never journaled.
    pub(crate) fn route(
        &mut self,
        slot: &Slot,
        routed: &RoutedFrame,
        envelope: &[u8],
    ) -> Result<()> {
        let (result, retransmits) =
            deliver_retrying(slot, routed, &self.policy, self.seed ^ routed.session_id);
        self.stats.retries += u64::from(retransmits);
        match result {
            Ok(()) | Err(ServiceError::Session(ProtocolError::PipelinePoisoned { .. })) => {
                self.journal(envelope);
                Ok(())
            }
            Err(other) => Err(other),
        }
    }

    fn journal(&mut self, envelope: &[u8]) {
        let capacity = self.policy.journal_capacity;
        let Some(entry) = self.history.back_mut().filter(|e| !e.overflowed) else {
            return;
        };
        if entry.frames.len() < capacity {
            entry.frames.push(envelope.to_vec());
        } else {
            // Past capacity the round is no longer replayable; keep the
            // flag, free the memory.
            entry.overflowed = true;
            entry.frames = Vec::new();
        }
    }

    /// The recovery loop for one failed round of session `id` (whose
    /// `driver` lock the caller holds as `session`): bounded attempts, each
    /// charged against the lifetime budget, exponential backoff between
    /// them. Returns the quarantine report when either bound is exhausted.
    pub(crate) fn recover(
        &mut self,
        id: u64,
        slot: &Slot,
        session: &mut Session,
        ingest: IngestConfig,
        mut cause: ServiceError,
    ) -> std::result::Result<(), QuarantineReport> {
        for attempt in 1..=self.policy.max_attempts {
            if self.stats.budget_used >= self.policy.failure_budget {
                return Err(self.report(id, "failure budget exhausted", cause));
            }
            self.stats.budget_used += 1;
            std::thread::sleep(self.policy.backoff(attempt, self.seed ^ id));
            match self.try_recover(id, slot, session, ingest) {
                Ok(()) => {
                    self.stats.recoveries += 1;
                    return Ok(());
                }
                Err(e) => {
                    self.stats.retries += 1;
                    cause = e;
                }
            }
        }
        Err(self.report(id, "max recovery attempts exhausted", cause))
    }

    /// One recovery attempt: restore the newest checkpoint that still
    /// validates (falling back past corrupt ones) in place of the failed
    /// session, then re-drive every journaled round from there — healing
    /// the corrupt boundary checkpoints in passing.
    fn try_recover(
        &mut self,
        id: u64,
        slot: &Slot,
        session: &mut Session,
        ingest: IngestConfig,
    ) -> Result<()> {
        let (start, restored) = (0..self.history.len())
            .rev()
            .find_map(|i| Some((i, Session::restore(&self.history[i].checkpoint).ok()?)))
            .ok_or_else(|| {
                protocol_error(format!(
                    "session {id}: no restorable checkpoint within depth {CHECKPOINT_DEPTH}"
                ))
            })?;
        // Snapshots never carry the fault plan; the restored session keeps
        // the one the failed session ran under.
        let plan = session.fault_plan().cloned();
        *session = restored;
        session.set_fault_plan(plan);
        if start + 1 < self.history.len() {
            self.stats.checkpoint_fallbacks += 1;
        }
        for i in start..self.history.len() {
            if self.history[i].overflowed {
                return Err(protocol_error(format!(
                    "session {id}: round journal overflowed ({} frame capacity); \
                     the failed round cannot be re-driven",
                    self.policy.journal_capacity
                )));
            }
            if i > start {
                // The state this boundary should capture has just been
                // rebuilt: replace the (corrupt) stored checkpoint with a
                // fresh one.
                self.history[i].checkpoint = session.snapshot();
            }
            if slot.open_round(session, ingest)?.is_none() {
                return Err(protocol_error(format!(
                    "session {id}: re-driven round vanished (protocol diverged from journal)"
                )));
            }
            for (j, envelope) in self.history[i].frames.iter().enumerate() {
                let routed = RoutedFrame::decode(envelope)?;
                let jitter = self.seed ^ id ^ (j as u64) << 8;
                deliver_retrying(slot, &routed, &self.policy, jitter).0?;
                self.stats.redriven_frames += 1;
            }
            slot.close_round(id, session)?;
        }
        Ok(())
    }

    fn report(&self, id: u64, reason: &str, cause: ServiceError) -> QuarantineReport {
        QuarantineReport {
            session_id: id,
            attempts: self.stats.budget_used,
            cause: format!("{reason}: {cause}"),
            stats: self.stats,
        }
    }
}

/// Delivers `routed` to the slot's open round, retransmitting injected
/// in-transit drops up to [`RetryPolicy::max_attempts`] times with
/// backoff jittered by `jitter`. Returns the outcome and the number of
/// retransmissions.
fn deliver_retrying(
    slot: &Slot,
    routed: &RoutedFrame,
    policy: &RetryPolicy,
    jitter: u64,
) -> (Result<()>, u32) {
    let mut tries = 0u32;
    loop {
        match slot.deliver(routed) {
            Err(ServiceError::Session(ProtocolError::FaultInjected(_)))
                if tries < policy.max_attempts =>
            {
                tries += 1;
                std::thread::sleep(policy.backoff(tries, jitter));
            }
            result => return (result, tries),
        }
    }
}
