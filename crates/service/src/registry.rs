//! The service registry: admission, routing, session multiplexing and,
//! on a supervised registry, recovery.

use crate::error::{Result, ServiceError};
use crate::policy::RetryPolicy;
use crate::recovery::{QuarantineReport, Recovery, RecoveryStats};
use privshape_protocol::wire::{put_varint, read_varint};
use privshape_protocol::{
    Error as ProtocolError, Extraction, IngestConfig, IngestPipeline, IngestStats,
    LabeledExtraction, RoundSpec, RoutedFrame, Session,
};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Tuning knobs for a [`ServiceRegistry`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Maximum sessions resident at once; further [`ServiceRegistry::admit`]
    /// calls are refused with [`ServiceError::AdmissionDenied`].
    pub max_sessions: usize,
    /// Per-session ingest pipeline configuration. Every open round gets
    /// its *own* bounded frame queue and worker pool, so one saturated
    /// session backpressures only its own producers — never its
    /// neighbours (no head-of-line blocking across sessions).
    pub ingest: IngestConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_sessions: 64,
            ingest: IngestConfig::default(),
        }
    }
}

/// Routing state of one resident session: the generation tag frames must
/// carry right now, and the pipeline of the open round (if any).
#[derive(Debug, Default)]
struct RouteState {
    generation: Option<u64>,
    pipeline: Option<Arc<IngestPipeline>>,
}

/// One resident session. The two locks split the hot path from the cold
/// path: `route` is held for nanoseconds per frame (generation check +
/// `Arc` clone), while `driver` serializes the once-per-round state
/// machine transitions. `recovery` exists on a supervised registry only;
/// where it does, it is locked before `driver`, and `driver` before
/// `route`.
#[derive(Debug)]
pub(crate) struct Slot {
    driver: Mutex<Session>,
    route: Mutex<RouteState>,
    recovery: Option<Mutex<Recovery>>,
}

impl Slot {
    /// Opens `session`'s next round (the caller holds its `driver` lock) and
    /// stands up the round's ingest pipeline; clears the route when the
    /// protocol is complete.
    pub(crate) fn open_round(
        &self,
        session: &mut Session,
        ingest: IngestConfig,
    ) -> Result<Option<RoundSpec>> {
        let spec = session.next_round()?;
        let pipeline = match spec {
            Some(_) => Some(Arc::new(session.ingest_pipeline(ingest)?)),
            None => None,
        };
        *self.route.lock().expect("route lock") = RouteState {
            generation: session.round_generation(),
            pipeline,
        };
        Ok(spec)
    }

    /// Checks the frame's generation against the open round and submits
    /// its payload to the round's pipeline.
    pub(crate) fn deliver(&self, routed: &RoutedFrame) -> Result<()> {
        let pipeline = {
            let route = self.route.lock().expect("route lock");
            let (Some(generation), Some(pipeline)) = (route.generation, &route.pipeline) else {
                return Err(ServiceError::NoOpenRound {
                    session_id: routed.session_id,
                });
            };
            routed.check_session(Some(generation))?;
            Arc::clone(pipeline)
        };
        // Submit outside every lock: a full queue blocks only this
        // producer, and only on this session.
        pipeline.submit_sealed_frame(routed.payload)?;
        Ok(())
    }

    /// Drains the open round's pipeline into `session` (the caller holds
    /// its `driver` lock); see [`ServiceRegistry::close_round`].
    pub(crate) fn close_round(&self, id: u64, session: &mut Session) -> Result<()> {
        let pipeline = {
            let mut route = self.route.lock().expect("route lock");
            route.generation = None;
            route
                .pipeline
                .take()
                .ok_or(ServiceError::NoOpenRound { session_id: id })?
        };
        // Producers only briefly hold clones (between the route-lock
        // release and submit); with the generation retired no new clone
        // can appear, so uniqueness is moments away.
        let pipeline = unwrap_unique(pipeline);
        let accepted = session.ingest_stats().accepted_reports;
        let absorbed = session.submit_pipeline(pipeline)?;
        // Ingest conservation: the registry routes only sealed frames, so
        // every report the round absorbed passed the validation tier once.
        debug_assert_eq!(
            absorbed,
            session.ingest_stats().accepted_reports - accepted,
            "session {id}: round absorbed {absorbed} reports but accepted a different count"
        );
        Ok(())
    }

    /// Refuses while a round is open: its pipeline holds in-flight frames
    /// no snapshot could capture.
    fn check_between_rounds(&self, id: u64) -> Result<()> {
        if self.route.lock().expect("route lock").pipeline.is_some() {
            return Err(ServiceError::Session(ProtocolError::Protocol(format!(
                "session {id} has an open ingest pipeline; close the round before \
                 snapshotting"
            ))));
        }
        Ok(())
    }
}

/// Takes the value out of `arc` once every transient clone is dropped.
/// Callers first unpublish the `Arc`, so no new clone can appear.
fn unwrap_unique<T>(mut arc: Arc<T>) -> T {
    loop {
        match Arc::try_unwrap(arc) {
            Ok(inner) => return inner,
            Err(shared) => {
                arc = shared;
                std::thread::yield_now();
            }
        }
    }
}

/// A long-lived aggregation service multiplexing many concurrent
/// extraction sessions — different budgets, candidate domains, and
/// mechanisms — over the streaming ingest engine.
///
/// Lifecycle per session: [`admit`](Self::admit) →
/// ([`begin_round`](Self::begin_round) → routed frames via
/// [`route_frame`](Self::route_frame) → [`close_round`](Self::close_round))*
/// → [`finish`](Self::finish). Between rounds a session can be
/// [snapshotted](Self::snapshot_session) and — after a crash or eviction —
/// [restored](Self::restore_session) under its original id, continuing
/// bit-identically.
///
/// Recovery is a policy, not a second API: a
/// [`supervised`](Self::supervised) registry checkpoints, journals and
/// recovers failed rounds in place (or quarantines the session); one built
/// with [`new`](Self::new) pays nothing for it.
///
/// All methods take `&self`; the registry is `Sync` and producers on any
/// number of threads may route frames concurrently with other sessions'
/// round transitions.
#[derive(Debug)]
pub struct ServiceRegistry {
    config: ServiceConfig,
    /// `Some` on a supervised registry: every resident session then
    /// carries recovery state in its slot.
    policy: Option<RetryPolicy>,
    sessions: Mutex<HashMap<u64, Arc<Slot>>>,
    /// Round-robin cursor over resident session ids (fair scheduling):
    /// holds each resident id exactly once, and is only changed under the
    /// `sessions` lock.
    rotation: Mutex<VecDeque<u64>>,
    /// Next id to assign; monotone across evictions and restores.
    next_id: Mutex<u64>,
    /// Sessions a supervised registry gave up on, consulted only when a
    /// lookup misses.
    quarantine: Mutex<HashMap<u64, QuarantineReport>>,
}

impl ServiceRegistry {
    /// An empty registry without supervision: failures surface as typed
    /// errors and nothing is checkpointed or journaled.
    pub fn new(config: ServiceConfig) -> Self {
        Self {
            config,
            policy: None,
            sessions: Mutex::new(HashMap::new()),
            rotation: Mutex::new(VecDeque::new()),
            next_id: Mutex::new(1),
            quarantine: Mutex::new(HashMap::new()),
        }
    }

    /// An empty supervised registry: round-boundary checkpoints, a bounded
    /// per-round frame journal, and in-place recovery of failed rounds
    /// under `policy` (`max_attempts` is raised to at least 1).
    pub fn supervised(config: ServiceConfig, mut policy: RetryPolicy) -> Self {
        policy.max_attempts = policy.max_attempts.max(1);
        Self {
            policy: Some(policy),
            ..Self::new(config)
        }
    }

    /// Number of sessions currently resident (quarantined ones are not).
    pub fn active_sessions(&self) -> usize {
        self.sessions.lock().expect("sessions lock").len()
    }

    /// Admits a session, assigning it a fresh service-wide id — the id
    /// producers must put on every routed frame for it. A fault plan
    /// installed on the session ([`Session::set_fault_plan`]) rides along
    /// into every round's pipeline and, when supervised, every checkpoint.
    ///
    /// # Errors
    ///
    /// [`ServiceError::AdmissionDenied`] when the registry is full.
    pub fn admit(&self, session: Session) -> Result<u64> {
        let id = {
            let mut next = self.next_id.lock().expect("id lock");
            let id = *next;
            *next += 1;
            id
        };
        self.insert(id, session)?;
        Ok(id)
    }

    fn insert(&self, id: u64, session: Session) -> Result<()> {
        let mut sessions = self.sessions.lock().expect("sessions lock");
        if sessions.len() >= self.config.max_sessions {
            return Err(ServiceError::AdmissionDenied {
                active: sessions.len(),
                capacity: self.config.max_sessions,
            });
        }
        if sessions.contains_key(&id) {
            return Err(ServiceError::SessionCollision { session_id: id });
        }
        let recovery = self
            .policy
            .map(|policy| Mutex::new(Recovery::new(policy, session.seed())));
        sessions.insert(
            id,
            Arc::new(Slot {
                driver: Mutex::new(session),
                route: Mutex::new(RouteState::default()),
                recovery,
            }),
        );
        self.rotation.lock().expect("rotation lock").push_back(id);
        Ok(())
    }

    /// Removes `id` from the resident set and the rotation.
    fn unlist(&self, id: u64) -> Option<Arc<Slot>> {
        let mut sessions = self.sessions.lock().expect("sessions lock");
        let slot = sessions.remove(&id)?;
        self.rotation
            .lock()
            .expect("rotation lock")
            .retain(|&resident| resident != id);
        Some(slot)
    }

    fn slot(&self, id: u64) -> Result<Arc<Slot>> {
        let slot = self
            .sessions
            .lock()
            .expect("sessions lock")
            .get(&id)
            .cloned();
        slot.ok_or_else(|| self.missing(id))
    }

    /// The error for an id with no resident slot: its quarantine, if a
    /// supervised registry gave up on it, else an unknown session.
    fn missing(&self, id: u64) -> ServiceError {
        match self.quarantine.lock().expect("quarantine lock").get(&id) {
            Some(report) => report.to_error(),
            None => ServiceError::Session(ProtocolError::UnknownSession { session_id: id }),
        }
    }

    /// The next session id in fair round-robin order, if any are resident.
    /// Each call advances the rotation, so interleaving drivers that pull
    /// ids from here give every session equal turns.
    pub fn next_session(&self) -> Option<u64> {
        let mut rotation = self.rotation.lock().expect("rotation lock");
        let id = rotation.pop_front()?;
        rotation.push_back(id);
        Some(id)
    }

    /// The generation tag producers must stamp on routed frames for this
    /// session's currently open round ([`privshape_protocol::route_frame`]'s
    /// `generation` argument). Part of the round broadcast in a real
    /// deployment.
    pub fn session_generation(&self, id: u64) -> Result<u64> {
        let slot = self.slot(id)?;
        let route = slot.route.lock().expect("route lock");
        route
            .generation
            .ok_or(ServiceError::NoOpenRound { session_id: id })
    }

    /// Opens the session's next round and stands up its ingest pipeline.
    /// Returns the broadcast (to be distributed to that session's users),
    /// or `None` when the protocol is complete (then call
    /// [`finish`](Self::finish) / [`finish_labeled`](Self::finish_labeled)).
    ///
    /// A supervised registry first stores the boundary checkpoint, so it
    /// refuses while a round is still open.
    pub fn begin_round(&self, id: u64) -> Result<Option<RoundSpec>> {
        let slot = self.slot(id)?;
        let mut recovery = slot
            .recovery
            .as_ref()
            .map(|r| r.lock().expect("recovery lock"));
        let mut session = slot.driver.lock().expect("driver lock");
        if let Some(recovery) = recovery.as_mut() {
            slot.check_between_rounds(id)?;
            recovery.checkpoint(&session);
        }
        slot.open_round(&mut session, self.config.ingest)
    }

    /// Routes one wire envelope ([`privshape_protocol::route_frame`]) to
    /// the session it addresses and submits its payload — a sealed report
    /// frame — to that session's open pipeline.
    ///
    /// Envelope and addressing problems are *rejected with typed errors*,
    /// never silently absorbed:
    ///
    /// * malformed or wrong-version envelope —
    ///   [`ProtocolError::Protocol`] / [`ProtocolError::UnsupportedVersion`];
    /// * a session id the registry does not know —
    ///   [`ProtocolError::UnknownSession`] ([`ServiceError::Quarantined`]
    ///   for a quarantined one);
    /// * a generation tag that does not match the session's current round
    ///   (e.g. a producer still answering against a superseded candidate
    ///   table) — [`ProtocolError::StaleGeneration`];
    /// * a known session with no round open — [`ServiceError::NoOpenRound`].
    ///
    /// Payload-level problems (bit-flips, a plain instead of a sealed
    /// payload, a report the round refuses, duplicate users) stay the
    /// pipeline's business: they move the session's rejection counters
    /// and the call still returns `Ok(())`, exactly like direct sealed
    /// submission.
    ///
    /// A supervised registry also journals the frame for re-drive,
    /// retransmits injected in-transit drops
    /// ([`ProtocolError::FaultInjected`]) under its backoff, and accepts
    /// frames for a round already poisoned (the round is recovered
    /// wholesale when it closes).
    ///
    /// Blocks when the session's frame queue is full (per-session
    /// backpressure); frames for other sessions are unaffected.
    pub fn route_frame(&self, envelope: &[u8]) -> Result<()> {
        let routed = RoutedFrame::decode(envelope)?;
        let slot = self.slot(routed.session_id)?;
        match &slot.recovery {
            None => slot.deliver(&routed),
            Some(recovery) => recovery
                .lock()
                .expect("recovery lock")
                .route(&slot, &routed, envelope),
        }
    }

    /// Closes the session's open round: drains its pipeline, merges the
    /// tree-merged aggregate into the session, and folds the round's
    /// validation counters into the session diagnostics.
    ///
    /// Producers must have stopped submitting for this round (the round's
    /// generation is retired here; late frames get
    /// [`ProtocolError::StaleGeneration`] on their next
    /// [`route_frame`](Self::route_frame)).
    ///
    /// On a supervised registry a failed round is recovered before this
    /// returns `Ok`, or the session is quarantined and this returns
    /// [`ServiceError::Quarantined`].
    pub fn close_round(&self, id: u64) -> Result<()> {
        let slot = self.slot(id)?;
        let mut recovery = slot
            .recovery
            .as_ref()
            .map(|r| r.lock().expect("recovery lock"));
        let mut session = slot.driver.lock().expect("driver lock");
        match (slot.close_round(id, &mut session), recovery.as_mut()) {
            (Err(cause), Some(recovery)) => recovery
                .recover(id, &slot, &mut session, self.config.ingest, cause)
                .map_err(|report| self.quarantine(report)),
            (result, _) => result,
        }
    }

    /// Terminal exit: records the report (first, so a lookup that misses
    /// the slot finds it), drops the session, and returns the typed error.
    /// Healthy sessions never notice.
    fn quarantine(&self, report: QuarantineReport) -> ServiceError {
        let id = report.session_id;
        let err = report.to_error();
        self.quarantine
            .lock()
            .expect("quarantine lock")
            .insert(id, report);
        self.unlist(id);
        err
    }

    /// Removes the session and returns its unlabeled extraction. The id
    /// is retired; late frames for it get
    /// [`ProtocolError::UnknownSession`]. An incomplete or labeled session
    /// stays resident and gets the typed error.
    pub fn finish(&self, id: u64) -> Result<Extraction> {
        Ok(self.remove_finished(id, false)?.finish()?)
    }

    /// Removes the session and returns its labeled extraction. An
    /// incomplete or unlabeled session stays resident and gets the typed
    /// error.
    pub fn finish_labeled(&self, id: u64) -> Result<LabeledExtraction> {
        Ok(self.remove_finished(id, true)?.finish_labeled()?)
    }

    /// Removes a session that [`Session::finish`] (or, with `labeled`,
    /// [`Session::finish_labeled`]) will accept. The check runs under the
    /// `driver` lock before removal, so a session that would fail it stays
    /// resident with its spent budget.
    fn remove_finished(&self, id: u64, labeled: bool) -> Result<Session> {
        let slot = self.slot(id)?;
        let removed = {
            let session = slot.driver.lock().expect("driver lock");
            session.check_finish(labeled)?;
            self.unlist(id)
        };
        drop(slot);
        // `None`: a concurrent finish won the race.
        let slot = removed.ok_or_else(|| self.missing(id))?;
        Ok(unwrap_unique(slot)
            .driver
            .into_inner()
            .expect("driver lock"))
    }

    /// The session's accumulated ingest counters (accepted/rejected/
    /// duplicate reports, queue high-water mark, backpressure stalls),
    /// summed over its closed rounds — the service's per-tenant health
    /// metrics.
    pub fn session_ingest_stats(&self, id: u64) -> Result<IngestStats> {
        let slot = self.slot(id)?;
        let session = slot.driver.lock().expect("driver lock");
        Ok(session.ingest_stats())
    }

    /// The session's recovery counters so far; all zero on a registry that
    /// is not supervised. For a quarantined session read
    /// [`quarantine_report`](Self::quarantine_report) instead.
    pub fn recovery_stats(&self, id: u64) -> Result<RecoveryStats> {
        let slot = self.slot(id)?;
        let stats = slot
            .recovery
            .as_ref()
            .map(|r| r.lock().expect("recovery lock").stats);
        Ok(stats.unwrap_or_default())
    }

    /// The quarantine report for `id`, if it was quarantined.
    pub fn quarantine_report(&self, id: u64) -> Option<QuarantineReport> {
        self.quarantine
            .lock()
            .expect("quarantine lock")
            .get(&id)
            .cloned()
    }

    /// Ids of all quarantined sessions, ascending.
    pub fn quarantined_sessions(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .quarantine
            .lock()
            .expect("quarantine lock")
            .keys()
            .copied()
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Serializes one resident session into a crash-safe snapshot frame
    /// (`varint(session_id)` + the session's own checksummed snapshot).
    /// Only allowed between rounds — an open pipeline holds in-flight
    /// frames no snapshot could capture; close the round first.
    pub fn snapshot_session(&self, id: u64) -> Result<Vec<u8>> {
        let slot = self.slot(id)?;
        let session = slot.driver.lock().expect("driver lock");
        slot.check_between_rounds(id)?;
        let mut buf = Vec::new();
        put_varint(&mut buf, id);
        session.snapshot_into(&mut buf);
        Ok(buf)
    }

    /// Drops a session without finishing it — the registry-side effect of
    /// a crash. Returns whether the id was resident. Restore from the
    /// latest [`snapshot_session`](Self::snapshot_session) bytes with
    /// [`restore_session`](Self::restore_session).
    pub fn evict_session(&self, id: u64) -> bool {
        self.unlist(id).is_some()
    }

    /// Re-admits a session from [`snapshot_session`](Self::snapshot_session)
    /// bytes under its **original id**, so producers keep addressing it
    /// unchanged. The restored session continues bit-identically to the
    /// uninterrupted one.
    ///
    /// # Errors
    ///
    /// [`ServiceError::SessionCollision`] when the id is still resident;
    /// admission and snapshot-validation errors as usual.
    pub fn restore_session(&self, bytes: &[u8]) -> Result<u64> {
        let mut pos = 0;
        let id = read_varint(bytes, &mut pos)?;
        let session = Session::restore(&bytes[pos..])?;
        self.insert(id, session)?;
        // Never hand out an id at or below a restored one.
        let mut next = self.next_id.lock().expect("id lock");
        *next = (*next).max(id + 1);
        Ok(id)
    }
}
