//! Deterministic fault injection for the ingest and recovery planes.
//!
//! A production aggregation service must survive the failures its
//! environment actually produces — worker crashes mid-round, producers
//! stalling, frames lost or retransmitted in flight, checkpoints rotting
//! in storage. Reproducing those failures on demand is what a
//! [`FaultPlan`] does: a schedule of faults pinned to **sequence points**
//! (the N-th frame submitted, the N-th frame absorbed by a worker, the
//! N-th checkpoint taken), fully determined by its construction — the
//! explicit constructors or [`FaultPlan::from_seed`] with a `u64` seed —
//! so every chaos run is replayable bit-for-bit from a single integer.
//!
//! The plan is a **runtime hook**, not a cargo feature: pass
//! `Some(Arc<FaultPlan>)` to [`crate::IngestPipeline::for_round`] (or
//! install it on a session with [`crate::Session::set_fault_plan`], which
//! every later [`crate::Session::ingest_pipeline`] passes on) and the
//! pipeline consults it at each sequence point; pass `None` and the hook
//! costs one branch on an absent `Option`. Production code paths
//! therefore carry no chaos machinery at all.
//!
//! Every fault point fires **exactly once**. Sequence counters are global
//! to the plan and monotone across pipelines, so a recovery that replays
//! a round advances the counters past the already-fired point instead of
//! re-tripping it forever — exactly how a transient real-world fault
//! behaves. Persistent faults are modeled by scheduling many points
//! ([`FaultPlan::storm`]).

use privshape_ldp::{splitmix64, SPLITMIX64_GAMMA};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// One scheduled fault, pinned to a sequence point.
///
/// `at_submit` counts sealed-frame submissions into a pipeline,
/// `at_absorb` counts frames popped by ingest workers, and
/// `at_checkpoint` counts round-boundary checkpoints taken by a
/// supervisor — each counter global to the owning [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker absorbing the `at_absorb`-th frame panics (a real
    /// `panic!`, unwound and recorded by the pipeline as
    /// [`crate::IngestStats::worker_panics`]).
    WorkerPanic {
        /// Absorb sequence point that trips the panic.
        at_absorb: u64,
    },
    /// The worker absorbing the `at_absorb`-th frame sleeps first — a slow
    /// consumer, surfacing as queue backpressure.
    AbsorbStall {
        /// Absorb sequence point that trips the stall.
        at_absorb: u64,
        /// How long the worker sleeps.
        millis: u64,
    },
    /// The producer submitting the `at_submit`-th sealed frame sleeps
    /// first — a slow or flaky uplink.
    SubmitStall {
        /// Submit sequence point that trips the stall.
        at_submit: u64,
        /// How long the submit blocks.
        millis: u64,
    },
    /// The `at_submit`-th sealed frame is lost in transit: the pipeline
    /// returns a typed [`crate::Error::FaultInjected`] instead of
    /// delivering it, and the producer (or supervisor) must retransmit.
    FrameDrop {
        /// Submit sequence point that trips the drop.
        at_submit: u64,
    },
    /// The `at_submit`-th sealed frame is delivered twice, as a confused
    /// transport would — the second copy must be shed by the
    /// one-report-per-user dedup tier for the aggregate to stay exact.
    FrameDuplicate {
        /// Submit sequence point that trips the duplication.
        at_submit: u64,
    },
    /// The `at_checkpoint`-th checkpoint a supervisor stores is corrupted
    /// (one byte XORed inside the checksummed body) — storage rot that a
    /// later restore must detect and fall back from.
    CheckpointCorrupt {
        /// Checkpoint sequence point that trips the corruption.
        at_checkpoint: u64,
        /// Offset seed into the checkpoint body (reduced modulo the body
        /// length at fire time).
        offset: u64,
        /// XOR mask; forced nonzero at fire time so the flip is never a
        /// no-op.
        mask: u8,
    },
}

/// What the chaos plane decided for one sealed-frame submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitAction {
    /// No fault: deliver the frame normally.
    Deliver,
    /// Sleep, then deliver.
    Stall(Duration),
    /// Lose the frame: return [`crate::Error::FaultInjected`].
    Drop,
    /// Deliver the frame twice.
    Duplicate,
}

/// What the chaos plane decided for one worker absorb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsorbAction {
    /// No fault: absorb normally.
    Absorb,
    /// Sleep, then absorb.
    Stall(Duration),
    /// Panic; the payload carries the absorb sequence point.
    Panic(u64),
}

/// How many faults of each kind a plan has fired so far. All counters are
/// deterministic for a fixed plan and workload (each point fires exactly
/// once, and whether a point fires depends only on how far the sequence
/// counters advance).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FiredCounts {
    /// [`FaultKind::WorkerPanic`] points fired.
    pub worker_panics: u64,
    /// [`FaultKind::AbsorbStall`] + [`FaultKind::SubmitStall`] points fired.
    pub stalls: u64,
    /// [`FaultKind::FrameDrop`] points fired.
    pub frame_drops: u64,
    /// [`FaultKind::FrameDuplicate`] points fired.
    pub frame_duplicates: u64,
    /// [`FaultKind::CheckpointCorrupt`] points fired.
    pub checkpoint_corruptions: u64,
}

impl FiredCounts {
    /// Total faults fired, any kind.
    pub fn total(&self) -> u64 {
        self.worker_panics
            + self.stalls
            + self.frame_drops
            + self.frame_duplicates
            + self.checkpoint_corruptions
    }
}

#[derive(Debug)]
struct FaultPoint {
    kind: FaultKind,
    fired: AtomicBool,
}

/// A reproducible schedule of injected faults (see the module docs).
///
/// Shared as `Arc<FaultPlan>` between the producers, the ingest workers,
/// and the supervisor of one session; all state is atomic, so consulting
/// the plan never blocks.
#[derive(Debug, Default)]
pub struct FaultPlan {
    points: Vec<FaultPoint>,
    submit_seq: AtomicU64,
    absorb_seq: AtomicU64,
    checkpoint_seq: AtomicU64,
}

/// SplitMix64 step — the same tiny generator the datasets crate uses for
/// deterministic synthesis; good enough to scatter fault points.
fn splitmix(state: &mut u64) -> u64 {
    let out = splitmix64(*state);
    *state = state.wrapping_add(SPLITMIX64_GAMMA);
    out
}

impl FaultPlan {
    /// A plan from an explicit list of fault points — the constructor for
    /// targeted drills where each fault must land in a known round.
    pub fn new(kinds: impl IntoIterator<Item = FaultKind>) -> Self {
        Self {
            points: kinds
                .into_iter()
                .map(|kind| FaultPoint {
                    kind,
                    fired: AtomicBool::new(false),
                })
                .collect(),
            submit_seq: AtomicU64::new(0),
            absorb_seq: AtomicU64::new(0),
            checkpoint_seq: AtomicU64::new(0),
        }
    }

    /// A pseudorandom schedule fully determined by `seed` — the
    /// property-test constructor. Bounded by design so arbitrary seeds
    /// stay testable: at most 5 faults, stalls ≤ 8 ms, fault points inside
    /// the first few hundred sequence steps (points past the end of a
    /// short workload simply never fire, which is fine).
    pub fn from_seed(seed: u64) -> Self {
        let mut s = seed;
        // Warm the stream so small seeds don't all start alike.
        let _ = splitmix(&mut s);
        let n = (splitmix(&mut s) % 6) as usize;
        let kinds = (0..n)
            .map(|_| match splitmix(&mut s) % 100 {
                0..=29 => FaultKind::WorkerPanic {
                    at_absorb: splitmix(&mut s) % 300,
                },
                30..=44 => FaultKind::AbsorbStall {
                    at_absorb: splitmix(&mut s) % 300,
                    millis: 1 + splitmix(&mut s) % 8,
                },
                45..=59 => FaultKind::SubmitStall {
                    at_submit: splitmix(&mut s) % 200,
                    millis: 1 + splitmix(&mut s) % 8,
                },
                60..=74 => FaultKind::FrameDrop {
                    at_submit: splitmix(&mut s) % 200,
                },
                75..=89 => FaultKind::FrameDuplicate {
                    at_submit: splitmix(&mut s) % 200,
                },
                _ => FaultKind::CheckpointCorrupt {
                    at_checkpoint: splitmix(&mut s) % 8,
                    offset: splitmix(&mut s),
                    mask: (splitmix(&mut s) % 0xFF + 1) as u8,
                },
            })
            .collect::<Vec<_>>();
        Self::new(kinds)
    }

    /// A persistent fault: a worker panic at **every** absorb sequence
    /// point below `horizon`. A session under a storm fails every recovery
    /// attempt and must end in quarantine — the drill for budget
    /// exhaustion and graceful degradation.
    pub fn storm(horizon: u64) -> Self {
        Self::new((0..horizon).map(|at_absorb| FaultKind::WorkerPanic { at_absorb }))
    }

    /// The scheduled fault points (fired or not), for reporting.
    pub fn scheduled(&self) -> Vec<FaultKind> {
        self.points.iter().map(|p| p.kind).collect()
    }

    /// How many faults of each kind have fired so far.
    pub fn fired_counts(&self) -> FiredCounts {
        let mut counts = FiredCounts::default();
        for p in &self.points {
            if !p.fired.load(Ordering::Acquire) {
                continue;
            }
            match p.kind {
                FaultKind::WorkerPanic { .. } => counts.worker_panics += 1,
                FaultKind::AbsorbStall { .. } | FaultKind::SubmitStall { .. } => counts.stalls += 1,
                FaultKind::FrameDrop { .. } => counts.frame_drops += 1,
                FaultKind::FrameDuplicate { .. } => counts.frame_duplicates += 1,
                FaultKind::CheckpointCorrupt { .. } => counts.checkpoint_corruptions += 1,
            }
        }
        counts
    }

    /// Claims the point matching `pick`, at most one per call, firing it
    /// exactly once (atomic swap, so racing consumers cannot double-fire).
    fn claim(&self, pick: impl Fn(&FaultKind) -> bool) -> Option<FaultKind> {
        for p in &self.points {
            if pick(&p.kind) && !p.fired.swap(true, Ordering::AcqRel) {
                return Some(p.kind);
            }
        }
        None
    }

    /// Advances the submit counter and returns what to do with this
    /// sealed-frame submission. Called by the pipeline's sealed submit
    /// path; one call per frame.
    pub fn next_submit(&self) -> SubmitAction {
        let idx = self.submit_seq.fetch_add(1, Ordering::AcqRel);
        let hit = self.claim(|k| {
            matches!(
                k,
                FaultKind::SubmitStall { at_submit, .. }
                | FaultKind::FrameDrop { at_submit }
                | FaultKind::FrameDuplicate { at_submit }
                if *at_submit == idx
            )
        });
        match hit {
            Some(FaultKind::SubmitStall { millis, .. }) => {
                SubmitAction::Stall(Duration::from_millis(millis))
            }
            Some(FaultKind::FrameDrop { .. }) => SubmitAction::Drop,
            Some(FaultKind::FrameDuplicate { .. }) => SubmitAction::Duplicate,
            _ => SubmitAction::Deliver,
        }
    }

    /// Advances the absorb counter and returns what the absorbing worker
    /// must do with this frame. Called by ingest workers; one call per
    /// popped frame.
    pub fn next_absorb(&self) -> AbsorbAction {
        let idx = self.absorb_seq.fetch_add(1, Ordering::AcqRel);
        let hit = self.claim(|k| {
            matches!(
                k,
                FaultKind::WorkerPanic { at_absorb } | FaultKind::AbsorbStall { at_absorb, .. }
                if *at_absorb == idx
            )
        });
        match hit {
            Some(FaultKind::WorkerPanic { .. }) => AbsorbAction::Panic(idx),
            Some(FaultKind::AbsorbStall { millis, .. }) => {
                AbsorbAction::Stall(Duration::from_millis(millis))
            }
            _ => AbsorbAction::Absorb,
        }
    }

    /// Advances the checkpoint counter and, if a corruption is scheduled
    /// here, flips one byte of `bytes` **in the second half** — inside the
    /// checksummed snapshot body, never the envelope header, so corruption
    /// models storage rot that the body checksum catches. Returns whether
    /// a flip happened.
    pub fn next_checkpoint(&self, bytes: &mut [u8]) -> bool {
        let idx = self.checkpoint_seq.fetch_add(1, Ordering::AcqRel);
        let hit = self.claim(|k| {
            matches!(k, FaultKind::CheckpointCorrupt { at_checkpoint, .. } if *at_checkpoint == idx)
        });
        if let Some(FaultKind::CheckpointCorrupt { offset, mask, .. }) = hit {
            if bytes.is_empty() {
                return false;
            }
            let lo = bytes.len() / 2;
            let span = (bytes.len() - lo).max(1);
            let i = lo + (offset as usize) % span;
            bytes[i] ^= mask | 1;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_fire_exactly_once_at_their_index() {
        let plan = FaultPlan::new([
            FaultKind::FrameDrop { at_submit: 1 },
            FaultKind::WorkerPanic { at_absorb: 0 },
        ]);
        assert_eq!(plan.next_submit(), SubmitAction::Deliver);
        assert_eq!(plan.next_submit(), SubmitAction::Drop);
        // Already fired: the same index never trips again, and later
        // indices don't match.
        assert_eq!(plan.next_submit(), SubmitAction::Deliver);
        assert_eq!(plan.next_absorb(), AbsorbAction::Panic(0));
        assert_eq!(plan.next_absorb(), AbsorbAction::Absorb);
        let counts = plan.fired_counts();
        assert_eq!(counts.frame_drops, 1);
        assert_eq!(counts.worker_panics, 1);
        assert_eq!(counts.total(), 2);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_bounded() {
        for seed in 0..200u64 {
            let a = FaultPlan::from_seed(seed).scheduled();
            let b = FaultPlan::from_seed(seed).scheduled();
            assert_eq!(a, b, "seed {seed} not reproducible");
            assert!(a.len() <= 5, "seed {seed} schedule too large");
            for kind in &a {
                if let FaultKind::AbsorbStall { millis, .. }
                | FaultKind::SubmitStall { millis, .. } = kind
                {
                    assert!((1..=8).contains(millis), "seed {seed} stall too long");
                }
            }
        }
        // Different seeds diverge (not all schedules identical).
        let distinct: std::collections::HashSet<usize> = (0..50u64)
            .map(|s| FaultPlan::from_seed(s).scheduled().len())
            .collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn checkpoint_corruption_flips_in_body_only() {
        let plan = FaultPlan::new([FaultKind::CheckpointCorrupt {
            at_checkpoint: 0,
            offset: 7,
            mask: 0,
        }]);
        let original: Vec<u8> = (0..64).collect();
        let mut bytes = original.clone();
        assert!(plan.next_checkpoint(&mut bytes));
        let changed: Vec<usize> = (0..64).filter(|&i| bytes[i] != original[i]).collect();
        // Exactly one byte changed (mask forced nonzero), inside the
        // second half (the checksummed body, never the routing prefix).
        assert_eq!(changed.len(), 1);
        assert!(changed[0] >= 32);
        // The point fired; taking another checkpoint leaves it alone.
        let mut again = original.clone();
        assert!(!plan.next_checkpoint(&mut again));
        assert_eq!(again, original);
    }

    #[test]
    fn storm_panics_every_absorb_within_horizon() {
        let plan = FaultPlan::storm(3);
        for i in 0..3 {
            assert_eq!(plan.next_absorb(), AbsorbAction::Panic(i));
        }
        assert_eq!(plan.next_absorb(), AbsorbAction::Absorb);
        assert_eq!(plan.fired_counts().worker_panics, 3);
    }
}
