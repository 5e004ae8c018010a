//! One iteration of a workload: enroll every tenant, drive all sessions
//! round by round through one `ServiceRegistry`, and check every output.
//!
//! The load model is a closed-loop batch job. Each wave is a barrier over
//! the resident sessions:
//!
//! 1. **begin** — `begin_round` on every session (server time);
//! 2. **answer** — addressed devices answer on the main thread and seal
//!    their reports into routed frames (device time);
//! 3. **route** — [`PRODUCERS`] threads submit the interleaved frames of
//!    all sessions back to back (server time);
//! 4. **close** — `close_round` on every session, and `finish` on those
//!    whose protocol completed (server time). Recovery drills follow the
//!    harness checks and are timed on their own, for `restore_ms_p50`.
//!
//! Everything else is harness and stays outside those regions: choosing
//! which devices a broadcast addresses, interleaving and injecting frames,
//! the conservation checks, and the lock-step serial twin that every round
//! and every extraction is checked against.

use crate::trace::{SpanId, Tracer};
use crate::workload::{self, Drill, Plan, Pool, Tenant};
use privshape_distance::DistanceWorkspace;
use privshape_protocol::{
    route_frame, seal_frame, transform_series, ClassShapes, ExtractedShape, Extraction,
    GroupAssignment, IngestConfig, IngestStats, LabeledExtraction, Report, RoundSpec, Session,
    ShardAggregator, UserClient,
};
use privshape_service::{ServiceConfig, ServiceRegistry};
use std::time::{Duration, Instant};

/// Reports per sealed frame.
pub const FRAME_REPORTS: usize = 256;
/// Threads submitting routed frames.
pub const PRODUCERS: usize = 2;
/// Ingest workers per session round.
pub const INGEST_WORKERS: usize = 2;
/// One in this many `answer_with` calls is timed on its own, for the
/// per-call tail; timing every call would add a clock read pair to calls
/// that take well under a microsecond.
pub const TAIL_SAMPLE_EVERY: usize = 16;
/// Frames queued per session before producers block.
const QUEUE_CAPACITY: usize = 64;

/// Operation accounting and correctness failures.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted: routed frames and session extractions.
    pub attempted: u64,
    /// Operations that failed or broke a conservation law.
    pub failed: u64,
    /// The first failure messages.
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one failure.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 20 {
            self.messages.push(message);
        }
    }

    /// Counts a failure unless `ok`.
    pub fn expect(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }
}

/// What one iteration measured.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Session construction, admission and fleet enrollment, seconds.
    pub setup_s: f64,
    /// `begin_round` + routed frames + `close_round`/`finish`, seconds.
    pub server_s: f64,
    /// Reports the registry accepted.
    pub accepted: u64,
    /// `answer_with` plus sealing, seconds.
    pub device_s: f64,
    /// Reports the devices produced.
    pub device_reports: u64,
    /// Harness time (simulator bookkeeping and the twin), seconds.
    pub harness_s: f64,
    /// Per-session round barriers: `close_round(i)` + `begin_round(i+1)`, ms.
    pub turnaround_ms: Vec<f64>,
    /// Per-call `answer_with` times of every [`TAIL_SAMPLE_EVERY`]-th
    /// addressed device, ns.
    pub answer_ns: Vec<u32>,
    /// `UserClient::new` times over the enrollment sample, ms.
    pub enroll_ms: Vec<f64>,
    /// Snapshot + evict + restore times, ms.
    pub restore_ms: Vec<f64>,
    /// Clients polled (fleet size per round, summed over rounds).
    pub polled: u64,
    /// Candidate rows scored on Expand and Refine rounds.
    pub score_rows: u64,
    /// Reports answered on Expand and Refine rounds.
    pub score_reports: u64,
    /// DP cells scored: Σ over scored reports of Σ over candidates of ℓ².
    pub score_cells: f64,
    /// Bytes of sealed frames (before the routing envelope).
    pub sealed_bytes: u64,
    /// Reports in all routed frames, injected ones included.
    pub routed_reports: u64,
    /// Registry ingest counters summed over every round.
    pub ingest: IngestStats,
    /// Candidates broadcast per Expand round.
    pub expand_candidates: Vec<f64>,
    /// One line per finished session: rounds, `ell_s`, candidates per level.
    pub sessions: Vec<String>,
}

/// What the twin comparison checks of a finished extraction: the shapes
/// (or per-class shapes), `ell_s`, and the candidates per trie level.
#[derive(Debug, PartialEq)]
struct Extracted {
    shapes: Vec<ExtractedShape>,
    classes: Vec<ClassShapes>,
    ell_s: usize,
    candidates_per_level: Vec<usize>,
}

impl Extracted {
    fn unlabeled(e: Extraction) -> Self {
        Self {
            shapes: e.shapes,
            classes: Vec::new(),
            ell_s: e.diagnostics.ell_s,
            candidates_per_level: e.diagnostics.candidates_per_level,
        }
    }

    fn labeled(e: LabeledExtraction) -> Self {
        Self {
            shapes: Vec::new(),
            classes: e.classes,
            ell_s: e.diagnostics.ell_s,
            candidates_per_level: e.diagnostics.candidates_per_level,
        }
    }

    fn from_registry(registry: &ServiceRegistry, id: u64, labeled: bool) -> Result<Self, String> {
        let res = if labeled {
            registry.finish_labeled(id).map(Self::labeled)
        } else {
            registry.finish(id).map(Self::unlabeled)
        };
        res.map_err(|e| e.to_string())
    }

    fn from_twin(twin: Session, labeled: bool) -> Result<Self, String> {
        let res = if labeled {
            twin.finish_labeled().map(Self::labeled)
        } else {
            twin.finish().map(Self::unlabeled)
        };
        res.map_err(|e| e.to_string())
    }
}

/// A tenant while its session is resident.
struct Live {
    index: usize,
    tenant: Tenant,
    id: u64,
    /// The lock-step serial twin; taken when the session finishes.
    twin: Option<Session>,
    clients: Vec<UserClient>,
    round: u32,
    last_close: Option<Duration>,
    stats: IngestStats,
    done: bool,
}

impl Live {
    fn span(&self) -> SpanId {
        SpanId::new(self.index, self.round)
    }
}

/// A round opened in the current wave.
struct OpenRound {
    live: usize,
    spec: RoundSpec,
    generation: u64,
    entries: Vec<(usize, Report)>,
    frames: Vec<Vec<u8>>,
    /// Reports in all routed frames.
    reports_routed: u64,
    /// Reports in frames that must be accepted (everything but the corrupted copy).
    reports_in_clean_frames: u64,
    expected_duplicates: u64,
    expected_rejected: u64,
    route_errors: u64,
}

fn answer_span(spec: &RoundSpec) -> &'static str {
    match spec {
        RoundSpec::Length { .. } => "client.answer.length",
        RoundSpec::SubShape { .. } => "client.answer.subshape",
        RoundSpec::Expand { .. } => "client.answer.expand",
        RoundSpec::RefineUnlabeled { .. } | RoundSpec::RefineLabeled { .. } => {
            "client.answer.refine"
        }
    }
}

fn next_round_span(spec: Option<&RoundSpec>) -> &'static str {
    match spec {
        Some(RoundSpec::Length { .. }) => "session.next_round.length",
        Some(RoundSpec::SubShape { .. }) => "session.next_round.subshape",
        Some(RoundSpec::Expand { .. }) => "session.next_round.expand",
        Some(RoundSpec::RefineUnlabeled { .. } | RoundSpec::RefineLabeled { .. }) => {
            "session.next_round.refine"
        }
        None => "session.next_round.done",
    }
}

/// The counters accumulated between `base` and `now`; the queue high-water
/// mark, a maximum, is `now`'s.
fn delta(base: &IngestStats, now: &IngestStats) -> IngestStats {
    // Counters never decrease; if one did, the conservation checks fail on
    // the zero this yields.
    IngestStats {
        accepted_reports: now.accepted_reports.saturating_sub(base.accepted_reports),
        rejected_frames: now.rejected_frames.saturating_sub(base.rejected_frames),
        duplicate_reports: now.duplicate_reports.saturating_sub(base.duplicate_reports),
        queue_high_water: now.queue_high_water,
        backpressure_stalls: now
            .backpressure_stalls
            .saturating_sub(base.backpressure_stalls),
        worker_panics: now.worker_panics.saturating_sub(base.worker_panics),
    }
}

/// Runs one iteration of `plan` over `pool`.
pub fn iteration(plan: &Plan, pool: &Pool, tr: &mut Tracer, checks: &mut Checks) -> Iteration {
    let registry = ServiceRegistry::new(ServiceConfig {
        max_sessions: plan.tenants.len(),
        ingest: IngestConfig {
            workers: INGEST_WORKERS,
            queue_capacity: QUEUE_CAPACITY,
        },
    });
    let mut it = Iteration::default();
    let mut ws = DistanceWorkspace::new();
    let mut live: Vec<Live> = Vec::new();
    let mut next_tenant = 0usize;
    let mut wave = 0u32;
    let root = tr.open("iteration", SpanId::NONE);
    loop {
        while next_tenant < plan.tenants.len() && plan.tenants[next_tenant].admit_wave <= wave {
            let l = enroll(plan, pool, next_tenant, &registry, tr, &mut it, checks);
            live.push(l);
            next_tenant += 1;
        }
        if next_tenant == plan.tenants.len() && live.iter().all(|l| l.done) {
            break;
        }

        // Begin: open the next round of every resident session.
        let phase = tr.open("server.begin", SpanId::NONE);
        let mut begun: Vec<(usize, Option<(RoundSpec, u64)>)> = Vec::new();
        for (li, l) in live.iter_mut().enumerate().filter(|(_, l)| !l.done) {
            l.round += 1;
            let (res, took) = tr.time("registry.begin_round", l.span(), 0, || {
                let spec = registry.begin_round(l.id)?;
                let generation = match &spec {
                    Some(_) => Some(registry.session_generation(l.id)?),
                    None => None,
                };
                Ok::<_, privshape_service::ServiceError>(spec.zip(generation))
            });
            it.server_s += took.as_secs_f64();
            if let Some(close) = l.last_close.take() {
                it.turnaround_ms.push((close + took).as_secs_f64() * 1e3);
            }
            match res {
                Ok(opened) => begun.push((li, opened)),
                Err(e) => {
                    checks.fail(format!("{}: begin_round: {e}", l.tenant.kind.name));
                    l.done = true;
                }
            }
        }
        tr.close(phase, begun.len() as u64);

        // Harness: the twin opens the same round; its broadcast must match.
        let twin_phase = tr.open("harness.twin", SpanId::NONE);
        let mut opened: Vec<OpenRound> = Vec::new();
        let mut completed: Vec<usize> = Vec::new();
        for (li, got) in begun {
            let l = &mut live[li];
            let Some(twin) = l.twin.as_mut() else {
                continue;
            };
            let started = Instant::now();
            let want = twin.next_round();
            let name = next_round_span(want.as_ref().ok().and_then(Option::as_ref));
            tr.record(name, l.span(), started, Instant::now(), 0);
            let name = l.tenant.kind.name;
            match (want, got) {
                (Ok(Some(want)), Some((spec, generation))) => {
                    checks.expect(want == spec, || {
                        format!(
                            "{name} round {}: broadcast differs from the twin's",
                            l.round
                        )
                    });
                    opened.push(OpenRound {
                        live: li,
                        spec,
                        generation,
                        entries: Vec::new(),
                        frames: Vec::new(),
                        reports_routed: 0,
                        reports_in_clean_frames: 0,
                        expected_duplicates: 0,
                        expected_rejected: 0,
                        route_errors: 0,
                    });
                }
                (Ok(None), None) => completed.push(li),
                (want, got) => {
                    checks.fail(format!(
                        "{name} round {}: twin {:?} vs registry {:?}",
                        l.round,
                        want.map(|s| s.is_some()),
                        got.is_some()
                    ));
                    l.done = true;
                }
            }
        }
        it.harness_s += tr.close(twin_phase, 0).as_secs_f64();

        // Answer: addressed devices answer and seal (device time).
        for (oi, open) in opened.iter_mut().enumerate() {
            let l = &mut live[open.live];
            let audience = open.spec.audience();
            let (addressed, took) = tr.time("harness.poll", l.span(), 0, || {
                (0..l.clients.len())
                    .filter(|&u| l.clients[u].assignment().addressed_by(audience))
                    .collect::<Vec<usize>>()
            });
            it.harness_s += took.as_secs_f64();
            it.polled += l.clients.len() as u64;

            let span = tr.open(answer_span(&open.spec), l.span());
            let mut entries = Vec::with_capacity(addressed.len());
            for (k, &u) in addressed.iter().enumerate() {
                let client = &mut l.clients[u];
                let res = if k % TAIL_SAMPLE_EVERY == 0 {
                    let started = Instant::now();
                    let res = client.answer_with(&open.spec, &mut ws);
                    it.answer_ns
                        .push(started.elapsed().as_nanos().min(u32::MAX as u128) as u32);
                    res
                } else {
                    client.answer_with(&open.spec, &mut ws)
                };
                match res {
                    Ok(Some(report)) => entries.push((client.user_id(), report)),
                    Ok(None) => checks.fail(format!("user {u} addressed but did not answer")),
                    Err(e) => checks.fail(format!("user {u}: {e}")),
                }
            }
            it.device_s += tr.close(span, entries.len() as u64).as_secs_f64();
            it.device_reports += entries.len() as u64;
            if let RoundSpec::Expand { candidates, .. }
            | RoundSpec::RefineUnlabeled { candidates, .. }
            | RoundSpec::RefineLabeled { candidates, .. } = &open.spec
            {
                let cells: f64 = (0..candidates.len())
                    .filter_map(|c| candidates.get(c))
                    .map(|c| (c.len() * c.len()) as f64)
                    .sum();
                it.score_reports += entries.len() as u64;
                it.score_rows += (entries.len() * candidates.len()) as u64;
                it.score_cells += entries.len() as f64 * cells;
                if matches!(open.spec, RoundSpec::Expand { .. }) {
                    it.expand_candidates.push(candidates.len() as f64);
                }
            }

            let (sealed, took) = tr.time("wire.seal", l.span(), entries.len() as u64, || {
                entries
                    .chunks(FRAME_REPORTS)
                    .map(seal_frame)
                    .collect::<Vec<_>>()
            });
            it.device_s += took.as_secs_f64();
            it.sealed_bytes += sealed.iter().map(|f| f.len() as u64).sum::<u64>();
            let (frames, took) = tr.time("wire.envelope", l.span(), sealed.len() as u64, || {
                sealed
                    .iter()
                    .map(|f| route_frame(l.id, open.generation, f))
                    .collect::<Vec<_>>()
            });
            it.device_s += took.as_secs_f64();
            open.frames = frames;
            open.reports_in_clean_frames = entries.len() as u64;
            open.reports_routed = entries.len() as u64;
            open.entries = entries;

            // Harness: the first session of each wave gets one replayed
            // and one corrupted frame.
            if plan.inject && oi == 0 && !open.frames.is_empty() {
                let first = open.frames[0].clone();
                let first_reports = open.entries.len().min(FRAME_REPORTS) as u64;
                let mut corrupted = first.clone();
                let last = corrupted.len() - 1;
                corrupted[last] ^= 0xA5;
                open.frames.push(first);
                open.frames.push(corrupted);
                open.reports_in_clean_frames += first_reports;
                open.reports_routed += 2 * first_reports;
                open.expected_duplicates = first_reports;
                open.expected_rejected = 1;
            }
        }

        // Harness: interleave all sessions' frames round-robin.
        let (stream, took) = tr.time("harness.interleave", SpanId::NONE, 0, || {
            let mut stream: Vec<(usize, &[u8])> = Vec::new();
            let longest = opened.iter().map(|o| o.frames.len()).max().unwrap_or(0);
            for k in 0..longest {
                for (oi, o) in opened.iter().enumerate() {
                    if let Some(f) = o.frames.get(k) {
                        stream.push((oi, f.as_slice()));
                    }
                }
            }
            stream
        });
        it.harness_s += took.as_secs_f64();
        it.routed_reports += opened.iter().map(|o| o.reports_routed).sum::<u64>();
        checks.attempted += stream.len() as u64;

        // Route: producers submit the stream back to back (server time).
        let phase = tr.open("server.route", SpanId::NONE);
        let per_thread = stream.len().div_ceil(PRODUCERS).max(1);
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = stream
                .chunks(per_thread)
                .map(|chunk| {
                    let mut branch = tr.branch();
                    let registry = &registry;
                    let live = &live;
                    let opened = &opened;
                    scope.spawn(move || {
                        let mut errors: Vec<(usize, String)> = Vec::new();
                        for &(oi, frame) in chunk {
                            let l = &live[opened[oi].live];
                            let res = branch.time("registry.route_frame", l.span(), || {
                                registry.route_frame(frame)
                            });
                            if let Err(e) = res {
                                errors.push((oi, e.to_string()));
                            }
                        }
                        (branch, errors)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("producer threads do not panic"))
                .collect()
        });
        it.server_s += tr.close(phase, stream.len() as u64).as_secs_f64();
        for (branch, errors) in results {
            tr.merge(branch);
            for (oi, e) in errors {
                opened[oi].route_errors += 1;
                checks.fail(format!("route_frame: {e}"));
            }
        }

        // Close every open round, then finish completed sessions.
        let phase = tr.open("server.close", SpanId::NONE);
        for open in &opened {
            let l = &mut live[open.live];
            let (res, took) = tr.time("registry.close_round", l.span(), 0, || {
                registry.close_round(l.id)
            });
            it.server_s += took.as_secs_f64();
            l.last_close = Some(took);
            if let Err(e) = res {
                checks.fail(format!("{}: close_round: {e}", l.tenant.kind.name));
                l.done = true;
            }
        }
        let mut finished = Vec::with_capacity(completed.len());
        for &li in &completed {
            let l = &mut live[li];
            l.done = true;
            checks.attempted += 1;
            let (got, took) = tr.time("registry.finish", l.span(), 0, || {
                Extracted::from_registry(&registry, l.id, l.tenant.kind.labeled)
            });
            it.server_s += took.as_secs_f64();
            finished.push((li, got));
        }
        tr.close(phase, 0);

        // Harness: every extraction must equal its twin's.
        for (li, got) in finished {
            let l = &mut live[li];
            l.clients = Vec::new();
            let Some(twin) = l.twin.take() else {
                continue;
            };
            let (want, took) = tr.time("harness.compare", l.span(), 0, || {
                Extracted::from_twin(twin, l.tenant.kind.labeled)
            });
            it.harness_s += took.as_secs_f64();
            let name = l.tenant.kind.name;
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    it.sessions.push(format!(
                        "{name}: {} users, {} rounds, ell_s {}, candidates per level {:?}",
                        l.tenant.users,
                        l.round - 1,
                        got.ell_s,
                        got.candidates_per_level
                    ));
                    checks.expect(got == want, || {
                        format!("{name}: extraction differs from the twin's")
                    });
                }
                (got, want) => checks.fail(format!(
                    "{name}: finish failed (registry {:?}, twin {:?})",
                    got.err(),
                    want.err()
                )),
            }
        }

        // Harness: conservation checks and the twin's copy of the round.
        for open in &opened {
            let l = &mut live[open.live];
            if l.done {
                continue;
            }
            let (res, took) = tr.time("harness.conserve", l.span(), 0, || {
                registry.session_ingest_stats(l.id)
            });
            it.harness_s += took.as_secs_f64();
            let Ok(now) = res else {
                checks.fail(format!("{}: ingest stats unavailable", l.tenant.kind.name));
                continue;
            };
            let d = delta(&l.stats, &now);
            l.stats = now;
            it.ingest.absorb(&d);
            it.accepted += d.accepted_reports;
            conserve(open, &d, l.tenant.kind.name, l.round, checks);

            let span = l.span();
            let Some(twin) = l.twin.as_mut() else {
                continue;
            };
            let twin_span = tr.open("harness.twin", span);
            let reports: Vec<Report> = open.entries.iter().map(|(_, r)| r.clone()).collect();
            let submitted = twin.submit(&reports);
            let aggregate = aggregate(&open.spec, twin, &reports, span, tr);
            it.harness_s += tr.close(twin_span, reports.len() as u64).as_secs_f64();
            if let Err(e) = submitted {
                checks.fail(format!("{}: twin submit: {e}", l.tenant.kind.name));
            }
            match aggregate {
                Ok(n) => checks.expect(n == d.accepted_reports, || {
                    format!(
                        "{} round {}: aggregate holds {n} reports, registry accepted {}",
                        l.tenant.kind.name, l.round, d.accepted_reports
                    )
                }),
                Err(e) => checks.fail(format!("{}: aggregate: {e}", l.tenant.kind.name)),
            }

            let drill = match l.tenant.drill {
                Drill::Never => false,
                Drill::AfterRound(r) => r == l.round,
            };
            if drill {
                recovery_drill(&registry, l, tr, &mut it, checks);
            }
        }
        wave += 1;
    }
    tr.close(root, it.accepted);
    it
}

/// Checks one round's conservation laws against the registry's counters.
fn conserve(open: &OpenRound, d: &IngestStats, name: &str, round: u32, checks: &mut Checks) {
    let rejected = d.rejected_frames + open.route_errors;
    checks.expect(rejected == open.expected_rejected, || {
        format!(
            "{name} round {round}: {rejected} frames rejected, {} expected",
            open.expected_rejected
        )
    });
    checks.expect(
        open.reports_in_clean_frames == d.accepted_reports + d.duplicate_reports,
        || {
            format!(
                "{name} round {round}: {} reports in accepted frames, {} accepted + {} duplicate",
                open.reports_in_clean_frames, d.accepted_reports, d.duplicate_reports
            )
        },
    );
    checks.expect(d.accepted_reports == open.entries.len() as u64, || {
        format!(
            "{name} round {round}: {} accepted, {} answered",
            d.accepted_reports,
            open.entries.len()
        )
    });
    checks.expect(d.duplicate_reports == open.expected_duplicates, || {
        format!(
            "{name} round {round}: {} duplicates, {} replayed",
            d.duplicate_reports, open.expected_duplicates
        )
    });
    checks.expect(d.worker_panics == 0, || {
        format!("{name} round {round}: ingest worker panicked")
    });
}

/// Aggregates `reports` as plain frames into one shard per ingest worker,
/// merges the shards, and returns the aggregate's report count.
fn aggregate(
    spec: &RoundSpec,
    twin: &Session,
    reports: &[Report],
    id: SpanId,
    tr: &mut Tracer,
) -> privshape_protocol::Result<u64> {
    let epsilon = twin.params().epsilon;
    let per_worker = reports.len().div_ceil(INGEST_WORKERS).max(1);
    let mut shards = Vec::with_capacity(INGEST_WORKERS);
    for part in reports.chunks(per_worker) {
        let frames: Vec<Vec<u8>> = part
            .chunks(FRAME_REPORTS)
            .map(|chunk| {
                let mut frame = Vec::new();
                for r in chunk {
                    r.encode_into(&mut frame);
                }
                frame
            })
            .collect();
        let mut shard = ShardAggregator::for_round(spec, epsilon)?;
        let (res, _) = tr.time("ingest.absorb", id, part.len() as u64, || {
            frames
                .iter()
                .try_for_each(|f| shard.absorb_wire(f).map(drop))
        });
        res?;
        shards.push(shard);
    }
    let (merged, _) = tr.time("shard.merge_tree", id, shards.len() as u64, || {
        ShardAggregator::merge_tree(shards)
    });
    Ok(merged?.map_or(0, |s| s.reports()))
}

/// Snapshot → evict → restore of one resident session between rounds.
fn recovery_drill(
    registry: &ServiceRegistry,
    l: &mut Live,
    tr: &mut Tracer,
    it: &mut Iteration,
    checks: &mut Checks,
) {
    let name = l.tenant.kind.name;
    let drill = tr.open("recovery.drill", l.span());
    let (snapshot, t_snap) = tr.time("recovery.snapshot", l.span(), 0, || {
        registry.snapshot_session(l.id)
    });
    let snapshot = match snapshot {
        Ok(bytes) => bytes,
        Err(e) => {
            tr.close(drill, 0);
            checks.fail(format!("{name}: snapshot: {e}"));
            return;
        }
    };
    let (evicted, t_evict) = tr.time("recovery.evict", l.span(), 0, || {
        registry.evict_session(l.id)
    });
    let (restored, t_restore) =
        tr.time("recovery.restore", l.span(), l.tenant.users as u64, || {
            registry.restore_session(&snapshot)
        });
    tr.close(drill, snapshot.len() as u64);
    it.restore_ms
        .push((t_snap + t_evict + t_restore).as_secs_f64() * 1e3);
    checks.expect(evicted, || {
        format!("{name}: evicted session was not resident")
    });
    match restored {
        Ok(id) => checks.expect(id == l.id, || format!("{name}: restored under id {id}")),
        Err(e) => checks.fail(format!("{name}: restore: {e}")),
    }
    let stats = registry.session_ingest_stats(l.id);
    checks.expect(stats.as_ref().ok() == Some(&l.stats), || {
        format!("{name}: ingest counters changed across restore")
    });
}

/// Builds the twin, admits the session and enrolls its fleet.
fn enroll(
    plan: &Plan,
    pool: &Pool,
    index: usize,
    registry: &ServiceRegistry,
    tr: &mut Tracer,
    it: &mut Iteration,
    checks: &mut Checks,
) -> Live {
    let tenant = plan.tenants[index];
    let id = SpanId::new(index, 0);
    let n = tenant.users;
    let labeled = tenant.kind.labeled;
    let (twin, took) = tr.time("harness.twin", id, 0, || workload::session(&tenant));
    it.harness_s += took.as_secs_f64();

    let setup = tr.open("setup", id);
    let (session, _) = tr.time("session.new", id, 0, || workload::session(&tenant));
    let params = session.params().clone();
    let (admitted, _) = tr.time("registry.admit", id, 0, || registry.admit(session));
    let (assignments, _) = tr.time("client.derive_all", id, n as u64, || {
        GroupAssignment::derive_all(&params)
    });
    let label = |u: usize| labeled.then(|| pool.label(u));
    let clients: Vec<UserClient> = if tr.is_on() {
        // The same work as `with_assignment`, split at its two layers.
        let (seqs, _) = tr.time("timeseries.transform", id, n as u64, || {
            (0..n)
                .map(|u| transform_series(pool.series(u), &params.sax, &params.preprocessing))
                .collect::<Vec<_>>()
        });
        tr.time("client.from_sequence", id, n as u64, || {
            seqs.into_iter()
                .enumerate()
                .map(|(u, seq)| {
                    UserClient::from_sequence(u, seq, label(u), &params, assignments[u])
                })
                .collect()
        })
        .0
    } else {
        tr.time("client.with_assignment", id, n as u64, || {
            (0..n)
                .map(|u| {
                    UserClient::with_assignment(
                        u,
                        pool.series(u),
                        label(u),
                        &params,
                        assignments[u],
                    )
                })
                .collect()
        })
        .0
    };
    it.setup_s += tr.close(setup, n as u64).as_secs_f64();

    let registry_id = match admitted {
        Ok(id) => id,
        Err(e) => {
            checks.fail(format!("{}: admit: {e}", tenant.kind.name));
            0
        }
    };

    // A fixed device sample enrolls the way a real device does: one
    // `UserClient::new`, which derives its own group assignment.
    if index == 0 {
        for j in 0..workload::ENROLL_SAMPLE {
            let u = j * n / workload::ENROLL_SAMPLE;
            let (assignment, took) = if tr.is_on() {
                let (a, t_assign) = tr.time("client.assign", id, 1, || {
                    GroupAssignment::derive(&params, u)
                });
                let (_, t_enroll) = tr.time("client.enroll_sample", id, 1, || {
                    UserClient::with_assignment(u, pool.series(u), label(u), &params, a)
                });
                (a, t_assign + t_enroll)
            } else {
                let (client, took) = tr.time("client.new", id, 1, || match label(u) {
                    Some(l) => UserClient::labeled(u, pool.series(u), l, &params),
                    None => UserClient::new(u, pool.series(u), &params),
                });
                (client.assignment(), took)
            };
            it.enroll_ms.push(took.as_secs_f64() * 1e3);
            checks.expect(assignment == assignments[u], || {
                format!("{}: user {u} derived another group", tenant.kind.name)
            });
        }
    }

    let stats = registry
        .session_ingest_stats(registry_id)
        .unwrap_or_default();
    Live {
        index,
        tenant,
        id: registry_id,
        twin: Some(twin),
        clients,
        round: 0,
        last_close: None,
        stats,
        done: registry_id == 0,
    }
}
