//! Chaos smoke test: nine concurrent extraction sessions driven through
//! a [supervised](ServiceRegistry::supervised) registry under a matrix of
//! injected faults — worker panics
//! mid-round, absorb/submit stalls, sealed-frame drops and duplicates,
//! checkpoint corruption, repeated panics on one session, and one
//! hopeless session whose every round panics. Every *surviving* session's
//! extraction is asserted **bit-identical** to a fault-free serial twin
//! of the same population; the hopeless one must quarantine with the
//! typed error while its neighbours keep progressing. Writes
//! `results/BENCH_chaos.json` (recovery counts, retries, quarantines,
//! recovered-session throughput) so `bench_gate` can hold the line in CI.
//!
//! Usage: `cargo run --release -p privshape-bench --bin chaos_smoke
//!         [--users N] [--seed N] [--out DIR] [--quick]`
//!
//! `--users` is the fleet size *per session* (default 4000).
//!
//! Determinism: each session's [`FaultPlan`] pins faults to
//! plan-global sequence counters, and the chaos ingest pools run one
//! worker per session, so frames are absorbed in submit order and a
//! fault point lands in the same round on every run. The fault-free
//! twin is driven first, and its per-round frame counts are used to aim
//! mid-protocol faults at round 2 exactly.

use privshape::protocol::{
    route_frame, seal_frame, Extraction, FaultKind, FaultPlan, GroupAssignment, IngestConfig,
    Report, RoundSpec, Session, UserClient,
};
use privshape::PrivShapeConfig;
use privshape_bench::ExpCtx;
use privshape_datasets::{generate_symbols_like, SymbolsLikeConfig};
use privshape_ldp::Epsilon;
use privshape_service::{RetryPolicy, ServiceConfig, ServiceError, ServiceRegistry};
use privshape_timeseries::{SaxParams, TimeSeries};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reports per sealed wire frame. Small enough that every round spans
/// several frames even at `--quick` scale, so mid-round fault points
/// actually land mid-round.
const FRAME_REPORTS: usize = 32;
/// Producer-side retransmissions per frame for injected in-transit drops.
const RETRANSMITS: u32 = 16;

/// One cell of the fault matrix.
struct Descriptor {
    name: &'static str,
    /// Builds the session's fault plan from its twin's per-round frame
    /// counts (`frames[r]` = sealed frames round `r` produced).
    plan: fn(&[u64]) -> Option<FaultPlan>,
    /// Recoveries this session must log to pass (`None` = don't pin).
    expect_recoveries: Option<u64>,
    /// Whether the session must end up quarantined.
    doomed: bool,
}

/// Second-frame-of-round-2 absorb index, given round-1 absorbs `frames[0]`
/// frames and a failed incident consumes `extra` absorbs before re-drive.
fn round2_absorb(frames: &[u64], extra: u64) -> u64 {
    let in_round2 = frames.get(1).map_or(0, |&f| (f - 1).min(1));
    extra + frames[0] + in_round2
}

const DESCRIPTORS: [Descriptor; 9] = [
    Descriptor {
        name: "healthy-a",
        plan: |_| None,
        expect_recoveries: Some(0),
        doomed: false,
    },
    Descriptor {
        name: "healthy-b",
        plan: |_| None,
        expect_recoveries: Some(0),
        doomed: false,
    },
    Descriptor {
        name: "healthy-c",
        plan: |_| None,
        expect_recoveries: Some(0),
        doomed: false,
    },
    Descriptor {
        // A worker panic while round 1 absorbs its second frame.
        name: "panic-mid-round",
        plan: |_| {
            Some(FaultPlan::new(vec![FaultKind::WorkerPanic {
                at_absorb: 1,
            }]))
        },
        expect_recoveries: Some(1),
        doomed: false,
    },
    Descriptor {
        // Absorb- and submit-side stalls: pure latency, no round failure.
        name: "stalls",
        plan: |_| {
            Some(FaultPlan::new(vec![
                FaultKind::AbsorbStall {
                    at_absorb: 2,
                    millis: 5,
                },
                FaultKind::SubmitStall {
                    at_submit: 1,
                    millis: 5,
                },
            ]))
        },
        expect_recoveries: Some(0),
        doomed: false,
    },
    Descriptor {
        // The round-2 boundary checkpoint is corrupted in storage, then a
        // panic fails round 2: recovery must fall back to the round-1
        // checkpoint, re-drive both rounds, and heal the corrupt one.
        name: "corrupt-checkpoint",
        plan: |frames| {
            Some(FaultPlan::new(vec![
                FaultKind::CheckpointCorrupt {
                    at_checkpoint: 1,
                    offset: 9,
                    mask: 0x20,
                },
                FaultKind::WorkerPanic {
                    at_absorb: round2_absorb(frames, 0),
                },
            ]))
        },
        expect_recoveries: Some(1),
        doomed: false,
    },
    Descriptor {
        // A sealed frame dropped in transit (retransmitted under backoff)
        // and one delivered twice (dedup sheds the copy).
        name: "drop-duplicate",
        plan: |_| {
            Some(FaultPlan::new(vec![
                FaultKind::FrameDrop { at_submit: 0 },
                FaultKind::FrameDuplicate { at_submit: 2 },
            ]))
        },
        expect_recoveries: Some(0),
        doomed: false,
    },
    Descriptor {
        // Two separate incidents on one session: round 1 fails at its
        // second frame (2 absorbs consumed), is re-driven, then round 2
        // fails too — two recoveries, one session.
        name: "repeat-panic",
        plan: |frames| {
            Some(FaultPlan::new(vec![
                FaultKind::WorkerPanic { at_absorb: 1 },
                FaultKind::WorkerPanic {
                    at_absorb: round2_absorb(frames, 2),
                },
            ]))
        },
        expect_recoveries: Some(2),
        doomed: false,
    },
    Descriptor {
        // Every absorb panics: recovery can never succeed, the retry
        // bounds exhaust, and the session must quarantine typed.
        name: "doomed",
        plan: |_| Some(FaultPlan::storm(1000)),
        expect_recoveries: None,
        doomed: true,
    },
];

struct Tenant {
    desc: &'static Descriptor,
    clients: Vec<UserClient>,
    twin: Extraction,
    plan: Option<Arc<FaultPlan>>,
    users: usize,
    rounds: u32,
    /// Client-side reports routed (original rounds only; re-drives replay
    /// journaled frames without new client answers).
    reports: u64,
    quarantined: bool,
    stats: privshape_service::RecoveryStats,
}

fn build_session(seed: u64, n: usize) -> Session {
    let mut cfg = PrivShapeConfig::new(
        Epsilon::new(4.0).expect("positive eps"),
        2,
        SaxParams::new(25, 4).expect("valid SAX parameters"),
    );
    cfg.length_range = (1, 8);
    cfg.seed = seed;
    Session::privshape(cfg, n).expect("valid session")
}

fn build_clients(session: &Session, data: &[TimeSeries]) -> Vec<UserClient> {
    let assignments = GroupAssignment::derive_all(session.params());
    data.iter()
        .enumerate()
        .map(|(user, series)| {
            UserClient::with_assignment(user, series, None, session.params(), assignments[user])
        })
        .collect()
}

/// Serial fault-free twin: extraction plus per-round sealed-frame counts
/// (used to aim fault points at specific rounds).
fn run_twin(seed: u64, data: &[TimeSeries]) -> (Extraction, Vec<u64>) {
    let mut session = build_session(seed, data.len());
    let mut clients = build_clients(&session, data);
    let mut frames_per_round = Vec::new();
    while let Some(spec) = session.next_round().expect("twin advances") {
        let mut reports = Vec::new();
        for c in clients.iter_mut() {
            if let Some(r) = c.answer(&spec).expect("twin clients answer") {
                reports.push(r);
            }
        }
        frames_per_round.push(reports.len().div_ceil(FRAME_REPORTS) as u64);
        session.submit(&reports).expect("twin submits");
    }
    (session.finish().expect("twin finishes"), frames_per_round)
}

fn routed(
    clients: &mut [UserClient],
    spec: &RoundSpec,
    id: u64,
    generation: u64,
) -> (Vec<Vec<u8>>, u64) {
    let mut entries: Vec<(usize, Report)> = Vec::new();
    for client in clients.iter_mut() {
        if let Some(report) = client.answer(spec).expect("clients answer") {
            entries.push((client.user_id(), report));
        }
    }
    let count = entries.len() as u64;
    let frames = entries
        .chunks(FRAME_REPORTS)
        .map(|chunk| route_frame(id, generation, &seal_frame(chunk)))
        .collect();
    (frames, count)
}

/// Routes one session's frames (retransmitting injected drops) and closes
/// the round. Returns the supervised registry's verdict on the round.
fn drive_round(sup: &ServiceRegistry, id: u64, frames: &[Vec<u8>]) -> Result<(), ServiceError> {
    for frame in frames {
        let mut retransmits = 0u32;
        loop {
            match sup.route_frame(frame) {
                Ok(()) => break,
                Err(ServiceError::Session(privshape::protocol::Error::FaultInjected(_)))
                    if retransmits < RETRANSMITS =>
                {
                    retransmits += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
    sup.close_round(id)
}

fn main() {
    let ctx = ExpCtx::from_env(4000, 1);

    // Injected worker panics are expected: silence their default-hook
    // backtraces (anything else still reports loudly).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let chaos = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.starts_with("chaos:"))
            .or_else(|| {
                info.payload()
                    .downcast_ref::<String>()
                    .map(|s| s.starts_with("chaos:"))
            })
            .unwrap_or(false);
        if !chaos {
            default_hook(info);
        }
    }));

    let sup = ServiceRegistry::supervised(
        ServiceConfig {
            max_sessions: DESCRIPTORS.len(),
            ingest: IngestConfig {
                // One worker per chaos pipeline: absorb order follows
                // submit order, so fault points land deterministically.
                workers: 1,
                queue_capacity: 64,
            },
        },
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
            failure_budget: 6,
            journal_capacity: 8192,
        },
    );

    println!(
        "== chaos smoke: {} sessions x {} users ==",
        DESCRIPTORS.len(),
        ctx.users
    );

    let mut tenants: HashMap<u64, Tenant> = HashMap::new();
    let mut total_users = 0usize;
    for (i, desc) in DESCRIPTORS.iter().enumerate() {
        let seed = ctx.trial_seed(i);
        let data = generate_symbols_like(&SymbolsLikeConfig {
            n_per_class: (ctx.users / 6).max(1),
            length: 96,
            seed,
            ..Default::default()
        });
        let n = data.series().len();
        let (twin, frames_per_round) = run_twin(seed, data.series());
        let plan = (desc.plan)(&frames_per_round).map(Arc::new);

        let mut session = build_session(seed, n);
        let clients = build_clients(&session, data.series());
        session.set_fault_plan(plan.clone());
        let id = sup.admit(session).expect("admission under capacity");
        total_users += n;
        tenants.insert(
            id,
            Tenant {
                desc,
                clients,
                twin,
                plan,
                users: n,
                rounds: 0,
                reports: 0,
                quarantined: false,
                stats: privshape_service::RecoveryStats::default(),
            },
        );
    }

    // Overload shedding: the admission cap still holds under supervision.
    match sup.admit(build_session(1, 64)) {
        Err(ServiceError::AdmissionDenied { .. }) => {}
        other => panic!("expected AdmissionDenied past the cap, got {other:?}"),
    }

    // The interleaved drive: every wave advances each resident session by
    // one round, one thread per session, so a recovering (sleeping)
    // session never blocks a healthy one.
    let started = Instant::now();
    let mut survivors = 0usize;
    while sup.active_sessions() > 0 {
        // One pass over the rotation: every resident id exactly once.
        let wave: Vec<u64> = (0..sup.active_sessions())
            .map(|_| sup.next_session().expect("sessions resident"))
            .collect();

        let mut open: Vec<(u64, Vec<Vec<u8>>)> = Vec::new();
        for &id in &wave {
            match sup.begin_round(id).expect("rounds open") {
                None => {
                    // Complete: read counters *before* finish drops them,
                    // then hold the extraction against the serial twin.
                    let tenant = tenants.get_mut(&id).expect("tenant enrolled");
                    tenant.stats = sup.recovery_stats(id).expect("stats before finish");
                    let got = sup.finish(id).expect("extraction");
                    assert_eq!(
                        got.shapes, tenant.twin.shapes,
                        "{}: extraction diverged from fault-free twin",
                        tenant.desc.name
                    );
                    assert_eq!(got.diagnostics.ell_s, tenant.twin.diagnostics.ell_s);
                    assert_eq!(
                        got.diagnostics.candidates_per_level,
                        tenant.twin.diagnostics.candidates_per_level
                    );
                    survivors += 1;
                }
                Some(spec) => {
                    let generation = sup.session_generation(id).expect("open round");
                    let tenant = tenants.get_mut(&id).expect("tenant enrolled");
                    let (frames, count) = routed(&mut tenant.clients, &spec, id, generation);
                    tenant.rounds += 1;
                    tenant.reports += count;
                    open.push((id, frames));
                }
            }
        }

        let sup_ref = &sup;
        let outcomes: Vec<(u64, Result<(), ServiceError>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = open
                .iter()
                .map(|(id, frames)| {
                    let id = *id;
                    scope.spawn(move || (id, drive_round(sup_ref, id, frames)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("producer thread"))
                .collect()
        });
        for (id, outcome) in outcomes {
            match outcome {
                Ok(()) => {}
                Err(ServiceError::Quarantined {
                    session_id,
                    attempts,
                    ..
                }) => {
                    assert_eq!(session_id, id);
                    let tenant = tenants.get_mut(&id).expect("tenant enrolled");
                    assert!(
                        tenant.desc.doomed,
                        "{} quarantined unexpectedly",
                        tenant.desc.name
                    );
                    let report = sup.quarantine_report(id).expect("quarantine report");
                    assert!(attempts > 0);
                    tenant.quarantined = true;
                    tenant.stats = report.stats;
                }
                Err(e) => panic!("session {id}: unexpected failure: {e}"),
            }
        }
    }
    let chaos_secs = started.elapsed().as_secs_f64();

    // The matrix verdict: every non-doomed session survived bit-identical,
    // every doomed one quarantined, recoveries landed where they were
    // aimed.
    let rows: Vec<&Tenant> = {
        let mut rows: Vec<&Tenant> = tenants.values().collect();
        rows.sort_by_key(|t| t.desc.name);
        rows
    };
    let expected_doomed = DESCRIPTORS.iter().filter(|d| d.doomed).count();
    assert_eq!(survivors, DESCRIPTORS.len() - expected_doomed);
    assert_eq!(sup.quarantined_sessions().len(), expected_doomed);
    for t in &rows {
        assert_eq!(t.quarantined, t.desc.doomed, "{}", t.desc.name);
        if let Some(expected) = t.desc.expect_recoveries {
            assert_eq!(
                t.stats.recoveries, expected,
                "{}: expected {} recoveries, saw {}",
                t.desc.name, expected, t.stats.recoveries
            );
        }
        if t.desc.name == "corrupt-checkpoint" {
            assert_eq!(t.stats.checkpoints_corrupted, 1, "corruption never fired");
            assert_eq!(
                t.stats.checkpoint_fallbacks, 1,
                "recovery did not fall back past the corrupt checkpoint"
            );
        }
    }

    let recovered: Vec<&Tenant> = rows
        .iter()
        .copied()
        .filter(|t| !t.quarantined && t.stats.recoveries > 0)
        .collect();
    let recovered_sessions = recovered.len();
    let recovered_reports: u64 = recovered.iter().map(|t| t.reports).sum();
    let recovered_rps = recovered_reports as f64 / chaos_secs.max(1e-9);
    let total_recoveries: u64 = rows.iter().map(|t| t.stats.recoveries).sum();
    let total_retries: u64 = rows.iter().map(|t| t.stats.retries).sum();
    let total_redriven: u64 = rows.iter().map(|t| t.stats.redriven_frames).sum();
    let total_fallbacks: u64 = rows.iter().map(|t| t.stats.checkpoint_fallbacks).sum();
    let fired = rows.iter().filter_map(|t| t.plan.as_ref()).fold(
        privshape::protocol::FiredCounts::default(),
        |mut acc, plan| {
            let f = plan.fired_counts();
            acc.worker_panics += f.worker_panics;
            acc.stalls += f.stalls;
            acc.frame_drops += f.frame_drops;
            acc.frame_duplicates += f.frame_duplicates;
            acc.checkpoint_corruptions += f.checkpoint_corruptions;
            acc
        },
    );
    assert!(fired.worker_panics >= 4, "panic matrix under-fired");
    assert!(fired.frame_drops >= 1 && fired.frame_duplicates >= 1);
    assert!(fired.checkpoint_corruptions >= 1);

    println!(
        "{:<20} {:>8} {:>7} {:>10} {:>9} {:>8} {:>9} {:>11}",
        "session",
        "users",
        "rounds",
        "recoveries",
        "retries",
        "redriven",
        "fallback",
        "quarantined"
    );
    for t in &rows {
        println!(
            "{:<20} {:>8} {:>7} {:>10} {:>9} {:>8} {:>9} {:>11}",
            t.desc.name,
            t.users,
            t.rounds,
            t.stats.recoveries,
            t.stats.retries,
            t.stats.redriven_frames,
            t.stats.checkpoint_fallbacks,
            t.quarantined
        );
    }
    println!(
        "\n{} sessions ({} survived, {} recovered, {} quarantined) in {:.2}s; \
         {} reports through recovered sessions ({:.0}/s); all survivors bit-identical",
        rows.len(),
        survivors,
        recovered_sessions,
        expected_doomed,
        chaos_secs,
        recovered_reports,
        recovered_rps
    );

    // Hand-rolled JSON (the workspace is offline — no serde).
    let mut json = format!(
        "{{\n  \"sessions\": {}, \"total_users\": {}, \"surviving_sessions\": {},\n  \
         \"recovered_sessions\": {}, \"quarantined_sessions\": {},\n  \
         \"recoveries\": {}, \"retries\": {}, \"redriven_frames\": {}, \
         \"checkpoint_fallbacks\": {},\n  \
         \"fired\": {{\"worker_panics\": {}, \"stalls\": {}, \"frame_drops\": {}, \
         \"frame_duplicates\": {}, \"checkpoint_corruptions\": {}}},\n  \
         \"chaos_secs\": {:.6}, \"recovered_reports\": {}, \
         \"recovered_reports_per_sec\": {:.1},\n  \"per_session\": [\n",
        rows.len(),
        total_users,
        survivors,
        recovered_sessions,
        expected_doomed,
        total_recoveries,
        total_retries,
        total_redriven,
        total_fallbacks,
        fired.worker_panics,
        fired.stalls,
        fired.frame_drops,
        fired.frame_duplicates,
        fired.checkpoint_corruptions,
        chaos_secs,
        recovered_reports,
        recovered_rps,
    );
    for (i, t) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"users\": {}, \"rounds\": {}, \"reports\": {},\n     \
             \"recoveries\": {}, \"retries\": {}, \"redriven_frames\": {}, \
             \"checkpoint_fallbacks\": {},\n     \
             \"checkpoints_corrupted\": {}, \"budget_used\": {}, \"quarantined\": {}}}{}\n",
            t.desc.name,
            t.users,
            t.rounds,
            t.reports,
            t.stats.recoveries,
            t.stats.retries,
            t.stats.redriven_frames,
            t.stats.checkpoint_fallbacks,
            t.stats.checkpoints_corrupted,
            t.stats.budget_used,
            t.quarantined,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::create_dir_all(&ctx.out_dir).expect("create output dir");
    let path = ctx.out_dir.join("BENCH_chaos.json");
    std::fs::write(&path, json).expect("write BENCH_chaos.json");
    println!("wrote {}", path.display());
}
