//! Multi-session service smoke test: eight concurrent extraction sessions
//! — different budgets ε, shape counts k, length oracles, labeled and
//! unlabeled, PrivShape and the trie-free baseline — multiplexed through
//! one [`ServiceRegistry`], with every session's extraction asserted
//! **bit-identical** to a serial single-session run of the same
//! population before any number is trusted. Writes
//! `results/BENCH_service.json` so CI keeps a perf trajectory for the
//! service tier (and `bench_gate` can hold the line).
//!
//! Usage: `cargo run --release -p privshape-bench --bin service_smoke
//!         [--users N] [--seed N] [--out DIR] [--quick]`
//!
//! `--users` is the fleet size *per session* (default 128 000 — eight
//! sessions ≈ 1.02M simulated users total).
//!
//! What one "wave" of the drive loop does:
//!
//! 1. open the next round of every resident session (round-robin via
//!    [`ServiceRegistry::next_session`], so no session starves);
//! 2. answer each broadcast on that session's simulated devices, seal the
//!    reports into wire frames, wrap each frame in the routed envelope
//!    (session id + generation tag), and interleave all sessions' frames
//!    into one stream that several producer threads submit concurrently —
//!    the registry demultiplexes them back to the owning pipelines;
//! 3. replay one frame verbatim (every report must be shed as a
//!    duplicate) and corrupt one frame's payload byte (the whole frame
//!    must be rejected at the sealed boundary) so the validation counters
//!    are exercised at scale, not just in unit tests;
//! 4. close every open round, then — at a fixed boundary — crash two
//!    chosen sessions: snapshot, evict, restore from the bytes, and
//!    continue, proving recovery is invisible in the final counts.

use privshape::protocol::{
    route_frame, seal_frame, GroupAssignment, IngestConfig, LengthOracle, Report, RoundSpec,
    Session, UserClient,
};
use privshape::{BaselineConfig, PrivShapeConfig, SimulatedFleet};
use privshape_bench::ExpCtx;
use privshape_datasets::{generate_symbols_like, SymbolsLikeConfig, SYMBOLS_CLASSES};
use privshape_ldp::Epsilon;
use privshape_service::{ServiceConfig, ServiceRegistry};
use privshape_timeseries::SaxParams;
use std::collections::HashMap;
use std::time::Instant;

/// Reports per sealed wire frame.
const FRAME_REPORTS: usize = 256;
/// Producer threads submitting routed frames concurrently.
const PRODUCERS: usize = 3;
/// Round boundary after which the crash/restore drill runs.
const CRASH_AFTER_ROUNDS: u32 = 2;

/// Which mechanism a descriptor drives.
#[derive(Clone, Copy, PartialEq)]
enum Mechanism {
    PrivShape,
    Baseline,
}

/// One tenant of the service: its own budget, shape count, oracle, SAX
/// resolution, and mode.
struct Descriptor {
    name: &'static str,
    mechanism: Mechanism,
    labeled: bool,
    eps: f64,
    k: usize,
    sax: (usize, usize),
    oracle: LengthOracle,
    /// Whether the crash/restore drill targets this session.
    crashed: bool,
}

const DESCRIPTORS: [Descriptor; 8] = [
    Descriptor {
        name: "ps-grr",
        mechanism: Mechanism::PrivShape,
        labeled: false,
        eps: 4.0,
        k: 2,
        sax: (25, 4),
        oracle: LengthOracle::Grr,
        crashed: false,
    },
    Descriptor {
        name: "ps-oue",
        mechanism: Mechanism::PrivShape,
        labeled: false,
        eps: 2.0,
        k: 3,
        sax: (25, 3),
        oracle: LengthOracle::Oue,
        crashed: false,
    },
    Descriptor {
        name: "ps-olh",
        mechanism: Mechanism::PrivShape,
        labeled: false,
        eps: 8.0,
        k: 2,
        sax: (20, 4),
        oracle: LengthOracle::Olh,
        crashed: true,
    },
    Descriptor {
        name: "ps-pw",
        mechanism: Mechanism::PrivShape,
        labeled: false,
        eps: 4.0,
        k: 4,
        sax: (25, 4),
        oracle: LengthOracle::Piecewise,
        crashed: false,
    },
    Descriptor {
        name: "ps-lab-grr",
        mechanism: Mechanism::PrivShape,
        labeled: true,
        eps: 4.0,
        k: 2,
        sax: (25, 4),
        oracle: LengthOracle::Grr,
        crashed: false,
    },
    Descriptor {
        name: "ps-lab-oue",
        mechanism: Mechanism::PrivShape,
        labeled: true,
        eps: 2.0,
        k: 3,
        sax: (25, 3),
        oracle: LengthOracle::Oue,
        crashed: true,
    },
    Descriptor {
        name: "base-grr",
        mechanism: Mechanism::Baseline,
        labeled: false,
        eps: 4.0,
        k: 2,
        sax: (25, 4),
        oracle: LengthOracle::Grr,
        crashed: false,
    },
    Descriptor {
        name: "base-lab-oue",
        mechanism: Mechanism::Baseline,
        labeled: true,
        eps: 4.0,
        k: 2,
        sax: (25, 3),
        oracle: LengthOracle::Oue,
        crashed: false,
    },
];

/// The serial single-session twin's result, kept for the bit-identity
/// assertion after the service run.
enum Twin {
    Unlabeled(privshape::protocol::Extraction),
    Labeled(privshape::protocol::LabeledExtraction),
}

/// One session's state on the service side of the comparison.
struct Tenant {
    desc: &'static Descriptor,
    clients: Vec<UserClient>,
    twin: Twin,
    users: usize,
    rounds: u32,
    restored: bool,
    /// Filled in when the session completes.
    row: Option<Row>,
}

/// One per-session row of `BENCH_service.json`.
struct Row {
    name: &'static str,
    mechanism: &'static str,
    labeled: bool,
    eps: f64,
    k: usize,
    users: usize,
    rounds: u32,
    reports: u64,
    duplicates: u64,
    rejected: u64,
    queue_high_water: u64,
    backpressure_stalls: u64,
    worker_panics: u64,
    restored: bool,
}

fn build_session(desc: &Descriptor, seed: u64, n: usize) -> Session {
    let eps = Epsilon::new(desc.eps).expect("positive eps");
    let sax = SaxParams::new(desc.sax.0, desc.sax.1).expect("valid SAX parameters");
    match desc.mechanism {
        Mechanism::PrivShape => {
            let mut cfg = PrivShapeConfig::new(eps, desc.k, sax);
            cfg.length_range = (1, 8);
            cfg.length_oracle = desc.oracle;
            cfg.seed = seed;
            if desc.labeled {
                Session::privshape_labeled(cfg, n, SYMBOLS_CLASSES).expect("valid session")
            } else {
                Session::privshape(cfg, n).expect("valid session")
            }
        }
        Mechanism::Baseline => {
            let mut cfg = BaselineConfig::new(eps, desc.k, sax);
            cfg.length_range = (1, 8);
            cfg.length_oracle = desc.oracle;
            cfg.seed = seed;
            if desc.labeled {
                Session::baseline_labeled(cfg, n, SYMBOLS_CLASSES).expect("valid session")
            } else {
                Session::baseline(cfg, n).expect("valid session")
            }
        }
    }
}

/// Answers `spec` on every addressed client and seals the reports into
/// routed envelopes of at most [`FRAME_REPORTS`] entries.
fn routed_frames(
    clients: &mut [UserClient],
    spec: &RoundSpec,
    id: u64,
    generation: u64,
) -> Vec<Vec<u8>> {
    let mut entries: Vec<(usize, Report)> = Vec::new();
    for client in clients.iter_mut() {
        if let Some(report) = client.answer(spec).expect("clients answer") {
            entries.push((client.user_id(), report));
        }
    }
    entries
        .chunks(FRAME_REPORTS)
        .map(|chunk| route_frame(id, generation, &seal_frame(chunk)))
        .collect()
}

/// A well-formed report the round `spec` refuses: a selection past the
/// candidate list, a sub-shape level past the trie height, a length past
/// the range, or (labeled refinement) a wrong kind.
fn refused_by(spec: &RoundSpec) -> Report {
    match spec {
        RoundSpec::Length { range, .. } => Report::Length(range.1 - range.0 + 1),
        RoundSpec::SubShape { ell_s, .. } => Report::SubShape {
            level: *ell_s,
            value: 0,
        },
        RoundSpec::Expand { candidates, .. } => Report::Expand(candidates.len()),
        RoundSpec::RefineUnlabeled { candidates, .. } => Report::RefineSelect(candidates.len()),
        RoundSpec::RefineLabeled { .. } => Report::Expand(0),
    }
}

fn main() {
    let ctx = ExpCtx::from_env(128_000, 1);
    let registry = ServiceRegistry::new(ServiceConfig {
        max_sessions: DESCRIPTORS.len(),
        ingest: IngestConfig {
            workers: 2,
            queue_capacity: 64,
        },
    });

    println!(
        "== service smoke: {} sessions x {} users ==",
        DESCRIPTORS.len(),
        ctx.users
    );

    // Stand up every tenant: generate its population, run the serial twin
    // to completion, enroll the service-side clients, admit the session.
    let mut tenants: HashMap<u64, Tenant> = HashMap::new();
    let mut total_users = 0usize;
    for (i, desc) in DESCRIPTORS.iter().enumerate() {
        let seed = ctx.trial_seed(i);
        let data = generate_symbols_like(&SymbolsLikeConfig {
            n_per_class: (ctx.users / SYMBOLS_CLASSES).max(1),
            length: 96,
            seed,
            ..Default::default()
        });
        let n = data.series().len();
        let labels = desc.labeled.then(|| data.labels().expect("labeled data"));

        // Serial twin: one session, plain submit path, no service at all.
        let twin = {
            let mut session = build_session(desc, seed, n);
            let mut fleet = SimulatedFleet::new(data.series(), labels, session.params(), 0);
            fleet.drive(&mut session).expect("twin run completes");
            if desc.labeled {
                Twin::Labeled(session.finish_labeled().expect("labeled twin"))
            } else {
                Twin::Unlabeled(session.finish().expect("unlabeled twin"))
            }
        };

        // Service side: the same population as explicit clients.
        let session = build_session(desc, seed, n);
        let assignments = GroupAssignment::derive_all(session.params());
        let clients: Vec<UserClient> = data
            .series()
            .iter()
            .enumerate()
            .map(|(user, series)| {
                UserClient::with_assignment(
                    user,
                    series,
                    labels.map(|l| l[user]),
                    session.params(),
                    assignments[user],
                )
            })
            .collect();
        let id = registry.admit(session).expect("admission under capacity");
        total_users += n;
        tenants.insert(
            id,
            Tenant {
                desc,
                clients,
                twin,
                users: n,
                rounds: 0,
                restored: false,
                row: None,
            },
        );
    }

    // The interleaved drive. Each wave advances every resident session by
    // one round; all sessions' frames are mixed into one stream submitted
    // by PRODUCERS threads, demultiplexed by the registry.
    let started = Instant::now();
    let mut exercised_duplicates = 0u64;
    let mut exercised_corruptions = 0u64;
    let mut exercised_refusals = 0u64;
    while registry.active_sessions() > 0 {
        // One pass over the rotation: every resident id exactly once.
        let wave: Vec<u64> = (0..registry.active_sessions())
            .map(|_| registry.next_session().expect("sessions resident"))
            .collect();

        let mut per_session: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut open: Vec<u64> = Vec::new();
        let mut completed: Vec<u64> = Vec::new();
        for &id in &wave {
            match registry.begin_round(id).expect("protocol advances") {
                None => completed.push(id),
                Some(spec) => {
                    let generation = registry
                        .session_generation(id)
                        .expect("open round has a generation");
                    let tenant = tenants.get_mut(&id).expect("tenant enrolled");
                    let mut session_frames =
                        routed_frames(&mut tenant.clients, &spec, id, generation);
                    if open.is_empty() && !session_frames.is_empty() {
                        // Replay one frame verbatim: per-round user dedup
                        // must shed every report of the copy.
                        session_frames.push(session_frames[0].clone());
                        exercised_duplicates += 1;
                        // Corrupt one frame's payload byte: the sealed
                        // checksum must reject the whole frame.
                        let mut corrupted = session_frames[0].clone();
                        let last = corrupted.len() - 1;
                        corrupted[last] ^= 0xA5;
                        session_frames.push(corrupted);
                        exercised_corruptions += 1;
                        // A well-formed, correctly sealed frame the round's
                        // decoder refuses: rejected whole, never absorbed.
                        let refused = seal_frame(&[(tenant.users, refused_by(&spec))]);
                        session_frames.push(route_frame(id, generation, &refused));
                        exercised_refusals += 1;
                    }
                    per_session.push(session_frames);
                    open.push(id);
                    tenant.rounds += 1;
                }
            }
        }
        // Round-robin merge, so producers see all sessions' frames mixed
        // rather than one session's as a contiguous run.
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut cursor = 0usize;
        loop {
            let mut any = false;
            for list in &mut per_session {
                if cursor < list.len() {
                    frames.push(std::mem::take(&mut list[cursor]));
                    any = true;
                }
            }
            if !any {
                break;
            }
            cursor += 1;
        }

        // Concurrent producers over the mixed stream.
        let registry = &registry;
        std::thread::scope(|scope| {
            for chunk in frames.chunks(frames.len().div_ceil(PRODUCERS).max(1)) {
                scope.spawn(move || {
                    for frame in chunk {
                        registry.route_frame(frame).expect("frames route");
                    }
                });
            }
        });

        for &id in &open {
            registry.close_round(id).expect("round closes");
            let tenant = tenants.get_mut(&id).expect("tenant enrolled");
            // The crash drill: snapshot, evict (the crash), restore from
            // the bytes under the original id, continue.
            if tenant.desc.crashed && tenant.rounds == CRASH_AFTER_ROUNDS && !tenant.restored {
                let snapshot = registry
                    .snapshot_session(id)
                    .expect("snapshot between rounds");
                assert!(registry.evict_session(id), "session was resident");
                let restored = registry
                    .restore_session(&snapshot)
                    .expect("snapshot restores");
                assert_eq!(restored, id, "restored under the original id");
                tenant.restored = true;
            }
        }

        for id in completed {
            let tenant = tenants.get_mut(&id).expect("tenant enrolled");
            let stats = registry
                .session_ingest_stats(id)
                .expect("stats before finish");
            let desc = tenant.desc;
            match &tenant.twin {
                Twin::Unlabeled(expected) => {
                    let got = registry.finish(id).expect("extraction");
                    assert_eq!(
                        got.shapes, expected.shapes,
                        "{}: service extraction diverged from serial twin",
                        desc.name
                    );
                    assert_eq!(got.diagnostics.ell_s, expected.diagnostics.ell_s);
                    assert_eq!(
                        got.diagnostics.candidates_per_level,
                        expected.diagnostics.candidates_per_level
                    );
                }
                Twin::Labeled(expected) => {
                    let got = registry.finish_labeled(id).expect("labeled extraction");
                    assert_eq!(
                        got.classes, expected.classes,
                        "{}: service extraction diverged from serial twin",
                        desc.name
                    );
                    assert_eq!(got.diagnostics.ell_s, expected.diagnostics.ell_s);
                }
            }
            tenant.row = Some(Row {
                name: desc.name,
                mechanism: match desc.mechanism {
                    Mechanism::PrivShape => "privshape",
                    Mechanism::Baseline => "baseline",
                },
                labeled: desc.labeled,
                eps: desc.eps,
                k: desc.k,
                users: tenant.users,
                rounds: tenant.rounds,
                reports: stats.accepted_reports,
                duplicates: stats.duplicate_reports,
                rejected: stats.rejected_frames,
                queue_high_water: stats.queue_high_water,
                backpressure_stalls: stats.backpressure_stalls,
                worker_panics: stats.worker_panics,
                restored: tenant.restored,
            });
        }
    }
    let service_secs = started.elapsed().as_secs_f64();

    let rows: Vec<&Row> = {
        let mut rows: Vec<&Tenant> = tenants.values().collect();
        rows.sort_by_key(|t| t.desc.name);
        rows.iter()
            .map(|t| t.row.as_ref().expect("every session completed"))
            .collect()
    };
    let total_reports: u64 = rows.iter().map(|r| r.reports).sum();
    let total_rounds: u32 = rows.iter().map(|r| r.rounds).sum();
    let total_duplicates: u64 = rows.iter().map(|r| r.duplicates).sum();
    let total_rejected: u64 = rows.iter().map(|r| r.rejected).sum();
    let queue_high_water: u64 = rows.iter().map(|r| r.queue_high_water).max().unwrap_or(0);
    let backpressure_stalls: u64 = rows.iter().map(|r| r.backpressure_stalls).sum();
    let restored_sessions = rows.iter().filter(|r| r.restored).count();
    let total_worker_panics: u64 = rows.iter().map(|r| r.worker_panics).sum();
    let reports_per_sec = total_reports as f64 / service_secs.max(1e-9);

    assert!(exercised_duplicates > 0, "duplicate replay never ran");
    assert!(exercised_corruptions > 0, "corruption probe never ran");
    assert!(exercised_refusals > 0, "refused-report probe never ran");
    assert!(
        total_duplicates > 0,
        "replayed frames were not shed as duplicates"
    );
    assert!(
        total_rejected >= exercised_corruptions + exercised_refusals,
        "corrupted or refused frames were not rejected"
    );
    assert_eq!(restored_sessions, 2, "both crash drills must run");
    assert_eq!(
        total_worker_panics, 0,
        "no chaos is injected here — a worker panic is a real bug"
    );

    println!(
        "{:<14} {:>5} {:>3} {:>8} {:>7} {:>10} {:>7} {:>5} {:>5} {:>7} {:>9}",
        "session",
        "eps",
        "k",
        "users",
        "rounds",
        "reports",
        "dups",
        "rej",
        "qhw",
        "stalls",
        "restored"
    );
    for r in &rows {
        println!(
            "{:<14} {:>5} {:>3} {:>8} {:>7} {:>10} {:>7} {:>5} {:>5} {:>7} {:>9}",
            r.name,
            r.eps,
            r.k,
            r.users,
            r.rounds,
            r.reports,
            r.duplicates,
            r.rejected,
            r.queue_high_water,
            r.backpressure_stalls,
            r.restored
        );
    }
    println!(
        "\n{} sessions, {} users, {} reports in {:.2}s ({:.0} reports/s), all bit-identical to serial twins",
        rows.len(),
        total_users,
        total_reports,
        service_secs,
        reports_per_sec
    );

    // Hand-rolled JSON (the workspace is offline — no serde).
    let mut json = format!(
        "{{\n  \"sessions\": {}, \"total_users\": {}, \"total_reports\": {},\n  \
         \"total_rounds\": {}, \"service_secs\": {:.6}, \"reports_per_sec\": {:.1},\n  \
         \"duplicate_reports\": {}, \"rejected_frames\": {},\n  \
         \"queue_high_water\": {}, \"backpressure_stalls\": {},\n  \
         \"worker_panics\": {}, \"restored_sessions\": {},\n  \"per_session\": [\n",
        rows.len(),
        total_users,
        total_reports,
        total_rounds,
        service_secs,
        reports_per_sec,
        total_duplicates,
        total_rejected,
        queue_high_water,
        backpressure_stalls,
        total_worker_panics,
        restored_sessions,
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"mechanism\": \"{}\", \"labeled\": {}, \
             \"eps\": {}, \"k\": {},\n     \"users\": {}, \"rounds\": {}, \"reports\": {}, \
             \"duplicates\": {}, \"rejected\": {},\n     \"queue_high_water\": {}, \
             \"backpressure_stalls\": {}, \"worker_panics\": {}, \"restored\": {}}}{}\n",
            r.name,
            r.mechanism,
            r.labeled,
            r.eps,
            r.k,
            r.users,
            r.rounds,
            r.reports,
            r.duplicates,
            r.rejected,
            r.queue_high_water,
            r.backpressure_stalls,
            r.worker_panics,
            r.restored,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::create_dir_all(&ctx.out_dir).expect("create output dir");
    let path = ctx.out_dir.join("BENCH_service.json");
    std::fs::write(&path, json).expect("write BENCH_service.json");
    println!("wrote {}", path.display());
}
