//! Scaling smoke test for the round hot path: sweeps fleet size × candidate
//! pressure and records per-stage ingestion rates, so CI accumulates a
//! perf trajectory (`BENCH_scaling.json`) for the columnar scoring
//! substrate specifically (the per-user × per-candidate loop).
//!
//! Usage: `cargo run --release -p privshape-bench --bin scaling_smoke
//!         [--users N] [--seed N] [--eps X] [--out DIR] [--full|--quick]`
//!
//! `--users` sets the largest fleet in the sweep (smaller points are N/4
//! and N/2); candidate pressure is swept via `k` (the per-level candidate
//! cap is `c·k`). On top of the grid, one *deep-level* point runs the
//! largest fleet at k = 6 with a doubled SAX word length, pushing the trie
//! to deeper levels where the prefix-sharing batch scorer has the most
//! shared DP state to reuse; every point records the per-level candidate
//! row counts so the sharing opportunity is visible in the artifact.

use privshape::protocol::{RoundSpec, Session};
use privshape::{PrivShapeConfig, SimulatedFleet};
use privshape_bench::ExpCtx;
use privshape_datasets::{generate_symbols_like, SymbolsLikeConfig};
use privshape_distance::ScanStats;
use privshape_ldp::Epsilon;
use privshape_timeseries::SaxParams;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-stage timing of one session run.
#[derive(Debug, Default)]
struct StageStats {
    rounds: usize,
    reports: usize,
    secs: f64,
    /// Scorer counters attributed to this stage (drained from the fleet's
    /// worker workspaces after each round).
    scan: ScanStats,
}

/// The scan-counter object serialized per stage and per sweep point.
fn json_scan(s: &ScanStats) -> String {
    format!("{{\"rows\": {}}}", s.rows)
}

/// One sweep point: a full session at a given fleet size / candidate cap.
struct SweepPoint {
    users: usize,
    k: usize,
    max_candidates: usize,
    /// Whether this is the deep-level point (doubled SAX word length ⇒
    /// longer symbol sequences ⇒ deeper trie).
    deep: bool,
    enroll_secs: f64,
    loop_secs: f64,
    reports: usize,
    stages: BTreeMap<&'static str, StageStats>,
    /// Candidate rows broadcast per expand level (`level → rows`): the
    /// prefix-sharing opportunity at each depth.
    level_candidates: BTreeMap<usize, usize>,
    /// Whole-session scan counters (sum of the per-stage ones).
    scan: ScanStats,
    /// Whether the session ran the labeled refine stage (early-abandoned
    /// argmin).
    labeled: bool,
}

/// JSON-safe stage key (`refine (unlabeled)` → `refine`).
fn stage_key(name: &'static str) -> &'static str {
    match name {
        "sub-shape" => "subshape",
        "refine (unlabeled)" | "refine (labeled)" => "refine",
        other => other,
    }
}

fn run_point(users: usize, k: usize, eps: f64, seed: u64, deep: bool, labeled: bool) -> SweepPoint {
    let (w, t, _) = privshape_bench::symbols_settings();
    let w = if deep { w * 2 } else { w };
    let data = generate_symbols_like(&SymbolsLikeConfig {
        n_per_class: (users / 6).max(1),
        seed,
        ..Default::default()
    });
    let n = data.series().len();

    let mut config = PrivShapeConfig::new(
        Epsilon::new(eps).expect("positive eps"),
        k,
        SaxParams::new(w, t).expect("valid SAX parameters"),
    );
    config.seed = seed;
    let max_candidates = config.c * config.k;

    let started = Instant::now();
    // The labeled variant runs the labeled refine stage, whose scoring is
    // the early-abandoned argmin scan.
    let mut session = if labeled {
        let n_classes = data.n_classes().expect("generator labels its classes");
        Session::privshape_labeled(config, n, n_classes).expect("valid session")
    } else {
        Session::privshape(config, n).expect("valid session")
    };
    let labels = labeled.then(|| data.labels().expect("labeled dataset").to_vec());
    let mut fleet = SimulatedFleet::new(data.series(), labels.as_deref(), session.params(), 0);
    let enroll_secs = started.elapsed().as_secs_f64();

    let mut stages: BTreeMap<&'static str, StageStats> = BTreeMap::new();
    let mut level_candidates: BTreeMap<usize, usize> = BTreeMap::new();
    let mut reports = 0usize;
    let loop_started = Instant::now();
    while let Some(spec) = session.next_round().expect("protocol advances") {
        if let RoundSpec::Expand {
            level, candidates, ..
        } = &spec
        {
            level_candidates.insert(*level, candidates.len());
        }
        let stage_started = Instant::now();
        let batch = fleet.answer(&spec).expect("clients answer");
        let answered_secs = stage_started.elapsed().as_secs_f64();
        session.submit(&batch).expect("reports match round");
        let entry = stages.entry(stage_key(spec.name())).or_default();
        entry.rounds += 1;
        entry.reports += batch.len();
        entry.secs += answered_secs;
        entry.scan.merge(&fleet.take_scan_stats());
        reports += batch.len();
    }
    if labeled {
        session.finish_labeled().expect("session complete");
    } else {
        session.finish().expect("session complete");
    }
    let loop_secs = loop_started.elapsed().as_secs_f64();
    let mut scan = ScanStats::default();
    for s in stages.values() {
        scan.merge(&s.scan);
    }

    SweepPoint {
        users: n,
        k,
        max_candidates,
        deep,
        enroll_secs,
        loop_secs,
        reports,
        stages,
        level_candidates,
        scan,
        labeled,
    }
}

fn main() {
    let ctx = ExpCtx::from_env(2400, 1);
    let eps = ctx.eps.unwrap_or(4.0);

    let fleet_sizes = [ctx.users / 4, ctx.users / 2, ctx.users];
    let ks = [2usize, 6];

    let mut points = Vec::new();
    println!("== scaling smoke (max users={}, eps={eps}) ==", ctx.users);
    println!(
        "{:>8} {:>4} {:>6} {:>6} {:>6} {:>7} {:>10} {:>12} {:>14}",
        "users", "k", "cands", "deep", "lbl", "levels", "reports", "loop secs", "reports/sec"
    );
    let mut grid: Vec<(usize, usize, bool, bool)> = Vec::new();
    for &users in &fleet_sizes {
        for &k in &ks {
            grid.push((users, k, false, false));
        }
    }
    // The deep-level point: largest fleet, heaviest candidate pressure,
    // doubled SAX word ⇒ deeper trie levels with more shared prefix per
    // sibling batch.
    grid.push((ctx.users, 6, true, false));
    // The labeled point: same shape, but the labeled refine stage runs the
    // early-abandoned argmin.
    grid.push((ctx.users, 6, true, true));
    for (users, k, deep, labeled) in grid {
        let p = run_point(users, k, eps, ctx.seed, deep, labeled);
        let rps = p.reports as f64 / p.loop_secs.max(1e-9);
        println!(
            "{:>8} {:>4} {:>6} {:>6} {:>6} {:>7} {:>10} {:>12.3} {:>14.0}",
            p.users,
            p.k,
            p.max_candidates,
            p.deep,
            p.labeled,
            p.level_candidates.len(),
            p.reports,
            p.loop_secs,
            rps,
        );
        points.push(p);
    }

    // Hand-rolled JSON (the workspace is offline — no serde).
    let mut json = String::from("{\n  \"sweeps\": [\n");
    for (i, p) in points.iter().enumerate() {
        let rps = p.reports as f64 / p.loop_secs.max(1e-9);
        let levels: Vec<String> = p
            .level_candidates
            .iter()
            .map(|(level, rows)| format!("[{level}, {rows}]"))
            .collect();
        json.push_str(&format!(
            "    {{\n      \"users\": {}, \"k\": {}, \"max_candidates\": {}, \"deep\": {}, \
             \"labeled\": {},\n      \
             \"enroll_secs\": {:.6}, \"round_loop_secs\": {:.6},\n      \
             \"reports\": {}, \"reports_per_sec\": {:.1},\n      \
             \"level_candidates\": [{}],\n      \"scan\": {},\n      \"stages\": {{\n",
            p.users,
            p.k,
            p.max_candidates,
            p.deep,
            p.labeled,
            p.enroll_secs,
            p.loop_secs,
            p.reports,
            rps,
            levels.join(", "),
            json_scan(&p.scan)
        ));
        let n_stages = p.stages.len();
        for (j, (stage, s)) in p.stages.iter().enumerate() {
            let stage_rps = s.reports as f64 / s.secs.max(1e-9);
            json.push_str(&format!(
                "        \"{stage}\": {{\"rounds\": {}, \"reports\": {}, \
                 \"secs\": {:.6}, \"reports_per_sec\": {:.1}, \"scan\": {}}}{}\n",
                s.rounds,
                s.reports,
                s.secs,
                stage_rps,
                json_scan(&s.scan),
                if j + 1 < n_stages { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "      }}\n    }}{}\n",
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::create_dir_all(&ctx.out_dir).expect("create output dir");
    let path = ctx.out_dir.join("BENCH_scaling.json");
    std::fs::write(&path, json).expect("write BENCH_scaling.json");
    println!("\nwrote {}", path.display());
}
