//! Streaming-ingest smoke test: the serial absorb path vs the streaming
//! `IngestPipeline` on the same wire-encoded report stream, per round,
//! with the two paths asserted bit-identical before timing is trusted.
//! Writes `results/BENCH_streaming.json` so CI keeps a perf trajectory for
//! the aggregator's ingestion tier (and `bench_gate` can hold the line).
//!
//! Usage: `cargo run --release -p privshape-bench --bin streaming_smoke
//!         [--users N] [--seed N] [--eps X] [--out DIR]`
//!
//! **What the two paths are.** The *serial* path is the aggregator's
//! pre-streaming shape on a serialized boundary: decode each frame into
//! `Report` values, then absorb them one by one in a single loop
//! (`Report::decode_frame` + `ShardAggregator::absorb`). The *streaming*
//! path is the ingest engine: the same frames through the bounded queue
//! into the worker pool's allocation-free `absorb_wire` fast path, closed
//! with a tree-merge. Both consume identical bytes and must produce
//! bit-identical aggregates; the speedup comes from skipping report
//! materialization entirely and, on multi-core hosts, from absorbing
//! frames in parallel while producers are still submitting.
//!
//! Each session round's reports are encoded once and *replayed* enough
//! times (into ~64 KiB frames) that both paths absorb ≥ ~1M reports per
//! round — absorbing one real round at these fleet sizes takes
//! microseconds, far below timer noise. Replaying the identical multiset
//! through both paths keeps the bit-identity assertion exact while the
//! throughput numbers become stable enough to gate on.

use privshape::protocol::{IngestConfig, Report, Session, ShardAggregator};
use privshape::{PrivShapeConfig, SimulatedFleet};
use privshape_bench::ExpCtx;
use privshape_datasets::{generate_symbols_like, SymbolsLikeConfig};
use privshape_ldp::Epsilon;
use privshape_timeseries::SaxParams;
use std::time::Instant;

/// Replayed reports per round for the timed comparison.
const TARGET_REPORTS: usize = 1_200_000;
/// Target wire-frame size (amortizes queue synchronization).
const FRAME_BYTES: usize = 64 * 1024;

struct Point {
    users: usize,
    rounds: usize,
    reports: usize,
    replayed: usize,
    serial_secs: f64,
    streaming_secs: f64,
    workers: usize,
    /// Deepest the bounded frame queue ever got, across rounds.
    queue_high_water: u64,
    /// Submits that blocked on a full queue, summed across rounds.
    backpressure_stalls: u64,
}

impl Point {
    fn serial_rps(&self) -> f64 {
        self.replayed as f64 / self.serial_secs.max(1e-9)
    }
    fn streaming_rps(&self) -> f64 {
        self.replayed as f64 / self.streaming_secs.max(1e-9)
    }
    fn speedup(&self) -> f64 {
        self.streaming_rps() / self.serial_rps().max(1e-9)
    }
}

fn run_point(users: usize, eps: f64, seed: u64, workers: usize) -> Point {
    let (w, t, k) = privshape_bench::symbols_settings();
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

    let mut session = Session::privshape(config, n).expect("valid session");
    let mut fleet = SimulatedFleet::new(data.series(), None, session.params(), 0);

    let ingest_config = IngestConfig {
        workers,
        queue_capacity: 64,
    };
    let mut point = Point {
        users: n,
        rounds: 0,
        reports: 0,
        replayed: 0,
        serial_secs: 0.0,
        streaming_secs: 0.0,
        workers: ingest_config.resolved_workers(),
        queue_high_water: 0,
        backpressure_stalls: 0,
    };

    while let Some(spec) = session.next_round().expect("protocol advances") {
        let reports = fleet.answer(&spec).expect("clients answer");
        point.rounds += 1;
        point.reports += reports.len();
        if !reports.is_empty() {
            // One encoding of the round, replayed into ~64 KiB frames until
            // the timed work is large enough to measure.
            let mut round_bytes = Vec::new();
            for r in &reports {
                r.encode_into(&mut round_bytes);
            }
            let copies = (TARGET_REPORTS / reports.len()).clamp(1, 200_000);
            let copies_per_frame = (FRAME_BYTES / round_bytes.len().max(1)).clamp(1, copies);
            let mut frames: Vec<Vec<u8>> = Vec::new();
            let mut left = copies;
            while left > 0 {
                let in_frame = copies_per_frame.min(left);
                frames.push(round_bytes.repeat(in_frame));
                left -= in_frame;
            }
            point.replayed += copies * reports.len();

            // Serial absorb path: one thread materializes every report,
            // then absorbs them in a single loop — the pre-streaming
            // aggregator on a serialized boundary.
            let mut serial =
                ShardAggregator::for_round(&spec, session.params().epsilon).expect("valid round");
            let started = Instant::now();
            for frame in &frames {
                let decoded = Report::decode_frame(frame).expect("valid frame");
                for r in &decoded {
                    serial.absorb(r).expect("reports match round");
                }
            }
            point.serial_secs += started.elapsed().as_secs_f64();

            // Streaming path: bounded queue, worker pool, tree-merge —
            // spawn and close are part of the honest per-round cost.
            let started = Instant::now();
            let pipeline = session.ingest_pipeline(ingest_config).expect("open round");
            for frame in &frames {
                pipeline.submit_frame(frame.clone()).expect("pipeline open");
            }
            let (streamed, stats) = pipeline.finish();
            let streamed = streamed.expect("workers succeed");
            point.streaming_secs += started.elapsed().as_secs_f64();
            point.queue_high_water = point.queue_high_water.max(stats.queue_high_water);
            point.backpressure_stalls += stats.backpressure_stalls;

            assert_eq!(
                streamed, serial,
                "streaming aggregate diverged from serial absorb"
            );
        }
        session.submit(&reports).expect("reports match round");
    }
    session.finish().expect("session complete");
    point
}

fn main() {
    let ctx = ExpCtx::from_env(5000, 1);
    let eps = ctx.eps.unwrap_or(4.0);

    let mut fleet_sizes = vec![600usize];
    if ctx.users > 600 {
        fleet_sizes.push(ctx.users);
    }

    println!("== streaming ingest smoke (eps={eps}) ==");
    println!(
        "{:>8} {:>7} {:>9} {:>11} {:>8} {:>14} {:>14} {:>8}",
        "users", "rounds", "reports", "replayed", "workers", "serial rps", "stream rps", "speedup"
    );
    let mut points = Vec::new();
    for &users in &fleet_sizes {
        let p = run_point(users, eps, ctx.seed, 0);
        println!(
            "{:>8} {:>7} {:>9} {:>11} {:>8} {:>14.0} {:>14.0} {:>7.2}x",
            p.users,
            p.rounds,
            p.reports,
            p.replayed,
            p.workers,
            p.serial_rps(),
            p.streaming_rps(),
            p.speedup()
        );
        points.push(p);
    }

    // Hand-rolled JSON (the workspace is offline — no serde).
    let mut json = String::from("{\n  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\n      \"users\": {}, \"rounds\": {}, \"reports\": {},\n      \
             \"replayed_reports\": {}, \"workers\": {},\n      \
             \"serial_secs\": {:.6}, \"streaming_secs\": {:.6},\n      \
             \"serial_reports_per_sec\": {:.1}, \"streaming_reports_per_sec\": {:.1},\n      \
             \"speedup\": {:.3},\n      \
             \"queue_high_water\": {}, \"backpressure_stalls\": {}\n    }}{}\n",
            p.users,
            p.rounds,
            p.reports,
            p.replayed,
            p.workers,
            p.serial_secs,
            p.streaming_secs,
            p.serial_rps(),
            p.streaming_rps(),
            p.speedup(),
            p.queue_high_water,
            p.backpressure_stalls,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::create_dir_all(&ctx.out_dir).expect("create output dir");
    let path = ctx.out_dir.join("BENCH_streaming.json");
    std::fs::write(&path, json).expect("write BENCH_streaming.json");
    println!("\nwrote {}", path.display());
}
