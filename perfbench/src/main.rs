//! The PrivShape service benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <deep-fleet|tenant-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's series from `--seed`, then repeats whole
//! iterations (set-up, every session driven to its extraction, every output
//! checked) until `--seconds` have passed. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` alternates untraced and traced
//! iterations and prints the per-layer metrics derived from the spans,
//! including the tracing overhead. The last line of standard output is
//! one JSON object; the exit code is non-zero when any check failed.

mod drive;
mod fingerprint;
mod stats;
mod trace;
mod workload;

use drive::{Checks, Iteration};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::{Layer, Tracer};

/// Iterations every run measures, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;
/// Leading iterations that are checked but not measured: they fault in
/// memory and size the allocator's pools.
const WARMUP_ITERATIONS: usize = 1;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Samples a tail window holds at least, so that p90 has ten beyond it.
const TAIL_WINDOW: usize = 100;
/// Samples a median window holds at least.
const MEDIAN_WINDOW: usize = 16;
/// The percentile from the fast end reported for the threaded server path.
const FAST_PERCENTILE: f64 = 10.0;

/// How a run reduces a metric's iteration or window values to one number.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reduce {
    /// The median. For work timed on the main thread alone: a busy host
    /// slows it evenly, and the median is the steadiest estimate of that.
    Median,
    /// The [`FAST_PERCENTILE`] from the fast end (the high end when
    /// `higher` is faster). For the server path, where producers and ingest
    /// workers outnumber the cores: other tenants' bursts delay its thread
    /// hand-offs and inflate some iterations many times over, only ever
    /// adding time, so the fast end follows the code as long as a tenth of
    /// the run is undisturbed, where the median needs half.
    Fast { higher: bool },
}

/// Windows over consecutive iterations: one starting at each iteration,
/// reaching as far as it takes to hold at least `min` samples. A run too
/// short to fill one window yields a single window of all its samples.
fn windows(per_iteration: &[Vec<f64>], min: usize) -> Vec<Vec<f64>> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for start in 0..per_iteration.len() {
        let mut window = Vec::new();
        for samples in &per_iteration[start..] {
            window.extend_from_slice(samples);
            if window.len() >= min {
                break;
            }
        }
        if window.len() < min {
            break;
        }
        windows.push(window);
    }
    if windows.is_empty() {
        let all: Vec<f64> = per_iteration.concat();
        if !all.is_empty() {
            windows.push(all);
        }
    }
    windows
}

/// The reported value of one metric from its iteration or window
/// `values`, with a note on how it was taken.
fn reduce(notes: &mut Vec<String>, label: &str, how: &str, values: &[f64], by: Reduce) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = stats::median(&sorted).unwrap_or(0.0);
    let n = sorted.len();
    match by {
        Reduce::Median => {
            notes.push(format!("{label} = median over {n} {how}"));
            median
        }
        Reduce::Fast { higher } => {
            let p = if higher {
                100.0 - FAST_PERCENTILE
            } else {
                FAST_PERCENTILE
            };
            notes.push(format!(
                "{label} = p{p} over {n} {how} (median {median:.6})"
            ));
            stats::percentile(&sorted, p).unwrap_or(0.0)
        }
    }
}

/// The tail of each window of at least [`TAIL_WINDOW`] samples (the
/// highest ladder percentile with ten samples beyond it), and how the
/// windows' tails were taken.
fn window_tails(per_iteration: &[Vec<f64>]) -> (Vec<f64>, String) {
    let mut used = Vec::new();
    let tails = windows(per_iteration, TAIL_WINDOW)
        .into_iter()
        .map(|mut w| {
            w.sort_by(f64::total_cmp);
            let p = stats::tail_percentile(w.len()).unwrap_or(100.0);
            if !used.contains(&p) {
                used.push(p);
            }
            stats::percentile(&w, p).unwrap_or(0.0)
        })
        .collect();
    let how = format!("windows of >= {TAIL_WINDOW} samples, each window's p{used:?}");
    (tails, how)
}

/// The median of each window of at least [`MEDIAN_WINDOW`] samples.
fn window_medians(per_iteration: &[Vec<f64>]) -> Vec<f64> {
    windows(per_iteration, MEDIAN_WINDOW)
        .iter()
        .map(|w| stats::median(w).unwrap_or(0.0))
        .collect()
}

/// The end-to-end metrics over `its`, with notes on how each was taken.
fn end_to_end(its: &[&Iteration], checks: &Checks, notes: &mut Vec<String>) -> Vec<Metric> {
    let per_iter =
        |f: &dyn Fn(&Iteration) -> f64| -> Vec<f64> { its.iter().map(|it| f(it)).collect() };
    let samples = |f: &dyn Fn(&Iteration) -> Vec<f64>| -> Vec<Vec<f64>> {
        its.iter().map(|it| f(it)).collect()
    };
    let turnaround = samples(&|it| it.turnaround_ms.clone());
    let (turnaround_tails, turnaround_how) = window_tails(&turnaround);
    let (answer_tails, answer_how) = window_tails(&samples(&|it| {
        it.answer_ns.iter().map(|&ns| f64::from(ns) / 1e3).collect()
    }));
    let iterations = "iterations";
    let medians = format!("windows of >= {MEDIAN_WINDOW} samples, each window's median");
    let fast = Reduce::Fast { higher: false };
    let mut m = |name: &'static str, unit: &'static str, how: &str, values: Vec<f64>, by| {
        metric(name, reduce(notes, name, how, &values, by), unit)
    };
    vec![
        m(
            "server_reports_per_s",
            "reports/s",
            iterations,
            per_iter(&|it| ratio(it.accepted as f64, it.server_s)),
            Reduce::Fast { higher: true },
        ),
        m(
            "round_turnaround_p50_ms",
            "ms",
            &medians,
            window_medians(&turnaround),
            fast,
        ),
        m(
            "round_turnaround_tail_ms",
            "ms",
            &turnaround_how,
            turnaround_tails,
            fast,
        ),
        m(
            "device_us_per_report",
            "us",
            iterations,
            per_iter(&|it| ratio(it.device_s * 1e6, it.device_reports as f64)),
            Reduce::Median,
        ),
        m(
            "device_answer_tail_us",
            "us",
            &answer_how,
            answer_tails,
            Reduce::Median,
        ),
        m(
            "enroll_ms_per_device",
            "ms",
            &medians,
            window_medians(&samples(&|it| it.enroll_ms.clone())),
            Reduce::Median,
        ),
        m(
            "restore_ms_p50",
            "ms",
            &medians,
            window_medians(&samples(&|it| it.restore_ms.clone())),
            Reduce::Median,
        ),
        m(
            "setup_s",
            "s",
            iterations,
            per_iter(&|it| it.setup_s),
            Reduce::Median,
        ),
        metric(
            "ops_ok_share",
            1.0 - ratio(checks.failed as f64, checks.attempted as f64),
            "ratio",
        ),
    ]
}

/// The per-layer metrics from the span totals `layers` of the traced
/// iterations `its`; `untraced` and `traced` are the end-to-end metrics of
/// the run's two halves, whose gap is the tracing overhead.
fn per_layer(
    layers: &BTreeMap<&'static str, Layer>,
    its: &[&Iteration],
    untraced: &[Metric],
    traced: &[Metric],
    dataset_s: f64,
) -> Vec<Metric> {
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let sum = |names: &[&str]| {
        names.iter().fold(Layer::default(), |acc, n| {
            let l = get(n);
            Layer {
                calls: acc.calls + l.calls,
                busy_s: acc.busy_s + l.busy_s,
                self_s: acc.self_s + l.self_s,
                units: acc.units + l.units,
            }
        })
    };
    let total = |f: &dyn Fn(&Iteration) -> f64| its.iter().map(|it| f(it)).sum::<f64>();
    let n_iter = its.len().max(1) as f64;
    let value =
        |ms: &[Metric], name: &str| ms.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);

    let score = sum(&["client.answer.expand", "client.answer.refine"]);
    let perturb = sum(&["client.answer.length", "client.answer.subshape"]);
    let device = sum(&[
        "client.answer.length",
        "client.answer.subshape",
        "client.answer.expand",
        "client.answer.refine",
        "wire.seal",
        "wire.envelope",
    ]);
    let next_round = sum(&[
        "session.next_round.length",
        "session.next_round.subshape",
        "session.next_round.expand",
        "session.next_round.refine",
        "session.next_round.done",
    ]);
    let begin = get("registry.begin_round");
    let close = get("registry.close_round");
    let server_s = total(&|it| it.server_s);
    let rows = total(&|it| it.score_rows as f64);
    let expand_candidates: Vec<f64> = its
        .iter()
        .flat_map(|it| it.expand_candidates.iter().copied())
        .collect();
    let drill = get("recovery.drill");
    let median_of = |f: &dyn Fn(&Iteration) -> f64| {
        stats::median(&its.iter().map(|it| f(it)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let rps = "server_reports_per_s";
    let dev = "device_us_per_report";

    vec![
        metric(
            "timeseries.transform.ns_per_series",
            get("timeseries.transform").ns_per_unit(),
            "ns",
        ),
        metric(
            "client.assign.ms_per_device",
            get("client.assign").us_per_call() / 1e3,
            "ms",
        ),
        metric(
            "client.derive_all.s",
            get("client.derive_all").us_per_call() / 1e6,
            "s",
        ),
        metric("client.score.ns_per_report", score.ns_per_unit(), "ns"),
        metric(
            "client.score.candidate_rows",
            ratio(rows, total(&|it| it.score_reports as f64)),
            "rows/report",
        ),
        metric(
            "client.score.ns_per_row",
            ratio(score.busy_s * 1e9, rows),
            "ns",
        ),
        metric(
            "client.score.ns_per_cell",
            ratio(score.busy_s * 1e9, total(&|it| it.score_cells)),
            "ns",
        ),
        metric(
            "client.score.device_share",
            ratio(score.busy_s, device.busy_s),
            "ratio",
        ),
        metric("client.perturb.ns_per_report", perturb.ns_per_unit(), "ns"),
        metric(
            "client.addressed_ratio",
            ratio(
                total(&|it| it.device_reports as f64),
                total(&|it| it.polled as f64),
            ),
            "ratio",
        ),
        metric(
            "wire.seal.ns_per_report",
            get("wire.seal").ns_per_unit(),
            "ns",
        ),
        metric(
            "wire.bytes_per_report",
            ratio(
                total(&|it| it.sealed_bytes as f64),
                total(&|it| it.device_reports as f64),
            ),
            "B",
        ),
        metric(
            "wire.envelope.ns_per_frame",
            get("wire.envelope").ns_per_unit(),
            "ns",
        ),
        metric(
            "registry.route_frame.us_per_frame",
            get("registry.route_frame").us_per_call(),
            "us",
        ),
        metric(
            "registry.accept_ratio",
            ratio(
                total(&|it| it.accepted as f64),
                total(&|it| it.routed_reports as f64),
            ),
            "ratio",
        ),
        metric(
            "registry.rejected_frames",
            total(&|it| it.ingest.rejected_frames as f64) / n_iter,
            "count/iter",
        ),
        metric(
            "registry.duplicate_reports",
            total(&|it| it.ingest.duplicate_reports as f64) / n_iter,
            "count/iter",
        ),
        metric(
            "ingest.backpressure_stalls",
            total(&|it| it.ingest.backpressure_stalls as f64) / n_iter,
            "count/iter",
        ),
        metric(
            "ingest.queue_high_water",
            its.iter()
                .map(|it| it.ingest.queue_high_water as f64)
                .fold(0.0, f64::max),
            "frames",
        ),
        metric(
            "ingest.absorb.ns_per_report",
            get("ingest.absorb").ns_per_unit(),
            "ns",
        ),
        metric(
            "shard.merge_tree.us_per_round",
            get("shard.merge_tree").us_per_call(),
            "us",
        ),
        metric(
            "session.next_round.length.us",
            get("session.next_round.length").us_per_call(),
            "us",
        ),
        metric(
            "session.next_round.subshape.us",
            get("session.next_round.subshape").us_per_call(),
            "us",
        ),
        metric(
            "session.next_round.expand.us",
            get("session.next_round.expand").us_per_call(),
            "us",
        ),
        metric(
            "session.next_round.refine.us",
            get("session.next_round.refine").us_per_call(),
            "us",
        ),
        metric(
            "trie.candidates_per_level",
            stats::median(&expand_candidates).unwrap_or(0.0),
            "count",
        ),
        metric("registry.begin_round.us", begin.us_per_call(), "us"),
        metric("registry.close_round.us", close.us_per_call(), "us"),
        metric(
            "registry.pipeline_setup.us_per_round",
            ratio((begin.busy_s - next_round.busy_s) * 1e6, begin.calls as f64),
            "us",
        ),
        metric(
            "registry.rounds.server_share",
            ratio(begin.busy_s + close.busy_s, server_s),
            "ratio",
        ),
        metric(
            "recovery.snapshot.us",
            get("recovery.snapshot").us_per_call(),
            "us",
        ),
        metric(
            "recovery.snapshot_bytes",
            ratio(drill.units as f64, drill.calls as f64),
            "B",
        ),
        metric(
            "recovery.restore.ms",
            get("recovery.restore").us_per_call() / 1e3,
            "ms",
        ),
        metric(
            "recovery.restore.ns_per_user",
            get("recovery.restore").ns_per_unit(),
            "ns",
        ),
        metric(
            "trace.overhead.server_pct",
            100.0
                * ratio(
                    value(untraced, rps) - value(traced, rps),
                    value(untraced, rps),
                ),
            "%",
        ),
        metric(
            "trace.overhead.device_pct",
            100.0
                * ratio(
                    value(traced, dev) - value(untraced, dev),
                    value(untraced, dev),
                ),
            "%",
        ),
        metric("time.setup_s", median_of(&|it| it.setup_s), "s"),
        metric("time.server_s", median_of(&|it| it.server_s), "s"),
        metric("time.device_s", median_of(&|it| it.device_s), "s"),
        metric("time.harness_s", median_of(&|it| it.harness_s), "s"),
        metric("harness.dataset_s", dataset_s, "s"),
    ]
}

/// Seconds of `harness.*` spans that overlap a timed region (setup,
/// server phases, device answering and sealing). Zero by construction;
/// printed as the proof.
fn harness_overlap_s(tracer: &Tracer) -> f64 {
    let timed = |n: &str| {
        n == "setup"
            || n.starts_with("server.")
            || n.starts_with("client.answer.")
            || n.starts_with("wire.")
            || n == "registry.finish"
    };
    let collect = |keep: &dyn Fn(&str) -> bool| {
        let mut v: Vec<(u64, u64)> = tracer
            .spans()
            .iter()
            .filter(|s| keep(s.name))
            .map(|s| (s.start, s.end))
            .collect();
        v.sort_unstable();
        v
    };
    let harness = collect(&|n: &str| n.starts_with("harness."));
    let timed = collect(&timed);
    let mut overlap = 0u64;
    for &(a, b) in &harness {
        for &(c, d) in timed.iter().take_while(|&&(c, _)| c < b) {
            overlap += b.min(d).saturating_sub(a.max(c));
        }
    }
    overlap as f64 * 1e-9
}

fn json(correct: bool, checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(plan) = workload::plan(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (expected one of {:?})",
            args.workload,
            workload::NAMES
        );
        std::process::exit(2);
    };
    println!("{}", fingerprint::line());
    let users: usize = plan.tenants.iter().map(|t| t.users).sum();
    println!(
        "workload: {} seed={} seconds={} trace={} sessions={} users={} producers={} ingest_workers={}",
        plan.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plan.tenants.len(),
        users,
        drive::PRODUCERS,
        drive::INGEST_WORKERS
    );

    let started = Instant::now();
    let pool = workload::Pool::generate(&plan, args.seed);
    let dataset_s = started.elapsed().as_secs_f64();

    let mut tracer = Tracer::new(false);
    let mut checks = Checks::default();
    for _ in 0..WARMUP_ITERATIONS {
        drive::iteration(&plan, &pool, &mut tracer, &mut checks);
    }
    let mut iterations: Vec<(bool, Iteration)> = Vec::new();
    let measuring = Instant::now();
    while iterations.len() < MIN_ITERATIONS || measuring.elapsed().as_secs_f64() < args.seconds {
        // Traced runs alternate, so both halves see the same conditions.
        let traced = args.trace && iterations.len() % 2 == 1;
        tracer.set_on(traced);
        let it = drive::iteration(&plan, &pool, &mut tracer, &mut checks);
        iterations.push((traced, it));
        if checks.failed > 0 {
            break;
        }
    }
    let measured_s = measuring.elapsed().as_secs_f64();

    let pick = |traced: bool| -> Vec<&Iteration> {
        iterations
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, it)| it)
            .collect()
    };
    let untraced_its = pick(false);
    let mut notes = Vec::new();
    let untraced = end_to_end(&untraced_its, &checks, &mut notes);

    let harness_s = dataset_s + iterations.iter().map(|(_, it)| it.harness_s).sum::<f64>();
    println!(
        "measured: {} iterations in {measured_s:.3} s; harness_s = {harness_s:.6} (dataset {dataset_s:.6}, simulator + twin {:.6})",
        iterations.len(),
        harness_s - dataset_s
    );
    for (i, (traced, it)) in iterations.iter().enumerate() {
        println!(
            "  iteration {i}{}: setup {:.4} s, server {:.4} s, device {:.4} s, harness {:.4} s, accepted {} reports",
            if *traced { " (traced)" } else { "" },
            it.setup_s,
            it.server_s,
            it.device_s,
            it.harness_s,
            it.accepted
        );
    }
    if let Some((_, first)) = iterations.first() {
        for line in &first.sessions {
            println!("  session {line}");
        }
    }
    for note in &notes {
        println!("  {note}");
    }
    for message in &checks.messages {
        println!("CHECK FAILED: {message}");
    }

    let metrics = if args.trace {
        let traced_its = pick(true);
        let mut traced_notes = Vec::new();
        let traced = end_to_end(&traced_its, &checks, &mut traced_notes);
        println!(
            "harness overlap with timed regions: {:.9} s",
            harness_overlap_s(&tracer)
        );
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let path = dir.join(format!("{}-seed{}.csv", plan.name, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| tracer.write_csv(&path)) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => println!("spans: not written ({e})"),
        }
        let layers = trace::layers(tracer.spans());
        println!(
            "  {:<36} {:>8} {:>12} {:>12} {:>12}",
            "span", "calls", "busy_s", "self_s", "units"
        );
        for (name, l) in &layers {
            println!(
                "  {name:<36} {:>8} {:>12.6} {:>12.6} {:>12}",
                l.calls, l.busy_s, l.self_s, l.units
            );
        }
        per_layer(&layers, &traced_its, &untraced, &traced, dataset_s)
    } else {
        untraced
    };
    for m in &metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = checks.failed == 0;
    println!("{}", json(correct, &checks, &metrics));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_slide_over_iterations() {
        let its = vec![vec![1.0, 2.0], vec![3.0], vec![4.0, 5.0], vec![6.0]];
        assert_eq!(
            windows(&its, 3),
            vec![
                vec![1.0, 2.0, 3.0],
                vec![3.0, 4.0, 5.0],
                vec![4.0, 5.0, 6.0]
            ]
        );
        assert_eq!(windows(&its, 1).len(), 4);
        assert_eq!(windows(&its, 10), vec![vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]);
        assert!(windows(&[], 1).is_empty());
    }

    #[test]
    fn reduce_takes_the_median_or_the_fast_end() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        let mut notes = Vec::new();
        let mut by = |r| reduce(&mut notes, "m", "iterations", &values, r);
        assert_eq!(by(Reduce::Median), 10.5);
        assert_eq!(by(Reduce::Fast { higher: false }), 2.0);
        assert_eq!(by(Reduce::Fast { higher: true }), 18.0);
        assert_eq!(notes.len(), 3);
    }
}
