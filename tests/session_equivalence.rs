//! The session-driven facades must be bit-identical to the pre-refactor
//! monolithic mechanisms.
//!
//! Two layers of evidence:
//!
//! 1. **Golden outputs**: the exact shapes, frequencies, and diagnostics
//!    that `PrivShape::run` / `run_labeled` and the baseline produced on
//!    the planted fixtures *before* the protocol refactor (captured from
//!    the pre-refactor build at n = 3000, ε = 4, seed 2023). Frequencies
//!    are compared with exact `f64` equality — any drift in RNG streams,
//!    group splits, round ordering, or aggregation breaks these.
//! 2. **Facade ≡ explicit protocol**: driving `Session` + `UserClient` by
//!    hand must reproduce the facade's output exactly.

use privshape::protocol::{IngestConfig, Session, UserClient};
use privshape::{Baseline, BaselineConfig, Extraction, PrivShape, PrivShapeConfig};
use privshape_distance::DistanceKind;
use privshape_ldp::Epsilon;
use privshape_timeseries::{SaxParams, TimeSeries};
use rand::{RngExt, SeedableRng};

/// The planted two-shape population used by the pre-refactor golden run.
fn planted_population(n: usize) -> (Vec<TimeSeries>, Vec<usize>) {
    let mut series = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = usize::from(i % 3 >= 2);
        let (a, b, c) = if class == 0 {
            (-1.0, 1.5, 0.0)
        } else {
            (1.5, -1.0, 0.2)
        };
        let mut v = Vec::with_capacity(60);
        v.extend(std::iter::repeat_n(a, 20));
        v.extend(std::iter::repeat_n(b, 20));
        v.extend(std::iter::repeat_n(c, 20));
        let jitter = (i % 11) as f64 * 1e-3;
        series.push(TimeSeries::new(v.into_iter().map(|x| x + jitter).collect()).unwrap());
        labels.push(class);
    }
    (series, labels)
}

fn privshape_config() -> PrivShapeConfig {
    let mut cfg = PrivShapeConfig::new(
        Epsilon::new(4.0).unwrap(),
        2,
        SaxParams::new(10, 3).unwrap(),
    );
    cfg.length_range = (1, 6);
    cfg.distance = DistanceKind::Sed;
    cfg
}

fn baseline_config() -> BaselineConfig {
    let mut cfg = BaselineConfig::new(
        Epsilon::new(4.0).unwrap(),
        2,
        SaxParams::new(10, 3).unwrap(),
    );
    cfg.length_range = (1, 6);
    cfg.distance = DistanceKind::Sed;
    cfg.prune_threshold = 100.0 * 3000.0 / 40_000.0;
    cfg
}

fn assert_shapes(out: &[privshape::ExtractedShape], expected: &[(&str, f64)]) {
    let got: Vec<(String, f64)> = out
        .iter()
        .map(|s| (s.shape.to_string(), s.frequency))
        .collect();
    let expected: Vec<(String, f64)> = expected.iter().map(|&(s, f)| (s.to_string(), f)).collect();
    assert_eq!(got, expected);
}

#[test]
fn privshape_run_matches_pre_refactor_golden() {
    let (series, _) = planted_population(3000);
    let out = PrivShape::new(privshape_config())
        .unwrap()
        .run(&series)
        .unwrap();
    assert_shapes(&out.shapes, &[("acb", 178.0), ("cab", 129.0)]);
    let d = &out.diagnostics;
    assert_eq!(d.ell_s, 3);
    assert_eq!(d.candidates_per_level, vec![3, 6, 6]);
    assert_eq!(d.group_sizes, [60, 240, 2100, 600]);
    assert_eq!(d.trie_nodes, 21);
}

#[test]
fn privshape_run_labeled_matches_pre_refactor_golden() {
    let (series, labels) = planted_population(3000);
    let out = PrivShape::new(privshape_config())
        .unwrap()
        .run_labeled(&series, &labels)
        .unwrap();
    assert_eq!(out.classes.len(), 2);
    assert_shapes(
        &out.classes[0].shapes,
        &[("acb", 400.83557362031075), ("bab", 2.506720860932294)],
    );
    assert_shapes(
        &out.classes[1].shapes,
        &[("cab", 172.62633506025017), ("aba", 10.80523862675268)],
    );
    let d = &out.diagnostics;
    assert_eq!(d.ell_s, 3);
    assert_eq!(d.candidates_per_level, vec![3, 6, 6]);
    assert_eq!(d.group_sizes, [60, 240, 2100, 600]);
}

#[test]
fn baseline_run_matches_pre_refactor_golden() {
    let (series, _) = planted_population(3000);
    let out = Baseline::new(baseline_config())
        .unwrap()
        .run(&series)
        .unwrap();
    assert_shapes(&out.shapes, &[("acb", 194.0), ("cab", 125.0)]);
    let d = &out.diagnostics;
    assert_eq!(d.ell_s, 3);
    assert_eq!(d.candidates_per_level, vec![3, 6, 12]);
    assert_eq!(d.group_sizes, [60, 2940, 0, 0]);
    assert_eq!(d.trie_nodes, 21);
}

#[test]
fn baseline_run_labeled_matches_pre_refactor_golden() {
    let (series, labels) = planted_population(3000);
    let out = Baseline::new(baseline_config())
        .unwrap()
        .run_labeled(&series, &labels)
        .unwrap();
    assert_eq!(out.classes.len(), 2);
    assert_shapes(
        &out.classes[0].shapes,
        &[("acb", 464.26085789010995), ("cab", -6.68002532019689)],
    );
    assert_shapes(
        &out.classes[1].shapes,
        &[("cab", 248.49939597877994), ("acb", 1.6184924456234948)],
    );
    assert_eq!(out.diagnostics.group_sizes, [60, 2940, 0, 0]);
}

/// Driving the protocol through the *streaming* boundary — every report
/// wire-encoded on-device, chunked into frames, the frames shuffled and
/// fed to a racing multi-worker `IngestPipeline`, the round closed with a
/// tree-merge — must still equal the facade bit for bit. This is the
/// session-level pin for the whole serialize → stream → shard → merge
/// path.
#[test]
fn streaming_ingest_loop_matches_facade() {
    let (series, _) = planted_population(900);
    let facade: Extraction = PrivShape::new(privshape_config())
        .unwrap()
        .run(&series)
        .unwrap();

    let mut session = Session::privshape(privshape_config(), series.len()).unwrap();
    let params = session.params().clone();
    let mut clients: Vec<UserClient> = series
        .iter()
        .enumerate()
        .map(|(user, s)| UserClient::new(user, s, &params))
        .collect();
    let mut shuffle_rng = rand_chacha::ChaCha12Rng::seed_from_u64(7);
    let mut ws = privshape_distance::DistanceWorkspace::new();
    while let Some(spec) = session.next_round().unwrap() {
        // Devices serialize their own reports; the tier sees only bytes.
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut frame = Vec::new();
        for client in &mut clients {
            if let Some(report) = client.answer_with(&spec, &mut ws).unwrap() {
                report.encode_into(&mut frame);
                if frame.len() > 64 {
                    frames.push(std::mem::take(&mut frame));
                }
            }
        }
        if !frame.is_empty() {
            frames.push(frame);
        }
        // Frames arrive out of order across the ingestion tier.
        for i in (1..frames.len()).rev() {
            let j = shuffle_rng.random_range(0..=i);
            frames.swap(i, j);
        }
        let pipeline = session
            .ingest_pipeline(IngestConfig {
                workers: 4,
                queue_capacity: 8,
            })
            .unwrap();
        for f in frames {
            pipeline.submit_frame(f).unwrap();
        }
        session.submit_pipeline(pipeline).unwrap();
    }
    let streamed = session.finish().unwrap();

    assert_eq!(streamed.shapes, facade.shapes);
    assert_eq!(streamed.diagnostics.ell_s, facade.diagnostics.ell_s);
    assert_eq!(
        streamed.diagnostics.candidates_per_level,
        facade.diagnostics.candidates_per_level
    );
}

/// Driving the protocol by hand — one standalone `UserClient` per device,
/// explicit round loop — must equal the facade exactly.
#[test]
fn explicit_session_loop_matches_facade() {
    let (series, _) = planted_population(900);
    let facade: Extraction = PrivShape::new(privshape_config())
        .unwrap()
        .run(&series)
        .unwrap();

    let mut session = Session::privshape(privshape_config(), series.len()).unwrap();
    let params = session.params().clone();
    let mut clients: Vec<UserClient> = series
        .iter()
        .enumerate()
        .map(|(user, s)| UserClient::new(user, s, &params))
        .collect();
    while let Some(spec) = session.next_round().unwrap() {
        let mut reports = Vec::new();
        for client in &mut clients {
            if let Some(report) = client.answer(&spec).unwrap() {
                reports.push(report);
            }
        }
        session.submit(&reports).unwrap();
    }
    let manual = session.finish().unwrap();

    assert_eq!(manual.shapes, facade.shapes);
    assert_eq!(manual.diagnostics.ell_s, facade.diagnostics.ell_s);
    assert_eq!(
        manual.diagnostics.candidates_per_level,
        facade.diagnostics.candidates_per_level
    );
    assert_eq!(
        manual.diagnostics.group_sizes,
        facade.diagnostics.group_sizes
    );
}
