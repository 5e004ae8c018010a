//! Shard-merge property: chunking reports across shards and merging the
//! partial aggregates — in *any* association and order — never changes the
//! extraction. This is the invariant that makes streamed/sharded report
//! ingestion safe: every per-round aggregate is a vector of integer
//! counts, so aggregation is associative and commutative.

use privshape_ldp::Epsilon;
use privshape_protocol::{
    Extraction, LengthOracle, PrivShapeConfig, Report, RoundSpec, Session, ShardAggregator,
    UserClient,
};
use privshape_timeseries::{SaxParams, TimeSeries};
use proptest::prelude::*;

/// A small planted population: two step shapes in a 2:1 mix.
fn planted(n: usize) -> Vec<TimeSeries> {
    (0..n)
        .map(|i| {
            let (a, b) = if i % 3 < 2 { (-1.0, 1.5) } else { (1.5, -1.0) };
            let mut v = Vec::with_capacity(40);
            v.extend(std::iter::repeat_n(a, 20));
            v.extend(std::iter::repeat_n(b, 20));
            let jitter = (i % 5) as f64 * 1e-3;
            TimeSeries::new(v.into_iter().map(|x| x + jitter).collect()).unwrap()
        })
        .collect()
}

fn config(eps: f64, seed: u64) -> PrivShapeConfig {
    let mut cfg = PrivShapeConfig::new(
        Epsilon::new(eps).unwrap(),
        2,
        SaxParams::new(10, 3).unwrap(),
    );
    cfg.length_range = (1, 4);
    cfg.seed = seed;
    cfg
}

fn collect_reports(clients: &mut [UserClient], spec: &RoundSpec) -> Vec<Report> {
    clients
        .iter_mut()
        .filter_map(|c| c.answer(spec).unwrap())
        .collect()
}

/// Drives a session submitting each round's reports in one batch.
fn drive_single_shot(cfg: PrivShapeConfig, series: &[TimeSeries]) -> Extraction {
    let mut session = Session::privshape(cfg, series.len()).unwrap();
    let mut clients: Vec<UserClient> = {
        let params = session.params().clone();
        series
            .iter()
            .enumerate()
            .map(|(u, s)| UserClient::new(u, s, &params))
            .collect()
    };
    while let Some(spec) = session.next_round().unwrap() {
        let reports = collect_reports(&mut clients, &spec);
        session.submit(&reports).unwrap();
    }
    session.finish().unwrap()
}

/// Drives a session splitting each round's reports across three shard
/// aggregators at `cuts`, then submitting the shards in `perm` order.
fn drive_sharded(
    cfg: PrivShapeConfig,
    series: &[TimeSeries],
    cuts: (f64, f64),
    perm: usize,
) -> Extraction {
    let mut session = Session::privshape(cfg, series.len()).unwrap();
    let mut clients: Vec<UserClient> = {
        let params = session.params().clone();
        series
            .iter()
            .enumerate()
            .map(|(u, s)| UserClient::new(u, s, &params))
            .collect()
    };
    while let Some(spec) = session.next_round().unwrap() {
        let reports = collect_reports(&mut clients, &spec);
        // Split this round's report stream into three shards.
        let n = reports.len();
        let mut a = ((n as f64) * cuts.0.min(cuts.1)) as usize;
        let mut b = ((n as f64) * cuts.0.max(cuts.1)) as usize;
        a = a.min(n);
        b = b.clamp(a, n);
        let mut shards: Vec<ShardAggregator> = (0..3)
            .map(|_| ShardAggregator::for_round(&spec, session.params().epsilon).unwrap())
            .collect();
        for (i, report) in reports.iter().enumerate() {
            let shard = if i < a {
                0
            } else if i < b {
                1
            } else {
                2
            };
            shards[shard].absorb(report).unwrap();
        }
        // Submit the shards in an arbitrary permutation.
        const PERMS: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for &idx in &PERMS[perm % 6] {
            session.submit_shard(&shards[idx]).unwrap();
        }
    }
    session.finish().unwrap()
}

fn assert_same_extraction(a: &Extraction, b: &Extraction) {
    assert_eq!(a.shapes, b.shapes, "shapes diverged");
    assert_eq!(a.diagnostics.ell_s, b.diagnostics.ell_s);
    assert_eq!(
        a.diagnostics.candidates_per_level,
        b.diagnostics.candidates_per_level
    );
    assert_eq!(a.diagnostics.trie_nodes, b.diagnostics.trie_nodes);
    assert_eq!(a.diagnostics.group_sizes, b.diagnostics.group_sizes);
    assert_eq!(
        a.diagnostics.unassigned_users,
        b.diagnostics.unassigned_users
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn three_shards_merged_in_any_order_match_single_shot(
        n in 60usize..160,
        seed in 0u64..1_000,
        eps_step in 1u32..5,
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
        perm in 0usize..6,
    ) {
        let series = planted(n);
        let eps = eps_step as f64 * 1.5;
        let single = drive_single_shot(config(eps, seed), &series);
        let sharded = drive_sharded(config(eps, seed), &series, (cut_a, cut_b), perm);
        assert_same_extraction(&single, &sharded);
    }

    /// The same invariant for every length-round frequency oracle. OUE and
    /// OLH aggregate support vectors, piecewise aggregates a fixed-point
    /// sum — all integer counts, so merge order must stay unobservable no
    /// matter which oracle the length round runs.
    #[test]
    fn length_oracle_shards_merge_in_any_order(
        n in 60usize..140,
        seed in 0u64..1_000,
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
        perm in 0usize..6,
        oracle_idx in 0usize..4,
    ) {
        let oracle = [
            LengthOracle::Grr,
            LengthOracle::Oue,
            LengthOracle::Olh,
            LengthOracle::Piecewise,
        ][oracle_idx];
        let series = planted(n);
        let cfg = || {
            let mut c = config(3.0, seed);
            c.length_oracle = oracle;
            c
        };
        let single = drive_single_shot(cfg(), &series);
        let sharded = drive_sharded(cfg(), &series, (cut_a, cut_b), perm);
        assert_same_extraction(&single, &sharded);
    }
}

/// The same invariant on the labeled path, at one deterministic setting
/// per merge order (the OUE grid is the only aggregate with non-trivial
/// per-report fan-out, so it deserves its own check).
#[test]
fn labeled_shards_match_single_shot_for_every_merge_order() {
    let series = planted(120);
    let labels: Vec<usize> = (0..120).map(|i| usize::from(i % 3 >= 2)).collect();
    let run = |perm: Option<usize>| {
        let mut session = Session::privshape_labeled(config(4.0, 7), 120, 2).unwrap();
        let params = session.params().clone();
        let mut clients: Vec<UserClient> = series
            .iter()
            .enumerate()
            .map(|(u, s)| UserClient::labeled(u, s, labels[u], &params))
            .collect();
        while let Some(spec) = session.next_round().unwrap() {
            let reports = collect_reports(&mut clients, &spec);
            match perm {
                None => session.submit(&reports).unwrap(),
                Some(p) => {
                    let mut shards: Vec<ShardAggregator> = (0..3)
                        .map(|_| {
                            ShardAggregator::for_round(&spec, session.params().epsilon).unwrap()
                        })
                        .collect();
                    for (i, r) in reports.iter().enumerate() {
                        shards[i % 3].absorb(r).unwrap();
                    }
                    const PERMS: [[usize; 3]; 6] = [
                        [0, 1, 2],
                        [0, 2, 1],
                        [1, 0, 2],
                        [1, 2, 0],
                        [2, 0, 1],
                        [2, 1, 0],
                    ];
                    for &idx in &PERMS[p] {
                        session.submit_shard(&shards[idx]).unwrap();
                    }
                }
            }
        }
        session.finish_labeled().unwrap()
    };
    let reference = run(None);
    for perm in 0..6 {
        let sharded = run(Some(perm));
        for (a, b) in reference.classes.iter().zip(&sharded.classes) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.shapes, b.shapes, "perm {perm} diverged");
        }
    }
}
