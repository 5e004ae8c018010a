//! Federated rounds: drive the LDP protocol explicitly, the way a real
//! deployment would — a server-side `Session` broadcasting round specs and
//! one `UserClient` per device answering only the rounds addressed to its
//! group, with reports funneled through mergeable shard aggregates.
//!
//! This produces *bit-identical* output to the `PrivShape::run` facade
//! (enforced by `tests/session_equivalence.rs`); the only difference is
//! that here you can watch every broadcast and every report batch cross
//! the boundary.
//!
//! Run with: `cargo run --release --example federated_rounds`

use privshape::protocol::{RoundSpec, Session, ShardAggregator, UserClient};
use privshape::PrivShapeConfig;
use privshape_ldp::Epsilon;
use privshape_timeseries::{SaxParams, TimeSeries};

fn describe(spec: &RoundSpec) -> String {
    match spec {
        RoundSpec::Length {
            audience,
            range,
            oracle,
        } => format!(
            "length estimation: {} over clipped lengths [{}, {}] → group {:?}",
            oracle.name().to_uppercase(),
            range.0,
            range.1,
            audience.group
        ),
        RoundSpec::SubShape {
            audience,
            ell_s,
            alphabet,
        } => format!(
            "sub-shape estimation: GRR over {} bigram pairs, levels 1..{} → group {:?}",
            alphabet * (alphabet - 1),
            ell_s - 1,
            audience.group
        ),
        RoundSpec::Expand {
            audience,
            level,
            candidates,
        } => {
            let chunk = audience.chunk.expect("expansion rounds are chunked");
            format!(
                "trie expansion level {level}: EM over {} candidates → group {:?} chunk {}/{}",
                candidates.len(),
                audience.group,
                chunk.index + 1,
                chunk.of
            )
        }
        RoundSpec::RefineUnlabeled {
            audience,
            candidates,
        } => format!(
            "two-level refinement: EM over {} leaf candidates → group {:?}",
            candidates.len(),
            audience.group
        ),
        RoundSpec::RefineLabeled {
            audience,
            candidates,
            n_classes,
        } => format!(
            "labeled refinement: OUE over {}×{} grid → group {:?}",
            candidates.len(),
            n_classes,
            audience.group
        ),
    }
}

fn main() {
    // The same two-shape demo population as the quickstart.
    let series: Vec<TimeSeries> = (0..1200)
        .map(|i| {
            let rising = i % 3 != 2;
            let mut v = Vec::with_capacity(90);
            for step in 0..90 {
                let phase = step as f64 / 90.0;
                let base = if rising {
                    if phase < 1.0 / 3.0 {
                        -1.0
                    } else if phase < 2.0 / 3.0 {
                        1.5
                    } else {
                        0.2
                    }
                } else if phase < 1.0 / 3.0 {
                    1.5
                } else if phase < 2.0 / 3.0 {
                    -1.0
                } else {
                    0.2
                };
                let jitter = ((i * 31) % 13) as f64 * 0.01;
                v.push(base + jitter);
            }
            TimeSeries::new(v).expect("finite samples")
        })
        .collect();

    let mut config = PrivShapeConfig::new(
        Epsilon::new(4.0).expect("positive budget"),
        2,
        SaxParams::new(10, 3).expect("valid SAX parameters"),
    );
    config.length_range = (1, 6);

    // Server side: the session owns only public state (trie, domains,
    // aggregates) — never a user's series.
    let mut session = Session::privshape(config, series.len()).expect("valid session");

    // Client side: each device enrolls with the broadcast parameters and
    // derives its own group assignment from (seed, user_id). Its raw
    // series never leaves `UserClient`.
    let params = session.params().clone();
    let mut clients: Vec<UserClient> = series
        .iter()
        .enumerate()
        .map(|(user, s)| UserClient::new(user, s, &params))
        .collect();
    println!("enrolled {} clients (n = {})\n", clients.len(), params.n);

    // The round loop. To show the sharded ingestion path, reports are
    // absorbed into three independent shard aggregates (as three ingestion
    // nodes would) and merged in reverse order — the result is identical
    // to a single submit (see the shard-merge property test).
    let mut round = 0usize;
    while let Some(spec) = session.next_round().expect("protocol advances") {
        round += 1;
        println!("round {round}: {}", describe(&spec));

        let mut shards: Vec<ShardAggregator> = (0..3)
            .map(|_| {
                ShardAggregator::for_round(&spec, session.params().epsilon).expect("valid round")
            })
            .collect();
        let mut answered = 0usize;
        for client in &mut clients {
            if let Some(report) = client.answer(&spec).expect("client answers") {
                shards[answered % 3]
                    .absorb(&report)
                    .expect("report matches round");
                answered += 1;
            }
        }
        for shard in shards.iter().rev() {
            session.submit_shard(shard).expect("shards merge");
        }
        println!(
            "         {answered} reports ({} + {} + {} across 3 shards)\n",
            shards[0].reports(),
            shards[1].reports(),
            shards[2].reports()
        );
    }

    let result = session.finish().expect("session complete");
    println!("protocol complete after {round} rounds");
    println!(
        "estimated frequent length: {} | users per stage [Pa, Pb, Pc, Pd]: {:?}",
        result.diagnostics.ell_s, result.diagnostics.group_sizes
    );
    println!("\ntop-{} extracted shapes:", result.shapes.len());
    for (rank, s) in result.shapes.iter().enumerate() {
        println!(
            "  #{rank}: \"{}\" (estimated frequency {:.0})",
            s.shape, s.frequency
        );
    }
    println!("\nexpected essential shapes: \"acb\" (rise) and \"cab\" (fall).");
}
