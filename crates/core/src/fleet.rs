//! Single-process simulation of a client fleet.
//!
//! [`SimulatedFleet`] holds one [`UserClient`] per user and answers each
//! round broadcast in parallel (deterministically: per-user RNG streams
//! make results independent of thread count). This is the only place in
//! the crate where all users' data coexists — and even here each series is
//! sealed inside its own client; the drivers in `privshape.rs` and
//! `baseline.rs` only ever see [`RoundSpec`]s and [`Report`]s.

use crate::par;
use privshape_distance::{DistanceWorkspace, ScanStats};
use privshape_protocol::{
    GroupAssignment, ProtocolParams, Report, Result, RoundSpec, Session, ShardAggregator,
    UserClient,
};
use privshape_timeseries::TimeSeries;

/// Per-worker-thread state: the scoring workspace *and* a private shard
/// aggregator, side by side. Scoring and aggregation overlap — a worker
/// absorbs each of its clients' reports the moment it is produced instead
/// of parking them in a `Vec` for a second, barriered aggregation phase.
#[derive(Debug)]
struct FleetWorker {
    /// Persistent scoring workspace: DP row stack, index buffers, and
    /// batch buffer grow once and stay warm across every round of the
    /// session (never influences results — per-user RNG streams keep the
    /// fleet deterministic for any thread count).
    ws: DistanceWorkspace,
    /// This worker's shard of the open round's aggregate; `None` between
    /// rounds. Aggregation is exact integer addition, so per-worker
    /// sharding is unobservable in the final counts.
    shard: Option<ShardAggregator>,
}

/// A fleet of simulated user devices.
#[derive(Debug)]
pub struct SimulatedFleet {
    clients: Vec<UserClient>,
    workers: Vec<FleetWorker>,
}

impl SimulatedFleet {
    /// Enrolls one client per series (with optional per-user labels),
    /// deriving all group assignments once and transforming every series
    /// on its own "device", in parallel.
    pub fn new(
        series: &[TimeSeries],
        labels: Option<&[usize]>,
        params: &ProtocolParams,
        threads: usize,
    ) -> Self {
        let assignments = GroupAssignment::derive_all(params);
        let clients = par::map_indexed(series.len(), threads, |user| {
            UserClient::with_assignment(
                user,
                &series[user],
                labels.map(|l| l[user]),
                params,
                assignments[user],
            )
        });
        let n_workers = par::resolve_threads(threads).min(clients.len().max(1));
        let workers = (0..n_workers)
            .map(|_| FleetWorker {
                ws: DistanceWorkspace::new(),
                shard: None,
            })
            .collect();
        Self { clients, workers }
    }

    /// Number of enrolled clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Returns the scan counters merged across every worker workspace
    /// since the fleet was built (or since the last call) and resets them
    /// to zero, so callers can attribute counters to a protocol stage or
    /// round. Purely observational.
    pub fn take_scan_stats(&mut self) -> ScanStats {
        let mut total = ScanStats::default();
        for worker in &mut self.workers {
            total.merge(&worker.ws.take_stats());
        }
        total
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Collects the reports of every client the round is addressed to, in
    /// user order. Each worker thread scores through its own persistent
    /// workspace, so steady-state rounds allocate nothing per candidate.
    ///
    /// This is the inspection path (smoke tests, explicit protocol
    /// loops); [`SimulatedFleet::drive`] uses the overlapped
    /// [`SimulatedFleet::answer_into_shard`] instead.
    pub fn answer(&mut self, spec: &RoundSpec) -> Result<Vec<Report>> {
        let answers =
            par::map_slice_mut_scratch(&mut self.clients, &mut self.workers, |client, worker| {
                client.answer_with(spec, &mut worker.ws)
            });
        let mut reports = Vec::new();
        for answer in answers {
            if let Some(report) = answer? {
                reports.push(report);
            }
        }
        Ok(reports)
    }

    /// Answers a round with scoring and aggregation overlapped: every
    /// worker thread scores its slice of clients through its persistent
    /// workspace and absorbs each report into its private shard aggregator
    /// as soon as it is produced — no fleet-wide "all clients scored"
    /// barrier before aggregation begins, and no round-sized report `Vec`.
    /// The per-worker shards then reduce through
    /// [`ShardAggregator::merge_tree`] into the round's single aggregate,
    /// bit-identical to collecting and submitting the reports serially.
    pub fn answer_into_shard(
        &mut self,
        spec: &RoundSpec,
        session: &Session,
    ) -> Result<ShardAggregator> {
        let template = session.shard_aggregator()?;
        for worker in &mut self.workers {
            worker.shard = Some(template.clone());
        }
        let outcomes =
            par::map_slice_mut_scratch(&mut self.clients, &mut self.workers, |client, worker| {
                match client.answer_with(spec, &mut worker.ws)? {
                    Some(report) => worker
                        .shard
                        .as_mut()
                        .expect("shard installed for this round")
                        .absorb(&report),
                    None => Ok(()),
                }
            });
        for outcome in outcomes {
            outcome?;
        }
        let shards: Vec<ShardAggregator> = self
            .workers
            .iter_mut()
            .filter_map(|worker| worker.shard.take())
            .collect();
        Ok(ShardAggregator::merge_tree(shards)?.expect("fleet has at least one worker"))
    }

    /// Drives a session to completion: broadcast, answer-and-aggregate
    /// (overlapped, per worker), submit the merged shard, repeat. The
    /// session is ready for `finish`/`finish_labeled` afterwards.
    pub fn drive(&mut self, session: &mut Session) -> Result<()> {
        while let Some(spec) = session.next_round()? {
            let shard = self.answer_into_shard(&spec, session)?;
            session.submit_shard(&shard)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privshape_ldp::Epsilon;
    use privshape_protocol::PrivShapeConfig;
    use privshape_timeseries::SaxParams;

    fn series(n: usize) -> Vec<TimeSeries> {
        (0..n)
            .map(|i| {
                let mut v = vec![-1.0 + (i % 7) as f64 * 1e-3; 20];
                v.extend(vec![1.0; 20]);
                TimeSeries::new(v).unwrap()
            })
            .collect()
    }

    #[test]
    fn overlapped_shard_answer_equals_collect_then_absorb() {
        let mut cfg = PrivShapeConfig::new(
            Epsilon::new(4.0).unwrap(),
            1,
            SaxParams::new(10, 3).unwrap(),
        );
        cfg.length_range = (1, 4);
        let data = series(500);
        // Two identical fleets; one answers into a shard, the other
        // collects reports that are absorbed serially.
        let mut session = Session::privshape(cfg, data.len()).unwrap();
        let mut overlapped = SimulatedFleet::new(&data, None, session.params(), 4);
        let mut collected = SimulatedFleet::new(&data, None, session.params(), 4);
        while let Some(spec) = session.next_round().unwrap() {
            let shard = overlapped.answer_into_shard(&spec, &session).unwrap();
            let mut serial = session.shard_aggregator().unwrap();
            for report in collected.answer(&spec).unwrap() {
                serial.absorb(&report).unwrap();
            }
            assert_eq!(shard, serial, "round {}", spec.name());
            session.submit_shard(&shard).unwrap();
        }
        session.finish().unwrap();
    }

    #[test]
    fn fleet_drives_a_session_end_to_end() {
        let mut cfg = PrivShapeConfig::new(
            Epsilon::new(4.0).unwrap(),
            1,
            SaxParams::new(10, 3).unwrap(),
        );
        cfg.length_range = (1, 4);
        let data = series(400);
        let mut session = Session::privshape(cfg, data.len()).unwrap();
        let mut fleet = SimulatedFleet::new(&data, None, session.params(), 4);
        assert_eq!(fleet.len(), 400);
        assert!(!fleet.is_empty());
        fleet.drive(&mut session).unwrap();
        let out = session.finish().unwrap();
        assert_eq!(out.shapes[0].shape.to_string(), "ac");
    }
}
