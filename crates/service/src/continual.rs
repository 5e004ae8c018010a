//! Epoch-session lifecycle for the continual extraction mode: each
//! planned epoch becomes one admitted, routed, snapshot-recoverable
//! registry session.
//!
//! The [`ContinualDriver`](privshape_protocol::ContinualDriver) plans
//! epochs (window sampling + budget accounting) without touching the
//! service tier; this module is the other half — it materializes a
//! plan's session, admits it, drives every round through the routed
//! frame envelope, and optionally rehearses a crash
//! (snapshot → evict → restore) at a chosen round boundary. Because an
//! [`EpochPlan`] materializes deterministically and the registry only
//! composes associative merges, a driven epoch is bit-identical to the
//! same plan driven serially — with or without the crash drill.

use crate::error::Result;
use crate::registry::ServiceRegistry;
use privshape_protocol::{route_frame, seal_frame, EpochPlan, Extraction, Report};

/// Drives one epoch plan through `registry` to completion and returns
/// its extraction.
///
/// Reports are sealed into frames of `frame_reports` entries and routed
/// through the wire envelope, exactly like external producers would.
/// With `crash_after_round = Some(r)`, the session is snapshotted,
/// evicted and restored under its original id after round `r` closes —
/// the recovery drill continual deployments must survive between
/// epochs' rounds.
///
/// # Errors
///
/// Propagates admission, routing, and protocol errors
/// ([`crate::ServiceError`]); the epoch's ledger charge happened at
/// planning time, so a failed drive wastes budget but never corrupts
/// the ledger's accounting.
pub fn drive_epoch(
    registry: &ServiceRegistry,
    plan: &EpochPlan,
    frame_reports: usize,
    crash_after_round: Option<u32>,
) -> Result<Extraction> {
    let session = plan.session()?;
    let mut clients = plan.clients(&session);
    let mut id = registry.admit(session)?;
    let mut rounds = 0u32;
    loop {
        match registry.begin_round(id)? {
            None => return registry.finish(id),
            Some(spec) => {
                let generation = registry.session_generation(id)?;
                let mut entries: Vec<(usize, Report)> = Vec::new();
                for client in clients.iter_mut() {
                    if let Some(report) = client.answer(&spec)? {
                        entries.push((client.user_id(), report));
                    }
                }
                for chunk in entries.chunks(frame_reports.max(1)) {
                    registry.route_frame(&route_frame(id, generation, &seal_frame(chunk)))?;
                }
                registry.close_round(id)?;
                rounds += 1;
                if crash_after_round == Some(rounds) {
                    let snapshot = registry.snapshot_session(id)?;
                    registry.evict_session(id);
                    id = registry.restore_session(&snapshot)?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ServiceConfig;
    use crate::tests::{drive_serial, series};
    use privshape_ldp::Epsilon;
    use privshape_protocol::{ContinualConfig, ContinualDriver, PrivShapeConfig};
    use privshape_timeseries::SaxParams;

    fn driver() -> ContinualDriver {
        let mut base =
            PrivShapeConfig::new(Epsilon::new(4.0).unwrap(), 2, SaxParams::new(5, 3).unwrap());
        base.length_range = (1, 6);
        base.seed = 23;
        ContinualDriver::new(ContinualConfig {
            base,
            window_epochs: 2,
            sampling_rate: 0.6,
            total_budget: Epsilon::new(50.0).unwrap(),
            min_epoch_users: 50,
        })
        .unwrap()
    }

    #[test]
    fn service_epochs_match_serial_twins_even_across_a_crash() {
        let mut d = driver();
        let registry = ServiceRegistry::new(ServiceConfig::default());
        for round in 0..3 {
            d.observe(series(300));
            let plan = d.begin_epoch().unwrap();
            let session = plan.session().unwrap();
            let mut clients = plan.clients(&session);
            let serial = drive_serial(session, &mut clients);
            // Crash after a different round each epoch (None, 1, 2).
            let crash = (round > 0).then_some(round);
            let routed = drive_epoch(&registry, &plan, 16, crash).unwrap();
            assert_eq!(routed.shapes, serial.shapes);
            assert_eq!(routed.shapes[0].shape.to_string(), "ac");
        }
        assert_eq!(registry.active_sessions(), 0);
    }
}
