//! The supervised measurement tap: a detached-thread engine wired to
//! the aggregator push protocol.
//!
//! [`SupervisedTap`] owns a [`caesar::ThreadedCaesar`] — the online
//! runtime whose shard workers are real OS threads under heartbeat
//! supervision — and keeps the aggregator's cluster view current with
//! the cheapest correct push each time [`SupervisedTap::sync`] runs:
//!
//! * the first sync is a **full push** ([`SketchPayload`], O(nonzero
//!   counters) on the wire) — the aggregator has never seen this tap;
//! * every later sync diffs the engine's export against the last
//!   state the aggregator acked and pushes the **delta**
//!   ([`SketchDelta`], O(changed counters));
//! * an idle epoch (empty delta) pushes **nothing**;
//! * a [`DeltaPush::Stale`] NACK — the view epoch moved under the tap,
//!   typically because a sibling tap pushed — recovers with
//!   [`MeasurementClient::resync_after_nack`], which re-pushes the
//!   refused delta's **increment only**. Mass the aggregator already
//!   acked is never re-sent, so no NACK/resync interleaving can
//!   double-count a packet. A lost *ack* can: see
//!   [`SupervisedTap::sync`] for that at-least-once limit.
//!
//! The tap survives what its engine survives: a worker thread that
//! hangs or panics between syncs is failed over by the engine's
//! heartbeat monitor, and the next sync simply ships whatever mass the
//! failover salvaged — the push protocol never sees the fault, only
//! the (exactly accounted) counters. [`SupervisedTap::health`]
//! surfaces the engine's fault ledger so operators can tell a clean
//! tap from one running on respawned workers.

use caesar::{SketchDelta, SketchPayload, ThreadedCaesar};

use crate::client::{DeltaPush, MeasurementClient, PushReceipt, ServiceError, Transport};

/// What one [`SupervisedTap::sync`] did on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOutcome {
    /// First contact: the full sketch was pushed.
    Full(PushReceipt),
    /// The increment since the last ack was pushed as a delta.
    Delta(PushReceipt),
    /// The delta NACKed stale and the increment was re-pushed as a
    /// full frame via [`MeasurementClient::resync_after_nack`].
    Resynced(PushReceipt),
    /// Nothing changed since the last ack; nothing was sent.
    Skipped,
}

impl SyncOutcome {
    /// The server receipt, when a push happened.
    pub fn receipt(&self) -> Option<PushReceipt> {
        match self {
            SyncOutcome::Full(r) | SyncOutcome::Delta(r) | SyncOutcome::Resynced(r) => {
                Some(*r)
            }
            SyncOutcome::Skipped => None,
        }
    }
}

/// A tap's supervision ledger: how much fault history its engine has
/// accumulated, summed across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapHealth {
    /// Worker panics absorbed by in-place respawn.
    pub panics: u64,
    /// Heartbeat failovers (hung workers replaced on fresh rings).
    pub failovers: u64,
    /// Units quarantined across all faults — mass the engine could
    /// not attribute and excluded from its counters.
    pub quarantined: u64,
    /// `true` when every fault's loss accounting is exact (no fault,
    /// or every salvage completed with the worker cell reachable).
    pub exact: bool,
}

impl TapHealth {
    /// `true` when no worker has faulted since the engine started.
    pub fn is_clean(&self) -> bool {
        self.panics == 0 && self.failovers == 0
    }
}

/// A detached-thread measurement engine plus the push-protocol state
/// needed to keep one aggregator's view of it current. See the module
/// docs for the sync strategy.
pub struct SupervisedTap {
    engine: ThreadedCaesar,
    /// The engine export most recently acked by the aggregator — the
    /// diff base for the next delta. `None` until the first sync.
    last_acked: Option<SketchPayload>,
    /// The aggregator view epoch that ack reported.
    acked_epoch: u64,
}

impl SupervisedTap {
    /// Wrap a threaded engine. The engine may already carry traffic;
    /// the first [`SupervisedTap::sync`] ships everything it has seen.
    pub fn new(engine: ThreadedCaesar) -> Self {
        Self { engine, last_acked: None, acked_epoch: 0 }
    }

    /// Offer one packet to the engine.
    pub fn offer(&mut self, flow: u64) {
        self.engine.offer(flow);
    }

    /// Offer a batch of packets to the engine.
    pub fn offer_batch(&mut self, flows: &[u64]) {
        self.engine.offer_batch(flows);
    }

    /// The wrapped engine, for queries and stats.
    pub fn engine(&self) -> &ThreadedCaesar {
        &self.engine
    }

    /// Unwrap the engine, abandoning the push-protocol state.
    pub fn into_engine(self) -> ThreadedCaesar {
        self.engine
    }

    /// The aggregator view epoch of the most recent ack (0 before the
    /// first sync).
    pub fn acked_epoch(&self) -> u64 {
        self.acked_epoch
    }

    /// Sum the engine's fault ledger across shards.
    pub fn health(&self) -> TapHealth {
        let stats = self.engine.stats();
        let mut panics = 0;
        let mut failovers = 0;
        let mut exact = true;
        for shard in 0..self.engine.shards() {
            let log = self.engine.fault_log(shard);
            panics += log.panics() as u64;
            failovers += log.failovers() as u64;
            exact &= log.is_exact();
        }
        TapHealth { panics, failovers, quarantined: stats.quarantined, exact }
    }

    /// Drain the engine (merge all in-flight mass into its SRAM) and
    /// push whatever changed since the aggregator's last ack, choosing
    /// the cheapest correct frame — see the module docs. Returns what
    /// happened on the wire.
    ///
    /// On any transport error the diff base is left untouched, so the
    /// next sync re-diffs against the last state this tap saw acked
    /// and re-sends the increment. That is exact when the push never
    /// reached the aggregator, but **at-least-once** when only the ack
    /// was lost: the server applies a push before it writes the reply,
    /// so the re-sent delta names a base epoch the view has left, is
    /// NACKed, and [`MeasurementClient::resync_after_nack`] applies
    /// the increment a second time. The protocol carries nothing that
    /// would let the server recognise the repeat.
    pub fn sync<T: Transport>(
        &mut self,
        client: &mut MeasurementClient<T>,
    ) -> Result<SyncOutcome, ServiceError> {
        self.engine.merge_now();
        let cur = self.engine.export_sketch();
        let Some(prev) = &self.last_acked else {
            let receipt = client.push_sketch(&cur)?;
            self.acked_epoch = receipt.epoch;
            self.last_acked = Some(cur);
            return Ok(SyncOutcome::Full(receipt));
        };
        let delta = SketchDelta::between(prev, &cur, self.acked_epoch)
            .map_err(ServiceError::Incompatible)?;
        if delta.is_empty() {
            return Ok(SyncOutcome::Skipped);
        }
        let outcome = match client.push_delta(&delta)? {
            DeltaPush::Accepted(receipt) => SyncOutcome::Delta(receipt),
            DeltaPush::Stale { .. } => {
                SyncOutcome::Resynced(client.resync_after_nack(&delta)?)
            }
        };
        let receipt = outcome.receipt().expect("push outcomes carry a receipt");
        self.acked_epoch = receipt.epoch;
        self.last_acked = Some(cur);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::InProcess;
    use crate::server::MeasurementService;
    use caesar::{CaesarConfig, ConcurrentCaesar, SketchFingerprint};
    use support::testkit::{FaultEvent, FaultInjector, FaultSite};

    fn cfg() -> CaesarConfig {
        CaesarConfig {
            cache_entries: 64,
            entry_capacity: 8,
            counters: 1024,
            k: 3,
            ..CaesarConfig::default()
        }
    }

    fn flows(n: u64, salt: u64) -> Vec<u64> {
        (0..n)
            .map(|i| (i % 61).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt))
            .collect()
    }

    #[test]
    fn tap_syncs_full_then_delta_then_skips_idle() {
        let svc = MeasurementService::new(cfg());
        let fp = SketchFingerprint::of(&cfg());
        let mut client = MeasurementClient::connect(InProcess::new(&svc), &fp).unwrap();
        let mut tap = SupervisedTap::new(ThreadedCaesar::new(cfg(), 2));

        tap.offer_batch(&flows(3_000, 1));
        let first = tap.sync(&mut client).unwrap();
        assert!(matches!(first, SyncOutcome::Full(_)));
        assert_eq!(tap.acked_epoch(), 1);

        tap.offer_batch(&flows(1_000, 2));
        let second = tap.sync(&mut client).unwrap();
        let receipt = match second {
            SyncOutcome::Delta(r) => r,
            other => panic!("second sync must ship a delta, got {other:?}"),
        };
        assert_eq!(receipt.epoch, 2);

        // Nothing new → nothing on the wire, base epoch unchanged.
        assert_eq!(tap.sync(&mut client).unwrap(), SyncOutcome::Skipped);
        assert_eq!(tap.acked_epoch(), 2);

        // The aggregator's view equals the engine's own state.
        let engine = tap.into_engine();
        svc.with_view(|sketch, _| {
            assert_eq!(sketch.sram().snapshot(), engine.sram().snapshot());
            assert_eq!(sketch.sram().total_added(), engine.sram().total_added());
        });
    }

    #[test]
    fn stale_delta_resyncs_without_double_counting() {
        let svc = MeasurementService::new(cfg());
        let fp = SketchFingerprint::of(&cfg());
        let mut client = MeasurementClient::connect(InProcess::new(&svc), &fp).unwrap();
        let mut tap = SupervisedTap::new(ThreadedCaesar::new(cfg(), 2));

        tap.offer_batch(&flows(2_000, 1));
        tap.sync(&mut client).unwrap();

        // A rival tap moves the view epoch between our syncs.
        let rival = ConcurrentCaesar::build(cfg(), 1, &flows(500, 9));
        MeasurementClient::connect(InProcess::new(&svc), &fp)
            .unwrap()
            .push_sketch(&rival.export_sketch())
            .unwrap();

        tap.offer_batch(&flows(1_500, 2));
        let outcome = tap.sync(&mut client).unwrap();
        assert!(
            matches!(outcome, SyncOutcome::Resynced(_)),
            "stale base must resync, got {outcome:?}"
        );

        // Exactly-once: the view equals engine + rival, no acked mass
        // pushed twice.
        let engine = tap.into_engine();
        let mut reference = ConcurrentCaesar::empty(cfg());
        reference
            .merge_sketch(&engine.export_sketch())
            .and_then(|()| reference.merge(&rival))
            .unwrap();
        svc.with_view(|sketch, _| {
            assert_eq!(sketch.sram().snapshot(), reference.sram().snapshot());
            assert_eq!(sketch.sram().total_added(), reference.sram().total_added());
        });
    }

    #[test]
    fn tap_survives_a_worker_panic_between_syncs() {
        let svc = MeasurementService::new(cfg());
        let fp = SketchFingerprint::of(&cfg());
        let mut client = MeasurementClient::connect(InProcess::new(&svc), &fp).unwrap();
        let engine = ThreadedCaesar::new(cfg(), 2).with_injector(FaultInjector::with_events(
            vec![FaultEvent { site: FaultSite::WorkerPanic, shard: 1, at_tick: 2 }],
        ));
        let mut tap = SupervisedTap::new(engine);

        tap.offer_batch(&flows(2_000, 1));
        tap.sync(&mut client).unwrap();
        tap.offer_batch(&flows(2_000, 2));
        tap.sync(&mut client).unwrap();

        let health = tap.health();
        assert!(!health.is_clean(), "the injected panic must be on the ledger");
        assert_eq!(health.panics, 1);
        assert!(health.exact, "panic respawn accounts its loss exactly");

        // Whatever the engine recorded is exactly what the view holds.
        let engine = tap.into_engine();
        svc.with_view(|sketch, _| {
            assert_eq!(sketch.sram().snapshot(), engine.sram().snapshot());
            assert_eq!(sketch.sram().total_added(), engine.sram().total_added());
        });
    }
}
