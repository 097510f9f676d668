//! The supervised measurement tap: a detached-thread engine wired to
//! the aggregator push protocol.
//!
//! [`SupervisedTap`] owns a [`caesar::ThreadedCaesar`] — the online
//! runtime whose shard workers are real OS threads under heartbeat
//! supervision — and keeps the aggregator's cluster view current with
//! the cheapest correct push each time [`SupervisedTap::sync`] runs:
//!
//! * the first sync is a **full push** ([`caesar::SketchPayload`],
//!   O(L) on the wire) — the aggregator has never seen this tap;
//! * every later sync pushes the **delta** ([`SketchDelta`]) since
//!   the last state the aggregator acked, built in O(changed blocks)
//!   (see below);
//! * an idle epoch (empty delta) pushes **nothing**;
//! * a [`DeltaPush::Stale`] NACK — the view epoch moved under the tap,
//!   typically because a sibling tap pushed — recovers with
//!   [`MeasurementClient::resync_after_nack`], which re-pushes the
//!   refused delta's **increment only**. Mass the aggregator already
//!   acked is never re-sent, so no NACK/resync interleaving can
//!   double-count a packet.
//!
//! # O(changed) sync
//!
//! CAESAR's off-chip counters move only on cache evictions, so between
//! two syncs only a few 64-counter blocks of SRAM change. A sync
//! therefore never copies or scans all `L` counters. Right after
//! [`ThreadedCaesar::merge_now`] has every lane's flush acknowledged,
//! it drains the SRAM dirty bitmap's push consumer
//! ([`ThreadedCaesar::take_push_dirty_blocks`]) — the blocks written
//! since the last push drain, independent of any snapshot or
//! `checkpoint_delta` drains in between. It reads only those blocks
//! and diffs them against the tap's **shadow**: its own copy of the
//! counters the aggregator acked, plus the acked tallies. A dirty
//! block whose counters all equal the shadow (every write hit a
//! clamped counter) is dropped, so the delta equals
//! [`SketchDelta::between`] of two full exports bit for bit — that
//! O(L) diff stays as the oracle the tests compare against.
//!
//! The diff and the shadow advance are one pass (each changed counter
//! is read once and its shadow word written once). If the push fails
//! on the wire, the advance is rolled back and the unacked blocks are
//! handed back to the push consumer before `sync` returns, so the
//! shadow only ever keeps a state the aggregator acked and the next
//! sync re-carries the unshipped increment.
//!
//! The tap survives what its engine survives: a worker thread that
//! hangs or panics between syncs is failed over by the engine's
//! heartbeat monitor, and the next sync simply ships whatever mass the
//! failover salvaged — the push protocol never sees the fault, only
//! the (exactly accounted) counters. [`SupervisedTap::health`]
//! surfaces the engine's fault ledger so operators can tell a clean
//! tap from one running on respawned workers.

use caesar::{
    AtomicCounterArray, DirtyConsumer, SketchDelta, SketchFingerprint, ThreadedCaesar,
    DIRTY_BLOCK_COUNTERS,
};

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

/// The aggregator's last acked state of this tap: the diff base of
/// the next delta.
struct Acked {
    /// Shadow of the acked counters, all `L` of them.
    counters: Vec<u64>,
    total_added: u64,
    saturation_events: u64,
    evictions: u64,
    /// The aggregator view epoch the ack reported.
    epoch: u64,
}

/// A detached-thread measurement engine plus the push-protocol state
/// needed to keep one aggregator's view of it current. See the module
/// docs for the sync strategy.
pub struct SupervisedTap {
    engine: ThreadedCaesar,
    /// `None` until the first sync is acked.
    acked: Option<Acked>,
}

impl SupervisedTap {
    /// Wrap a threaded engine. The engine may already carry traffic;
    /// the first [`SupervisedTap::sync`] ships everything it has seen.
    pub fn new(engine: ThreadedCaesar) -> Self {
        Self { engine, acked: None }
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

    /// The wrapped engine, mutably (epoch rotation, fault injection in
    /// tests).
    pub fn engine_mut(&mut self) -> &mut ThreadedCaesar {
        &mut self.engine
    }

    /// Unwrap the engine, abandoning the push-protocol state.
    pub fn into_engine(self) -> ThreadedCaesar {
        self.engine
    }

    /// The aggregator view epoch of the most recent ack (0 before the
    /// first sync).
    pub fn acked_epoch(&self) -> u64 {
        self.acked.as_ref().map_or(0, |a| a.epoch)
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
    /// On any transport error or refusal the diff base is left as the
    /// last acked state and the unacked blocks are carried into the
    /// next sync, which re-carries the unshipped increment.
    pub fn sync<T: Transport>(
        &mut self,
        client: &mut MeasurementClient<T>,
    ) -> Result<SyncOutcome, ServiceError> {
        self.engine.merge_now();
        let dirty = self.engine.take_push_dirty_blocks();
        let Self { engine, acked } = self;
        let Some(acked) = acked else {
            // First contact ships everything, so the drained blocks
            // carry nothing the full push does not.
            let cur = engine.export_sketch();
            let receipt = client.push_sketch(&cur)?;
            *acked = Some(Acked {
                counters: cur.counters,
                total_added: cur.total_added,
                saturation_events: cur.saturation_events,
                evictions: cur.evictions,
                epoch: receipt.epoch,
            });
            return Ok(SyncOutcome::Full(receipt));
        };
        let sram = engine.sram();
        let delta = SketchDelta {
            fingerprint: SketchFingerprint::of(engine.config()),
            base_epoch: acked.epoch,
            blocks: advance_shadow(sram, &mut acked.counters, &dirty),
            total_added_delta: sram.total_added() - acked.total_added,
            saturation_events_delta: sram.saturations() - acked.saturation_events,
            evictions_delta: engine.evictions() - acked.evictions,
        };
        if delta.is_empty() {
            return Ok(SyncOutcome::Skipped);
        }
        let pushed = match client.push_delta(&delta) {
            Ok(DeltaPush::Accepted(receipt)) => Ok(SyncOutcome::Delta(receipt)),
            Ok(DeltaPush::Stale { .. }) => {
                client.resync_after_nack(&delta).map(SyncOutcome::Resynced)
            }
            Err(e) => Err(e),
        };
        match pushed {
            Ok(outcome) => {
                let receipt = outcome.receipt().expect("push outcomes carry a receipt");
                acked.total_added += delta.total_added_delta;
                acked.saturation_events += delta.saturation_events_delta;
                acked.evictions += delta.evictions_delta;
                acked.epoch = receipt.epoch;
                Ok(outcome)
            }
            Err(e) => {
                // Undo the shadow advance; the next sync re-ships these
                // blocks against the acked state.
                for (block, increments) in &delta.blocks {
                    let start = block * DIRTY_BLOCK_COUNTERS;
                    for (s, inc) in acked.counters[start..].iter_mut().zip(increments) {
                        *s -= inc;
                    }
                }
                let unacked: Vec<usize> = delta.blocks.iter().map(|&(block, _)| block).collect();
                sram.requeue_dirty_blocks(DirtyConsumer::Push, &unacked);
                Err(e)
            }
        }
    }
}

/// Diff the `dirty` blocks of `sram` against `shadow` and advance the
/// shadow to the SRAM in the same pass. Returns the changed blocks with
/// their per-counter increments, ascending — exactly the blocks
/// [`SketchDelta::between`] emits for the same two states, since a
/// counter can only have moved inside a dirty block.
fn advance_shadow(
    sram: &AtomicCounterArray,
    shadow: &mut [u64],
    dirty: &[usize],
) -> Vec<(usize, Vec<u64>)> {
    let mut blocks = Vec::with_capacity(dirty.len());
    for &block in dirty {
        let start = block * DIRTY_BLOCK_COUNTERS;
        let end = (start + DIRTY_BLOCK_COUNTERS).min(shadow.len());
        let mut changed = false;
        let increments: Vec<u64> = shadow[start..end]
            .iter_mut()
            .zip(start..end)
            .map(|(s, idx)| {
                let cur = sram.get(idx);
                let inc = cur.saturating_sub(*s);
                changed |= cur != *s;
                *s = cur;
                inc
            })
            .collect();
        if changed {
            blocks.push((block, increments));
        }
    }
    blocks
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
