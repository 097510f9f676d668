//! Oracle property for the supervised tap's O(changed) sync: every
//! delta [`SupervisedTap::sync`] puts on the wire must equal, bit for
//! bit, the O(L) diff [`SketchDelta::between`] computes from two full
//! exports — the last acked one and the one right after the sync.
//!
//! The property drives random geometries (`L` not a multiple of 64,
//! so the tail block is short), narrow counters that pin at the clamp,
//! idle epochs, NACK resyncs after a rival push, and a transport that
//! fails once — whose increment must ship on the next sync, nothing
//! lost, nothing counted twice.

use std::cell::RefCell;
use std::rc::Rc;

use caesar::{CaesarConfig, ConcurrentCaesar, SketchDelta, SketchPayload, ThreadedCaesar};
use service::{
    InProcess, MeasurementClient, MeasurementService, ProtoError, Request, Response, ServiceError,
    SupervisedTap, SyncOutcome, Transport,
};
use support::rand::{rngs::StdRng, Rng};
use support::testkit::{for_each_seed_n, GenExt};

/// Each case spawns a threaded engine (worker and monitor threads), so
/// the property runs fewer cases than a pure unit property.
const CASES: u32 = 24;

/// What the tap's client sent, decoded, plus a one-shot failure switch.
#[derive(Default)]
struct Wire {
    sent: Vec<Request>,
    fail_next: bool,
}

/// An in-process transport that records every request and can refuse
/// one before it reaches the service (nothing is applied).
struct Recorder<'a> {
    inner: InProcess<'a>,
    wire: Rc<RefCell<Wire>>,
}

impl Transport for Recorder<'_> {
    fn round_trip(&mut self, request: Vec<u8>) -> Result<Response, ServiceError> {
        let mut wire = self.wire.borrow_mut();
        wire.sent
            .push(Request::decode(&request).expect("client frames decode"));
        if std::mem::take(&mut wire.fail_next) {
            return Err(ServiceError::Proto(ProtoError::Io(
                "injected link failure".into(),
            )));
        }
        drop(wire);
        self.inner.round_trip(request)
    }
}

fn random_cfg(rng: &mut StdRng) -> CaesarConfig {
    // Random L, mostly not a multiple of 64: the last block is short.
    let counters = rng.gen_range(64usize..2_000);
    CaesarConfig {
        cache_entries: rng.gen_range(1usize..64),
        entry_capacity: rng.gen_range(2u64..40),
        counters,
        k: rng.gen_range(1usize..5).min(counters),
        // 4- and 6-bit counters clamp at 15 / 63 within a few epochs.
        counter_bits: rng.pick(&[4u32, 6, 16]),
        seed: rng.gen(),
        ..CaesarConfig::default()
    }
}

/// Spread a small flow id over the 64-bit key space.
fn flow_key(id: u64) -> u64 {
    (id + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

fn burst(rng: &mut StdRng) -> Vec<u64> {
    let population = rng.gen_range(1u64..80);
    rng.vec_with(0..1_500, |r| flow_key(r.gen_range(0..population)))
}

#[test]
fn every_sync_delta_equals_the_export_diff_oracle() {
    // Path coverage summed over all cases: [delta, skip, resync,
    // failure, clamp-saturated sketch].
    let mut seen = [0u32; 5];
    for_each_seed_n(CASES, |rng| {
        let cfg = random_cfg(rng);
        let shards = rng.gen_range(1usize..3);
        let svc = MeasurementService::new(cfg);
        let fp = svc.fingerprint();
        let wire = Rc::new(RefCell::new(Wire::default()));
        let transport = Recorder {
            inner: InProcess::new(&svc),
            wire: Rc::clone(&wire),
        };
        let mut client = MeasurementClient::connect(transport, &fp).unwrap();
        let mut rivals = MeasurementClient::connect(InProcess::new(&svc), &fp).unwrap();
        let mut tap = SupervisedTap::new(ThreadedCaesar::new(cfg, shards));

        // The oracle's own diff base: the export the aggregator acked.
        let mut acked: Option<(SketchPayload, u64)> = None;
        let mut rival_sketches = Vec::new();
        // A rival push since the last ack makes the next delta stale.
        let mut stale = false;
        for _ in 0..10 {
            if rng.gen_bool(0.75) {
                tap.offer_batch(&burst(rng));
            }
            let rival = rng.gen_bool(0.2);
            if rival {
                let sketch = ConcurrentCaesar::build(cfg, 1, &burst(rng)).export_sketch();
                rivals.push_sketch(&sketch).unwrap();
                rival_sketches.push(sketch);
                stale = true;
            }
            let fail = acked.is_some() && rng.gen_bool(0.2);
            wire.borrow_mut().fail_next = fail;
            wire.borrow_mut().sent.clear();

            let result = tap.sync(&mut client);
            let after = tap.engine().export_sketch();
            let sent = std::mem::take(&mut wire.borrow_mut().sent);
            let Some((prev, epoch)) = &acked else {
                assert!(matches!(result, Ok(SyncOutcome::Full(_))), "{result:?}");
                assert_eq!(sent, vec![Request::PushSketch(after.clone())]);
                acked = Some((after, tap.acked_epoch()));
                stale = false;
                continue;
            };
            let oracle = SketchDelta::between(prev, &after, *epoch).unwrap();
            if oracle.is_empty() {
                assert!(matches!(result, Ok(SyncOutcome::Skipped)), "{result:?}");
                assert!(sent.is_empty(), "an idle epoch sends nothing");
                seen[1] += 1;
                continue;
            }
            assert_eq!(
                sent.first(),
                Some(&Request::PushDelta(oracle.clone())),
                "O(changed) delta differs from the export diff: {cfg:?} shards={shards}"
            );
            match result {
                Err(ServiceError::Proto(ProtoError::Io(_))) => {
                    assert!(fail);
                    assert_eq!(tap.acked_epoch(), *epoch, "a failed sync acks nothing");
                    seen[3] += 1;
                    continue; // the oracle's base stays put too
                }
                Ok(SyncOutcome::Delta(_)) => {
                    assert!(!stale && !fail);
                    seen[0] += 1;
                }
                Ok(SyncOutcome::Resynced(_)) => {
                    assert!(stale && !fail);
                    assert_eq!(sent[1], Request::PushSketch(oracle.to_increment_payload()));
                    seen[2] += 1;
                }
                other => panic!("unexpected sync outcome {other:?}"),
            }
            assert_eq!(sent.len(), if stale { 2 } else { 1 });
            acked = Some((after, tap.acked_epoch()));
            stale = false;
        }

        // Ship whatever a trailing failure left behind, then audit the
        // view: the tap's mass exactly once, plus every rival's.
        tap.sync(&mut client).unwrap();
        let engine = tap.into_engine();
        let mut reference = ConcurrentCaesar::empty(cfg);
        reference.merge_sketch(&engine.export_sketch()).unwrap();
        for sketch in &rival_sketches {
            reference.merge_sketch(sketch).unwrap();
        }
        svc.with_view(|view, _| {
            assert_eq!(view.sram().snapshot(), reference.sram().snapshot());
            assert_eq!(view.sram().total_added(), reference.sram().total_added());
            assert_eq!(view.evictions(), reference.evictions());
        });
        seen[4] += u32::from(engine.sram().saturations() > 0);
    });
    if std::env::var_os("CAESAR_TEST_SEED").is_none() {
        assert!(
            seen.iter().all(|&n| n > 0),
            "[delta, skip, resync, failure, clamp]: {seen:?}"
        );
    }
}

/// A deterministic instance of the failed-sync path: the increment of
/// the sync that failed ships whole on the next one, against the last
/// acked base.
#[test]
fn failed_sync_increment_ships_exactly_once_on_the_next_sync() {
    let cfg = CaesarConfig {
        cache_entries: 16,
        entry_capacity: 8,
        counters: 64 * 7 + 13,
        k: 3,
        counter_bits: 6,
        ..CaesarConfig::default()
    };
    let svc = MeasurementService::new(cfg);
    let fp = svc.fingerprint();
    let wire = Rc::new(RefCell::new(Wire::default()));
    let transport = Recorder {
        inner: InProcess::new(&svc),
        wire: Rc::clone(&wire),
    };
    let mut client = MeasurementClient::connect(transport, &fp).unwrap();
    let mut tap = SupervisedTap::new(ThreadedCaesar::new(cfg, 2));
    let flows =
        |salt: u64| -> Vec<u64> { (0..2_000u64).map(|i| flow_key(i % 37 + salt)).collect() };

    tap.offer_batch(&flows(0));
    assert!(matches!(tap.sync(&mut client), Ok(SyncOutcome::Full(_))));
    let base = tap.engine().export_sketch();

    tap.offer_batch(&flows(100));
    wire.borrow_mut().fail_next = true;
    assert!(tap.sync(&mut client).is_err());
    assert_eq!(tap.acked_epoch(), 1);

    // Nothing new offered: the next sync still owes the failed
    // increment, and ships it as one delta against the acked base.
    wire.borrow_mut().sent.clear();
    assert!(matches!(tap.sync(&mut client), Ok(SyncOutcome::Delta(_))));
    let after = tap.engine().export_sketch();
    let oracle = SketchDelta::between(&base, &after, 1).unwrap();
    assert!(!oracle.is_empty());
    assert_eq!(wire.borrow().sent, vec![Request::PushDelta(oracle)]);
    assert_eq!(tap.sync(&mut client).unwrap(), SyncOutcome::Skipped);
    svc.with_view(|view, epoch| {
        assert_eq!(epoch, 2);
        assert_eq!(view.sram().snapshot(), after.counters);
        assert_eq!(view.sram().total_added(), after.total_added);
    });
}
