//! The SRAM dirty bitmap has two independent consumers on one threaded
//! engine: delta checkpoints (`snapshot` / `checkpoint_delta`) and the
//! supervised tap's O(changed) collector sync. Interleaved in any
//! order, neither may starve the other of a changed block:
//!
//! * the checkpoint chain must still replay (`restore_chain`) to the
//!   engine's exact bytes, although tap syncs drained the bitmap
//!   between its links;
//! * the collector view must still equal the engine's SRAM, although
//!   snapshots and delta checkpoints drained it between syncs.

use std::time::Duration;

use cachesim::CachePolicy;
use caesar::{CaesarConfig, ThreadedCaesar};
use service::{InProcess, MeasurementClient, MeasurementService, SupervisedTap};
use support::rand::{rngs::StdRng, Rng};
use support::testkit::{for_each_seed_n, GenExt};

/// Each case runs a live threaded engine through a dozen syncs and
/// checkpoints.
const CASES: u32 = 16;

/// Long enough that the heartbeat monitor never fires on a starved
/// host: these runs are fault-free.
const QUIET: Duration = Duration::from_secs(5);

fn random_cfg(rng: &mut StdRng) -> CaesarConfig {
    let counters = rng.gen_range(64usize..3_000);
    CaesarConfig {
        cache_entries: rng.gen_range(1usize..120),
        entry_capacity: rng.gen_range(2u64..40),
        policy: rng.pick(&[CachePolicy::Lru, CachePolicy::Random, CachePolicy::Fifo]),
        counters,
        k: rng.gen_range(1usize..6).min(counters),
        counter_bits: rng.pick(&[6u32, 16, 32]),
        seed: rng.gen(),
        ..CaesarConfig::default()
    }
}

fn burst(rng: &mut StdRng) -> Vec<u64> {
    let population = rng.gen_range(1u64..200);
    rng.vec_with(0..1_200, |r| {
        hashkit::mix::mix64(r.gen_range(0..population))
    })
}

#[test]
fn checkpoint_chain_and_tap_syncs_interleave_on_one_engine() {
    for_each_seed_n(CASES, |rng| {
        let cfg = random_cfg(rng);
        let shards = rng.gen_range(1usize..3);
        let svc = MeasurementService::new(cfg);
        let mut client = MeasurementClient::connect(InProcess::new(&svc), &svc.fingerprint())
            .expect("handshake");
        let engine = ThreadedCaesar::new(cfg, shards).with_heartbeat_interval(QUIET);
        let mut tap = SupervisedTap::new(engine);

        tap.offer_batch(&burst(rng));
        let mut base = tap.engine_mut().snapshot();
        let mut deltas: Vec<Vec<u8>> = Vec::new();
        for _ in 0..12 {
            tap.offer_batch(&burst(rng));
            // Any order of the two consumers within and across steps.
            match rng.gen_range(0..5) {
                0 => {
                    tap.sync(&mut client).expect("sync");
                }
                1 => deltas.push(tap.engine_mut().checkpoint_delta().expect("anchored")),
                2 => {
                    tap.sync(&mut client).expect("sync");
                    deltas.push(tap.engine_mut().checkpoint_delta().expect("anchored"));
                }
                3 => {
                    deltas.push(tap.engine_mut().checkpoint_delta().expect("anchored"));
                    tap.sync(&mut client).expect("sync");
                }
                _ => {
                    // Re-anchor the chain mid-run.
                    base = tap.engine_mut().snapshot();
                    deltas.clear();
                }
            }
        }
        tap.sync(&mut client).expect("final sync");
        deltas.push(tap.engine_mut().checkpoint_delta().expect("anchored"));

        let mut revived = ThreadedCaesar::restore_chain(&base, &deltas).expect("chain restores");
        let engine = tap.engine_mut();
        assert_eq!(
            revived.snapshot(),
            engine.snapshot(),
            "chain replay diverged from the engine: {cfg:?} shards={shards}"
        );
        svc.with_view(|view, _| {
            assert_eq!(
                view.sram().snapshot(),
                engine.sram().snapshot(),
                "collector view diverged from the engine: {cfg:?} shards={shards}"
            );
            assert_eq!(view.sram().total_added(), engine.sram().total_added());
        });
    });
}
