//! Single-layer reference runs of the traced run: each layer driven
//! alone, through its public calls, on the workload's own stream and
//! geometry. The single-core rows (`caesar.pipeline`, `caesar.online`)
//! are the baseline every parallel-path number is read against.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cachesim::{CacheConfig, CacheTable};
use caesar::{Caesar, CaesarConfig, OnlineCaesar};
use hashkit::KCounterMap;
use memsim::{AccessCosts, CostTally};

use crate::workload::spawn_engine;
use crate::{median, Metrics};

/// Repetitions of every reference run; each row reports the median.
const REPS: usize = 3;

fn ns_per(d: Duration, n: usize) -> f64 {
    d.as_nanos() as f64 / n.max(1) as f64
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `warm` is ingested before the anchor snapshot of the pump's delta
/// chain; each of `epochs` then ends with a merge and a
/// `checkpoint_delta`. The whole stream is `warm ++ epochs`. Returns
/// the 1-shard engine teardown times (ms), which the caller pools with
/// its own.
pub fn run(cfg: CaesarConfig, warm: &[&[u64]], epochs: &[&[u64]], out: &mut Metrics) -> Vec<f64> {
    let stream: Vec<u64> = warm
        .iter()
        .chain(epochs)
        .flat_map(|c| c.iter().copied())
        .collect();
    let n = stream.len();

    // hashkit: k counter indices per packet's flow, in ring-drain
    // sized batches.
    let kmap = KCounterMap::new(cfg.k, cfg.counters, cfg.seed);
    let mut idx = vec![0usize; 1024 * cfg.k];
    let fill: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for chunk in stream.chunks(1024) {
                kmap.fill_indices_batch(black_box(chunk), &mut idx[..chunk.len() * cfg.k]);
                black_box(&idx);
            }
            ns_per(t.elapsed(), n)
        })
        .collect();
    out.put(
        "hashkit.kmap.fill_ns_per_flow",
        median(&fill),
        "ns/flow",
        REPS,
    );

    // cachesim: the on-chip cache alone.
    let mut cache_stats = None;
    let record: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut cache = CacheTable::new(CacheConfig {
                entries: cfg.cache_entries,
                entry_capacity: cfg.entry_capacity,
                policy: cfg.policy,
                seed: cfg.seed,
            });
            let t = Instant::now();
            for &flow in &stream {
                black_box(cache.record(flow));
            }
            let d = t.elapsed();
            cache_stats = Some(cache.stats());
            ns_per(d, n)
        })
        .collect();
    let cs = cache_stats.expect("REPS > 0");
    out.put(
        "cachesim.record_ns_per_pkt",
        median(&record),
        "ns/pkt",
        REPS,
    );
    out.put("cachesim.hit_ratio", cs.hit_rate(), "ratio", 1);
    let evictions = cs.overflow_evictions + cs.replacement_evictions;
    out.put(
        "cachesim.evictions_per_kpkt",
        evictions as f64 * 1e3 / n as f64,
        "count/kpkt",
        1,
    );

    // caesar.pipeline: the single-core reference ingest.
    let mut pipeline_stats = None;
    let batch: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut sketch = Caesar::new(cfg);
            let t = Instant::now();
            sketch.record_batch(black_box(&stream));
            let d = t.elapsed();
            pipeline_stats = Some(sketch.stats());
            ns_per(d, n)
        })
        .collect();
    let ps = pipeline_stats.expect("REPS > 0");
    out.put(
        "caesar.pipeline.record_batch_ns_per_pkt",
        median(&batch),
        "ns/pkt",
        REPS,
    );
    out.put(
        "caesar.pipeline.sram_writes_per_pkt",
        ps.sram_writes as f64 / n as f64,
        "count/pkt",
        1,
    );

    // memsim: the Fig. 8 cost model fed the measured counts.
    let modeled = CostTally::caesar(n as u64, ps.evictions, cfg.k as u64, ps.sram_writes)
        .total_ns(&AccessCosts::default());
    out.put("memsim.modeled_ns_per_pkt", modeled / n as f64, "ns/pkt", 1);

    // caesar.online: the deterministic single-owner pump, one shard.
    let (mut offer, mut ckpt_us, mut ckpt_bytes) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let mut pump = OnlineCaesar::new(cfg, 1);
        let mut offer_time = Duration::ZERO;
        for (i, chunk) in warm.iter().chain(epochs).enumerate() {
            let t = Instant::now();
            pump.offer_batch(black_box(chunk));
            offer_time += t.elapsed();
            pump.merge_now();
            if i + 1 == warm.len() {
                black_box(pump.snapshot());
            } else if i >= warm.len() {
                let t = Instant::now();
                let delta = pump
                    .checkpoint_delta()
                    .expect("chain anchored by the snapshot");
                ckpt_us.push(t.elapsed().as_secs_f64() * 1e6);
                ckpt_bytes.push(delta.len() as f64);
            }
        }
        offer.push(ns_per(offer_time, n));
    }
    out.put(
        "caesar.online.offer_batch_ns_per_pkt",
        median(&offer),
        "ns/pkt",
        REPS,
    );
    out.put(
        "caesar.online.checkpoint_delta_us",
        median(&ckpt_us),
        "us",
        ckpt_us.len(),
    );
    out.put(
        "caesar.online.checkpoint_delta_bytes",
        median(&ckpt_bytes),
        "B",
        ckpt_bytes.len(),
    );

    // caesar.threaded: lifecycle rows and the 2-shard / 1-shard ratio
    // of offer + drain time per packet.
    let (mut spawn, mut finish) = (Vec::new(), Vec::new());
    let mut per_pkt = [Vec::new(), Vec::new()];
    for _ in 0..REPS {
        for (slot, shards) in [1usize, 2].into_iter().enumerate() {
            let t = Instant::now();
            let mut engine = spawn_engine(cfg, shards, true);
            if shards == 1 {
                spawn.push(ms(t.elapsed()));
            }
            let t = Instant::now();
            engine.offer_batch(black_box(&stream));
            engine.merge_now();
            per_pkt[slot].push(ns_per(t.elapsed(), n));
            let t = Instant::now();
            black_box(engine.finish());
            if shards == 1 {
                finish.push(ms(t.elapsed()));
            }
        }
    }
    out.put(
        "caesar.threaded.spawn_ms",
        median(&spawn),
        "ms",
        spawn.len(),
    );
    out.put(
        "caesar.threaded.s2_over_s1",
        median(&per_pkt[1]) / median(&per_pkt[0]),
        "ratio",
        REPS,
    );
    finish
}
