//! perfbench — the end-to-end benchmark of the CAESAR deployment path:
//! packets offered to a supervised tap → sketch merged → delta pushed
//! over TCP to a collector → batch queries answered over TCP.
//!
//! ```text
//! perfbench --workload <caida_bulk|collector> --seed <n>
//!           --seconds <s> --trace <0|1> [--scale full|tiny]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! traced variant and prints the per-layer metrics. The last stdout
//! line is one JSON object `{correct, attempted, failed, metrics}`.
//! The exit code is non-zero when any correctness check fails.
//! See README.md for the workloads, the metrics and how to read them.

mod layers;
mod spans;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use caesar::{SketchDelta, SketchPayload, DIRTY_BLOCK_COUNTERS};
use service::{
    DeltaPush, MeasurementClient, MeasurementService, Request, Response, SupervisedTap,
    SyncOutcome, TcpTransport,
};
use support::json::Json;

use spans::Tracer;
use workload::{Inputs, Scale, Stack, Workload, ARE_BOUND, QUERY_FLOWS};

/// Full set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Samples beyond a percentile in each block it is taken over.
const MIN_BEYOND: usize = 10;
/// The collector's open-loop sync period.
const SYNC_PERIOD: Duration = Duration::from_millis(20);

// ---------------------------------------------------------------------
// Statistics and the metric table
// ---------------------------------------------------------------------

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile; NaN on an empty sample.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `q` percentile of `xs` as [`Metrics::put_quantile`] takes it,
/// with the number of blocks it is the median over.
fn block_quantile(xs: &[f64], q: f64) -> (f64, usize) {
    let block = (MIN_BEYOND as f64 / (1.0 - q)).round() as usize;
    let per_block: Vec<f64> = xs.chunks_exact(block).map(|b| quantile(b, q)).collect();
    (median(&per_block), per_block.len())
}

struct Row {
    value: f64,
    unit: &'static str,
    samples: usize,
    /// For a percentile: the blocks it is the median over.
    blocks: Option<usize>,
}

#[derive(Default)]
pub struct Metrics {
    rows: BTreeMap<String, Row>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.rows.insert(
            name.to_string(),
            Row {
                value,
                unit,
                samples,
                blocks: None,
            },
        );
    }

    /// A percentile of `xs`: the median of its values over consecutive
    /// blocks of `MIN_BEYOND / (1 − q)` samples, so that each block's
    /// percentile has `MIN_BEYOND` samples beyond it and one stall of
    /// the host moves one block, not the figure. A partial last block
    /// is left out; a sample without a full block fails the run.
    fn put_quantile(&mut self, name: &str, xs: &[f64], q: f64, unit: &'static str) {
        let (value, blocks) = block_quantile(xs, q);
        self.rows.insert(
            name.to_string(),
            Row {
                value,
                unit,
                samples: xs.len(),
                blocks: Some(blocks),
            },
        );
    }

    fn json(&self) -> Json {
        Json::Obj(
            self.rows
                .iter()
                .map(|(k, r)| {
                    let v =
                        Json::obj([("value", Json::from(r.value)), ("unit", Json::from(r.unit))]);
                    (k.clone(), v)
                })
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------
// Ledger: what was attempted, what failed, which checks tripped
// ---------------------------------------------------------------------

#[derive(Default)]
struct Ledger {
    syncs: u64,
    queries: u64,
    failed_syncs: u64,
    resynced: u64,
    failed_queries: u64,
    failed_checks: Vec<String>,
}

impl Ledger {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: CHECK FAILED: {msg}");
            self.failed_checks.push(msg);
        }
    }
}

/// E2e samples of one stack.
#[derive(Default)]
struct Samples {
    /// Sync latency (collector: from when the sync was due).
    sync_ms: Vec<f64>,
    /// One epoch: first offer → sync ack.
    epoch_ms: Vec<f64>,
    /// Receipt bytes per sync (0 when nothing was pushed).
    wire_bytes: Vec<u64>,
    /// Packets ÷ (first offer → last sync ack), per pass or burst.
    mpps: Vec<f64>,
    /// How late the open-loop generator started each sync.
    late_ms: Vec<f64>,
    query_us: Vec<f64>,
    flows_answered: u64,
    query_wall: Duration,
}

impl Samples {
    fn absorb(&mut self, other: Samples) {
        self.query_us.extend(other.query_us);
        self.flows_answered += other.flows_answered;
        self.query_wall += other.query_wall;
    }
}

// ---------------------------------------------------------------------
// Sync: one call on the untraced path, its steps one by one when traced
// ---------------------------------------------------------------------

enum Synced {
    Pushed(u64),
    Resynced(u64),
    Skipped,
    Failed,
}

/// Push-protocol state of a traced stack. The traced run drives the
/// public steps `SupervisedTap::sync` takes, in its order —
/// `merge_now` → `export_sketch` → `SketchDelta::between` →
/// `push_sketch`/`push_delta` — and replays every frame it sent into
/// an in-process shadow collector, timing the server side alone.
struct Manual {
    last_acked: Option<SketchPayload>,
    acked_epoch: u64,
    shadow: MeasurementService,
    dirty_block_frac: Vec<f64>,
}

impl Manual {
    fn new(stack: &Stack) -> Self {
        Self {
            last_acked: None,
            acked_epoch: 0,
            shadow: MeasurementService::new(*stack.tap.engine().config()),
            dirty_block_frac: Vec::new(),
        }
    }
}

fn sync_untraced(tap: &mut SupervisedTap, pusher: &mut MeasurementClient<TcpTransport>) -> Synced {
    match tap.sync(pusher) {
        Ok(SyncOutcome::Full(r) | SyncOutcome::Delta(r)) => Synced::Pushed(r.bytes),
        Ok(SyncOutcome::Resynced(r)) => Synced::Resynced(r.bytes),
        Ok(SyncOutcome::Skipped) => Synced::Skipped,
        Err(e) => {
            eprintln!("perfbench: sync failed: {e}");
            Synced::Failed
        }
    }
}

fn sync_traced(
    tap: &mut SupervisedTap,
    pusher: &mut MeasurementClient<TcpTransport>,
    m: &mut Manual,
    tr: &mut Tracer,
    root: usize,
    ledger: &mut Ledger,
) -> Synced {
    let engine = tap.engine_mut();
    tr.time("caesar.threaded.merge_now", root, || engine.merge_now());
    let cur = tr.time("caesar.threaded.export_sketch", root, || {
        engine.export_sketch()
    });
    let mut frames = Vec::new();
    let sent = match &m.last_acked {
        None => {
            let r = tr.time("service.tcp.push", root, || pusher.push_sketch(&cur));
            let request = Request::PushSketch(cur.clone());
            frames.push(tr.time_side("caesar.merge.payload_encode", root, || request.encode()));
            r.map(|r| (Synced::Pushed(r.bytes), r.epoch))
        }
        Some(prev) => {
            let between = || SketchDelta::between(prev, &cur, m.acked_epoch);
            let delta = match tr.time("caesar.merge.delta_between", root, between) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("perfbench: delta failed: {e}");
                    return Synced::Failed;
                }
            };
            if delta.is_empty() {
                return Synced::Skipped;
            }
            let blocks = cur.counters.len().div_ceil(DIRTY_BLOCK_COUNTERS);
            m.dirty_block_frac
                .push(delta.blocks.len() as f64 / blocks as f64);
            let r = match tr.time("service.tcp.push", root, || pusher.push_delta(&delta)) {
                Ok(DeltaPush::Accepted(r)) => Ok((Synced::Pushed(r.bytes), r.epoch)),
                Ok(DeltaPush::Stale { .. }) => {
                    let r = tr.time("service.tcp.push", root, || {
                        pusher.resync_after_nack(&delta)
                    });
                    r.map(|r| (Synced::Resynced(r.bytes), r.epoch))
                }
                Err(e) => Err(e),
            };
            let resync =
                matches!(r, Ok((Synced::Resynced(_), _))).then(|| delta.to_increment_payload());
            let request = Request::PushDelta(delta);
            frames.push(tr.time_side("caesar.merge.delta_encode", root, || request.encode()));
            if let Some(payload) = resync {
                frames.push(Request::PushSketch(payload).encode());
            }
            r
        }
    };
    let (synced, epoch) = match sent {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: push failed: {e}");
            return Synced::Failed;
        }
    };
    let mut shadow_epoch = None;
    for frame in &frames {
        let resp = tr.time_side("service.server.push", root, || {
            m.shadow.handle_payload(frame)
        });
        if let Ok(Response::PushAck { epoch, .. }) = Response::decode(&resp) {
            shadow_epoch = Some(epoch);
        }
    }
    ledger.check(shadow_epoch == Some(epoch), || {
        format!("shadow collector acked epoch {shadow_epoch:?}, TCP collector {epoch}")
    });
    m.acked_epoch = epoch;
    m.last_acked = Some(cur);
    synced
}

/// Offer one epoch and sync it, recording the sync latency (from `due`
/// when given, else from the sync start) and the bytes pushed.
#[allow(clippy::too_many_arguments)]
fn epoch_once(
    tap: &mut SupervisedTap,
    pusher: &mut MeasurementClient<TcpTransport>,
    chunk: &[u64],
    traced: Option<(&mut Manual, &mut Tracer)>,
    request: u64,
    due: Option<Instant>,
    s: &mut Samples,
    ledger: &mut Ledger,
) {
    let t0 = Instant::now();
    let (synced, sync_start) = match traced {
        None => {
            tap.offer_batch(chunk);
            let ts = Instant::now();
            (sync_untraced(tap, pusher), ts)
        }
        Some((m, tr)) => {
            let root = tr.open("epoch", None, request);
            tr.time("caesar.threaded.offer_batch", root, || {
                tap.offer_batch(chunk)
            });
            let ts = Instant::now();
            let synced = sync_traced(tap, pusher, m, tr, root, ledger);
            tr.close(root);
            (synced, ts)
        }
    };
    let end = Instant::now();
    let from = due.unwrap_or(sync_start);
    s.sync_ms.push((end - from).as_secs_f64() * 1e3);
    s.epoch_ms.push((end - t0).as_secs_f64() * 1e3);
    ledger.syncs += 1;
    let bytes = match synced {
        Synced::Pushed(b) => b,
        Synced::Resynced(b) => {
            ledger.resynced += 1;
            b
        }
        Synced::Skipped => 0,
        Synced::Failed => {
            ledger.failed_syncs += 1;
            0
        }
    };
    s.wire_bytes.push(bytes);
}

// ---------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------

/// One closed-loop `MeasurementClient::query` of `flows`. When traced,
/// the same request frame is also handled in process and the view is
/// queried directly (side spans), and both answers are checked
/// bit-for-bit against the TCP answer when they were served at the
/// same view epoch.
fn query_once(
    client: &mut MeasurementClient<TcpTransport>,
    service: &MeasurementService,
    flows: &[u64],
    tracer: Option<&mut Tracer>,
    request: u64,
    s: &mut Samples,
    ledger: &mut Ledger,
) {
    ledger.queries += 1;
    let t = Instant::now();
    let (answer, elapsed) = match tracer {
        None => {
            let answer = client.query(flows);
            (answer, t.elapsed())
        }
        Some(tr) => {
            let root = tr.open("query", None, request);
            let answer = tr.time("service.tcp.query", root, || client.query(flows));
            let elapsed = t.elapsed();
            let frame = tr.time_side("service.client.query_encode", root, || {
                Request::Query(flows.to_vec()).encode()
            });
            let resp = tr.time_side("service.server.query", root, || {
                service.handle_payload(&frame)
            });
            let local = tr.time_side("caesar.query.estimate_all", root, || {
                service.with_view(|sketch, epoch| (epoch, sketch.query_all(flows)))
            });
            tr.close(root);
            if let Ok((epoch, values)) = &answer {
                if let Ok(Response::Estimates {
                    epoch: e,
                    values: v,
                }) = Response::decode(&resp)
                {
                    ledger.check(e != *epoch || bits_equal(&v, values), || {
                        format!("in-process handler answer differs from TCP at epoch {e}")
                    });
                }
                ledger.check(local.0 != *epoch || bits_equal(&local.1, values), || {
                    format!(
                        "estimate_all on the view differs from TCP at epoch {}",
                        local.0
                    )
                });
            }
            (answer, elapsed)
        }
    };
    match answer {
        Ok((_, values)) if values.len() == flows.len() => {
            s.query_us.push(elapsed.as_secs_f64() * 1e6);
            s.flows_answered += flows.len() as u64;
        }
        Ok(_) => {
            eprintln!("perfbench: query answered the wrong number of flows");
            ledger.failed_queries += 1;
        }
        Err(e) => {
            eprintln!("perfbench: query failed: {e}");
            ledger.failed_queries += 1;
        }
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

// ---------------------------------------------------------------------
// Workload loops
// ---------------------------------------------------------------------

/// One pass of the trace, epoch by epoch, each epoch synced.
fn ingest_pass(
    stack: &mut Stack,
    inputs: &Inputs,
    mut traced: Option<(&mut Manual, &mut Tracer)>,
    request: &mut u64,
    s: &mut Samples,
    ledger: &mut Ledger,
) {
    let t0 = Instant::now();
    for chunk in inputs.epochs() {
        let tr = traced.as_mut().map(|(m, t)| (&mut **m, &mut **t));
        epoch_once(
            &mut stack.tap,
            &mut stack.pusher,
            chunk,
            tr,
            *request,
            None,
            s,
            ledger,
        );
        *request += 1;
    }
    s.mpps
        .push(inputs.trace.len() as f64 / t0.elapsed().as_secs_f64() / 1e6);
}

/// The collector mix: this thread syncs a burst open-loop every
/// [`SYNC_PERIOD`] on one connection while a second thread runs a
/// closed query loop on the other, until `bursts` syncs are done.
fn collector_segment(
    stack: &mut Stack,
    inputs: &Inputs,
    bursts: u64,
    mut traced: Option<(&mut Manual, &mut Tracer)>,
    request: &mut u64,
    s: &mut Samples,
    ledger: &mut Ledger,
) {
    let Stack {
        service,
        tap,
        pusher,
        querier,
        ..
    } = stack;
    let service: &MeasurementService = service;
    let done = AtomicBool::new(false);
    let origin = traced.as_ref().map(|(_, t)| t.origin());
    // Epochs take request ids [first, first + bursts), queries follow.
    let first = *request;
    let (q_samples, q_ledger, q_tracer) = std::thread::scope(|scope| {
        let done = &done;
        let query_loop = scope.spawn(move || {
            workload::pin_first();
            let (mut qs, mut ql) = (Samples::default(), Ledger::default());
            let mut tracer = origin.map(Tracer::new);
            let mut i = 0u64;
            let t0 = Instant::now();
            while !done.load(Ordering::Acquire) {
                let flows = &inputs.query_sets[i as usize % inputs.query_sets.len()];
                let id = first + bursts + i;
                query_once(
                    querier,
                    service,
                    flows,
                    tracer.as_mut(),
                    id,
                    &mut qs,
                    &mut ql,
                );
                i += 1;
            }
            qs.query_wall = t0.elapsed();
            (qs, ql, tracer)
        });
        let start = Instant::now();
        let mut first_offer = None;
        for i in 0..bursts {
            let due = start + SYNC_PERIOD * i as u32;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            // How late the sync starts, oversleep included.
            s.late_ms
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            first_offer.get_or_insert_with(Instant::now);
            let tr = traced.as_mut().map(|(m, t)| (&mut **m, &mut **t));
            epoch_once(
                tap,
                pusher,
                &inputs.burst,
                tr,
                first + i,
                Some(due),
                s,
                ledger,
            );
        }
        // The open-loop offered rate, as achieved: it falls below one
        // burst per period only when syncs fall behind the schedule.
        let window = first_offer.map_or(Duration::ZERO, |t| t.elapsed());
        let packets = bursts as f64 * inputs.burst.len() as f64;
        s.mpps.push(packets / window.as_secs_f64() / 1e6);
        done.store(true, Ordering::Release);
        query_loop.join().expect("query thread panicked")
    });
    *request = first + bursts + q_ledger.queries;
    s.absorb(q_samples);
    ledger.queries += q_ledger.queries;
    ledger.failed_queries += q_ledger.failed_queries;
    ledger.failed_checks.extend(q_ledger.failed_checks);
    if let (Some(t), Some((_, tracer))) = (q_tracer, traced) {
        tracer.absorb(t);
    }
}

/// One half of the read-back of `caida_bulk`: a closed loop of
/// `inputs.read_back` queries on the view, run once before and once
/// after the ingest window and never inside it. Every workload reports
/// every end-to-end metric, and this is where `caida_bulk` takes its
/// query rows; the two halves sample the host half a minute apart.
fn read_back(
    stack: &mut Stack,
    inputs: &Inputs,
    mut tracer: Option<&mut Tracer>,
    request: &mut u64,
    s: &mut Samples,
    ledger: &mut Ledger,
) {
    let t0 = Instant::now();
    for i in 0..inputs.read_back {
        let flows = &inputs.query_sets[i % inputs.query_sets.len()];
        query_once(
            &mut stack.querier,
            &stack.service,
            flows,
            tracer.as_deref_mut(),
            *request,
            s,
            ledger,
        );
        *request += 1;
    }
    s.query_wall += t0.elapsed();
}

/// ARE of the collector's TCP answers over the large flows, against
/// the exact truth of the warm-up traffic the view holds.
fn are_large(stack: &mut Stack, inputs: &Inputs, ledger: &mut Ledger) -> f64 {
    let mut sum = 0.0;
    for chunk in inputs.large.chunks(QUERY_FLOWS) {
        ledger.queries += 1;
        match stack.querier.query(chunk) {
            Ok((_, values)) if values.len() == chunk.len() => {
                for (flow, est) in chunk.iter().zip(values) {
                    let x = inputs.truth[flow] as f64;
                    sum += (est - x).abs() / x;
                }
            }
            _ => ledger.failed_queries += 1,
        }
    }
    sum / inputs.large.len() as f64
}

/// The correctness gate over one stack, after its last sync.
fn gate(stack: &mut Stack, inputs: &Inputs, ledger: &mut Ledger) {
    let st = stack.tap.engine().stats();
    ledger.check(
        st.offered == st.recorded + st.dropped + st.quarantined + st.in_flight,
        || {
            format!(
            "accounting: offered {} != recorded {} + dropped {} + quarantined {} + in_flight {}",
            st.offered, st.recorded, st.dropped, st.quarantined, st.in_flight
        )
        },
    );
    ledger.check(st.dropped == 0 && st.quarantined == 0, || {
        format!(
            "loss under Block: dropped {}, quarantined {}",
            st.dropped, st.quarantined
        )
    });
    let engine = stack.tap.engine().sram();
    let (counters, total) = (engine.snapshot(), engine.total_added());
    let same = stack.service.with_view(|view, _| {
        view.sram().total_added() == total && view.sram().snapshot() == counters
    });
    ledger.check(same, || {
        "collector view SRAM differs from the tap engine's SRAM".into()
    });
    for flows in &inputs.query_sets {
        ledger.queries += 1;
        match stack.querier.query(flows) {
            Ok((epoch, values)) => {
                let (e, local) = stack
                    .service
                    .with_view(|view, e| (e, view.query_all(flows)));
                ledger.check(e == epoch && bits_equal(&values, &local), || {
                    format!(
                        "TCP answers differ from estimate_all on the view (epoch {epoch} vs {e})"
                    )
                });
            }
            Err(e) => {
                eprintln!("perfbench: gate query failed: {e}");
                ledger.failed_queries += 1;
            }
        }
    }
}

/// Merge a one-unit sketch into the collector behind the tap's back,
/// so the gate has something to catch (smoke test only).
fn corrupt_view(stack: &Stack) {
    let mut payload = stack.tap.engine().export_sketch();
    payload.counters.iter_mut().for_each(|c| *c = 0);
    payload.counters[0] = 1;
    payload.total_added = 1;
    payload.saturation_events = 0;
    payload.evictions = 0;
    stack.service.push(&payload).expect("same fingerprint");
}

// ---------------------------------------------------------------------
// The two runs
// ---------------------------------------------------------------------

struct Outcome {
    metrics: Metrics,
    ledger: Ledger,
    /// Packets offered to every measured engine.
    offered: u64,
    /// Packets dropped or quarantined.
    lost: u64,
}

fn engine_totals(stacks: &[&Stack]) -> (u64, u64) {
    stacks.iter().fold((0, 0), |(o, l), s| {
        let st = s.tap.engine().stats();
        (o + st.offered, l + st.dropped + st.quarantined)
    })
}

fn secs_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// End-to-end metrics, tracing off.
fn run_untraced(args: &Args) -> Outcome {
    let w = args.workload;
    let mut setup_s = Vec::new();
    let mut kept: Option<(Inputs, Stack, Ledger)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, stack, _)) = kept.take() {
            stack.teardown();
        }
        let t = Instant::now();
        let inputs = workload::generate(w, args.scale, args.seed);
        let mut stack = Stack::spawn(inputs.cfg, w);
        let (mut warm, mut ledger) = (Samples::default(), Ledger::default());
        epoch_once(
            &mut stack.tap,
            &mut stack.pusher,
            &inputs.trace,
            None,
            0,
            None,
            &mut warm,
            &mut ledger,
        );
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some((inputs, stack, ledger));
    }
    let (inputs, mut stack, mut ledger) = kept.expect("SETUP_REPS > 0");
    let are = are_large(&mut stack, &inputs, &mut ledger);

    let mut s = Samples::default();
    if w == Workload::Collector {
        let bursts = (args.seconds / SYNC_PERIOD.as_secs_f64()).round().max(1.0) as u64;
        collector_segment(
            &mut stack,
            &inputs,
            bursts,
            None,
            &mut 0,
            &mut s,
            &mut ledger,
        );
    } else {
        let mut request = 0;
        read_back(&mut stack, &inputs, None, &mut request, &mut s, &mut ledger);
        let end = Instant::now() + Duration::from_secs_f64(args.seconds);
        while Instant::now() < end {
            ingest_pass(&mut stack, &inputs, None, &mut request, &mut s, &mut ledger);
        }
        read_back(&mut stack, &inputs, None, &mut request, &mut s, &mut ledger);
    }
    if args.corrupt_view {
        corrupt_view(&stack);
    }
    gate(&mut stack, &inputs, &mut ledger);
    ledger.check(are <= ARE_BOUND, || {
        format!("are_large {are} above its bound {}", ARE_BOUND)
    });
    let (offered, lost) = engine_totals(&[&stack]);
    stack.teardown();

    let mut m = Metrics::default();
    m.put("ingest_mpps", median(&s.mpps), "Mpps", s.mpps.len());
    m.put_quantile("sync_p50_ms", &s.sync_ms, 0.5, "ms");
    let wire: Vec<f64> = s.wire_bytes.iter().map(|&b| b as f64 / 1024.0).collect();
    m.put("wire_kb_per_sync", mean(&wire), "KiB", wire.len());
    m.put_quantile("query_p50_us", &s.query_us, 0.5, "us");
    m.put_quantile("query_p99_us", &s.query_us, 0.99, "us");
    let kflows = s.flows_answered as f64 / s.query_wall.as_secs_f64() / 1e3;
    m.put("query_kflows_per_s", kflows, "kflows/s", s.query_us.len());
    println!(
        "are_large = {are} ratio (n = {}, gate bound {})",
        inputs.large.len(),
        ARE_BOUND
    );
    m.put("setup_s", median(&setup_s), "s", setup_s.len());
    m.put("peak_rss_mb", peak_rss_mib(), "MiB", 1);
    for (name, r) in &m.rows {
        ledger.check(r.blocks != Some(0), || {
            format!(
                "{name}: {} samples are too few for {MIN_BEYOND} beyond it",
                r.samples
            )
        });
    }
    // The sync tail is printed but carries no bound: on `collector` it
    // follows the host's steal time (README: "End-to-end metrics").
    match block_quantile(&s.sync_ms, 0.9) {
        (_, 0) => println!(
            "sync_p90_ms withheld: {} syncs are too few for {MIN_BEYOND} beyond it",
            s.sync_ms.len()
        ),
        (p90, blocks) => println!(
            "sync_p90_ms = {p90} ms (n = {}, median of {blocks} blocks; reported, not bounded)",
            s.sync_ms.len()
        ),
    }
    if !s.late_ms.is_empty() {
        println!(
            "open-loop generator lateness: median {} ms, p90 {} ms, max {} ms over {} syncs",
            median(&s.late_ms),
            quantile(&s.late_ms, 0.9),
            s.late_ms.iter().copied().fold(0.0, f64::max),
            s.late_ms.len()
        );
    }
    Outcome {
        metrics: m,
        ledger,
        offered,
        lost,
    }
}

/// Per-layer metrics: an untraced stack A and a traced stack B take
/// turns on the same inputs, then each layer runs alone.
fn run_traced(args: &Args) -> Outcome {
    let w = args.workload;
    let t = Instant::now();
    let inputs = workload::generate(w, args.scale, args.seed);
    let generate_s = t.elapsed().as_secs_f64();
    let mut a = Stack::spawn(inputs.cfg, w);
    let mut b = Stack::spawn(inputs.cfg, w);
    let mut manual = Manual::new(&b);
    let mut tr = Tracer::new(Instant::now());
    let mut ledger = Ledger::default();
    let (mut sa, mut sb) = (Samples::default(), Samples::default());
    epoch_once(
        &mut a.tap,
        &mut a.pusher,
        &inputs.trace,
        None,
        0,
        None,
        &mut sa,
        &mut ledger,
    );
    let traced = Some((&mut manual, &mut tr));
    epoch_once(
        &mut b.tap,
        &mut b.pusher,
        &inputs.trace,
        traced,
        0,
        None,
        &mut sb,
        &mut ledger,
    );
    tr.clear();
    manual.dirty_block_frac.clear();
    let are = are_large(&mut a, &inputs, &mut ledger);
    let (mut sa, mut sb) = (Samples::default(), Samples::default());
    let b_offered_before = b.tap.engine().stats().offered;

    let (mut req_a, mut req_b) = (0, 0);
    if w == Workload::Collector {
        let bursts = (args.seconds / SYNC_PERIOD.as_secs_f64() / 4.0)
            .round()
            .max(1.0) as u64;
        for _ in 0..2 {
            collector_segment(
                &mut a,
                &inputs,
                bursts,
                None,
                &mut req_a,
                &mut sa,
                &mut ledger,
            );
            let traced = Some((&mut manual, &mut tr));
            collector_segment(
                &mut b,
                &inputs,
                bursts,
                traced,
                &mut req_b,
                &mut sb,
                &mut ledger,
            );
        }
    } else {
        read_back(&mut a, &inputs, None, &mut req_a, &mut sa, &mut ledger);
        read_back(
            &mut b,
            &inputs,
            Some(&mut tr),
            &mut req_b,
            &mut sb,
            &mut ledger,
        );
        let end = Instant::now() + Duration::from_secs_f64(args.seconds);
        while Instant::now() < end {
            ingest_pass(&mut a, &inputs, None, &mut req_a, &mut sa, &mut ledger);
            let traced = Some((&mut manual, &mut tr));
            ingest_pass(&mut b, &inputs, traced, &mut req_b, &mut sb, &mut ledger);
        }
        read_back(&mut a, &inputs, None, &mut req_a, &mut sa, &mut ledger);
        read_back(
            &mut b,
            &inputs,
            Some(&mut tr),
            &mut req_b,
            &mut sb,
            &mut ledger,
        );
    }
    let b_packets = b.tap.engine().stats().offered - b_offered_before;

    ledger.check(are <= ARE_BOUND, || {
        format!("are_large {are} above its bound {}", ARE_BOUND)
    });
    if args.corrupt_view {
        corrupt_view(&b);
    }
    gate(&mut a, &inputs, &mut ledger);
    gate(&mut b, &inputs, &mut ledger);
    let view = |s: &Stack| {
        s.service
            .with_view(|v, _| (v.sram().snapshot(), v.sram().total_added()))
    };
    ledger.check(view(&a) == view(&b), || {
        "traced run's collector view differs from the untraced run's".into()
    });
    let shadow = manual
        .shadow
        .with_view(|v, _| (v.sram().snapshot(), v.sram().total_added()));
    ledger.check(shadow == view(&b), || {
        "in-process shadow view differs from the TCP collector's".into()
    });
    let (offered, lost) = engine_totals(&[&a, &b]);
    let (dropped, quarantined) = [&a, &b].iter().fold((0, 0), |(d, q), s| {
        let st = s.tap.engine().stats();
        (d + st.dropped, q + st.quarantined)
    });

    let mut m = Metrics::default();
    let (warm, epochs): (Vec<&[u64]>, Vec<&[u64]>) = match w {
        Workload::Collector => (vec![&inputs.trace[..]], vec![&inputs.burst[..]; 16]),
        _ => {
            let chunks: Vec<&[u64]> = inputs.epochs().collect();
            (chunks[..1].to_vec(), chunks[1..].to_vec())
        }
    };
    let mut finish = layers::run(inputs.cfg, &warm, &epochs, &mut m);
    finish.push(secs_ms(a.teardown()));
    finish.push(secs_ms(b.teardown()));

    let sum = tr.summary();
    let med_ns = |name: &str| {
        let v: Vec<f64> = sum.self_ns(name).iter().map(|&ns| ns as f64).collect();
        (median(&v), v.len())
    };
    let put_ns = |m: &mut Metrics, metric: &str, span: &str, scale: f64, unit: &'static str| {
        let (v, n) = med_ns(span);
        m.put(metric, v / scale, unit, n);
    };
    m.put("flowtrace.generate_s", generate_s, "s", 1);
    let offer_ns: u64 = sum.self_ns("caesar.threaded.offer_batch").iter().sum();
    let offer_n = sum.self_ns("caesar.threaded.offer_batch").len();
    m.put(
        "caesar.threaded.offer_batch_ns_per_pkt",
        offer_ns as f64 / b_packets as f64,
        "ns/pkt",
        offer_n,
    );
    put_ns(
        &mut m,
        "caesar.threaded.merge_now_us",
        "caesar.threaded.merge_now",
        1e3,
        "us",
    );
    put_ns(
        &mut m,
        "caesar.threaded.export_sketch_ms",
        "caesar.threaded.export_sketch",
        1e6,
        "ms",
    );
    m.put(
        "caesar.threaded.finish_ms",
        median(&finish),
        "ms",
        finish.len(),
    );
    m.put("caesar.threaded.dropped", dropped as f64, "count", 2);
    m.put(
        "caesar.threaded.quarantined",
        quarantined as f64,
        "count",
        2,
    );
    put_ns(
        &mut m,
        "caesar.merge.delta_between_ms",
        "caesar.merge.delta_between",
        1e6,
        "ms",
    );
    put_ns(
        &mut m,
        "caesar.merge.delta_encode_ms",
        "caesar.merge.delta_encode",
        1e6,
        "ms",
    );
    let dirty = &manual.dirty_block_frac;
    m.put(
        "caesar.merge.dirty_block_frac",
        mean(dirty),
        "ratio",
        dirty.len(),
    );
    m.put("caesar.query.are_large", are, "ratio", inputs.large.len());
    put_ns(
        &mut m,
        "caesar.query.estimate_all_ns_per_flow",
        "caesar.query.estimate_all",
        QUERY_FLOWS as f64,
        "ns/flow",
    );
    put_ns(
        &mut m,
        "service.server.push_ms",
        "service.server.push",
        1e6,
        "ms",
    );
    put_ns(
        &mut m,
        "service.server.query_us",
        "service.server.query",
        1e3,
        "us",
    );
    let (tcp_push, n_push) = med_ns("service.tcp.push");
    let (tcp_query, n_query) = med_ns("service.tcp.query");
    let overhead_push = (tcp_push - med_ns("service.server.push").0) / 1e6;
    m.put("service.tcp.push_overhead_ms", overhead_push, "ms", n_push);
    let overhead_query = (tcp_query - med_ns("service.server.query").0) / 1e3;
    m.put(
        "service.tcp.query_overhead_us",
        overhead_query,
        "us",
        n_query,
    );

    let traced_epoch: Vec<f64> = sum.root_path_ns.get("epoch").map_or(Vec::new(), |v| {
        v.iter().map(|&ns| ns as f64 / 1e6).collect()
    });
    let overhead = median(&traced_epoch) / median(&sa.epoch_ms) - 1.0;
    m.put(
        "trace.overhead_frac",
        overhead,
        "ratio",
        traced_epoch.len().min(sa.epoch_ms.len()),
    );
    let unattributed = sum.unattributed_ns as f64 / sum.path_ns as f64;
    m.put(
        "trace.unattributed_frac",
        unattributed,
        "ratio",
        sum.root_path_ns.values().map(Vec::len).sum(),
    );

    let path = spans_path(w, args.seed);
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            tr.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
    Outcome {
        metrics: m,
        ledger,
        offered,
        lost,
    }
}

fn spans_path(w: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{seed}.jsonl", w.name()))
}

// ---------------------------------------------------------------------
// Host record
// ---------------------------------------------------------------------

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's commit; `unknown` unless the working directory is
/// the root of a git checkout (git would otherwise search the parents).
fn git_commit() -> String {
    if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    }
}

fn meta(args: &Args, metrics: &Metrics) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let samples = Json::Obj(
        metrics
            .rows
            .iter()
            .map(|(k, r)| {
                let mut o = vec![("n", Json::from(r.samples))];
                if let Some(b) = r.blocks {
                    o.push(("blocks", Json::from(b)));
                }
                (k.clone(), Json::obj(o))
            })
            .collect(),
    );
    Json::obj([(
        "meta",
        Json::obj([
            ("workload", Json::from(args.workload.name())),
            ("seed", Json::from(args.seed)),
            ("seconds", Json::from(args.seconds)),
            ("trace", Json::from(args.trace)),
            (
                "scale",
                Json::from(if args.scale == Scale::Tiny {
                    "tiny"
                } else {
                    "full"
                }),
            ),
            ("cores", Json::from(support::par::host_parallelism())),
            ("cpu_model", Json::from(cpu)),
            ("rustc", Json::from(command_line("rustc", &["--version"]))),
            ("git_commit", Json::from(git_commit())),
            ("samples", samples),
        ]),
    )])
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

const USAGE: &str = "usage: perfbench --workload <caida_bulk|collector> --seed <n> \
                     --seconds <s> [--trace <0|1>] [--scale <full|tiny>] [--corrupt-view]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    /// Smoke-test hook: corrupt the collector view before the gate.
    corrupt_view: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds) = (None, None, None);
        let mut args = Args {
            workload: Workload::CaidaBulk,
            seed: 0,
            seconds: 0.0,
            trace: false,
            scale: Scale::Full,
            corrupt_view: false,
        };
        while let Some(flag) = it.next() {
            if flag == "--corrupt-view" {
                args.corrupt_view = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad())?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--scale" => {
                    args.scale = match value.as_str() {
                        "full" => Scale::Full,
                        "tiny" => Scale::Tiny,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        args.seed = seed.ok_or("--seed is required")?;
        args.seconds = seconds.ok_or("--seconds is required")?;
        Ok(args)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Thread placement on the two cores of the reference host (README:
    // "Thread placement"): this thread, and what it spawns unless
    // `Stack::spawn` or `collector_segment` place it elsewhere, run on
    // the last CPU.
    workload::pin_last();
    let out = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    let l = &out.ledger;
    let attempted = out.offered + l.syncs + l.queries;
    let failed =
        out.lost + l.failed_syncs + l.resynced + l.failed_queries + l.failed_checks.len() as u64;
    let correct = l.failed_checks.is_empty() && failed == 0;
    for (name, r) in &out.metrics.rows {
        let blocks = r
            .blocks
            .map_or(String::new(), |b| format!(", median of {b} blocks"));
        println!(
            "{name} = {} {} (n = {}{blocks})",
            r.value, r.unit, r.samples
        );
    }
    println!(
        "failed/attempted = {failed}/{attempted} (failed_frac {}; {} packets, {} syncs, {} queries)",
        failed as f64 / attempted as f64,
        out.offered,
        l.syncs,
        l.queries
    );
    println!("{}", meta(&args, &out.metrics));
    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", out.metrics.json()),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
