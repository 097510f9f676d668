//! Workload inputs and the deployment stack they drive.
//!
//! Every input is a pure function of the workload, the scale and the
//! `--seed`; the program under test only ever sees the generated flows.

use std::collections::HashMap;
use std::sync::Arc;

use caesar::{CaesarConfig, ThreadedCaesar};
use flowtrace::zoo::{CaidaParams, CaidaShaped, WorkloadGen};
use service::{MeasurementClient, MeasurementService, SupervisedTap, TcpServer, TcpTransport};
use support::rand::seq::SliceRandom;
use support::rand::{SeedableRng, StdRng};

/// Shards of the deployment engine: one producer thread (the caller)
/// plus one worker thread, which is the two hardware threads of the
/// reference host.
pub const SHARDS: usize = 1;
/// Flows per `MeasurementClient::query` batch.
pub const QUERY_FLOWS: usize = 1024;
/// Distinct query batches drawn per run (cycled by the query loops).
const QUERY_SETS: usize = 32;
/// Queries in each of the two read-back halves around the ingest window
/// of `caida_bulk` (`tiny`: a fiftieth).
const READ_BACK_QUERIES: usize = 50_000;
/// Packets per pass of the caida_fit trace (its expected size at
/// q = 200k). Every seed's trace is cut or cyclically extended to it,
/// so every seed does the same work.
const CAIDA_PACKETS: usize = 5_330_000;
/// Epochs per pass on `caida_bulk`; each ends with a sync.
const EPOCHS: usize = 24;
/// Hot flows of one collector burst.
const HOT_FLOWS: usize = 8;
/// Packets per hot flow per burst: above the entry capacity `y = 54`,
/// so every burst overflows each hot flow's cache entry at least once
/// and no sync is ever idle.
const HOT_PACKETS: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CaidaBulk,
    Collector,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::CaidaBulk, Workload::Collector];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CaidaBulk => "caida_bulk",
            Workload::Collector => "collector",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Upper bound on `are_large` in a healthy run (the correctness gate);
/// README.md lists the measured values.
pub const ARE_BOUND: f64 = 0.1;

/// `Full` is the benchmark; `Tiny` shrinks every input so the smoke
/// test runs each workload in about a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

pub struct Inputs {
    pub cfg: CaesarConfig,
    /// The generated trace (flow id per packet).
    pub trace: Vec<u64>,
    /// Packets per epoch on `caida_bulk`; each epoch ends with
    /// a sync.
    pub epoch_packets: usize,
    /// Collector only: one burst over the hot flows.
    pub burst: Vec<u64>,
    /// Exact per-flow packet counts of one pass of the trace.
    pub truth: HashMap<u64, u64>,
    /// Flows of at least `Workload::large_flow_floor` packets, ascending.
    pub large: Vec<u64>,
    /// Query batches of [`QUERY_FLOWS`] flows each.
    pub query_sets: Vec<Vec<u64>>,
    /// `caida_bulk`: queries in each read-back half.
    pub read_back: usize,
}

impl Inputs {
    /// One pass of the trace in epochs.
    pub fn epochs(&self) -> std::slice::Chunks<'_, u64> {
        self.trace.chunks(self.epoch_packets)
    }
}

/// M = 4096, y = 54, L = 2^20 (an 8 MiB counter array); `tiny`
/// shrinks L to 2^16.
fn bulk_config(scale: Scale) -> CaesarConfig {
    CaesarConfig {
        cache_entries: 4096,
        entry_capacity: 54,
        counters: if scale == Scale::Tiny {
            1 << 16
        } else {
            1 << 20
        },
        k: 3,
        ..CaesarConfig::default()
    }
}

/// Generate the workload's inputs from `seed`.
pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Inputs {
    let tiny = scale == Scale::Tiny;
    // The `caida_fit` entry of `flowtrace::zoo::standard_zoo(q)` at
    // q = 200k flows.
    let q = if tiny { 5_000 } else { 200_000 };
    let params = CaidaParams {
        fit_samples: (q * 25).clamp(10_000, 100_000),
        max_flow_size: 20_000,
        ..CaidaParams::backbone()
    };
    let family = CaidaShaped::fit(params, q, 0xCA1DA).expect("caida_fit parameters are valid");
    let (trace, _) = family.generate(seed);
    let packets = if tiny {
        CAIDA_PACKETS / 40
    } else {
        CAIDA_PACKETS
    };
    let cfg = bulk_config(scale);
    let trace: Vec<u64> = trace
        .packets
        .iter()
        .map(|p| p.flow)
        .cycle()
        .take(packets)
        .collect();
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for &flow in &trace {
        *truth.entry(flow).or_default() += 1;
    }
    let epoch_packets = trace.len().div_ceil(EPOCHS);

    let mut rng = StdRng::seed_from_u64(seed ^ 0xBE7C_4A11);
    let mut flows: Vec<u64> = truth.keys().copied().collect();
    flows.sort_unstable();
    // Flows of at least this many packets (in the warm-up traffic the
    // view holds when `are_large` is taken) are the "large" flows.
    let floor = if tiny { 200 } else { 1_000 };
    let large: Vec<u64> = flows
        .iter()
        .copied()
        .filter(|f| truth[f] >= floor)
        .collect();
    let query_sets = (0..QUERY_SETS)
        .map(|_| {
            (0..QUERY_FLOWS)
                .map(|_| *flows.choose(&mut rng).expect("trace has flows"))
                .collect()
        })
        .collect();
    let burst = if workload == Workload::Collector {
        flows.shuffle(&mut rng);
        let hot = &flows[..HOT_FLOWS];
        (0..HOT_PACKETS).flat_map(|_| hot.iter().copied()).collect()
    } else {
        Vec::new()
    };
    Inputs {
        cfg,
        trace,
        epoch_packets,
        burst,
        truth,
        large,
        query_sets,
        read_back: if tiny {
            READ_BACK_QUERIES / 50
        } else {
            READ_BACK_QUERIES
        },
    }
}

/// The one place the benchmark builds an ingest engine. The worker
/// threads are started here (an empty merge starts them), so thread
/// spawn stays out of every steady-state window. With `pinned`, shard
/// *i*'s worker is pinned to CPU *i*; without, the workers inherit the
/// calling thread's placement.
pub fn spawn_engine(cfg: CaesarConfig, shards: usize, pinned: bool) -> ThreadedCaesar {
    let mut engine = ThreadedCaesar::new(cfg, shards).with_pinning(pinned);
    engine.merge_now();
    engine
}

/// Pin the calling thread to the last CPU; a no-op on a 1-core host.
/// Threads spawned afterwards inherit the placement.
pub fn pin_last() {
    let cores = support::par::host_parallelism();
    if cores > 1 {
        let _ = support::affinity::pin_current_thread(cores - 1);
    }
}

/// Pin the calling thread to CPU 0; a no-op on a 1-core host.
pub fn pin_first() {
    if support::par::host_parallelism() > 1 {
        let _ = support::affinity::pin_current_thread(0);
    }
}

/// Spawn a TCP front end for `service` from a thread pinned by `pin`:
/// its accept thread, and every connection handler that starts, inherit
/// that placement.
fn spawn_server(service: &Arc<MeasurementService>, pin: fn()) -> TcpServer {
    let service = Arc::clone(service);
    std::thread::spawn(move || {
        pin();
        TcpServer::spawn(service, "127.0.0.1:0").expect("bind a loopback port")
    })
    .join()
    .expect("server spawn thread panicked")
}

/// One deployment: a supervised tap pushing over TCP to an in-process
/// collector, plus a second connection for queries. The collector is
/// one `MeasurementService` (one view, one lock) behind two TCP front
/// ends, one per connection, so each connection's handler thread can
/// be placed on its own CPU (README: "Thread placement").
pub struct Stack {
    pub service: Arc<MeasurementService>,
    servers: [TcpServer; 2],
    pub tap: SupervisedTap,
    pub pusher: MeasurementClient<TcpTransport>,
    pub querier: MeasurementClient<TcpTransport>,
}

impl Stack {
    /// Placement, for a caller pinned to the last CPU: the push
    /// handler runs there. On `caida_bulk` the query handler does too,
    /// and the worker takes CPU 0 (one core for the request path, one
    /// for the worker). On `collector` the worker stays beside the sync
    /// thread and the query handler takes CPU 0 (one core for the
    /// syncs, one for the queries).
    pub fn spawn(cfg: CaesarConfig, workload: Workload) -> Self {
        let service = Arc::new(MeasurementService::new(cfg));
        let (query_pin, pin_worker): (fn(), bool) = match workload {
            Workload::CaidaBulk => (pin_last, true),
            Workload::Collector => (pin_first, false),
        };
        let servers = [
            spawn_server(&service, pin_last),
            spawn_server(&service, query_pin),
        ];
        let fp = service.fingerprint();
        let connect = |server: &TcpServer| {
            let transport = TcpTransport::connect(server.addr()).expect("connect to the collector");
            MeasurementClient::connect(transport, &fp).expect("collector handshake")
        };
        let pusher = connect(&servers[0]);
        let querier = connect(&servers[1]);
        let tap = SupervisedTap::new(spawn_engine(cfg, SHARDS, pin_worker));
        Self {
            service,
            servers,
            tap,
            pusher,
            querier,
        }
    }

    /// Close both connections, stop both front ends, and finish the engine
    /// (joins its worker and monitor threads). Returns the engine
    /// teardown time.
    pub fn teardown(self) -> std::time::Duration {
        let Stack {
            service,
            servers,
            tap,
            pusher,
            querier,
        } = self;
        drop(pusher);
        drop(querier);
        servers.into_iter().for_each(TcpServer::stop);
        drop(service);
        let t = std::time::Instant::now();
        drop(tap.into_engine().finish());
        t.elapsed()
    }
}
