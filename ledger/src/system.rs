//! Builds each workload's system under test and issues requests to it.
//!
//! Every call into the program goes through a public function of one of
//! its crates. A [`Rung`] is one such entry point; a workload's ladder
//! is its rungs from the bare kernel up to the call its users make, each
//! adding one layer over the rung below.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use iqs_net::{
    RemoteReplica, ReplicaServer, SimNet, TcpConfig, TcpServer, TcpTransport, Transport,
};
use iqs_obs::Ctx;
use iqs_serve::{Client, IndexRegistry, IndexView, Request, Response, Server, ServerConfig};
use iqs_shard::{ClusterClient, ReplicaLink, ShardConfig, ShardSpec, ShardedService, SHARD_INDEX};
use iqs_testkit::ClockHandle;
use iqs_tier::{ShardTier, TierConfig, TieredIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen::{self, derive, Req, Stream, StreamKind};

/// Data sizes. The command always runs [`Scale::FULL`]; unit tests use
/// a small one so debug builds finish quickly.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Elements of the static indexes (`serve-*`, `shard-*`, `tcp-*`).
    pub n_main: usize,
    /// Elements of the all-cold tiered index.
    pub n_cold: usize,
    /// Elements of the dynamic index.
    pub n_mixed: usize,
    /// Divisor of every workload's warm-up request count.
    pub warmup_div: u32,
    /// Samples the untimed chi-square check draws at least.
    pub verify_samples: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        n_main: 1 << 20,
        n_cold: 1 << 18,
        n_mixed: 1 << 16,
        warmup_div: 1,
        verify_samples: 200_000,
    };
}

/// Shards of the tiered index, all placed cold.
const COLD_SHARDS: usize = 8;
/// Block frames of the cold tier's cache: 32 × 256 words against a
/// 2^18-element index keeps the working set far larger than the cache.
const COLD_CACHE_BLOCKS: usize = 32;

/// What a workload runs and how much of it.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub s: u32,
    kind: Kind,
    /// Requests issued (and discarded) after each build, before timing:
    /// lazy first-touch work is charged to `setup_s`, not to latency.
    pub warmup: u32,
    /// Requests per arm of the traced pass for each second of `--seconds`.
    pub ladder_per_s: u32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Serve,
    Fanout,
    Tcp,
    Cold,
    Mixed,
}

pub fn workload(name: &str) -> Option<Workload> {
    let (s, kind, warmup, ladder_per_s) = match name {
        "serve-s64" => (64, Kind::Serve, 20_000, 20_000),
        "serve-s4096" => (4096, Kind::Serve, 1_000, 800),
        "shard-fanout-s64" => (64, Kind::Fanout, 5_000, 6_000),
        "tcp-s64" => (64, Kind::Tcp, 3_000, 3_000),
        "tcp-s4096" => (4096, Kind::Tcp, 400, 300),
        "cold-s64" => (64, Kind::Cold, 600, 400),
        "mixed-rw" => (64, Kind::Mixed, 500, 1_500),
        _ => return None,
    };
    Some(Workload { s, kind, warmup, ladder_per_s })
}

impl Workload {
    fn n(&self, scale: Scale) -> usize {
        match self.kind {
            Kind::Cold => scale.n_cold,
            Kind::Mixed => scale.n_mixed,
            _ => scale.n_main,
        }
    }

    /// The workload's request stream over freshly generated weights.
    pub fn stream(&self, scale: Scale, seed: u64) -> Stream {
        let n = self.n(scale);
        let (x, y) = gen::wide_range(n);
        let kind = match self.kind {
            Kind::Cold => StreamKind::Window,
            Kind::Mixed => StreamKind::Mixed { x, y },
            _ => StreamKind::Fixed { x, y },
        };
        Stream::new(kind, gen::zipf_weights(n, seed), self.s, seed)
    }
}

/// One entry point into the program.
pub struct Rung {
    /// Short handle used in metric definitions: `R0`..`R6`, `T0h`, `T0`, `T1`.
    pub key: &'static str,
    /// Span name of the call this rung times. The generator's whole cycle
    /// around that call is recorded as a root span named by `key`.
    pub span: &'static str,
    target: Target,
}

enum Target {
    /// R0: `ChunkedRange::sample_wr_batch` on the published view.
    Kernel { server: Arc<Server>, rng: StdRng, ranks: Vec<u32> },
    /// R1: what `serve`'s dispatch does for a `SampleWr`, called
    /// directly: pin the view, draw into a reused buffer, map ranks to
    /// ids in a fresh `Vec`.
    Registry { server: Arc<Server>, rng: StdRng, ranks: Vec<u32> },
    /// R2 / T1: `Client::call` (or `call_traced` for the obs arm).
    Serve { client: Client },
    /// R3..R6: `ClusterClient::sample_wr`.
    Cluster { client: ClusterClient },
    /// T0 / T0h: `TieredIndex::sample_wr`.
    Tier { index: Arc<TieredIndex>, rng: StdRng },
}

/// One call's outcome as the generator saw it.
pub struct Outcome {
    pub start: Instant,
    pub end: Instant,
    /// The call returned without error and its response passed the
    /// shape check.
    pub ok: bool,
    /// The sampled ids (empty for `R0`, which fills a reused rank buffer).
    pub ids: Vec<u64>,
}

/// Shape check of a read: `s` ids, every one inside the closed key
/// interval (ids equal keys in every generated index).
fn shape_ok(ids: &[u64], x: f64, y: f64, s: u32) -> bool {
    ids.len() == s as usize && ids.iter().all(|&id| (id as f64) >= x && (id as f64) <= y)
}

impl Rung {
    /// Issues `req`, or returns `None` when this rung cannot express it
    /// (updates below `Client::call`). `obs_traced` asks the rung to use
    /// the program's own tracing entry point where it has a separate one.
    pub fn issue(&mut self, req: &Req, obs_traced: bool) -> Option<Outcome> {
        let (start, end, ok, ids) = match (&mut self.target, req) {
            (Target::Kernel { server, rng, ranks }, &Req::Read { x, y, s }) => {
                let view = server.registry().view(SHARD_INDEX)?;
                let IndexView::Range(rv) = &*view else { return None };
                let sampler = rv.sampler.as_ref()?;
                ranks.clear();
                ranks.resize(s as usize, 0);
                let start = Instant::now();
                let drawn = sampler.sample_wr_batch(x, y, rng, ranks);
                let end = Instant::now();
                let in_range = black_box(&*ranks)
                    .iter()
                    .all(|&r| (x..=y).contains(&(rv.id_at(r as usize) as f64)));
                (start, end, drawn.is_ok() && in_range, Vec::new())
            }
            (Target::Registry { server, rng, ranks }, &Req::Read { x, y, s }) => {
                let start = Instant::now();
                let view = server.registry().view(SHARD_INDEX)?;
                let IndexView::Range(rv) = &*view else { return None };
                let sampler = rv.sampler.as_ref()?;
                ranks.clear();
                ranks.resize(s as usize, 0);
                let drawn = sampler.sample_wr_batch(x, y, rng, ranks);
                let ids: Vec<u64> = ranks.iter().map(|&r| rv.id_at(r as usize)).collect();
                let end = Instant::now();
                let ids = black_box(ids);
                (start, end, drawn.is_ok() && shape_ok(&ids, x, y, s), ids)
            }
            (Target::Serve { client }, req) => {
                let index = SHARD_INDEX.to_string();
                let request = match req {
                    &Req::Read { x, y, s } => Request::SampleWr { index, range: Some((x, y)), s },
                    Req::Update(ops) => Request::Update { index, ops: ops.clone() },
                };
                let start = Instant::now();
                let response =
                    if obs_traced { client.call_traced(request).1 } else { client.call(request) };
                let end = Instant::now();
                match (req, black_box(response)) {
                    (&Req::Read { x, y, s }, Ok(Response::Samples(ids))) => {
                        (start, end, shape_ok(&ids, x, y, s), ids)
                    }
                    // Every op is an upsert with a valid weight, so all apply.
                    (Req::Update(ops), Ok(Response::Updated { applied, .. })) => {
                        (start, end, applied == ops.len(), Vec::new())
                    }
                    _ => (start, end, false, Vec::new()),
                }
            }
            (Target::Cluster { client }, &Req::Read { x, y, s }) => {
                let start = Instant::now();
                let drawn = client.sample_wr(Some((x, y)), s);
                let end = Instant::now();
                match black_box(drawn) {
                    Ok(d) => (start, end, !d.degraded && shape_ok(&d.ids, x, y, s), d.ids),
                    Err(_) => (start, end, false, Vec::new()),
                }
            }
            (Target::Tier { index, rng }, &Req::Read { x, y, s }) => {
                let start = Instant::now();
                let drawn = index.sample_wr(Some((x, y)), s as usize, rng, Ctx::none());
                let end = Instant::now();
                match black_box(drawn) {
                    Ok((ids, _)) => (start, end, shape_ok(&ids, x, y, s), ids),
                    Err(_) => (start, end, false, Vec::new()),
                }
            }
            (_, Req::Update(_)) => return None,
        };
        Some(Outcome { start, end, ok, ids })
    }
}

/// A built workload: its rungs (bottom to top) and the handles the
/// per-layer counters are read from. Fields drop in declaration order:
/// clients and routers first, so the listener sees its connections close
/// and stops at once, and the single node last.
pub struct Built {
    pub rungs: Vec<Rung>,
    /// Router of the top rung, when that is a cluster.
    pub cluster: Option<ShardedService>,
    lower_clusters: Vec<ShardedService>,
    listener: Option<TcpServer>,
    /// The single-node service behind `R0`..`R2`/`T1` and behind the
    /// remote replica of `R5`/`R6`.
    pub server: Option<Arc<Server>>,
    /// The all-cold tiered index (`T0`, `T1`).
    pub tier: Option<Arc<TieredIndex>>,
}

impl Built {
    pub fn top(&mut self) -> &mut Rung {
        self.rungs.last_mut().expect("every workload has a top rung")
    }

    fn push(&mut self, key: &'static str, target: Target) {
        let span = match key {
            "R0" => "R0/core.sample_wr_batch",
            "R1" => "R1/serve.dispatch_mirror",
            "R2" => "R2/serve.call",
            "R3" => "R3/shard.sample_wr.local1",
            "R4" => "R4/shard.sample_wr.local4",
            "R5" => "R5/shard.sample_wr.simnet",
            "R6" => "R6/shard.sample_wr.tcp",
            "T0h" => "T0h/tier.sample_wr.hot",
            "T0" => "T0/tier.sample_wr.cold",
            "T1" => "T1/serve.call",
            other => unreachable!("no rung {other}"),
        };
        self.rungs.push(Rung { key, span, target });
    }

    /// Starts the single node over `registry` and, for a ladder, adds
    /// the rungs that call below its queue.
    fn start_node(
        &mut self,
        registry: IndexRegistry,
        w: &Workload,
        seed: u64,
        ladder: bool,
    ) -> Arc<Server> {
        let config = ServerConfig { workers: 1, seed: derive(seed, 3), ..ServerConfig::default() };
        let server = Arc::new(Server::start(registry, config));
        if ladder {
            let ranks = || Vec::with_capacity(w.s as usize);
            self.push(
                "R0",
                Target::Kernel {
                    server: Arc::clone(&server),
                    rng: draw_rng(seed, 0),
                    ranks: ranks(),
                },
            );
            self.push(
                "R1",
                Target::Registry {
                    server: Arc::clone(&server),
                    rng: draw_rng(seed, 1),
                    ranks: ranks(),
                },
            );
        }
        self.server = Some(Arc::clone(&server));
        server
    }
}

/// The generator-side RNG of a rung that draws without a service. Each
/// rung gets its own stream: two rungs replaying the same draws back to
/// back would let the second find the first's cache lines still warm.
fn draw_rng(seed: u64, rung: u64) -> StdRng {
    StdRng::seed_from_u64(derive(seed, 5 + rung))
}

fn shard_config(shards: usize, seed: u64) -> ShardConfig {
    ShardConfig {
        shards,
        replicas: 1,
        workers_per_replica: 1,
        seed: derive(seed, 4),
        ..ShardConfig::default()
    }
}

fn tiered(weights: &[f64], placement: ShardTier) -> Arc<TieredIndex> {
    let per = weights.len() / COLD_SHARDS;
    // Promotion only happens in `maintain`, which nothing here calls.
    let mut builder = TieredIndex::builder(TierConfig {
        cold_cache_blocks: COLD_CACHE_BLOCKS,
        ..TierConfig::default()
    });
    for k in 0..COLD_SHARDS {
        let slice = &weights[k * per..(k + 1) * per];
        builder = builder.add_shard(&format!("s{k}"), gen::triples(slice, k * per), placement);
    }
    Arc::new(builder.build().expect("tiered index over valid weights"))
}

/// A one-shard topology whose only replica is reached over `transport`.
fn remote_cluster(
    transport: Arc<dyn Transport>,
    addr: &str,
    server: &Server,
    n: usize,
    seed: u64,
) -> ShardedService {
    let link: Arc<dyn ReplicaLink> = Arc::new(RemoteReplica::new(transport, addr));
    let spec = ShardSpec {
        lo_key: 0.0,
        hi_key: (n - 1) as f64,
        total_weight: server.registry().total_weight(SHARD_INDEX).expect("registered range index"),
        links: vec![link],
    };
    ShardedService::from_links(vec![spec], shard_config(1, seed))
        .expect("one-shard remote topology")
}

/// Builds `w`'s system over `weights`. With `ladder` every rung is
/// built; without it only the top rung and what it needs.
pub fn build(w: &Workload, weights: &[f64], seed: u64, ladder: bool) -> Built {
    let mut built = Built {
        rungs: Vec::new(),
        cluster: None,
        lower_clusters: Vec::new(),
        listener: None,
        server: None,
        tier: None,
    };
    let mut registry = IndexRegistry::new();
    let local = |shards| {
        ShardedService::new(gen::triples(weights, 0), shard_config(shards, seed))
            .expect("local cluster over valid weights")
    };
    let cluster_target = |service: &ShardedService| Target::Cluster { client: service.client() };
    match w.kind {
        Kind::Serve | Kind::Mixed => {
            if w.kind == Kind::Serve {
                registry.register_range_static(SHARD_INDEX, gen::pairs(weights))
            } else {
                registry.register_range_dynamic(SHARD_INDEX, gen::triples(weights, 0))
            }
            .expect("valid generated index");
            let server = built.start_node(registry, w, seed, ladder);
            built.push("R2", Target::Serve { client: server.client() });
        }
        Kind::Cold => {
            let cold = tiered(weights, ShardTier::Cold);
            if ladder {
                let hot = tiered(weights, ShardTier::Hot);
                built.push("T0h", Target::Tier { index: hot, rng: draw_rng(seed, 0) });
                built.push("T0", Target::Tier { index: Arc::clone(&cold), rng: draw_rng(seed, 1) });
            }
            registry
                .register_external(SHARD_INDEX, Arc::clone(&cold) as _)
                .expect("fresh registry");
            built.tier = Some(cold);
            let server = built.start_node(registry, w, seed, false);
            built.push("T1", Target::Serve { client: server.client() });
        }
        Kind::Fanout => {
            if ladder {
                registry
                    .register_range_keyed(SHARD_INDEX, gen::triples(weights, 0))
                    .expect("valid generated index");
                let server = built.start_node(registry, w, seed, true);
                built.push("R2", Target::Serve { client: server.client() });
                let one = local(1);
                built.push("R3", cluster_target(&one));
                built.lower_clusters.push(one);
            }
            let four = local(4);
            built.push("R4", cluster_target(&four));
            built.cluster = Some(four);
        }
        Kind::Tcp => {
            registry
                .register_range_keyed(SHARD_INDEX, gen::triples(weights, 0))
                .expect("valid generated index");
            let server = built.start_node(registry, w, seed, ladder);
            let clock = ClockHandle::real();
            let handler = Arc::new(ReplicaServer::new(server.client(), clock.clone()));
            if ladder {
                built.push("R2", Target::Serve { client: server.client() });
                let one = local(1);
                built.push("R3", cluster_target(&one));
                built.lower_clusters.push(one);
                let sim = SimNet::new(clock);
                sim.bind("replica", Arc::clone(&handler) as _);
                let over_sim =
                    remote_cluster(sim.transport(), "replica", &server, weights.len(), seed);
                built.push("R5", cluster_target(&over_sim));
                built.lower_clusters.push(over_sim);
            }
            let listener =
                TcpServer::spawn("127.0.0.1:0", handler, iqs_net::frame::DEFAULT_MAX_PAYLOAD)
                    .expect("bind a loopback listener");
            let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new(TcpConfig::default()));
            let over_tcp =
                remote_cluster(transport, &listener.addr(), &server, weights.len(), seed);
            built.push("R6", cluster_target(&over_tcp));
            built.listener = Some(listener);
            built.cluster = Some(over_tcp);
        }
    }
    built
}
