//! A real multi-process sampling cluster over loopback TCP: this binary
//! re-spawns itself as replica processes, each serving one shard slice
//! behind an `iqs::net` frame server and announcing itself to the
//! parent's TTL registry. The parent discovers the topology through the
//! registry, routes through `iqs::shard`'s scatter/gather over remote
//! links, and proves two things under the registered statistical gate:
//!
//! 1. the cross-process draw is exactly the single-node weighted
//!    distribution (`net_multi_process_chi_square`), and
//! 2. killing a replica process mid-stream costs zero failed reads and
//!    zero degraded reads — the partner replica covers, with the
//!    failovers visible in the router metrics.
//!
//! Run with: `cargo run --release --example multi_process_cluster`
//! (set `IQS_EXAMPLE_QUERIES` to bound the per-client query count).

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use iqs::net::{
    announce_once, shard_specs, Announce, RegistryHandler, ReplicaServer, ServiceRegistry,
    TcpConfig, TcpServer, TcpTransport, Transport,
};
use iqs::serve::{IndexRegistry, Server, ServerConfig};
use iqs::shard::{HealthPolicy, ShardConfig, ShardedService, SHARD_INDEX};
use iqs::stats::chisq::{chi_square_gof, weight_probs};
use iqs::testkit::gate::{self, Trial};
use iqs::testkit::ClockHandle;

/// Keyspace size; two shards cut at the midpoint, two replicas each.
const N: usize = 1024;
const CUTS: [(usize, usize); 2] = [(0, N / 2), (N / 2, N)];
const REPLICAS: usize = 2;
/// Lease TTL; replicas re-announce at a third of it.
const TTL_MS: u64 = 3_000;

fn element_slice(lo: usize, hi: usize) -> Vec<(u64, f64, f64)> {
    (lo..hi).map(|i| (i as u64, i as f64, 1.0 + (i % 10) as f64)).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() > 1 && args[1] == "replica" {
        replica_main(&args[2..]);
        return;
    }
    parent_main();
}

/// One replica process: serve a shard slice over TCP, announce on a
/// cadence, exit when the parent closes our stdin.
fn replica_main(args: &[String]) {
    let registry_addr = args[0].clone();
    let shard: usize = args[1].parse().expect("shard index");
    let lo: usize = args[2].parse().expect("lo");
    let hi: usize = args[3].parse().expect("hi");
    let seed: u64 = args[4].parse().expect("seed");

    let mut indexes = IndexRegistry::new();
    indexes.register_range_keyed(SHARD_INDEX, element_slice(lo, hi)).expect("valid slice");
    let server = Server::start(
        indexes,
        ServerConfig {
            workers: 2,
            queue_capacity: 1024,
            default_deadline: None,
            max_sample_size: 1 << 20,
            seed,
            clock: ClockHandle::real(),
        },
    );
    let total = server.registry().total_weight(SHARD_INDEX).expect("range index");
    let clock = ClockHandle::real();
    let listener = TcpServer::spawn(
        "127.0.0.1:0",
        Arc::new(ReplicaServer::new(server.client(), clock.clone())),
        iqs::net::frame::DEFAULT_MAX_PAYLOAD,
    )
    .expect("bind replica listener");
    let addr = listener.addr();
    println!("replica shard={shard} [{lo}, {hi}) listening on {addr}");

    // Announce now and then on a cadence well inside the TTL.
    let announce = Announce {
        addr,
        lo_key: lo as f64,
        hi_key: (hi - 1) as f64,
        total_weight: total,
        epoch: 1,
        ttl_ms: TTL_MS,
    };
    let announcer = std::thread::spawn(move || {
        let transport = TcpTransport::new(TcpConfig::default());
        loop {
            let deadline = clock.now() + Duration::from_secs(1);
            // A missed announcement is retried next tick; the TTL gives
            // us two retries of slack.
            announce_once(&transport, &registry_addr, &announce, deadline).ok();
            std::thread::sleep(Duration::from_millis(TTL_MS / 3));
        }
    });

    // Block until the parent closes the pipe (or dies), then exit; the
    // announcer thread dies with the process, and the lease expires.
    let mut sink = Vec::new();
    std::io::stdin().read_to_end(&mut sink).ok();
    drop(announcer);
    std::process::exit(0);
}

fn spawn_replica(registry_addr: &str, shard: usize, lo: usize, hi: usize, seed: u64) -> Child {
    Command::new(std::env::current_exe().expect("own path"))
        .args([
            "replica",
            registry_addr,
            &shard.to_string(),
            &lo.to_string(),
            &hi.to_string(),
            &seed.to_string(),
        ])
        .stdin(Stdio::piped())
        .spawn()
        .expect("spawn replica process")
}

fn parent_main() {
    let queries: usize =
        std::env::var("IQS_EXAMPLE_QUERIES").ok().and_then(|v| v.parse().ok()).unwrap_or(300);
    let clock = ClockHandle::real();

    // The registry, served over TCP so replicas announce like strangers.
    let registry = Arc::new(ServiceRegistry::new(clock.clone()));
    let registry_server = TcpServer::spawn(
        "127.0.0.1:0",
        Arc::new(RegistryHandler::new(Arc::clone(&registry))),
        iqs::net::frame::DEFAULT_MAX_PAYLOAD,
    )
    .expect("bind registry listener");
    let registry_addr = registry_server.addr();
    println!("registry listening on {registry_addr}");

    // Four replica processes: 2 shards × 2 replicas.
    let mut children = Vec::new();
    for (si, &(lo, hi)) in CUTS.iter().enumerate() {
        for ri in 0..REPLICAS {
            let seed =
                0xe21 ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul((si * REPLICAS + ri + 1) as u64);
            children.push(spawn_replica(&registry_addr, si, lo, hi, seed));
        }
    }

    // Discovery: wait until every replica's announcement lands.
    let t0 = Instant::now();
    while registry.live().len() < children.len() {
        assert!(t0.elapsed() < Duration::from_secs(20), "replicas failed to announce in time");
        std::thread::sleep(Duration::from_millis(50));
    }
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new(TcpConfig::default()));
    let specs = shard_specs(&registry, &transport);
    assert_eq!(specs.len(), CUTS.len(), "announcements must group into one spec per shard span");
    let svc = ShardedService::from_links(
        specs,
        ShardConfig {
            scatter_deadline: Duration::from_secs(2),
            health: HealthPolicy { trip_threshold: 3, probe_cooldown: Duration::from_millis(50) },
            seed: 42,
            clock,
            ..ShardConfig::default()
        },
    )
    .expect("remote topology builds");
    println!("discovered {} replica processes across {} shards", children.len(), CUTS.len());

    // Phase 1 — exactness across processes, judged by the registered
    // gate. Real sockets and live worker pools are not a deterministic
    // function of the gate seed, but each draw is an independent sample
    // of the same distribution, which is all the chi-square needs.
    let weights: Vec<f64> = (0..N).map(|i| 1.0 + (i % 10) as f64).collect();
    let clients = 3usize;
    let s = 32u32;
    gate::run("net_multi_process_chi_square", |_seed, scale| {
        let calls = queries * scale;
        let failed = AtomicU64::new(0);
        let histograms: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let mut client = svc.client();
                    let failed = &failed;
                    scope.spawn(move || {
                        let mut hist = vec![0u64; N];
                        for _ in 0..calls {
                            match client.sample_wr(None, s) {
                                Ok(drawn) => {
                                    assert!(!drawn.degraded, "healthy cluster degraded a read");
                                    for id in drawn.ids {
                                        hist[id as usize] += 1;
                                    }
                                }
                                Err(_) => {
                                    failed.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        hist
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no client panics")).collect()
        });
        assert_eq!(failed.load(Ordering::Relaxed), 0, "a read failed on the healthy cluster");
        let mut merged = vec![0u64; N];
        for hist in &histograms {
            for (m, &h) in merged.iter_mut().zip(hist) {
                *m += h;
            }
        }
        let gof = chi_square_gof(&merged, &weight_probs(&weights));
        vec![Trial::from_gof("multi-process cluster vs single-node weights", &gof)]
    });

    // Phase 2 — kill shard 0's first replica process mid-stream: the
    // killer waits until the clients are demonstrably in flight (a few
    // queries observed), pulls the trigger, and the clients keep
    // hammering. The partner replica covers every remaining read: zero
    // failures, zero degraded.
    let failed = AtomicU64::new(0);
    let degraded = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let killer = scope.spawn(|| {
            while completed.load(Ordering::Relaxed) < 10 {
                std::thread::yield_now();
            }
            let victim = &mut children[0];
            victim.kill().expect("kill replica process");
            victim.wait().expect("reap replica process");
            println!("killed replica process for shard 0 mid-stream");
        });
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let mut client = svc.client();
                let (failed, degraded, completed) = (&failed, &degraded, &completed);
                scope.spawn(move || {
                    for _ in 0..queries {
                        match client.sample_wr(None, s) {
                            Ok(drawn) => {
                                if drawn.degraded {
                                    degraded.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Err(_) => {
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no client panics");
        }
        killer.join().expect("killer thread");
    });
    assert_eq!(failed.load(Ordering::Relaxed), 0, "a read failed during the process kill");
    assert_eq!(degraded.load(Ordering::Relaxed), 0, "R=2 must mask a single process death");

    let m = svc.metrics();
    println!("\n{m}");
    assert!(m.router.failovers >= 1, "the killed process must have forced failovers");

    // Clean shutdown: close the survivors' stdin pipes and reap them.
    // (The victim was already reaped by the killer thread; its second
    // `wait` just returns the cached status, which was a kill.)
    for child in children.iter_mut().skip(1) {
        drop(child.stdin.take());
    }
    for (i, mut child) in children.into_iter().enumerate() {
        let status = child.wait().expect("reap replica process");
        if i > 0 {
            assert!(status.success(), "replica exited uncleanly: {status}");
        }
    }
    println!(
        "\nzero failed reads, zero degraded reads, distribution exact across processes — done."
    );
}
