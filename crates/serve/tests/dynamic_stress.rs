//! Seeded stress tests for dynamic indexes under concurrent read +
//! rebuild, through the service's own path: a writer streams a random
//! (but reproducible) op stream as `Request::Update` batches through a
//! [`Client`], while reader threads pin `server.registry().view(..)` and
//! check every published snapshot — length, total weight, `(key, id)`
//! order and id–rank alignment — against the writer's mirror log.
//!
//! A marker element sorts last and carries the batch's sequence number —
//! in its id, when each batch replaces it, or in its weight, when every
//! batch only re-weights — so a reader learns from the snapshot alone
//! which log entry it must equal. Readers also hold each view across the
//! next publication and check it again: a re-weight is written into the
//! view one publication behind, which must never be one a reader holds.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use iqs_core::RangeSampler;
use iqs_serve::{
    Client, IndexRegistry, IndexView, Request, Response, Server, ServerConfig, UpdateOp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BATCHES: u64 = 128;
const OPS_PER_BATCH: usize = 16;
const READERS: usize = 3;
const INDEX: &str = "dyn";
/// Marker ids start above every data id, and the marker's key above
/// every data key, so the marker is the last element of every view.
const MARKER_BASE: u64 = 1 << 32;
const MARKER_KEY: f64 = 1000.0;

/// Ground truth at one publication: the mirror's `(key, id, weight)`
/// elements in `(key, id)` order.
type Truth = Vec<(f64, u64, f64)>;

/// The writer's mirror log, indexed by sequence number. The writer
/// appends entry `seq` before it submits batch `seq`, so a reader that
/// sees marker `seq` always finds its entry.
#[derive(Default)]
struct Log(Mutex<Vec<Arc<Truth>>>);

impl Log {
    fn push(&self, mirror: &HashMap<u64, (f64, f64)>) {
        let mut truth: Truth = mirror.iter().map(|(&id, &(key, w))| (key, id, w)).collect();
        truth.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        self.0.lock().unwrap().push(Arc::new(truth));
    }

    fn get(&self, seq: u64) -> Arc<Truth> {
        Arc::clone(&self.0.lock().unwrap()[seq as usize])
    }
}

/// Checks one pinned snapshot against the log entry its marker names;
/// returns the marker's sequence number.
fn check_view(view: &IndexView, log: &Log, rng: &mut StdRng) -> u64 {
    let IndexView::Range(rv) = view else { panic!("dynamic index published {view:?}") };
    let sampler = rv.sampler.as_ref().expect("the marker keeps the index non-empty");
    let n = sampler.len();
    // A replaced marker's id carries the number, or else the one
    // marker's weight does.
    let seq = rv.id_at(n - 1) - MARKER_BASE + (sampler.weights()[n - 1] - 1.0) as u64;
    let truth = log.get(seq);
    assert_eq!(n, truth.len(), "seq {seq}: structure len");
    assert_eq!(sampler.range_count(f64::NEG_INFINITY, f64::INFINITY), n, "seq {seq}");
    for (rank, &(key, id, w)) in truth.iter().enumerate() {
        assert_eq!(sampler.keys()[rank], key, "seq {seq}: key at rank {rank}");
        assert_eq!(rv.id_at(rank), id, "seq {seq}: id at rank {rank}");
        assert_eq!(sampler.weights()[rank], w, "seq {seq}: weight at rank {rank}");
    }
    let want: f64 = truth.iter().map(|&(_, _, w)| w).sum();
    let got = rv.total_weight;
    assert!((got - want).abs() <= 1e-9 * want.max(1.0), "seq {seq}: total {got} != log {want}");
    let mut ranks = [0u32; 8];
    sampler
        .sample_wr_batch(f64::NEG_INFINITY, f64::INFINITY, rng, &mut ranks)
        .expect("non-empty range");
    assert!(ranks.iter().all(|&r| (r as usize) < n), "seq {seq}: rank out of range");
    seq
}

/// How the writer's batches change the index.
#[derive(Clone, Copy, PartialEq)]
enum Batches {
    /// Inserts, removes and key moves, the marker replaced: every
    /// publication is a fresh build.
    Structural,
    /// Re-weights of live elements at their keys, the marker's too:
    /// every publication is a patch.
    Reweights,
}

/// A coarse key grid, so many elements tie on a key.
fn any_key(rng: &mut StdRng) -> f64 {
    f64::from(rng.random_range(0..40u32)) * 2.5
}

/// Submits batch `seq`: `OPS_PER_BATCH` random data ops and the marker
/// for `seq` — structural batches take the previous marker out and put
/// a new one in, re-weight batches re-weight the one marker to
/// `1 + seq`. Every op takes effect, and the batch is publication
/// `seq + 1` of the index (registration was the first).
fn write_batch(
    batches: Batches,
    client: &Client,
    log: &Log,
    mirror: &mut HashMap<u64, (f64, f64)>,
    rng: &mut StdRng,
    seq: u64,
) {
    let mut ops = Vec::new();
    if batches == Batches::Structural {
        ops.push(UpdateOp::Remove { id: MARKER_BASE + seq - 1 });
        mirror.remove(&(MARKER_BASE + seq - 1));
    }
    for _ in 0..OPS_PER_BATCH {
        let id = rng.random_range(0..200u64);
        if batches == Batches::Reweights {
            let (key, weight) = (mirror[&id].0, rng.random_range(0.1..5.0));
            ops.push(UpdateOp::Upsert { id, key, weight });
            mirror.insert(id, (key, weight));
        } else if mirror.contains_key(&id) && rng.random_bool(0.45) {
            ops.push(UpdateOp::Remove { id });
            mirror.remove(&id);
        } else {
            let (key, weight) = (any_key(rng), rng.random_range(0.1..5.0));
            ops.push(UpdateOp::Upsert { id, key, weight });
            mirror.insert(id, (key, weight));
        }
    }
    let (id, weight) = match batches {
        Batches::Structural => (MARKER_BASE + seq, 1.0),
        Batches::Reweights => (MARKER_BASE, 1.0 + seq as f64),
    };
    ops.push(UpdateOp::Upsert { id, key: MARKER_KEY, weight });
    mirror.insert(id, (MARKER_KEY, weight));
    log.push(mirror);
    let applied = ops.len();
    let resp = client.call(Request::Update { index: INDEX.into(), ops }).expect("valid batch");
    assert_eq!(resp, Response::Updated { applied, version: seq + 1 });
}

/// Runs the writer against `READERS` snapshot-pinning readers on a
/// dynamic range index. Re-weight batches start from 200 live elements;
/// structural ones from the marker alone.
fn stress(batches: Batches, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mirror: HashMap<u64, (f64, f64)> = HashMap::from([(MARKER_BASE, (MARKER_KEY, 1.0))]);
    if batches == Batches::Reweights {
        mirror.extend((0..200).map(|id| (id, (any_key(&mut rng), rng.random_range(0.1..5.0)))));
    }
    let mut registry = IndexRegistry::new();
    let triples = mirror.iter().map(|(&id, &(key, w))| (id, key, w)).collect();
    registry.register_range_dynamic(INDEX, triples).unwrap();
    let server = Server::start(registry, ServerConfig { workers: 1, ..ServerConfig::default() });
    let log = Log::default();
    log.push(&mirror);
    let done = AtomicBool::new(false);
    let checks = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for r in 0..READERS {
            let (server, log, done, checks) = (&server, &log, &done, &checks);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (0x5EED + r as u64));
                let mut last_seq = 0u64;
                let mut held = None;
                while !done.load(Ordering::Acquire) {
                    let view = server.registry().view(INDEX).expect("registered");
                    let seq = check_view(&view, log, &mut rng);
                    assert!(seq >= last_seq, "publication order ran backwards");
                    if let Some(held) = held.replace(view) {
                        assert_eq!(check_view(&held, log, &mut rng), last_seq, "a held view moved");
                    }
                    last_seq = seq;
                    checks.fetch_add(1, Ordering::Relaxed);
                }
                // One final check of the last publication.
                let view = server.registry().view(INDEX).expect("registered");
                assert_eq!(check_view(&view, log, &mut rng), BATCHES);
            });
        }

        let client = server.client();
        for seq in 1..=BATCHES {
            write_batch(batches, &client, &log, &mut mirror, &mut rng, seq);
        }
        done.store(true, Ordering::Release);
    });
    assert!(checks.load(Ordering::Relaxed) > 0, "readers never overlapped the writer");
    server.shutdown();
}

#[test]
fn range_snapshots_stay_consistent_under_concurrent_rebuild() {
    stress(Batches::Structural, 0xB5B5);
}

#[test]
fn range_snapshots_stay_consistent_under_concurrent_reweights() {
    stress(Batches::Reweights, 0x2E3E);
}
