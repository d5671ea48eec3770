//! Equation (1) through the service: the outputs of successive identical
//! queries are mutually independent when the draws come from *seats*
//! that change hands between queries and from router legs answered on
//! the caller's thread — not only when one kernel is driven by one RNG,
//! which is what `tests/independence.rs` gates.
//!
//! Arm (a) depends on how three threads interleave on two seats, so its
//! statistic is not a function of the seed alone; that is why this gate
//! lives in a file of its own rather than in one that CI's determinism
//! job runs twice and diffs. What it checks does not depend on the
//! interleaving: any interleaving of independent streams is an
//! independent stream.

use iqs::serve::{IndexRegistry, Request, Response, Server, ServerConfig};
use iqs::shard::{ShardConfig, ShardedService};
use iqs::stats::chisq::{chi_square_gof, weight_probs};
use iqs::stats::independence::pairwise_g_report;
use iqs::testkit::gate::{self, Trial};

const N: usize = 160;
/// The closed key (= id) range every query asks for.
const LO: usize = 4;
const HI: usize = 155;
const CELLS: usize = 8;

fn weight(i: usize) -> f64 {
    1.0 + (i % 5) as f64
}

/// Residue cells: every cell has members in every shard and in every
/// stretch of the range, so position 0 of a routed reply (which mostly
/// comes from the first shard) still spreads over all of them.
fn cell(id: u64) -> usize {
    id as usize % CELLS
}

/// What one stream of successive replies leaves behind: the F1 pairs
/// (cell of position 0, query `i` against query `i + 1`) and the count
/// of every id at every position.
struct Observed {
    firsts: Vec<usize>,
    counts: Vec<u64>,
}

impl Observed {
    fn new() -> Observed {
        Observed { firsts: Vec::new(), counts: vec![0; HI - LO + 1] }
    }

    fn reply(&mut self, ids: &[u64]) {
        self.firsts.push(cell(ids[0]));
        for &id in ids {
            self.counts[id as usize - LO] += 1;
        }
    }
}

/// The two trials of one arm: successive position-0 cells are pairwise
/// independent within every stream, and the pooled ids follow `w(e)/W`.
fn trials(arm: &str, streams: &[Observed]) -> Vec<Trial> {
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    let mut counts = vec![0u64; HI - LO + 1];
    for stream in streams {
        xs.extend_from_slice(&stream.firsts[..stream.firsts.len() - 1]);
        ys.extend_from_slice(&stream.firsts[1..]);
        for (total, &c) in counts.iter_mut().zip(&stream.counts) {
            *total += c;
        }
    }
    let weights: Vec<f64> = (LO..=HI).map(weight).collect();
    vec![
        Trial::from_gof(
            format!("{arm}: position 0 of successive queries"),
            &pairwise_g_report(&xs, &ys, CELLS),
        ),
        Trial::from_gof(
            format!("{arm}: marginals vs w(e)/W"),
            &chi_square_gof(&counts, &weight_probs(&weights)),
        ),
    ]
}

#[test]
fn successive_queries_are_independent_through_the_service() {
    gate::run("service_successive_queries_g_test", |seed, scale| {
        let range = Some((LO as f64, HI as f64));

        // (a) `Client::call`, three callers contending for two seats:
        // some requests run on their caller's thread, some on a worker's,
        // and which seat's stream serves a caller's next query changes
        // from query to query.
        let mut registry = IndexRegistry::new();
        registry
            .register_range_static("keys", (0..N).map(|i| (i as f64, weight(i))).collect())
            .expect("valid index");
        let server =
            Server::start(registry, ServerConfig { workers: 2, seed, ..Default::default() });
        let per_caller = 14_000 * scale;
        let callers: Vec<Observed> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let client = server.client();
                    scope.spawn(move || {
                        let mut seen = Observed::new();
                        for _ in 0..per_caller {
                            let request = Request::SampleWr { index: "keys".into(), range, s: 4 };
                            match client.call(request).expect("query succeeds") {
                                Response::Samples(ids) => seen.reply(&ids),
                                other => panic!("expected samples, got {other:?}"),
                            }
                        }
                        seen
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panics")).collect()
        });
        let metrics = server.shutdown();
        assert_eq!(metrics.completed, 3 * per_caller as u64);
        assert_eq!(metrics.failed + metrics.rejected_overload + metrics.deadline_missed, 0);

        // (b) `ClusterClient::sample_wr` over four in-process shards:
        // every leg is small enough to be answered on this thread, under
        // the router's multinomial split. Position 0 of a routed reply is
        // not a draw from `w(e)/W` (legs arrive in shard order), but it
        // must still be independent from query to query; the marginals
        // are judged on the whole multiset.
        let cluster = ShardedService::new(
            (0..N).map(|i| (i as u64, i as f64, weight(i))).collect(),
            ShardConfig { shards: 4, replicas: 1, seed, ..ShardConfig::default() },
        )
        .expect("cluster builds");
        let mut client = cluster.client();
        let mut routed = Observed::new();
        for _ in 0..30_000 * scale {
            let drawn = client.sample_wr(range, 8).expect("read");
            assert!(!drawn.degraded);
            routed.reply(&drawn.ids);
        }
        assert_eq!(cluster.metrics().router.failovers, 0);

        let mut all = trials("seats under contention", &callers);
        all.extend(trials("inline router legs", &[routed]));
        all
    });
}
