//! Where the router runs a leg, and what it makes of a typed answer
//! from one leg of several — held on scripted links, so each test sees
//! exactly which door the router knocked on and decides what comes back.
//!
//! The rule (router module docs, "Where a leg runs"): a scatter of one
//! leg, or of at most one kernel tile of draws over all its legs, is
//! *answered* ([`ReplicaLink::answer`]); anything larger is handed off
//! leg by leg ([`ReplicaLink::submit`]).

use std::sync::{Arc, Mutex};

use iqs_core::QueryError;
use iqs_serve::{Admission, LegAsk, MetricsSnapshot, Response, ServeError};
use iqs_shard::{PendingLeg, ReplicaLink, ShardConfig, ShardError, ShardSpec, ShardedService};

/// A replica that answers every leg at once: `s` copies of its shard's
/// number for a draw, 1 for a count — or, when scripted to, an error. A
/// draw it is asked to answer lands in the leg's buffer, as an in-process
/// replica's does; one handed off comes back in the reply. It logs
/// `(door, s)` per call, in call order.
struct ScriptedLink {
    shard: u64,
    fail_with: Option<ServeError>,
    calls: Mutex<Vec<(&'static str, u32)>>,
}

impl ScriptedLink {
    fn reply(
        &self,
        door: &'static str,
        leg: LegAsk,
        out: Option<&mut Vec<u64>>,
    ) -> Result<PendingLeg, ServeError> {
        self.calls.lock().unwrap().push((door, leg.planned() as u32));
        if let Some(e) = &self.fail_with {
            let e = e.clone();
            return Ok(PendingLeg::deferred(move |_| Some(Err(e))));
        }
        let ok = match (leg, out) {
            (LegAsk::SampleWr { s, .. }, Some(out)) => {
                out.resize(s as usize, self.shard);
                Response::Samples(Vec::new())
            }
            (LegAsk::SampleWr { s, .. }, None) => Response::Samples(vec![self.shard; s as usize]),
            (LegAsk::RangeCount { .. }, _) => Response::Count(1),
        };
        Ok(PendingLeg::deferred(move |_| Some(Ok(ok))))
    }
}

impl ReplicaLink for ScriptedLink {
    fn submit(&self, leg: LegAsk, _at: Admission) -> Result<PendingLeg, ServeError> {
        self.reply("submit", leg, None)
    }

    fn answer(
        &self,
        leg: LegAsk,
        _at: Admission,
        out: &mut Vec<u64>,
    ) -> Result<PendingLeg, ServeError> {
        self.reply("answer", leg, Some(out))
    }

    fn total_weight(&self) -> Result<f64, ServeError> {
        Ok(1.0)
    }

    fn range_weight(&self, _x: f64, _y: f64) -> Result<f64, ServeError> {
        Ok(1.0)
    }

    fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }
}

/// Shard `i` spans keys `[10 i, 10 i + 9]` with weight 1 and one replica,
/// failing as `script[i]` says.
fn cluster(script: Vec<Option<ServeError>>) -> (ShardedService, Vec<Arc<ScriptedLink>>) {
    let links: Vec<Arc<ScriptedLink>> = script
        .into_iter()
        .enumerate()
        .map(|(i, fail_with)| {
            Arc::new(ScriptedLink { shard: i as u64, fail_with, calls: Mutex::default() })
        })
        .collect();
    let specs = links
        .iter()
        .enumerate()
        .map(|(i, link)| ShardSpec {
            lo_key: 10.0 * i as f64,
            hi_key: 10.0 * i as f64 + 9.0,
            total_weight: 1.0,
            links: vec![Arc::clone(link) as Arc<dyn ReplicaLink>],
        })
        .collect();
    let config = ShardConfig { shards: links.len(), replicas: 1, ..ShardConfig::default() };
    (ShardedService::from_links(specs, config).expect("scripted topology"), links)
}

/// The doors knocked on since the last call, over all links.
fn doors(links: &[Arc<ScriptedLink>]) -> Vec<&'static str> {
    links.iter().flat_map(|l| std::mem::take(&mut *l.calls.lock().unwrap())).map(|c| c.0).collect()
}

#[test]
fn a_scatter_up_to_one_tile_is_answered_and_a_larger_one_handed_off() {
    let (svc, links) = cluster(vec![None; 4]);
    let mut client = svc.client();

    // 64 and 256 draws over four equal shards: within the tile.
    for s in [64u32, 256] {
        assert_eq!(client.sample_wr(None, s).expect("read").ids.len(), s as usize);
        let knocked = doors(&links);
        assert!(knocked.len() > 1 && knocked.iter().all(|&d| d == "answer"), "s={s}: {knocked:?}");
    }
    // One draw more: every leg is handed off, however small it is —
    // the bound is on the scatter's serial work, not on a leg's.
    assert_eq!(client.sample_wr(None, 257).expect("read").ids.len(), 257);
    let knocked = doors(&links);
    assert!(knocked.len() > 1 && knocked.iter().all(|&d| d == "submit"), "{knocked:?}");

    // A scatter's only leg has nothing to overlap with at any size.
    assert_eq!(client.sample_wr(Some((10.0, 19.0)), 4096).expect("read").ids, vec![1; 4096]);
    assert_eq!(doors(&links), ["answer"]);

    // Counts draw nothing.
    assert_eq!(client.range_count(0.0, 39.0).expect("count").count, 4);
    assert_eq!(doors(&links), ["answer"; 4]);
}

#[test]
fn an_empty_leg_among_several_is_lost_without_failing_the_query() {
    let empty = ServeError::Query(QueryError::EmptyRange);
    let (svc, _links) = cluster(vec![None, Some(empty.clone()), None]);
    let mut client = svc.client();
    // All three shards are planned from their cached weight; shard 1
    // then says its range is empty, contradicting the plan.
    let drawn = client.sample_wr(None, 90).expect("the other shards hold mass");
    assert!(drawn.degraded);
    assert_eq!(drawn.ids.len() + drawn.missing, 90);
    assert!(drawn.missing > 0 && !drawn.ids.contains(&1), "{drawn:?}");
    let m = svc.metrics().router;
    assert_eq!((m.failovers, m.trips), (0, 0), "an answer, not a replica failure");

    // As the plan's only leg, the same reply is the query's answer.
    assert_eq!(client.sample_wr(Some((10.0, 19.0)), 8), Err(ShardError::EmptyRange));

    // A reply that rejects the request itself fails the query from any
    // leg: every shard would say the same.
    let (svc, _links) =
        cluster(vec![None, Some(ServeError::InvalidRequest("scripted".into())), None]);
    assert_eq!(
        svc.client().sample_wr(None, 90),
        Err(ShardError::InvalidRequest("scripted".into()))
    );
    assert_eq!(svc.metrics().router.failovers, 0);
}
