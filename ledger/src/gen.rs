//! Seeded inputs: weights, query ranges and update operations.
//!
//! Everything the program under test receives is generated here from
//! `--seed`; the program itself never sees the seed of the data (its own
//! `ServerConfig`/`ShardConfig` seeds are derived from the same value).

use iqs_serve::UpdateOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Independent sub-seed `stream` of the run seed. `StdRng` seeds through
/// SplitMix64, so adjacent values give unrelated streams.
pub fn derive(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(stream)
}

/// Zipf weights `1/(i+1)` shuffled by the seed — the same law as
/// `iqs_bench::Weights::Zipf`. Element `i` has key `i` and id `i`.
pub fn zipf_weights(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(derive(seed, 1));
    let mut ws: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    for i in (1..n).rev() {
        ws.swap(i, rng.random_range(0..=i));
    }
    ws
}

/// `(key, weight)` pairs for a static range index (sampled id = rank = key).
pub fn pairs(weights: &[f64]) -> Vec<(f64, f64)> {
    weights.iter().enumerate().map(|(i, &w)| (i as f64, w)).collect()
}

/// `(id, key, weight)` triples with `id = key = i`, offset by `base`.
pub fn triples(weights: &[f64], base: usize) -> Vec<(u64, f64, f64)> {
    weights.iter().enumerate().map(|(i, &w)| ((base + i) as u64, (base + i) as f64, w)).collect()
}

/// The closed key interval covering `[2%, 98%]` of `0..n`.
pub fn wide_range(n: usize) -> (f64, f64) {
    ((n / 50) as f64, (n - n / 50 - 1) as f64)
}

/// One request of a workload's stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    /// `s` weighted samples with replacement from keys in `[x, y]`.
    Read { x: f64, y: f64, s: u32 },
    /// A batch of upserts against the dynamic index.
    Update(Vec<UpdateOp>),
}

/// How a stream chooses its requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamKind {
    /// Every request reads the same interval.
    Fixed { x: f64, y: f64 },
    /// Every request reads a seeded random window covering a quarter of
    /// the keys (working set much larger than the cold tier's cache).
    Window,
    /// 49 reads of the same interval, then one update of 16 upserts.
    Mixed { x: f64, y: f64 },
}

/// Reads between two updates of a mixed stream, plus the update itself.
pub const MIXED_PERIOD: u64 = 50;
/// Upserts per update of a mixed stream.
pub const MIXED_OPS: usize = 16;

/// A deterministic request stream. Two streams built from the same
/// arguments yield the same requests, so every rung of the ladder
/// replays the same sequence.
#[derive(Debug, Clone)]
pub struct Stream {
    kind: StreamKind,
    n: usize,
    s: u32,
    rng: StdRng,
    issued: u64,
    /// Current weight of every element, kept in step with the updates
    /// this stream has generated (the exact target of the chi-square
    /// check after updates).
    pub weights: Vec<f64>,
}

impl Stream {
    pub fn new(kind: StreamKind, weights: Vec<f64>, s: u32, seed: u64) -> Stream {
        Stream {
            kind,
            n: weights.len(),
            s,
            rng: StdRng::seed_from_u64(derive(seed, 2)),
            issued: 0,
            weights,
        }
    }

    pub fn s(&self) -> u32 {
        self.s
    }

    /// The interval the untimed chi-square pass reads: the stream's own
    /// for fixed streams, the first seeded window otherwise.
    pub fn verify_range(&self) -> (f64, f64) {
        match self.kind {
            StreamKind::Fixed { x, y } | StreamKind::Mixed { x, y } => (x, y),
            StreamKind::Window => self.clone().window(),
        }
    }

    fn window(&mut self) -> (f64, f64) {
        let len = self.n / 4;
        let lo = self.rng.random_range(0..self.n - len);
        (lo as f64, (lo + len - 1) as f64)
    }

    pub fn next_req(&mut self) -> Req {
        self.issued += 1;
        match self.kind {
            StreamKind::Fixed { x, y } => Req::Read { x, y, s: self.s },
            StreamKind::Window => {
                let (x, y) = self.window();
                Req::Read { x, y, s: self.s }
            }
            StreamKind::Mixed { x, y } => {
                if !self.issued.is_multiple_of(MIXED_PERIOD) {
                    return Req::Read { x, y, s: self.s };
                }
                // Each upsert redraws one element's weight from the law
                // the index was built with, so the weight spread (and
                // with it the read cost) stays stationary over a run.
                let ops = (0..MIXED_OPS)
                    .map(|_| {
                        let id = self.rng.random_range(0..self.n);
                        let weight = 1.0 / (self.rng.random_range(0..self.n) as f64 + 1.0);
                        self.weights[id] = weight;
                        UpdateOp::Upsert { id: id as u64, key: id as f64, weight }
                    })
                    .collect();
                Req::Update(ops)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(zipf_weights(500, 7), zipf_weights(500, 7));
        assert_ne!(zipf_weights(500, 7), zipf_weights(500, 8));
        let mut sorted = zipf_weights(500, 7);
        sorted.sort_by(|a, b| b.total_cmp(a));
        assert_eq!(sorted[0], 1.0);
        assert_eq!(sorted[499], 1.0 / 500.0);

        for kind in [
            StreamKind::Fixed { x: 10.0, y: 400.0 },
            StreamKind::Window,
            StreamKind::Mixed { x: 10.0, y: 400.0 },
        ] {
            let mut a = Stream::new(kind, zipf_weights(500, 7), 64, 7);
            let mut b = Stream::new(kind, zipf_weights(500, 7), 64, 7);
            let mut c = Stream::new(kind, zipf_weights(500, 7), 64, 8);
            let ra: Vec<Req> = (0..200).map(|_| a.next_req()).collect();
            let rb: Vec<Req> = (0..200).map(|_| b.next_req()).collect();
            let rc: Vec<Req> = (0..200).map(|_| c.next_req()).collect();
            assert_eq!(ra, rb);
            assert_eq!(a.weights, b.weights);
            if !matches!(kind, StreamKind::Fixed { .. }) {
                assert_ne!(ra, rc);
            }
        }
    }

    #[test]
    fn mixed_stream_updates_every_fiftieth_request_and_mirrors_weights() {
        let base = zipf_weights(500, 3);
        let mut s = Stream::new(StreamKind::Mixed { x: 0.0, y: 499.0 }, base.clone(), 64, 3);
        let reqs: Vec<Req> = (0..100).map(|_| s.next_req()).collect();
        let updates: Vec<usize> = reqs
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, Req::Update(_)))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(updates, vec![49, 99]);
        let mut mirror = base;
        for r in &reqs {
            if let Req::Update(ops) = r {
                assert_eq!(ops.len(), MIXED_OPS);
                for op in ops {
                    let UpdateOp::Upsert { id, key, weight } = *op else { panic!("upserts only") };
                    assert_eq!(id as f64, key);
                    mirror[id as usize] = weight;
                }
            }
        }
        assert_eq!(mirror, s.weights);
    }

    #[test]
    fn windows_cover_a_quarter_and_stay_inside_the_keys() {
        let mut s = Stream::new(StreamKind::Window, zipf_weights(1000, 1), 64, 1);
        let first = s.verify_range();
        for i in 0..100 {
            let Req::Read { x, y, s: 64 } = s.next_req() else { panic!("reads only") };
            assert!(x >= 0.0 && y <= 999.0 && y - x == 249.0);
            if i == 0 {
                assert_eq!((x, y), first);
            }
        }
    }
}
