//! The two passes over one workload.
//!
//! * [`untraced`] measures the end-to-end metrics: set-up several times,
//!   a discarded warm-up, an untimed chi-square check, then timed
//!   segments of a closed loop with one request in flight. No spans.
//! * [`traced`] replays the workload's request stream for a fixed
//!   request count through every rung of its ladder, recording a span
//!   around every call, and derives the per-layer metrics.

use std::time::{Duration, Instant};

use iqs_alias::prof;
use iqs_net::{frame, msg};
use iqs_obs::recorder;
use iqs_serve::{Request, Response};
use iqs_shard::SHARD_INDEX;
use iqs_stats::chi_square_gof;
use iqs_testkit::ClockHandle;

use crate::gen::{Req, Stream, MIXED_OPS};
use crate::host;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report::{Metric, Pass};
use crate::spans::{self_times, Span, SpanBuf};
use crate::stats::{best_tenth, median_ns, quartiles, tail_ns, Better, Quartiles};
use crate::system::{build, Built, Rung, Scale, Workload};

/// Settings of one pass.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Timed seconds of the untraced pass; scales the traced pass's
    /// request counts.
    pub seconds: f64,
    /// [`SEGMENT_MS`] in the command; unit tests use a shorter one.
    pub segment_ms: u64,
    pub scale: Scale,
    /// Whether `taskset` pinned this process to one CPU.
    pub pinned: bool,
}

/// Length of a timed segment of the untraced pass. Part of what the
/// best-tenth statistic means, so fixed, and recorded in result files.
pub const SEGMENT_MS: u64 = 250;
/// Builds of the workload per untraced run, spread over its length.
const SETUP_BUILDS: usize = 5;
/// Contiguous key bins of the chi-square check.
const VERIFY_BINS: usize = 256;
/// Significance level below which the check rejects the draws.
const VERIFY_ALPHA: f64 = 1e-6;
/// Rounds the traced pass interleaves its arms over, so slow drift of
/// the host hits every rung alike.
const ROUNDS: u32 = 20;
/// Requests per arm whose spans are written to the span file (all spans
/// feed the metrics; the file is a sample for reading).
pub const SPAN_FILE_REQUESTS: u32 = 1000;

#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// One closed-loop client: a request stream and what it observed.
struct Arm {
    rung: usize,
    stream: Stream,
    read_ns: Vec<u32>,
    update_ns: Vec<u32>,
    samples: u64,
    wall: Duration,
}

impl Arm {
    fn new(rung: usize, stream: Stream) -> Arm {
        Arm {
            rung,
            stream,
            read_ns: Vec::new(),
            update_ns: Vec::new(),
            samples: 0,
            wall: Duration::ZERO,
        }
    }
}

enum Limit {
    Requests(u32),
    Time(Duration),
}

/// Drives `arm` against `rung` until `limit`, one request in flight.
/// Returns requests completed and the wall time taken.
fn drive(
    rung: &mut Rung,
    arm: &mut Arm,
    limit: Limit,
    obs_traced: bool,
    mut spans: Option<&mut SpanBuf>,
    tally: &mut Tally,
) -> (u64, Duration) {
    let begin = Instant::now();
    let mut done = 0u64;
    let mut generated = 0u32;
    let mut last = begin;
    loop {
        match limit {
            Limit::Requests(n) if generated >= n => break,
            Limit::Time(d) if last.duration_since(begin) >= d => break,
            _ => {}
        }
        let request_no = (arm.read_ns.len() + arm.update_ns.len()) as u32;
        let root_start = spans.as_ref().map(|_| Instant::now());
        let req = arm.stream.next_req();
        generated += 1;
        let Some(out) = rung.issue(&req, obs_traced) else { continue };
        tally.attempted += 1;
        tally.failed += u64::from(!out.ok);
        let ns = out.end.duration_since(out.start).as_nanos().min(u128::from(u32::MAX)) as u32;
        match req {
            Req::Update(_) => arm.update_ns.push(ns),
            Req::Read { s, .. } => {
                arm.read_ns.push(ns);
                arm.samples += u64::from(s);
            }
        }
        done += 1;
        last = out.end;
        if let (Some(buf), Some(root_start)) = (spans.as_deref_mut(), root_start) {
            let root = buf.push(0, rung.key, request_no, root_start, Instant::now());
            buf.push(root, rung.span, request_no, out.start, out.end);
        }
    }
    let wall = begin.elapsed();
    arm.wall += wall;
    (done, wall)
}

/// Draws at least `samples` samples through `rung` from the stream's
/// verify interval and tests them against the exact `w(e)/W` over
/// [`VERIFY_BINS`] contiguous key bins. Returns the p-value (0 when a
/// request failed).
fn chi_square(rung: &mut Rung, stream: &Stream, samples: usize, tally: &mut Tally) -> f64 {
    let (x, y) = stream.verify_range();
    let (lo, hi) = (x as usize, y as usize);
    let width = (hi - lo + 1).div_ceil(VERIFY_BINS);
    let bins = (hi - lo + 1).div_ceil(width);
    let mut expected = vec![0.0; bins];
    for (i, &w) in stream.weights[lo..=hi].iter().enumerate() {
        expected[i / width] += w;
    }
    let total: f64 = expected.iter().sum();
    let probs: Vec<f64> = expected.iter().map(|w| w / total).collect();

    let s = stream.s();
    let mut observed = vec![0u64; bins];
    let mut drawn = 0;
    while drawn < samples {
        let out = rung.issue(&Req::Read { x, y, s }, false).expect("every top rung serves reads");
        tally.attempted += 1;
        if !out.ok {
            tally.failed += 1;
            return 0.0;
        }
        for &id in &out.ids {
            observed[(id as usize - lo) / width] += 1;
        }
        drawn += out.ids.len();
    }
    chi_square_gof(&observed, &probs).p_value
}

fn pass(tally: Tally, chi_square_p: f64, metrics: Vec<Metric>) -> Pass {
    Pass {
        correct: tally.failed == 0 && chi_square_p >= VERIFY_ALPHA,
        attempted: tally.attempted,
        failed: tally.failed,
        chi_square_p,
        metrics,
    }
}

/// The end-to-end pass: no spans, no recorder.
///
/// The run is cut into [`SETUP_BUILDS`] epochs. Each builds the workload
/// afresh (timed: one `setup_s` sample), warms it up, and then serves
/// its share of the timed segments; the previous build is torn down
/// untimed. Spreading the builds over the run lets `setup_s` see the same
/// stretch of host time as the other two metrics, and averages the luck
/// of one build's memory layout out of `qps` and `p50_us`.
pub fn untraced(w: &Workload, cfg: &Config) -> Pass {
    let mut tally = Tally::default();
    let base = w.stream(cfg.scale, cfg.seed);
    let warmup = (w.warmup / cfg.scale.warmup_div).max(1);
    let segment = Duration::from_millis(cfg.segment_ms);
    let segments = ((cfg.seconds * 1000.0 / cfg.segment_ms as f64).round() as usize).max(1);

    let mut setup_s = Vec::with_capacity(SETUP_BUILDS);
    let mut qps = Vec::with_capacity(segments);
    let mut p50_us = Vec::with_capacity(segments);
    let mut chi_square_p = 1.0;
    let mut built: Option<Built> = None;
    for epoch in 0..SETUP_BUILDS {
        drop(built.take());
        let mut arm = Arm::new(0, base.clone());
        let begin = Instant::now();
        let b = built.insert(build(w, &base.weights, cfg.seed, false));
        drive(b.top(), &mut arm, Limit::Requests(warmup), false, None, &mut tally);
        setup_s.push(begin.elapsed().as_secs_f64());
        if epoch == 0 {
            // Right after the count-based warm-up of the first build, so
            // the p-value is a function of the seed alone.
            chi_square_p = chi_square(b.top(), &arm.stream, cfg.scale.verify_samples, &mut tally);
        }
        let share = segments * (epoch + 1) / SETUP_BUILDS - segments * epoch / SETUP_BUILDS;
        for _ in 0..share {
            arm.read_ns.clear();
            let (done, wall) =
                drive(b.top(), &mut arm, Limit::Time(segment), false, None, &mut tally);
            qps.push(done as f64 / wall.as_secs_f64());
            p50_us.push(median_ns(&arm.read_ns) / 1000.0);
        }
    }

    // Interference on a shared host only ever slows work down, so the
    // undisturbed stretches are the steady part of a run: `qps` and
    // `p50_us` report the mean of the best tenth of the segments and
    // `setup_s` the best of its builds. The quartiles over all of them
    // are kept beside each value.
    let values = [
        (best_tenth(&qps, Better::Higher), quartiles(&qps)),
        (best_tenth(&p50_us, Better::Lower), quartiles(&p50_us)),
        (best_tenth(&setup_s, Better::Lower), quartiles(&setup_s)),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (v, q))| Metric::new(m.name, m.unit, v, q))
        .collect();
    pass(tally, chi_square_p, metrics)
}

/// What the traced pass hands back besides its metrics.
pub struct Traced {
    pub pass: Pass,
    /// Spans of the first [`SPAN_FILE_REQUESTS`] requests of every arm.
    pub spans: Vec<Span>,
}

/// The per-layer pass. Every count in it is a function of the seed and
/// `--seconds` alone, so the metrics marked exact repeat bit for bit.
pub fn traced(w: &Workload, cfg: &Config) -> Traced {
    let mut tally = Tally::default();
    let base = w.stream(cfg.scale, cfg.seed);
    let warmup = (w.warmup / cfg.scale.warmup_div).max(1);
    let mut built = build(w, &base.weights, cfg.seed, true);
    let top = built.rungs.len() - 1;

    // One traced arm per rung, replaying the same stream, plus an
    // untraced arm on the top rung to price the span recording itself.
    let mut arms: Vec<Arm> = (0..=top).map(|r| Arm::new(r, base.clone())).collect();
    for arm in &mut arms {
        drive(&mut built.rungs[arm.rung], arm, Limit::Requests(warmup), false, None, &mut tally);
        *arm = Arm::new(arm.rung, arm.stream.clone());
    }
    let chi_square_p =
        chi_square(built.top(), &arms[top].stream, cfg.scale.verify_samples, &mut tally);
    let untraced_top = arms.len();
    arms.push(Arm::new(top, arms[top].stream.clone()));

    let per_arm = ((f64::from(w.ladder_per_s) * cfg.seconds) as u32).max(ROUNDS);
    let block = per_arm / ROUNDS;
    let mut spans = SpanBuf::with_capacity(arms.len() * (block * ROUNDS) as usize * 2);

    let serve_before = built.server.as_ref().map(|s| s.metrics());
    let router_before = built.cluster.as_ref().map(|c| c.metrics().router);
    let (mut cost, mut io, mut cold_draws) = (prof::Cost::default(), iqs_em::IoStats::default(), 0);
    let cpu_before = host::on_cpu_ns();
    let wall_before = Instant::now();
    for _ in 0..ROUNDS {
        for (i, arm) in arms.iter_mut().enumerate() {
            let rung = &mut built.rungs[arm.rung];
            let buf = (i != untraced_top).then_some(&mut spans);
            // The bare kernel's and the bare tier's counters are read
            // around their own rung's blocks only.
            let cost_before = prof::read();
            let tier_before = built.tier.as_ref().map(|t| (t.io_stats(), t.counters().cold_draws));
            drive(rung, arm, Limit::Requests(block), false, buf, &mut tally);
            match (rung.key, built.tier.as_ref().zip(tier_before)) {
                ("R0", _) => {
                    let d = prof::read().minus(&cost_before);
                    cost.rng_words += d.rng_words;
                    cost.prefetches += d.prefetches;
                    cost.window_stalls += d.window_stalls;
                    cost.alias_redirects += d.alias_redirects;
                }
                ("T0", Some((tier, (io_before, draws_before)))) => {
                    let d = tier.io_stats().minus(&io_before).expect("monotone I/O counters");
                    io.reads += d.reads;
                    io.writes += d.writes;
                    io.hits += d.hits;
                    io.misses += d.misses;
                    cold_draws += tier.counters().cold_draws - draws_before;
                }
                _ => {}
            }
        }
    }
    let ladder_wall = wall_before.elapsed();
    let cpu_busy = (host::on_cpu_ns() - cpu_before) as f64 / ladder_wall.as_nanos() as f64;
    let serve_after = built.server.as_ref().map(|s| s.metrics());
    let router_after = built.cluster.as_ref().map(|c| c.metrics().router);

    let obs = obs_arms(&mut built, &arms[top].stream, per_arm / 2, &mut tally);
    let wire = if built.rungs.iter().any(|r| r.key == "R6") {
        wire_costs(&mut built, &arms[top].stream)
    } else {
        Wire::default()
    };

    // Rung medians, and layers as differences of adjacent rungs.
    let p50 = |key: &str| -> Option<f64> {
        let r = built.rungs.iter().position(|r| r.key == key)?;
        Some(median_ns(&arms[r].read_ns))
    };
    let above = |key: &str, below: &str| match (p50(key), p50(below)) {
        (Some(a), Some(b)) => a - b,
        _ => 0.0,
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let top_arm = &arms[top];
    let top_p50 = median_ns(&top_arm.read_ns);
    let untraced_p50 = median_ns(&arms[untraced_top].read_ns);
    let kernel_samples = arms[0].samples as f64;

    let root_name = built.rungs[top].key;
    let own = self_times(&spans.spans);
    let generator: Vec<u32> = spans
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == root_name)
        .map(|(_, &ns)| ns.min(u64::from(u32::MAX)) as u32)
        .collect();

    let serve = match (&serve_before, &serve_after) {
        (Some(b), Some(a)) => {
            Some((a.minus(b).expect("monotone serve metrics"), a.snapshot_swaps - b.snapshot_swaps))
        }
        _ => None,
    };
    let router = match (&router_before, &router_after) {
        (Some(b), Some(a)) => Some((a, b)),
        _ => None,
    };
    let router_of =
        |f: fn(&iqs_shard::RouterMetrics) -> u64| router.map_or(0.0, |(a, b)| (f(a) - f(b)) as f64);
    let queries = router_of(|r| r.queries);
    let t0_queries = built
        .rungs
        .iter()
        .position(|r| r.key == "T0")
        .map_or(0.0, |r| arms[r].read_ns.len() as f64);
    let updates = top_arm.update_ns.len() as f64;
    let update_ns = top_arm.update_ns.iter().map(|&ns| u64::from(ns)).sum::<u64>() as f64;

    let value = |name: &str| -> f64 {
        match name {
            "core.kernel_ns" => p50("R0").unwrap_or(0.0),
            "core.ns_per_sample" => p50("R0").map_or(0.0, |ns| ns / f64::from(w.s)),
            "alias.rng_words_per_sample" => ratio(cost.rng_words as f64, kernel_samples),
            "alias.redirect_share" => ratio(cost.alias_redirects as f64, kernel_samples),
            "alias.window_stall_share" => ratio(cost.window_stalls as f64, cost.prefetches as f64),
            "serve.registry_ns" => above("R1", "R0"),
            "serve.queue_ns" => above("R2", "R1"),
            "serve.queue_wait_p50_us" => serve
                .as_ref()
                .and_then(|(d, _)| d.queue_wait.quantile(0.5))
                .map_or(0.0, |d| d.as_secs_f64() * 1e6),
            "serve.update_p50_us" => median_ns(&top_arm.update_ns) / 1000.0,
            "serve.updates_per_s" => ratio(updates * MIXED_OPS as f64, top_arm.wall.as_secs_f64()),
            "serve.update_wall_share" => ratio(update_ns, top_arm.wall.as_nanos() as f64),
            "serve.snapshot_swaps" => serve.as_ref().map_or(0.0, |(_, swaps)| *swaps as f64),
            "serve.rejected_share" => serve.as_ref().map_or(0.0, |(d, _)| {
                ratio((d.rejected_overload + d.deadline_missed) as f64, d.submitted as f64)
            }),
            "shard.route_ns" => above("R3", "R2"),
            "shard.fanout_ns" => above("R4", "R3"),
            "shard.legs_per_query" => ratio(router_of(|r| r.legs), queries),
            "shard.probes_live_per_query" => ratio(router_of(|r| r.probes_live), queries),
            "shard.failovers" => router_of(|r| r.failovers),
            "shard.degraded_share" => ratio(router_of(|r| r.degraded_queries), queries),
            "net.codec_ns" => above("R5", "R3"),
            "net.socket_ns" => above("R6", "R5"),
            "net.request_bytes" => wire.request_bytes,
            "net.reply_bytes" => wire.reply_bytes,
            "net.encode_reply_ns" => wire.encode_reply_ns,
            "net.decode_reply_ns" => wire.decode_reply_ns,
            "tier.cold_ns" => p50("T0").unwrap_or(0.0),
            "tier.hot_ns" => p50("T0h").unwrap_or(0.0),
            "tier.serve_ns" => above("T1", "T0"),
            "tier.block_reads_per_query" => ratio(io.reads as f64, t0_queries),
            "tier.block_writes_per_query" => ratio(io.writes as f64, t0_queries),
            "tier.cache_hit_share" => io.hit_rate(),
            "tier.cold_draws_per_query" => ratio(cold_draws as f64, t0_queries),
            "obs.recorder_overhead_share" => ratio(obs.on_p50 - obs.off_p50, obs.off_p50),
            "obs.records_per_query" => ratio(obs.records as f64, obs.queries as f64),
            "obs.span_coverage_share" => ratio(obs.covered_ns as f64, obs.client_ns as f64),
            "ledger.trace_overhead_share" => ratio(top_p50 - untraced_p50, untraced_p50),
            "ledger.generator_ns" => median_ns(&generator),
            "ledger.top_rung_p50_us" => top_p50 / 1000.0,
            "client.p99_us" => tail_ns(&top_arm.read_ns) / 1000.0,
            "client.requests" => top_arm.read_ns.len() as f64,
            "client.fail_share" => ratio(tally.failed as f64, tally.attempted as f64),
            "host.cpu_busy_share" => cpu_busy,
            "host.peak_rss_mb" => host::peak_rss_mb(),
            "host.pinned" => f64::from(u8::from(cfg.pinned)),
            other => unreachable!("metric {other} has no definition"),
        }
    };
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let v = value(m.name);
            Metric::new(m.name, m.unit, v, Quartiles::point(v))
        })
        .collect();

    let mut kept = spans.spans;
    kept.retain(|s| s.request < SPAN_FILE_REQUESTS);
    Traced { pass: pass(tally, chi_square_p, metrics), spans: kept }
}

/// What the program's own flight recorder costs and covers, measured on
/// the top rung: alternating blocks with the recorder off and on.
#[derive(Default)]
struct Obs {
    off_p50: f64,
    on_p50: f64,
    records: u64,
    queries: u64,
    /// Σ over traced queries of (last record − first record).
    covered_ns: u64,
    /// Σ over the same queries of the client-observed latency.
    client_ns: u64,
}

/// Ring slots per thread; a block's records are drained in batches well
/// below it so nothing is overwritten.
const RECORDER_CAPACITY: usize = 1 << 15;
const DRAIN_EVERY: u32 = 256;

fn obs_arms(built: &mut Built, stream: &Stream, per_arm: u32, tally: &mut Tally) -> Obs {
    let top = built.rungs.len() - 1;
    let mut off = Arm::new(top, stream.clone());
    let mut on = Arm::new(top, stream.clone());
    let mut obs = Obs::default();
    let block = (per_arm / ROUNDS).max(1);
    for _ in 0..ROUNDS {
        drive(built.top(), &mut off, Limit::Requests(block), false, None, tally);
        recorder::install(&ClockHandle::real(), RECORDER_CAPACITY);
        let mut left = block;
        while left > 0 {
            let batch = left.min(DRAIN_EVERY);
            let (reads_from, updates_from) = (on.read_ns.len(), on.update_ns.len());
            drive(built.top(), &mut on, Limit::Requests(batch), true, None, tally);
            left -= batch;
            let mut records = recorder::drain();
            obs.records += records.len() as u64;
            obs.queries += u64::from(batch);
            records.sort_by_key(|r| (r.trace, r.t_ns));
            obs.covered_ns += records
                .chunk_by(|a, b| a.trace == b.trace)
                .map(|of_one_query| {
                    of_one_query[of_one_query.len() - 1].t_ns - of_one_query[0].t_ns
                })
                .sum::<u64>();
            obs.client_ns += on.read_ns[reads_from..]
                .iter()
                .chain(&on.update_ns[updates_from..])
                .map(|&ns| u64::from(ns))
                .sum::<u64>();
        }
        recorder::disable();
    }
    obs.off_p50 = median_ns(&off.read_ns);
    obs.on_p50 = median_ns(&on.read_ns);
    obs
}

/// Sizes and direct timings of the wire codec on a real response.
#[derive(Default)]
struct Wire {
    request_bytes: f64,
    reply_bytes: f64,
    encode_reply_ns: f64,
    decode_reply_ns: f64,
}

/// Repetitions of each direct codec timing; the median is reported.
const CODEC_REPS: usize = 201;

fn wire_costs(built: &mut Built, stream: &Stream) -> Wire {
    let (x, y) = stream.verify_range();
    let s = stream.s();
    let request = Request::SampleWr { index: SHARD_INDEX.to_string(), range: Some((x, y)), s };
    let r2 = built.rungs.iter_mut().find(|r| r.key == "R2").expect("tcp ladders include R2");
    let out = r2.issue(&Req::Read { x, y, s }, false).expect("R2 serves reads");
    let reply = Ok(Response::Samples(out.ids));
    let encoded = msg::encode_reply(&reply, 1, 1);

    let time = |f: &mut dyn FnMut()| {
        let ns: Vec<u32> = (0..CODEC_REPS)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32
            })
            .collect();
        median_ns(&ns)
    };
    Wire {
        request_bytes: msg::encode_request(&request, 1, 1, 0).len() as f64,
        reply_bytes: encoded.len() as f64,
        encode_reply_ns: time(&mut || {
            std::hint::black_box(msg::encode_reply(std::hint::black_box(&reply), 1, 1));
        }),
        decode_reply_ns: time(&mut || {
            let (header, payload) =
                frame::decode_frame(std::hint::black_box(&encoded), frame::DEFAULT_MAX_PAYLOAD)
                    .expect("a frame this process encoded");
            let _ = std::hint::black_box(msg::decode_reply(header.kind, payload));
        }),
    }
}
