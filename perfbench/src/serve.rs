//! The `serve-refresh` workload: reads beside writes in one serving tier.
//!
//! One `ServeTier` serves a maintained 1-D histogram and a static 2-D
//! one. A closed-loop reader thread sends batches of predicates, three
//! 1-D range selectivities to one 2-D rectangle selectivity; an
//! open-loop writer thread absorbs a delta on a fixed schedule and
//! republishes (merge → snapshot → recompile → publish). Each refresh is
//! timed from when it was due.
//!
//! Every served batch is checked after the run: its answers must be
//! bit-identical to the direct compiled answer of some generation
//! published between the batch's start and its end.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use wh_core::evaluate::Evaluator;
use wh_core::twod::{sequential_send_coef2d, SendCoef2d};
use wh_core::{MaintainedHistogram, WaveletHistogram};
use wh_data::twod::{Dataset2d, Distribution2d};
use wh_data::{Dataset, DatasetBuilder, Distribution};
use wh_mapreduce::{ClusterConfig, EngineConfig};
use wh_query::{BatchScratch, BatchScratch2D, CompiledHistogram, CompiledHistogram2D};
use wh_serve::ServeTier;
use wh_wavelet::Domain;

use crate::report::{Metric, Report};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{mix, peak_rss_mb, secs, RunConfig};

const ID_1D: u32 = 1;
const ID_2D: u32 = 2;
/// Distinct query batches per kind, cycled by the reader.
const POOL: usize = 64;
/// The traced reader records one span per this many batches.
const READER_SPAN_EVERY: u64 = 32;

type Range = (u64, u64);
type Rect = (u64, u64, u64, u64);

/// The serving state a run measures against.
struct Setup {
    initial: Dataset,
    maintained: MaintainedHistogram,
    compiled: CompiledHistogram,
    compiled_2d: CompiledHistogram2D,
    records_2d: u64,
    tier: ServeTier,
    pool_1d: Vec<Vec<Range>>,
    pool_2d: Vec<Vec<Rect>>,
    deltas: Vec<Vec<u64>>,
    period: Duration,
    key_bytes: u32,
    /// Every 1-D publish so far: (generation, snapshot, records).
    published: Vec<(u64, WaveletHistogram, u64)>,
}

/// A small deterministic generator for query endpoints.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0, 0)
    }

    /// An inclusive range in `[0, u)` whose width is log-uniform, so
    /// point-like and wide predicates both occur.
    fn range(&mut self, u: u64) -> Range {
        let log_u = u.trailing_zeros();
        let width = 1u64 << (self.next() % (u64::from(log_u) + 1));
        let lo = self.next() % u;
        let hi = (lo + self.next() % width).min(u - 1);
        (lo, hi)
    }
}

fn setup(cfg: &RunConfig, report: &mut Report, tracer: &mut Tracer, parent: Option<u32>) -> Setup {
    let s = cfg.scale;
    let initial = DatasetBuilder::new()
        .domain(Domain::new(s.log_u).expect("valid log_u"))
        .distribution(Distribution::ScrambledZipf { alpha: 1.1 })
        .records(s.records)
        .splits(s.splits)
        .seed(mix(cfg.seed, 2))
        .build();
    let t0 = Instant::now();
    let maintained = MaintainedHistogram::from_dataset(&initial, s.serve_k);
    let compiled = CompiledHistogram::compile(&maintained.snapshot());
    let t1 = Instant::now();

    let dataset_2d = Dataset2d::new(
        Domain::new(s.log_u_2d).expect("valid log_u"),
        Distribution2d::WorldCup,
        s.records_2d,
        s.splits_2d,
        mix(cfg.seed, 3),
    );
    let cluster = ClusterConfig::paper_cluster();
    let engine = EngineConfig::pipelined()
        .with_reducers(u32::try_from(cluster.num_slaves()).expect("few slaves"))
        .with_map_parallelism(2)
        .with_reducer_parallelism(2);
    let built = SendCoef2d::new()
        .with_engine(engine)
        .build(&dataset_2d, &cluster, s.k_2d)
        .histogram;
    let reference = sequential_send_coef2d(&dataset_2d, s.k_2d);
    let same = built.coefficients().len() == reference.coefficients().len()
        && built
            .coefficients()
            .iter()
            .zip(reference.coefficients())
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
    report.check((!same).then(|| "setup: SendCoef2d differs from its sequential reference".into()));
    let compiled_2d = CompiledHistogram2D::compile(&built);
    let t2 = Instant::now();

    let tier = ServeTier::new(2);
    let generation = tier.publish(ID_1D, &compiled, maintained.total_records());
    let published = vec![(
        generation,
        maintained.snapshot(),
        maintained.total_records(),
    )];
    tier.publish2d(ID_2D, &compiled_2d, s.records_2d);
    let t3 = Instant::now();

    let mut rng = Rng(mix(cfg.seed, 4));
    let u = initial.domain().u();
    let u2 = dataset_2d.domain().u();
    let pool_1d = (0..POOL)
        .map(|_| (0..s.batch).map(|_| rng.range(u)).collect())
        .collect();
    let pool_2d = (0..POOL)
        .map(|_| {
            (0..s.batch)
                .map(|_| {
                    let (xlo, xhi) = rng.range(u2);
                    let (ylo, yhi) = rng.range(u2);
                    (xlo, xhi, ylo, yhi)
                })
                .collect()
        })
        .collect();

    // Enough deltas for the whole window, generated up front from the
    // same distribution, so the writer only absorbs them.
    let count = (cfg.seconds / s.delta_period.as_secs_f64()).ceil() as u32 + 2;
    let delta_source = DatasetBuilder::new()
        .domain(initial.domain())
        .distribution(Distribution::ScrambledZipf { alpha: 1.1 })
        .records(u64::from(count) * s.delta_records)
        .splits(count)
        .seed(mix(cfg.seed, 5))
        .build();
    let deltas = (0..count)
        .map(|j| delta_source.scan_split(j).map(|r| r.key).collect())
        .collect();
    let t4 = Instant::now();
    tracer.record("setup.maintain_1d", parent, t0, t1);
    tracer.record("setup.build_2d", parent, t1, t2);
    tracer.record("setup.publish", parent, t2, t3);
    tracer.record("setup.inputs", parent, t3, t4);
    Setup {
        key_bytes: initial.key_bytes(),
        initial,
        maintained,
        compiled,
        compiled_2d,
        records_2d: s.records_2d,
        tier,
        pool_1d,
        pool_2d,
        deltas,
        period: s.delta_period,
        published,
    }
}

/// Order-sensitive hash of an answer batch's bits.
fn answer_hash(out: &[f64]) -> u64 {
    out.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, v| {
        (h ^ v.to_bits())
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29)
    })
}

/// One served batch, as the reader saw it.
struct Batch {
    two_d: bool,
    pool: usize,
    /// Generations current before the call and after it.
    gen_before: u64,
    gen_after: u64,
    hash: u64,
    ok: bool,
    latency_s: f64,
    /// When the call returned, in seconds since the reader started.
    end_s: f64,
}

/// One refresh, as the writer timed it.
struct Refresh {
    due_to_publish_s: f64,
    lateness_s: f64,
    merge_s: f64,
    snapshot_s: f64,
    recompile_s: f64,
    publish_s: f64,
    error: Option<String>,
}

/// What one reader + writer session produced.
struct Session {
    batches: Vec<Batch>,
    reader_s: f64,
    batch_size: usize,
    refreshes: Vec<Refresh>,
    /// The reader's and the writer's spans.
    tracers: [Tracer; 2],
}

/// The reader's throughput in each tenth of its window, in predicates
/// per second. Their median is `serve_qps`: a stall of the reader thread
/// lowers one slice, not the figure.
fn slice_rates(x: &Session) -> Vec<f64> {
    const SLICES: usize = 10;
    let slice_s = x.reader_s / SLICES as f64;
    let mut batches = [0usize; SLICES];
    for b in &x.batches {
        batches[((b.end_s / slice_s) as usize).min(SLICES - 1)] += 1;
    }
    let per_batch = x.batch_size as f64;
    batches
        .iter()
        .map(|&n| n as f64 * per_batch / slice_s)
        .collect()
}

/// Runs the reader and the writer side by side for `seconds`, the
/// writer starting at delta `first_delta`, tracing as `tracer` does.
fn session(s: &mut Setup, first_delta: usize, seconds: f64, tracer: &Tracer) -> Session {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let period = s.period;
    let batch = s.pool_1d[0].len();
    let tier = &s.tier;
    let (pool_1d, pool_2d) = (&s.pool_1d, &s.pool_2d);
    let (maintained, compiled, deltas) = (&mut s.maintained, &mut s.compiled, &s.deltas);
    let published = &mut s.published;
    let mut reader_tracer = tracer.fork();
    let mut writer_tracer = tracer.fork();

    let (reader, writer) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut handle = tier.handle();
            let mut out = vec![0.0; batch];
            let mut batches = Vec::new();
            let t_start = Instant::now();
            let mut i = 0u64;
            while Instant::now() < deadline {
                let two_d = i % 4 == 3;
                let pool = ((i / 4) as usize) % POOL;
                let gen_before = handle.snapshot().generation();
                let t0 = Instant::now();
                let res = if two_d {
                    handle.try_rectangle_selectivity_batch_into(ID_2D, &pool_2d[pool], &mut out)
                } else {
                    handle.try_selectivity_batch_into(ID_1D, &pool_1d[pool], &mut out)
                };
                let t1 = Instant::now();
                let gen_after = handle.snapshot().generation();
                if i.is_multiple_of(READER_SPAN_EVERY) {
                    let name = if two_d {
                        "wh-serve.batch2d"
                    } else {
                        "wh-serve.batch1d"
                    };
                    reader_tracer.record(name, None, t0, t1);
                }
                batches.push(Batch {
                    two_d,
                    pool,
                    gen_before,
                    gen_after,
                    hash: answer_hash(&out),
                    ok: res.is_ok(),
                    latency_s: secs(t0, t1),
                    end_s: secs(t_start, t1),
                });
                i += 1;
            }
            (batches, secs(t_start, Instant::now()))
        });
        let writer = scope.spawn(|| {
            let mut refreshes = Vec::new();
            for (r, delta) in deltas.iter().enumerate().skip(first_delta) {
                let due = start + period * (r - first_delta) as u32;
                if due >= deadline {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let t0 = Instant::now();
                maintained.merge_keys(delta.iter().copied());
                let t1 = Instant::now();
                let snapshot = maintained.snapshot();
                let t2 = Instant::now();
                compiled.recompile(&snapshot);
                let t3 = Instant::now();
                let records = maintained.total_records();
                let before = tier.generation();
                let generation = tier.publish(ID_1D, compiled, records);
                let t4 = Instant::now();
                let refresh = writer_tracer.record("refresh", None, due.min(t0), t4);
                writer_tracer.record("wh-core.merge", refresh, t0, t1);
                writer_tracer.record("wh-core.snapshot", refresh, t1, t2);
                writer_tracer.record("wh-query.recompile", refresh, t2, t3);
                writer_tracer.record("wh-serve.publish", refresh, t3, t4);
                let error = if generation != before + 1 {
                    Some(format!(
                        "refresh {r}: generation {generation} after {before}"
                    ))
                } else if tier.dataset_records(ID_1D) != Some(records) {
                    Some(format!("refresh {r}: tier lost the record count {records}"))
                } else {
                    None
                };
                published.push((generation, snapshot, records));
                refreshes.push(Refresh {
                    due_to_publish_s: secs(due, t4),
                    lateness_s: secs(due, t0),
                    merge_s: secs(t0, t1),
                    snapshot_s: secs(t1, t2),
                    recompile_s: secs(t2, t3),
                    publish_s: secs(t3, t4),
                    error,
                });
            }
            refreshes
        });
        (
            reader.join().expect("reader thread panicked"),
            writer.join().expect("writer thread panicked"),
        )
    });
    Session {
        batches: reader.0,
        reader_s: reader.1,
        batch_size: batch,
        refreshes: writer,
        tracers: [reader_tracer, writer_tracer],
    }
}

/// Direct (tier-free) answers to the pooled batches, cached per
/// published 1-D generation.
struct Direct<'a> {
    s: &'a Setup,
    compiled: BTreeMap<usize, CompiledHistogram>,
    hashes_1d: HashMap<(usize, usize), u64>,
    hashes_2d: HashMap<usize, u64>,
    scratch: BatchScratch,
    scratch_2d: BatchScratch2D,
    out: Vec<f64>,
}

impl<'a> Direct<'a> {
    fn new(s: &'a Setup) -> Self {
        Self {
            s,
            compiled: BTreeMap::new(),
            hashes_1d: HashMap::new(),
            hashes_2d: HashMap::new(),
            scratch: BatchScratch::new(),
            scratch_2d: BatchScratch2D::new(),
            out: vec![0.0; s.pool_1d[0].len()],
        }
    }

    /// Index into `published` of the 1-D histogram served at generation `g`.
    fn published_at(&self, g: u64) -> Option<usize> {
        self.s
            .published
            .partition_point(|p| p.0 <= g)
            .checked_sub(1)
    }

    fn hash_1d(&mut self, pool: usize, at: usize) -> u64 {
        if let Some(&h) = self.hashes_1d.get(&(pool, at)) {
            return h;
        }
        // Batches arrive in time order: older generations are done with.
        self.compiled.retain(|&k, _| k + 1 >= at);
        let (_, hist, records) = &self.s.published[at];
        let compiled = self
            .compiled
            .entry(at)
            .or_insert_with(|| CompiledHistogram::compile(hist));
        let res = compiled.try_selectivity_batch_into(
            &self.s.pool_1d[pool],
            *records,
            &mut self.scratch,
            &mut self.out,
        );
        let h = if res.is_ok() {
            answer_hash(&self.out)
        } else {
            !answer_hash(&self.out)
        };
        self.hashes_1d.insert((pool, at), h);
        h
    }

    fn hash_2d(&mut self, pool: usize) -> u64 {
        if let Some(&h) = self.hashes_2d.get(&pool) {
            return h;
        }
        let res = self.s.compiled_2d.try_selectivity_batch_into(
            &self.s.pool_2d[pool],
            self.s.records_2d,
            &mut self.scratch_2d,
            &mut self.out,
        );
        let h = if res.is_ok() {
            answer_hash(&self.out)
        } else {
            !answer_hash(&self.out)
        };
        self.hashes_2d.insert(pool, h);
        h
    }

    /// Whether a served batch matches the direct answer of a generation
    /// current at some point during the call.
    fn matches(&mut self, b: &Batch) -> bool {
        if !b.ok {
            return false;
        }
        if b.two_d {
            return self.hash_2d(b.pool) == b.hash;
        }
        (b.gen_before..=b.gen_after).any(|g| match self.published_at(g) {
            Some(at) => self.hash_1d(b.pool, at) == b.hash,
            None => false,
        })
    }
}

/// Times the pooled batches through the unsharded compiled histograms
/// of the last publish, without the tier: the tier's overhead is its
/// batch time minus this.
fn time_direct(s: &Setup) -> (Vec<f64>, Vec<f64>) {
    const PASSES: usize = 10;
    let (_, hist, records) = s.published.last().expect("the initial publish");
    let compiled = CompiledHistogram::compile(hist);
    let mut scratch = BatchScratch::new();
    let mut scratch_2d = BatchScratch2D::new();
    let mut out = vec![0.0; s.pool_1d[0].len()];
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    for _ in 0..PASSES {
        for (q1, q2) in s.pool_1d.iter().zip(&s.pool_2d) {
            let t0 = Instant::now();
            let r1 = compiled.try_selectivity_batch_into(q1, *records, &mut scratch, &mut out);
            let t_mid = Instant::now();
            let r2 = s.compiled_2d.try_selectivity_batch_into(
                q2,
                s.records_2d,
                &mut scratch_2d,
                &mut out,
            );
            let t_end = Instant::now();
            assert!(r1.is_ok() && r2.is_ok(), "pooled queries are valid");
            t1.push(secs(t0, t_mid));
            t2.push(secs(t_mid, t_end));
        }
    }
    (t1, t2)
}

/// Rebuilds the exact histogram of everything absorbed (the initial data
/// plus every delta the writer merged) from scratch, as the Centralized
/// builder does, and compares the final snapshot with it bit for bit.
/// Returns the snapshot's SSE over the ideal k-term SSE.
fn check_final(s: &Setup, absorbed: usize) -> Result<f64, String> {
    let mut freq = s.initial.exact_frequency_vector();
    for delta in &s.deltas[..absorbed] {
        for &x in delta {
            freq[usize::try_from(x).expect("key fits usize")] += 1;
        }
    }
    let mut coefs: Vec<f64> = freq.into_iter().map(|c| c as f64).collect();
    wh_wavelet::haar::forward_in_place(&mut coefs);
    let top = wh_wavelet::select::top_k_magnitude(
        coefs.iter().enumerate().map(|(slot, &v)| (slot as u64, v)),
        s.maintained.k(),
    );
    let snapshot = s.maintained.snapshot();
    let same = snapshot.len() == top.len()
        && snapshot
            .coefficients()
            .iter()
            .zip(&top)
            .all(|(&(slot, v), e)| slot == e.slot && v.to_bits() == e.value.to_bits());
    if !same {
        return Err("final snapshot differs from a from-scratch exact build".into());
    }
    let evaluator = Evaluator::from_exact(coefs);
    Ok(evaluator.sse(&snapshot) / evaluator.ideal_sse(s.maintained.k()))
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer, report: &mut Report) {
    let mut setup_times = Vec::new();
    let mut state = None;
    for _ in 0..cfg.scale.setups {
        drop(state.take());
        let t0 = Instant::now();
        let span = tracer.open("setup", None, t0);
        let s = setup(cfg, report, tracer, span);
        let t1 = Instant::now();
        tracer.close(span, t1);
        setup_times.push(secs(t0, t1));
        state = Some(s);
    }
    let mut s = state.expect("at least one set-up");

    // A traced run first serves untraced for half its time, then traced
    // for the other half; the difference is the tracing overhead.
    let mut sessions = Vec::new();
    if cfg.traced {
        let untraced = Tracer::new(false, Instant::now());
        sessions.push(session(&mut s, 0, cfg.seconds / 2.0, &untraced));
        let done = sessions[0].refreshes.len();
        let root = tracer.open("serve", None, Instant::now());
        let traced = session(&mut s, done, cfg.seconds / 2.0, tracer);
        tracer.close(root, Instant::now());
        for t in &traced.tracers {
            tracer.absorb(t, root);
        }
        sessions.push(traced);
    } else {
        sessions.push(session(&mut s, 0, cfg.seconds, tracer));
    }
    let peak = peak_rss_mb();

    // Checks: every batch against the direct answers, every refresh, and
    // the final state against a from-scratch build.
    let mut direct = Direct::new(&s);
    for (n, sess) in sessions.iter().enumerate() {
        for (i, b) in sess.batches.iter().enumerate() {
            let ok = direct.matches(b);
            report.check((!ok).then(|| {
                format!(
                    "session {n} batch {i}: answer matches no generation in [{}, {}]",
                    b.gen_before, b.gen_after
                )
            }));
        }
        for r in &sess.refreshes {
            report.check(r.error.clone());
        }
    }
    let absorbed: usize = sessions.iter().map(|x| x.refreshes.len()).sum();
    let sse_ratio = match check_final(&s, absorbed) {
        Ok(r) => {
            report.check(None);
            r
        }
        Err(e) => {
            report.check(Some(e));
            0.0
        }
    };

    let all =
        |f: &dyn Fn(&Session) -> Vec<f64>| -> Vec<f64> { sessions.iter().flat_map(f).collect() };
    let latencies = all(&|x| x.batches.iter().map(|b| b.latency_s).collect());
    let fresh = all(&|x| x.refreshes.iter().map(|r| r.due_to_publish_s).collect());
    let qps = median(&all(&slice_rates));
    let setup_s = median(&setup_times);
    let comm = (cfg.scale.delta_records * u64::from(s.key_bytes)) as f64;
    let metric = |name, value, unit| Metric { name, value, unit };
    report.end_to_end = vec![
        metric("setup_s", setup_s, "s"),
        metric("op_p50_ms", median(&latencies) * 1e3, "ms"),
        metric("op_per_s", qps, "1/s"),
        metric("fresh_p50_ms", median(&fresh) * 1e3, "ms"),
        metric("comm_bytes", comm, "B"),
        metric("sse_ratio", sse_ratio, "ratio"),
    ];
    report.detail = vec![
        metric("setup_s", setup_s, "s"),
        metric("serve_qps", qps, "estimates/s"),
        metric("batch_p50_us", median(&latencies) * 1e6, "us"),
        metric("batch_p99_us", quantile(&latencies, 0.99) * 1e6, "us"),
        metric("refresh_p50_ms", median(&fresh) * 1e3, "ms"),
        metric("refresh_p90_ms", quantile(&fresh, 0.9) * 1e3, "ms"),
        metric("comm_bytes", comm, "B"),
        metric("sse_ratio", sse_ratio, "ratio"),
        metric("peak_rss_mb", peak, "MiB"),
        metric("failed_frac", report.failed_frac(), "ratio"),
        metric("batches", latencies.len() as f64, "count"),
        metric("refreshes", fresh.len() as f64, "count"),
    ];

    if !cfg.traced {
        return;
    }
    let traced = &sessions[1];
    let untraced = &sessions[0];
    let kind = |two_d: bool| -> Vec<f64> {
        traced
            .batches
            .iter()
            .filter(|b| b.two_d == two_d)
            .map(|b| b.latency_s)
            .collect()
    };
    let refresh = |f: fn(&Refresh) -> f64| -> f64 {
        median(&traced.refreshes.iter().map(f).collect::<Vec<_>>()) * 1e3
    };
    let generations_seen = traced
        .batches
        .windows(2)
        .filter(|w| w[1].gen_after != w[0].gen_after)
        .count();
    let (direct_1d, direct_2d) = time_direct(&s);
    let session_qps = |x: &Session| median(&slice_rates(x));
    report.per_layer = vec![
        metric("wh-serve.batch1d_us", median(&kind(false)) * 1e6, "us"),
        metric("wh-serve.batch2d_us", median(&kind(true)) * 1e6, "us"),
        metric("wh-query.batch1d_direct_us", median(&direct_1d) * 1e6, "us"),
        metric("wh-query.batch2d_direct_us", median(&direct_2d) * 1e6, "us"),
        metric(
            "wh-serve.generations_seen",
            generations_seen as f64,
            "count",
        ),
        metric("wh-core.merge_ms", refresh(|r| r.merge_s), "ms"),
        metric("wh-core.snapshot_ms", refresh(|r| r.snapshot_s), "ms"),
        metric(
            "wh-core.distinct_keys",
            s.maintained.distinct_keys() as f64,
            "count",
        ),
        metric("wh-query.recompile_ms", refresh(|r| r.recompile_s), "ms"),
        metric(
            "wh-serve.refresh_publish_ms",
            refresh(|r| r.publish_s),
            "ms",
        ),
        metric("refresh.lateness_ms", refresh(|r| r.lateness_s), "ms"),
        metric("trace.serve_qps_traced", session_qps(traced), "1/s"),
        metric(
            "trace.overhead_serve_qps",
            session_qps(traced) - session_qps(untraced),
            "1/s",
        ),
    ];
}
