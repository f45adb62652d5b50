//! The three build workloads: dataset → build → compile → publish.
//!
//! * `exact-sendcoef` — Send-Coef on the in-process pipelined engine;
//! * `exact-hwtopk-mp` — H-WTopk on the forked multi-process engine;
//! * `approx-twolevel` — TwoLevel-S, a fresh sampling seed per build.

use std::hint::black_box;
use std::time::Instant;

use wh_core::builders::{BuildResult, Centralized, HWTopk, HistogramBuilder, SendCoef, TwoLevelS};
use wh_core::evaluate::Evaluator;
use wh_core::WaveletHistogram;
use wh_data::{Dataset, DatasetBuilder, Distribution};
use wh_mapreduce::{ClusterConfig, EngineConfig, RunMetrics};
use wh_query::CompiledHistogram;
use wh_serve::ServeTier;
use wh_wavelet::hash::FxHashMap;
use wh_wavelet::Domain;

use crate::report::{Metric, Report};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{mix, peak_rss_mb, secs, RunConfig};

/// The dataset id builds publish under.
const DATASET: u32 = 1;
/// Tolerance of the Centralized comparison: the sparse transform sums
/// per-split coefficients in another order than the dense pass, so
/// values agree to rounding, not bit for bit.
const CENTRALIZED_REL_TOL: f64 = 1e-9;
/// TwoLevel-S builds whose communication and SSE are reported (their
/// medians): the first ones, whose sampling seeds depend only on the
/// workload seed. Enough that the medians vary little from seed to seed.
const REPORTED_SAMPLED_BUILDS: usize = 256;
/// Builds every run makes, whatever its time budget.
const MIN_BUILDS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    SendCoef,
    HWTopkMp,
    TwoLevel,
}

impl Kind {
    fn exact(self) -> bool {
        self != Kind::TwoLevel
    }
}

/// Everything a build run sets up before it measures.
struct Setup {
    dataset: Dataset,
    centralized: WaveletHistogram,
    evaluator: Evaluator,
    ideal_sse: f64,
    /// The exact builder's output on the seed reference engine (the
    /// executable specification); every measured build must match it
    /// bit for bit.
    spec: Option<WaveletHistogram>,
    tier: ServeTier,
}

fn cluster() -> ClusterConfig {
    ClusterConfig::paper_cluster()
}

/// The engine of a workload: 2 map and 2 reduce threads (or 2 forked
/// workers), one reducer per slave of the paper's cluster.
fn engine(kind: Kind) -> EngineConfig {
    let base = match kind {
        Kind::HWTopkMp => EngineConfig::multi_process(),
        _ => EngineConfig::pipelined(),
    };
    let reducers = u32::try_from(cluster().num_slaves()).expect("few slaves");
    base.with_reducers(reducers)
        .with_map_parallelism(2)
        .with_reducer_parallelism(2)
}

fn builder(
    kind: Kind,
    engine: EngineConfig,
    cfg: &RunConfig,
    build: usize,
) -> Box<dyn HistogramBuilder> {
    match kind {
        Kind::SendCoef => Box::new(SendCoef::new().with_engine(engine)),
        Kind::HWTopkMp => Box::new(HWTopk::new().with_engine(engine)),
        Kind::TwoLevel => Box::new(
            TwoLevelS::new(cfg.scale.epsilon, sampling_seed(cfg.seed, build)).with_engine(engine),
        ),
    }
}

fn sampling_seed(seed: u64, build: usize) -> u64 {
    mix(seed, 0x5a3d_0000 + build as u64)
}

fn dataset(cfg: &RunConfig) -> Dataset {
    let s = cfg.scale;
    DatasetBuilder::new()
        .domain(Domain::new(s.log_u).expect("valid log_u"))
        .distribution(Distribution::Zipf { alpha: 1.1 })
        .records(s.records)
        .splits(s.splits)
        .seed(mix(cfg.seed, 1))
        .build()
}

fn setup(kind: Kind, cfg: &RunConfig, tracer: &mut Tracer, parent: Option<u32>) -> Setup {
    let dataset = dataset(cfg);
    let k = cfg.scale.k;
    let t0 = Instant::now();
    let centralized = Centralized::new().build(&dataset, &cluster(), k).histogram;
    let t1 = Instant::now();
    let evaluator = Evaluator::new(&dataset);
    let ideal_sse = evaluator.ideal_sse(k);
    let t2 = Instant::now();
    let spec = kind.exact().then(|| {
        let reference = EngineConfig::reference().with_reducers(engine(kind).num_reducers);
        builder(kind, reference, cfg, 0)
            .build(&dataset, &cluster(), k)
            .histogram
    });
    let t3 = Instant::now();
    let tier = ServeTier::new(2);
    tier.publish(
        DATASET,
        &CompiledHistogram::compile(&centralized),
        dataset.num_records(),
    );
    let t4 = Instant::now();
    tracer.record("setup.centralized", parent, t0, t1);
    tracer.record("setup.ground_truth", parent, t1, t2);
    tracer.record("setup.reference_build", parent, t2, t3);
    tracer.record("setup.publish", parent, t3, t4);
    Setup {
        dataset,
        centralized,
        evaluator,
        ideal_sse,
        spec,
        tier,
    }
}

fn bits(h: &WaveletHistogram) -> Vec<(u64, u64)> {
    h.coefficients()
        .iter()
        .map(|&(s, v)| (s, v.to_bits()))
        .collect()
}

/// Compares an exact build with the Centralized one: the same slots in
/// the same order, values equal to [`CENTRALIZED_REL_TOL`]. Returns the
/// number of coefficients whose bits differ.
fn centralized_diffs(got: &WaveletHistogram, want: &WaveletHistogram) -> Result<u64, String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} coefficients, Centralized has {}",
            got.len(),
            want.len()
        ));
    }
    let mut diffs = 0;
    for (&(gs, gv), &(ws, wv)) in got.coefficients().iter().zip(want.coefficients()) {
        if gs != ws {
            return Err(format!("slot {gs} where Centralized has {ws}"));
        }
        if (gv - wv).abs() > CENTRALIZED_REL_TOL * wv.abs().max(1.0) {
            return Err(format!("slot {gs}: {gv} vs Centralized {wv}"));
        }
        diffs += u64::from(gv.to_bits() != wv.to_bits());
    }
    Ok(diffs)
}

/// One build → compile → publish, with its timings.
struct Sample {
    result: BuildResult,
    total_s: f64,
    compile_s: f64,
    publish_s: f64,
    generation: u64,
}

fn build_once(
    kind: Kind,
    cfg: &RunConfig,
    s: &Setup,
    i: usize,
    tracer: &mut Tracer,
    traced: bool,
) -> Sample {
    let engine = engine(kind);
    let b = builder(kind, engine, cfg, i);
    let parent = if traced {
        tracer.open("build", None, Instant::now())
    } else {
        None
    };
    let t0 = Instant::now();
    let result = b.build(&s.dataset, &cluster(), cfg.scale.k);
    let t1 = Instant::now();
    let compiled = CompiledHistogram::compile(&result.histogram);
    let t2 = Instant::now();
    let generation = s.tier.publish(DATASET, &compiled, s.dataset.num_records());
    let t3 = Instant::now();
    if traced {
        let m = &result.metrics;
        let call = tracer.record("wh-core.build", parent, t0, t1);
        tracer.record_phases(
            call,
            &[
                ("wh-mapreduce.map", m.wall_map_s),
                ("wh-mapreduce.shuffle", m.wall_shuffle_s),
                ("wh-mapreduce.reduce", m.wall_reduce_s),
            ],
        );
        tracer.record("wh-query.compile", parent, t1, t2);
        tracer.record("wh-serve.publish", parent, t2, t3);
        tracer.close(parent, Instant::now());
    }
    Sample {
        result,
        total_s: secs(t0, t3),
        compile_s: secs(t1, t2),
        publish_s: secs(t2, t3),
        generation,
    }
}

/// Checks one build; `Err` names what is wrong. `sse_ratio` is the
/// build's SSE over the ideal, computed for every TwoLevel-S build.
fn check(
    kind: Kind,
    s: &Setup,
    sample: &Sample,
    prev_gen: u64,
    comm0: Option<u64>,
    sse_ratio: Option<f64>,
) -> Result<(), String> {
    let h = &sample.result.histogram;
    let m = &sample.result.metrics;
    if sample.generation != prev_gen + 1 {
        return Err(format!(
            "publish gave generation {} after {prev_gen}",
            sample.generation
        ));
    }
    if kind.exact() {
        let spec = s.spec.as_ref().expect("exact workloads build a spec");
        if bits(h) != bits(spec) {
            return Err("histogram differs from the reference-engine build".into());
        }
        centralized_diffs(h, &s.centralized)?;
        if let Some(c) = comm0 {
            if m.total_comm_bytes() != c {
                return Err(format!(
                    "comm_bytes {} vs {c} on the first build",
                    m.total_comm_bytes()
                ));
            }
        }
    } else {
        if h.is_empty() || h.len() > s.centralized.len() {
            return Err(format!(
                "{} coefficients for k = {}",
                h.len(),
                s.centralized.len()
            ));
        }
        let ratio = sse_ratio.expect("sampled builds are evaluated");
        if !ratio.is_finite() || ratio < 1.0 - 1e-9 {
            return Err(format!("sse_ratio {ratio} below the ideal"));
        }
    }
    if kind == Kind::HWTopkMp {
        if m.wire.pair_bytes != m.shuffle_bytes {
            return Err(format!(
                "wire pair_bytes {} != shuffle_bytes {}",
                m.wire.pair_bytes, m.shuffle_bytes
            ));
        }
        if m.recovery.attempts != m.wire.workers || m.recovery.tasks_retried != 0 {
            return Err(format!(
                "recovery: {} attempts for {} workers, {} tasks retried",
                m.recovery.attempts, m.wire.workers, m.recovery.tasks_retried
            ));
        }
    }
    Ok(())
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer, report: &mut Report) {
    let kind = match cfg.workload.as_str() {
        "exact-sendcoef" => Kind::SendCoef,
        "exact-hwtopk-mp" => Kind::HWTopkMp,
        _ => Kind::TwoLevel,
    };

    // Set-up, several times; the last one is measured against.
    let mut setup_times = Vec::new();
    let mut setup_state = None;
    let mut centralized_bit_diffs = 0;
    for _ in 0..cfg.scale.setups {
        drop(setup_state.take());
        let t0 = Instant::now();
        let span = tracer.open("setup", None, t0);
        let s = setup(kind, cfg, tracer, span);
        let t1 = Instant::now();
        tracer.close(span, t1);
        setup_times.push(secs(t0, t1));
        let diffs = s
            .spec
            .as_ref()
            .map(|spec| centralized_diffs(spec, &s.centralized));
        report.check(match diffs {
            Some(Err(e)) => Some(format!("setup: reference-engine build: {e}")),
            Some(Ok(d)) => {
                centralized_bit_diffs = d;
                None
            }
            None => None,
        });
        setup_state = Some(s);
    }
    let s = setup_state.expect("at least one set-up");

    // Measured builds. A traced run alternates untraced and traced builds,
    // so the two halves see the same machine drift.
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(cfg.seconds);
    let min_builds = if kind == Kind::TwoLevel {
        REPORTED_SAMPLED_BUILDS
    } else {
        MIN_BUILDS
    };
    let mut generation = s.tier.generation();
    let mut totals = Vec::new();
    let mut traced_totals = Vec::new();
    let mut untraced_totals = Vec::new();
    let (mut compile, mut publish, mut map, mut shuffle, mut reduce, mut other) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let mut first: Option<RunMetrics> = None;
    let mut reported = Vec::new();
    let mut i = 0;
    while i < min_builds || Instant::now() < deadline {
        let traced = cfg.traced && i % 2 == 1;
        let sample = build_once(kind, cfg, &s, i, tracer, traced);
        let comm0 = first.map(|f| f.total_comm_bytes());
        let reported_build = i < REPORTED_SAMPLED_BUILDS && (i == 0 || kind == Kind::TwoLevel);
        let sse_ratio = (reported_build || kind == Kind::TwoLevel)
            .then(|| s.evaluator.sse(&sample.result.histogram) / s.ideal_sse);
        let err = check(kind, &s, &sample, generation, comm0, sse_ratio).err();
        report.check(err.map(|e| format!("build {i}: {e}")));
        generation = sample.generation;

        let m = &sample.result.metrics;
        totals.push(sample.total_s);
        if cfg.traced {
            if traced {
                &mut traced_totals
            } else {
                &mut untraced_totals
            }
            .push(sample.total_s);
        }
        compile.push(sample.compile_s);
        publish.push(sample.publish_s);
        map.push(m.wall_map_s);
        shuffle.push(m.wall_shuffle_s);
        reduce.push(m.wall_reduce_s);
        other.push(sample.total_s - m.wall_time_s() - sample.compile_s - sample.publish_s);
        if reported_build {
            let ratio = sse_ratio.expect("reported builds are evaluated");
            reported.push((m.total_comm_bytes() as f64, ratio));
        }
        first.get_or_insert(*m);
        i += 1;
    }
    let window_s = secs(start, Instant::now());
    let peak = peak_rss_mb();
    let fm = first.expect("at least one build");

    let comm = median(&reported.iter().map(|r| r.0).collect::<Vec<_>>());
    let sse_ratio = median(&reported.iter().map(|r| r.1).collect::<Vec<_>>());
    let build_s = median(&totals);
    let op_per_s = s.dataset.num_records() as f64 / build_s;
    let setup_s = median(&setup_times);
    let metric = |name, value, unit| Metric { name, value, unit };
    report.end_to_end = vec![
        metric("setup_s", setup_s, "s"),
        metric("op_p50_ms", build_s * 1e3, "ms"),
        metric("op_per_s", op_per_s, "1/s"),
        metric("fresh_p50_ms", build_s * 1e3, "ms"),
        metric("comm_bytes", comm, "B"),
        metric("sse_ratio", sse_ratio, "ratio"),
    ];
    report.detail = vec![
        metric("setup_s", setup_s, "s"),
        metric("build_s", build_s, "s"),
        metric("comm_bytes", comm, "B"),
        metric("wire_bytes", fm.wire.frame_bytes as f64, "B"),
        metric("sse_ratio", sse_ratio, "ratio"),
        metric("peak_rss_mb", peak, "MiB"),
        metric("failed_frac", report.failed_frac(), "ratio"),
        metric("builds", i as f64, "count"),
        metric("window_s", window_s, "s"),
    ];

    if !cfg.traced {
        return;
    }
    let mut layers = vec![
        metric("wh-mapreduce.map_s", median(&map), "s"),
        metric("wh-mapreduce.shuffle_s", median(&shuffle), "s"),
        metric("wh-mapreduce.reduce_s", median(&reduce), "s"),
        metric("wh-mapreduce.pairs", fm.map_output_pairs as f64, "count"),
        metric("wh-mapreduce.rounds", f64::from(fm.rounds), "count"),
        metric("wh-mapreduce.state_bytes", fm.wire.state_bytes as f64, "B"),
        metric("wh-mapreduce.frames", fm.wire.frames as f64, "count"),
        metric(
            "wh-mapreduce.tasks_retried",
            fm.recovery.tasks_retried as f64,
            "count",
        ),
        metric("wh-query.compile_s", median(&compile), "s"),
        metric("wh-serve.publish_s", median(&publish), "s"),
        metric("pipeline.unattributed_s", median(&other), "s"),
        metric(
            "wh-wavelet.centralized_bit_diffs",
            centralized_bit_diffs as f64,
            "count",
        ),
        metric("trace.build_s_traced", median(&traced_totals), "s"),
        metric(
            "trace.overhead_build_s",
            median(&traced_totals) - median(&untraced_totals),
            "s",
        ),
    ];
    let standalone = tracer.open("standalone", None, Instant::now());
    if kind.exact() {
        layers.extend(standalone_exact(&s, cfg.scale.k, tracer, standalone));
    } else {
        layers.extend(standalone_sample(&s, cfg, tracer, standalone));
    }
    tracer.close(standalone, Instant::now());
    report.per_layer = layers;
}

/// Standalone timings of the exact builders' map- and finish-side layers,
/// which run inside the builder where the benchmark cannot wrap them:
/// the scan, the per-split sparse transform, and the top-k selection.
fn standalone_exact(s: &Setup, k: usize, tracer: &mut Tracer, parent: Option<u32>) -> Vec<Metric> {
    let ds = &s.dataset;
    let domain = ds.domain();
    let mut scan_s = 0.0;
    for j in 0..ds.num_splits() {
        let t0 = Instant::now();
        let sum = ds.scan_split(j).fold(0u64, |a, r| a.wrapping_add(r.key));
        black_box(sum);
        let t1 = Instant::now();
        tracer.record("wh-data.scan", parent, t0, t1);
        scan_s += secs(t0, t1);
    }
    let mut transform_s = 0.0;
    let mut coefs = 0u64;
    let mut global: FxHashMap<u64, f64> = FxHashMap::default();
    for j in 0..ds.num_splits() {
        // Counting is the scan's work, kept outside the transform timer.
        let mut local: FxHashMap<u64, u64> = FxHashMap::default();
        for r in ds.scan_split(j) {
            *local.entry(r.key).or_insert(0) += 1;
        }
        let t0 = Instant::now();
        let split = wh_wavelet::sparse::sparse_transform(
            domain,
            local.iter().map(|(&x, &c)| (x, c as f64)),
        );
        let t1 = Instant::now();
        tracer.record("wh-wavelet.sparse_transform", parent, t0, t1);
        transform_s += secs(t0, t1);
        coefs += split.len() as u64;
        for (slot, v) in split {
            *global.entry(slot).or_insert(0.0) += v;
        }
    }
    let mut reduced: Vec<(u64, f64)> = global.into_iter().collect();
    reduced.sort_unstable_by_key(|&(slot, _)| slot);
    let t0 = Instant::now();
    let top = wh_wavelet::select::top_k_magnitude(reduced.iter().copied(), k);
    let t1 = Instant::now();
    black_box(top);
    tracer.record("wh-wavelet.top_k", parent, t0, t1);
    vec![
        Metric {
            name: "wh-data.scan_s",
            value: scan_s,
            unit: "s",
        },
        Metric {
            name: "wh-wavelet.sparse_transform_s",
            value: transform_s,
            unit: "s",
        },
        Metric {
            name: "wh-wavelet.coefs",
            value: coefs as f64,
            unit: "count",
        },
        Metric {
            name: "wh-wavelet.top_k_s",
            value: secs(t0, t1),
            unit: "s",
        },
    ]
}

/// Standalone timing of TwoLevel-S's first-level sample: `sample_split`
/// at each split's sample count, for the first build's sampling seed.
fn standalone_sample(
    s: &Setup,
    cfg: &RunConfig,
    tracer: &mut Tracer,
    parent: Option<u32>,
) -> Vec<Metric> {
    let ds = &s.dataset;
    let seed = sampling_seed(cfg.seed, 0);
    let sampling = TwoLevelS::new(cfg.scale.epsilon, seed).config_for(ds);
    let mut sample_s = 0.0;
    for j in 0..ds.num_splits() {
        let count = sampling
            .split_sample_size_seeded(ds.split_meta(j).records, seed ^ (u64::from(j) << 40));
        let t0 = Instant::now();
        let records = ds.sample_split(j, count, seed);
        let t1 = Instant::now();
        black_box(records);
        tracer.record("wh-data.sample", parent, t0, t1);
        sample_s += secs(t0, t1);
    }
    vec![Metric {
        name: "wh-data.sample_s",
        value: sample_s,
        unit: "s",
    }]
}
