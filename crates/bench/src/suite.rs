//! The fixed benchmark suite behind `BENCH_PR10.json` and the CI
//! regression gate.
//!
//! Sixteen benchmarks (fourteen everywhere, plus `wire_shuffle` and
//! `recovery_overhead` on Unix), each timing the **optimized** side
//! against a baseline measured in the same process and run:
//!
//! | name | optimized side | baseline side |
//! |---|---|---|
//! | `haar_forward` | in-place Haar transform | allocating transform |
//! | `radix_sort` | LSD radix sort of a spill run | stable comparison sort |
//! | `dense_combine` | dense-table combining (radix + domain hint) | comparison-sort combining, then comparison sort-at-reduce |
//! | `dense_reduce` | dense-reduce strategy (flat slot arrays) | sort-at-reduce strategy |
//! | `shuffle_throughput` | radix shuffle → parallel dense reduce | global sort + sequential reduce |
//! | `wire_shuffle` (Unix) | multi-process engine: forked workers shipping framed pairs over pipes | the same job in-process |
//! | `recovery_overhead` (Unix) | multi-process engine with the PR 8 self-healing layer armed (retries + read deadline) | the same job with recovery disabled |
//! | `end_to_end_send_coef` | Send-Coef on the pipelined engine | Send-Coef on the seed engine |
//! | `end_to_end_send_v` | Send-V on the pipelined engine | Send-V on the seed engine |
//! | `end_to_end_two_level` | TwoLevel-S on the pipelined engine | TwoLevel-S on the seed engine |
//! | `query_throughput` | batched selectivity serving (`wh-query`) | one-at-a-time serving |
//! | `serve_throughput` | the epoch-swapped tier (`wh-serve`) | direct batched serving on the compiled form |
//! | `delta_merge_1pct` | incremental maintenance: delta-merge + re-snapshot at 1 % churn | dense from-scratch rebuild on the concatenated counts |
//! | `delta_merge_10pct` | the same at 10 % churn | the same full rebuild |
//! | `twod_build` | Send-Coef-2D on the pipelined engine (`(u16,u16)` keys, dense reduce) | Send-Coef-2D on the seed engine |
//! | `twod_query` | batched 2-D rectangle serving (validate all, then single lookups) | one-rectangle-at-a-time serving |
//!
//! `wire_shuffle` is expected to *cost more* on its "optimized" side
//! (real fork + pipe + encode/decode versus in-memory moves): its gate
//! watches that overhead ratio, and its `items_per_s` reports measured
//! bytes-on-wire per second. `twod_query` sits near 1.0 — a 2-D
//! histogram's per-axis segment arrays are capped at `u ≤ 2¹⁶` entries,
//! so four tiny binary searches per rectangle are hard to beat and the
//! batched side answers by exactly those lookups after validating the
//! batch; the gate pins that ratio rather than assuming a speedup.
//!
//! Because both sides run on the same machine moments apart, the
//! per-bench `relative_cost` (`wall_s / reference_wall_s`) is portable
//! across machines — that ratio, not absolute seconds, is what
//! [`check_regression`] compares against the committed baseline, failing
//! on a >25 % regression. Output correctness is asserted, not assumed:
//! every engine-vs-engine bench requires bit-identical outputs and equal
//! logical metrics before its timing counts.
//!
//! The suite can pin an explicit thread budget ([`SuiteOptions::threads`]
//! sets both engines' map and reduce parallelism), and each `(fast,
//! threads)` combination regresses only against its own baseline section
//! ([`section_for`]): CI runs the fast suite at 1 and 4 threads, so the
//! gate watches the parallel speedups, not just the single-core ratios.

use std::time::Instant;

use wh_core::builders::{HistogramBuilder, SendCoef, SendV, TwoLevelS};
use wh_core::twod::{SendCoef2d, WaveletHistogram2d};
use wh_core::{MaintainedHistogram, WaveletHistogram};
use wh_data::twod::{Dataset2d, Distribution2d};
use wh_data::DatasetBuilder;
use wh_mapreduce::wire::WKey;
use wh_mapreduce::{radix, run_job, ClusterConfig, EngineConfig, JobSpec, MapTask, RunMetrics};
use wh_query::{BatchScratch, BatchScratch2D, CompiledHistogram, CompiledHistogram2D};
use wh_serve::ServeTier;
use wh_wavelet::twod::{forward2d, pack_slot};
use wh_wavelet::Domain;

/// How the suite is scaled.
#[derive(Debug, Clone, Copy)]
pub struct SuiteOptions {
    /// Shrinks every workload for CI smoke runs (`--fast`).
    pub fast: bool,
    /// Timed repetitions per side; the minimum is reported.
    pub repeats: usize,
    /// Thread budget pinned on **both** sides of every engine bench (map
    /// and reduce parallelism alike); `0` leaves the engines on their
    /// one-thread-per-core default. Each value gets its own baseline
    /// section (see [`section_for`]), because relative cost genuinely
    /// depends on it — the pipelined engine parallelizes where the
    /// reference engine is serial.
    pub threads: usize,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        Self {
            fast: false,
            repeats: 3,
            threads: 0,
        }
    }
}

/// Pins `threads` on every parallelism knob of `engine` (no-op when 0).
fn with_threads(engine: EngineConfig, threads: usize) -> EngineConfig {
    if threads == 0 {
        engine
    } else {
        engine
            .with_map_parallelism(threads)
            .with_reducer_parallelism(threads)
    }
}

/// One benchmark's outcome.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Stable benchmark id (JSON key).
    pub name: &'static str,
    /// Best wall-clock of the pipelined/optimised side, seconds.
    pub wall_s: f64,
    /// Best wall-clock of the baseline side, seconds.
    pub reference_wall_s: f64,
    /// Items (coefficients, pairs, records) processed per second by the
    /// pipelined side.
    pub items_per_s: f64,
    /// Whether both sides produced bit-identical outputs and equal
    /// logical metrics.
    pub outputs_match: bool,
    /// Measured bytes of intermediate pairs that crossed a real process
    /// boundary during the timed side (`RunMetrics::bytes_on_wire`);
    /// `0` for benches that never leave the process.
    pub bytes_on_wire: u64,
}

impl BenchRecord {
    /// Baseline time over pipelined time (>1 = the refactor is faster).
    pub fn speedup(&self) -> f64 {
        self.reference_wall_s / self.wall_s.max(1e-12)
    }

    /// Pipelined time over baseline time — the machine-portable quantity
    /// the regression gate compares.
    pub fn relative_cost(&self) -> f64 {
        self.wall_s / self.reference_wall_s.max(1e-12)
    }
}

fn time_best<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        let out = f();
        best = best.min(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("at least one repetition"))
}

/// Runs the whole fixed suite.
pub fn run_suite(opts: SuiteOptions) -> Vec<BenchRecord> {
    let mut records = vec![
        haar_forward(opts),
        radix_sort(opts),
        dense_combine(opts),
        dense_reduce(opts),
        shuffle_throughput(opts),
    ];
    #[cfg(unix)]
    records.push(wire_shuffle(opts));
    #[cfg(unix)]
    records.push(recovery_overhead(opts));
    records.extend([
        end_to_end_send_coef(opts),
        end_to_end_send_v(opts),
        end_to_end_two_level(opts),
        query_throughput(opts),
        serve_throughput(opts),
        delta_merge("delta_merge_1pct", 1, opts),
        delta_merge("delta_merge_10pct", 10, opts),
        twod_build(opts),
        twod_query(opts),
    ]);
    records
}

/// The 2-D build path (PR 10): Send-Coef-2D on the pipelined engine —
/// per-split sparse 2-D transforms shipped as `(u16, u16)` coefficient
/// keys through a dense reduce — against the same builder on the seed
/// engine. Histograms must be **bit-identical** and logical metrics
/// equal; `items_per_s` reports records built per second.
fn twod_build(opts: SuiteOptions) -> BenchRecord {
    let (log_u, records, splits, k) = if opts.fast {
        (5u32, 40_000u64, 8u32, 24usize)
    } else {
        (6, 400_000, 16, 64)
    };
    let ds = Dataset2d::new(
        Domain::new(log_u).expect("valid log_u"),
        Distribution2d::Correlated {
            alpha: 1.1,
            spread: 2,
        },
        records,
        splits,
        0x2d,
    );
    let cluster = ClusterConfig::paper_cluster();
    let reducers = cluster.num_slaves() as u32;

    let (ref_s, reference) = time_best(opts.repeats, || {
        SendCoef2d::new()
            .with_engine(with_threads(
                EngineConfig::reference().with_reducers(reducers),
                opts.threads,
            ))
            .build(&ds, &cluster, k)
    });
    let (wall_s, ours) = time_best(opts.repeats, || {
        SendCoef2d::new()
            .with_engine(with_threads(
                EngineConfig::pipelined().with_reducers(reducers),
                opts.threads,
            ))
            .build(&ds, &cluster, k)
    });
    let same_histogram = ours.histogram.coefficients() == reference.histogram.coefficients();
    BenchRecord {
        name: "twod_build",
        wall_s,
        reference_wall_s: ref_s,
        items_per_s: records as f64 / wall_s.max(1e-12),
        outputs_match: same_histogram && ours.metrics == reference.metrics,
        bytes_on_wire: 0,
    }
}

/// 2-D rectangle serving (PR 10): the batched rectangle-sum call over the
/// compiled summed-area form — validate the whole batch, then four
/// binary searches per rectangle — against answering the identical
/// rectangles one at a time. Answers must be bit-identical;
/// `items_per_s` reports rectangle estimates per second.
/// With a pinned thread budget both sides split the batch across that
/// many serving threads sharing one `&CompiledHistogram2D`.
fn twod_query(opts: SuiteOptions) -> BenchRecord {
    let (log_u, k, num_queries) = if opts.fast {
        (6u32, 256usize, 60_000usize)
    } else {
        (8, 2_048, 400_000)
    };
    let domain = Domain::new(log_u).expect("valid log_u");
    let u = domain.u();

    // A heavy-tailed 2-D grid: a diagonal density band plus scattered
    // spikes, the correlated structure 1-D marginals would lose.
    let grid: Vec<f64> = (0..u * u)
        .map(|i| {
            let (x, y) = (i / u, i % u);
            let band = if x.abs_diff(y) < 4 { 50.0 } else { 0.0 };
            band + (scramble(i) % 7) as f64 + if scramble(i) % 601 == 0 { 900.0 } else { 0.0 }
        })
        .collect();
    let w = forward2d(domain, &grid);
    let top = wh_wavelet::select::top_k_magnitude(
        w.iter()
            .enumerate()
            .map(|(i, &c)| (pack_slot(i as u64 / u, i as u64 % u), c)),
        k,
    );
    let hist = WaveletHistogram2d::new(domain, top.iter().map(|e| (e.slot, e.value)));
    let compiled = CompiledHistogram2D::compile(&hist);

    // Rectangles of mixed aspect, scattered over the grid.
    let queries: Vec<(u64, u64, u64, u64)> = (0..num_queries as u64)
        .map(|i| {
            let xlo = scramble(i) % u;
            let ylo = scramble(i ^ 0x2d2d) % u;
            let xhi = (xlo + scramble(i ^ 0xa) % (u / 8).max(1)).min(u - 1);
            let yhi = (ylo + scramble(i ^ 0xb) % (u / 8).max(1)).min(u - 1);
            (xlo, xhi, ylo, yhi)
        })
        .collect();

    let threads = opts.threads.max(1);
    let chunk = num_queries.div_ceil(threads);
    let compiled = &compiled;

    let mut single_out = vec![0.0f64; num_queries];
    let (ref_s, ()) = time_best(opts.repeats, || {
        std::thread::scope(|s| {
            for (qs, outs) in queries.chunks(chunk).zip(single_out.chunks_mut(chunk)) {
                s.spawn(move || {
                    for (slot, &q) in outs.iter_mut().zip(qs) {
                        *slot = compiled.try_rectangle_sum(q).expect("valid rectangle");
                    }
                });
            }
        });
    });

    let mut scratches: Vec<BatchScratch2D> = (0..threads).map(|_| BatchScratch2D::new()).collect();
    let mut batch_out = vec![0.0f64; num_queries];
    let (wall_s, ()) = time_best(opts.repeats, || {
        std::thread::scope(|s| {
            for ((qs, outs), scratch) in queries
                .chunks(chunk)
                .zip(batch_out.chunks_mut(chunk))
                .zip(scratches.iter_mut())
            {
                s.spawn(move || {
                    compiled
                        .try_rectangle_sum_batch_into(qs, scratch, outs)
                        .expect("valid rectangles")
                });
            }
        });
    });

    let outputs_match = single_out
        .iter()
        .zip(&batch_out)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    BenchRecord {
        name: "twod_query",
        wall_s,
        reference_wall_s: ref_s,
        items_per_s: num_queries as f64 / wall_s.max(1e-12),
        outputs_match,
        bytes_on_wire: 0,
    }
}

/// Incremental maintenance vs full rebuild (PR 9): absorb a churn-sized
/// delta into a [`MaintainedHistogram`] and re-snapshot the top-k,
/// against rebuilding from scratch on the concatenated counts (dense
/// aggregate → `forward_in_place` → `top_k_magnitude`) — exactly the
/// exact-build pipeline a non-incremental refresh would rerun. Both
/// sides must produce **bit-identical** histograms; `churn_pct` sizes
/// the delta as a percentage of the base's distinct keys, and
/// `items_per_s` reports delta entries absorbed per second.
///
/// The timed side consumes one pre-cloned maintained state per
/// repetition: the clone is bench setup (a real deployment mutates its
/// one live state), so only `merge_delta` + `snapshot` are inside the
/// timer.
fn delta_merge(name: &'static str, churn_pct: u64, opts: SuiteOptions) -> BenchRecord {
    let log_u = if opts.fast { 14 } else { 20 };
    let domain = Domain::new(log_u).expect("valid log_u");
    let u = domain.u();
    let k = 64;
    // A sparse base — 1/32 of the domain carries data (duplicate draws
    // accumulate) — the regime where maintenance beats the dense rebuild
    // that must touch all `u` slots regardless.
    let distinct = (u / 32).max(1);
    let base_counts: Vec<(u64, u64)> = (0..distinct)
        .map(|i| (scramble(i) % u, scramble(i ^ 0xbace) % 200 + 1))
        .collect();
    let delta: Vec<(u64, u64)> = (0..(distinct * churn_pct / 100).max(1))
        .map(|i| (scramble(i ^ 0x0e17a) % u, scramble(i ^ 0x77) % 50 + 1))
        .collect();

    let base = {
        let mut m = MaintainedHistogram::new(domain, k);
        m.merge_delta(base_counts.iter().copied());
        m
    };

    let (ref_s, reference) = time_best(opts.repeats, || {
        let mut v = vec![0.0f64; u as usize];
        for &(x, c) in base_counts.iter().chain(&delta) {
            v[x as usize] += c as f64;
        }
        wh_wavelet::haar::forward_in_place(&mut v);
        let top = wh_wavelet::select::top_k_magnitude(
            v.iter().enumerate().map(|(s, &c)| (s as u64, c)),
            k,
        );
        WaveletHistogram::new(domain, top.iter().map(|e| (e.slot, e.value)))
    });

    let mut pool: Vec<MaintainedHistogram> =
        (0..opts.repeats.max(1)).map(|_| base.clone()).collect();
    let (wall_s, ours) = time_best(opts.repeats, || {
        let mut m = pool.pop().expect("one clone per repetition");
        m.merge_delta(delta.iter().copied());
        m.snapshot()
    });

    let outputs_match = ours.coefficients().len() == reference.coefficients().len()
        && ours
            .coefficients()
            .iter()
            .zip(reference.coefficients())
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
    BenchRecord {
        name,
        wall_s,
        reference_wall_s: ref_s,
        items_per_s: delta.len() as f64 / wall_s.max(1e-12),
        outputs_match,
        bytes_on_wire: 0,
    }
}

/// Dense Haar transform: in-place vs allocating.
fn haar_forward(opts: SuiteOptions) -> BenchRecord {
    let log_u = if opts.fast { 16 } else { 20 };
    let u = 1usize << log_u;
    let input: Vec<f64> = (0..u).map(|i| ((i * 2654435761) % 997) as f64).collect();

    let (ref_s, reference) = time_best(opts.repeats, || wh_wavelet::haar::forward(&input));
    let (wall_s, ours) = time_best(opts.repeats, || {
        let mut w = input.clone();
        wh_wavelet::haar::forward_in_place(&mut w);
        w
    });
    BenchRecord {
        name: "haar_forward",
        wall_s,
        reference_wall_s: ref_s,
        items_per_s: u as f64 / wall_s.max(1e-12),
        outputs_match: ours == reference,
        bytes_on_wire: 0,
    }
}

/// SplitMix-style scramble used to generate unsorted, heavy-duplicate
/// key material deterministically.
fn scramble(x: u64) -> u64 {
    let mut z = x.wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z ^ (z >> 27)
}

/// The radix-vs-comparison spill sort in the engine's actual regime: a
/// stream of spill-sized runs (task output ÷ partitions, the unit map
/// workers sort), 18-bit keys, heavy duplicates, unsorted arrival. The
/// radix side recycles one [`radix::RadixSorter`] across runs exactly
/// like a map worker. Output equality means the *identical permutation*,
/// ties included.
fn radix_sort(opts: SuiteOptions) -> BenchRecord {
    let (runs, run_len) = if opts.fast {
        (64, 5_000)
    } else {
        (128, 18_750)
    };
    let total = (runs * run_len) as u64;
    let base: Vec<Vec<(WKey, u64)>> = (0..runs as u64)
        .map(|r| {
            (0..run_len as u64)
                .map(|i| (WKey::four(scramble(i ^ (r << 40)) % (1 << 18)), i))
                .collect()
        })
        .collect();

    // Both sides restore the unsorted input with a flat copy into
    // preallocated buffers: the memcpy is shared and small, and no
    // allocator traffic dilutes the sort-time ratio the CI gate watches.
    let restore = |work: &mut [Vec<(WKey, u64)>]| {
        for (w, b) in work.iter_mut().zip(&base) {
            w.copy_from_slice(b);
        }
    };
    let mut work = base.clone();
    let (ref_s, ()) = time_best(opts.repeats, || {
        restore(&mut work);
        for run in &mut work {
            run.sort_by_key(|p| p.0);
        }
    });
    let reference = work;
    let mut work = base.clone();
    let mut sorter = radix::RadixSorter::new();
    let (wall_s, ()) = time_best(opts.repeats, || {
        restore(&mut work);
        for run in &mut work {
            sorter.sort(run);
        }
    });
    let ours = work;
    BenchRecord {
        name: "radix_sort",
        wall_s,
        reference_wall_s: ref_s,
        items_per_s: total as f64 / wall_s.max(1e-12),
        outputs_match: ours == reference,
        bytes_on_wire: 0,
    }
}

/// Dense-table vs comparison-sort combining: the same combiner-heavy
/// wordcount job on the pipelined engine, once with the radix codec +
/// key-domain hint (dense flat-array combine, then dense reduce) and once
/// without (comparison-sort combine, then comparison sort-at-reduce on
/// each of the four partitions). Outputs and logical metrics must be
/// byte-identical.
fn dense_combine(opts: SuiteOptions) -> BenchRecord {
    let (splits, pairs_per_split) = if opts.fast {
        (8u32, 40_000u64)
    } else {
        (16, 150_000)
    };
    let domain = 1u64 << 12;
    let total_pairs = u64::from(splits) * pairs_per_split;
    let cluster = ClusterConfig::single_machine();

    let run = |use_hint: bool| {
        let tasks: Vec<MapTask<WKey, u64>> = (0..splits)
            .map(|j| {
                MapTask::new(j, move |ctx| {
                    for i in 0..pairs_per_split {
                        let z = scramble(i ^ (u64::from(j) << 40));
                        ctx.emit(WKey::four(z % domain), 1);
                    }
                })
            })
            .collect();
        let mut spec = JobSpec::new(
            "dense-combine",
            tasks,
            |k: &WKey, vs: &[u64], ctx: &mut wh_mapreduce::ReduceContext<(u64, u64)>| {
                ctx.emit((k.id, vs.iter().sum()));
            },
        )
        .with_combiner(|_k, vs: &mut Vec<u64>| {
            let total: u64 = vs.iter().sum();
            vs.clear();
            vs.push(total);
        })
        .with_engine(with_threads(
            EngineConfig::pipelined().with_reducers(4),
            opts.threads,
        ));
        if use_hint {
            spec = spec.with_radix_keys().with_engine(with_threads(
                EngineConfig::pipelined()
                    .with_reducers(4)
                    .with_key_domain(domain),
                opts.threads,
            ));
        }
        run_job(&cluster, spec)
    };

    let (ref_s, reference) = time_best(opts.repeats, || run(false));
    let (wall_s, ours) = time_best(opts.repeats, || run(true));
    BenchRecord {
        name: "dense_combine",
        wall_s,
        reference_wall_s: ref_s,
        items_per_s: total_pairs as f64 / wall_s.max(1e-12),
        outputs_match: ours.outputs == reference.outputs && ours.metrics == reference.metrics,
        bytes_on_wire: 0,
    }
}

/// Dense-reduce vs sort-at-reduce on a combiner-less bounded-domain
/// workload — the two strategies that take identical unsorted runs from
/// the map side: flat slot-array aggregation (radix codec + domain hint)
/// against one stable radix sort per partition (codec only). Outputs and
/// logical metrics must be byte-identical; without a combiner every
/// emitted pair reaches the reducers, which is exactly the regime
/// Send-Coef/Send-V put the reduce side in. Keys are
/// **range-partitioned**, the natural layout for coefficient indices
/// (contiguous wavelet subtrees per reducer) — and the layout the dense
/// strategy's partition-range-sized tables are built for: every
/// partition's slot array covers `domain / R` keys, not the whole
/// domain. Both sides run the identical partitioner.
///
/// Unlike the end-to-end benches, the timed quantity is the jobs'
/// **reduce-phase wall clock** (`RunMetrics::wall_reduce_s`): the map
/// and shuffle work is identical code on identical data for both
/// strategies (asserted via byte-identical outputs and metrics), so
/// timing whole jobs would only dilute the strategy ratio with shared
/// map-side noise. What is compared is exactly the machinery that
/// differs.
fn dense_reduce(opts: SuiteOptions) -> BenchRecord {
    let (splits, pairs_per_split) = if opts.fast {
        (8u32, 40_000u64)
    } else {
        (16, 150_000)
    };
    // A Send-Coef-shaped reduce domain: wide enough (2¹⁷ coefficient
    // keys) that a comparison-free flat table genuinely beats sorting —
    // at this width the radix sort needs LSD digit passes, while the
    // dense table stays one histogram regardless.
    let domain = 1u64 << 17;
    let reducers = 8u64;
    // Power-of-two range per reducer, so the (shared) partitioner is one
    // shift instead of a 64-bit division on the map side's hot path.
    let range_bits = (domain / reducers).trailing_zeros();
    let total_pairs = u64::from(splits) * pairs_per_split;
    let cluster = ClusterConfig::single_machine();

    let run = |hinted: bool| {
        let tasks: Vec<MapTask<u64, u64>> = (0..splits)
            .map(|j| {
                MapTask::new(j, move |ctx| {
                    for i in 0..pairs_per_split {
                        let z = scramble(i ^ (u64::from(j) << 40));
                        ctx.emit(z % domain, i);
                    }
                })
            })
            .collect();
        let mut engine = with_threads(
            EngineConfig::pipelined().with_reducers(reducers as u32),
            opts.threads,
        );
        if hinted {
            engine = engine.with_key_domain(domain);
        }
        let spec = JobSpec::new(
            "dense-reduce",
            tasks,
            |k: &u64, vs: &[u64], ctx: &mut wh_mapreduce::ReduceContext<(u64, u64)>| {
                ctx.emit((*k, vs.len() as u64));
            },
        )
        .with_radix_keys()
        .with_partitioner(move |k: &u64| k >> range_bits)
        .with_engine(engine);
        run_job(&cluster, spec)
    };

    // Best reduce-phase wall over the repeats; the last job's outputs
    // back the equality assertion.
    let phase_best = |hinted: bool| {
        let mut best = f64::INFINITY;
        let mut last = None;
        for _ in 0..opts.repeats.max(1) {
            let out = run(hinted);
            best = best.min(out.metrics.wall_reduce_s);
            last = Some(out);
        }
        (best, last.expect("at least one repetition"))
    };
    let (ref_s, reference) = phase_best(false);
    let (wall_s, ours) = phase_best(true);
    BenchRecord {
        name: "dense_reduce",
        wall_s,
        reference_wall_s: ref_s,
        items_per_s: total_pairs as f64 / wall_s.max(1e-12),
        outputs_match: ours.outputs == reference.outputs && ours.metrics == reference.metrics,
        bytes_on_wire: 0,
    }
}

/// Pure shuffle/reduce stress: mappers emit pre-generated unsorted pairs
/// (negligible map CPU), so the timing isolates the radix shuffle and
/// dense reduce against the seed global sort + sequential reduce.
fn shuffle_throughput(opts: SuiteOptions) -> BenchRecord {
    let (splits, pairs_per_split) = if opts.fast {
        (8, 40_000)
    } else {
        (16, 150_000)
    };
    let total_pairs = (splits * pairs_per_split) as u64;
    let cluster = ClusterConfig::single_machine();

    let run = |engine: EngineConfig| {
        let tasks: Vec<MapTask<u64, u64>> = (0..splits as u32)
            .map(|j| {
                MapTask::new(j, move |ctx| {
                    let mut x = 0x9e3779b97f4a7c15u64 ^ (u64::from(j) << 32);
                    for i in 0..pairs_per_split as u64 {
                        // SplitMix-style scramble: unsorted, heavy-duplicate keys.
                        x = x.wrapping_add(0x9e3779b97f4a7c15);
                        let mut z = x;
                        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                        ctx.emit(z % (1 << 18), i);
                    }
                })
            })
            .collect();
        let spec = JobSpec::new(
            "shuffle-throughput",
            tasks,
            |k: &u64, vs: &[u64], ctx: &mut wh_mapreduce::ReduceContext<(u64, u64)>| {
                ctx.emit((*k, vs.len() as u64));
            },
        )
        // Radix-eligible 18-bit keys with a bounded domain: the pipelined
        // engine ships unsorted runs and dense-reduces each partition;
        // the reference engine ignores both knobs.
        .with_radix_keys()
        .with_engine(with_threads(
            engine.with_reducers(8).with_key_domain(1 << 18),
            opts.threads,
        ));
        run_job(&cluster, spec)
    };

    let (ref_s, reference) = time_best(opts.repeats, || run(EngineConfig::reference()));
    let (wall_s, ours) = time_best(opts.repeats, || run(EngineConfig::pipelined()));
    BenchRecord {
        name: "shuffle_throughput",
        wall_s,
        reference_wall_s: ref_s,
        items_per_s: total_pairs as f64 / wall_s.max(1e-12),
        outputs_match: ours.outputs == reference.outputs && ours.metrics == reference.metrics,
        bytes_on_wire: 0,
    }
}

/// Satellite (PR 7): the multi-process engine's framed shuffle against
/// the in-process pipelined engine on the identical job. The timed side
/// really forks map workers and ships every intermediate pair over a
/// Unix pipe in the wire encoding; `items_per_s` is measured
/// **bytes-on-wire per second**, and output equality demands the usual
/// bit-identical outputs and logical metrics across the process
/// boundary. The thread budget doubles as the worker-process count, so
/// the `_t1`/`_t4` sections gate 1- and 4-worker topologies.
#[cfg(unix)]
fn wire_shuffle(opts: SuiteOptions) -> BenchRecord {
    let (splits, pairs_per_split) = if opts.fast {
        (8, 40_000)
    } else {
        (16, 150_000)
    };
    let cluster = ClusterConfig::single_machine();

    let run = |engine: EngineConfig| {
        let tasks: Vec<MapTask<u64, u64>> = (0..splits as u32)
            .map(|j| {
                MapTask::new(j, move |ctx| {
                    let mut x = 0x9e3779b97f4a7c15u64 ^ (u64::from(j) << 32);
                    for i in 0..pairs_per_split as u64 {
                        x = x.wrapping_add(0x9e3779b97f4a7c15);
                        let mut z = x;
                        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                        ctx.emit(z % (1 << 18), i);
                    }
                })
            })
            .collect();
        let spec = JobSpec::new(
            "wire-shuffle",
            tasks,
            |k: &u64, vs: &[u64], ctx: &mut wh_mapreduce::ReduceContext<(u64, u64)>| {
                ctx.emit((*k, vs.len() as u64));
            },
        )
        .with_radix_keys()
        .with_wire_codec()
        .with_engine(with_threads(
            engine.with_reducers(8).with_key_domain(1 << 18),
            opts.threads,
        ));
        run_job(&cluster, spec)
    };

    let (ref_s, reference) = time_best(opts.repeats, || run(EngineConfig::pipelined()));
    let (wall_s, ours) = time_best(opts.repeats, || run(EngineConfig::multi_process()));
    let bytes = ours.metrics.wire.pair_bytes;
    BenchRecord {
        name: "wire_shuffle",
        wall_s,
        reference_wall_s: ref_s,
        items_per_s: bytes as f64 / wall_s.max(1e-12),
        outputs_match: ours.outputs == reference.outputs
            && ours.metrics == reference.metrics
            && bytes > 0,
        bytes_on_wire: bytes,
    }
}

/// Fault-free cost of the PR 8 self-healing layer: the multi-process
/// engine with recovery armed (bounded task retries, idle read deadline
/// on every coordinator reader — the defaults) against the same job with
/// recovery disabled (`max_task_retries = 0`, no deadline — the PR 7
/// behavior). Both sides pay the CRC32C frame trailers, which are not
/// optional; their cost is gated by `wire_shuffle` against the PR 7
/// baseline instead. What this record isolates is the retry bookkeeping
/// and the poll-before-read deadline machinery, which is why its
/// `relative_cost` should sit at ~1.0. Outputs must be bit-identical and
/// the armed run must report a clean `RunMetrics::recovery` block.
#[cfg(unix)]
fn recovery_overhead(opts: SuiteOptions) -> BenchRecord {
    let (splits, pairs_per_split) = if opts.fast {
        (8, 40_000)
    } else {
        (16, 150_000)
    };
    let cluster = ClusterConfig::single_machine();

    let run = |engine: EngineConfig| {
        let tasks: Vec<MapTask<u64, u64>> = (0..splits as u32)
            .map(|j| {
                MapTask::new(j, move |ctx| {
                    let mut x = 0x517cc1b727220a95u64 ^ (u64::from(j) << 32);
                    for i in 0..pairs_per_split as u64 {
                        x = x.wrapping_add(0x9e3779b97f4a7c15);
                        let mut z = x;
                        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                        ctx.emit(z % (1 << 18), i);
                    }
                })
            })
            .collect();
        let spec = JobSpec::new(
            "recovery-overhead",
            tasks,
            |k: &u64, vs: &[u64], ctx: &mut wh_mapreduce::ReduceContext<(u64, u64)>| {
                ctx.emit((*k, vs.len() as u64));
            },
        )
        .with_radix_keys()
        .with_wire_codec()
        .with_engine(with_threads(
            engine.with_reducers(8).with_key_domain(1 << 18),
            opts.threads,
        ));
        run_job(&cluster, spec)
    };

    let disarmed = EngineConfig::multi_process()
        .with_task_retries(0)
        .with_read_deadline_ms(0);
    let (ref_s, reference) = time_best(opts.repeats, || run(disarmed));
    let (wall_s, ours) = time_best(opts.repeats, || run(EngineConfig::multi_process()));
    let bytes = ours.metrics.wire.pair_bytes;
    BenchRecord {
        name: "recovery_overhead",
        wall_s,
        reference_wall_s: ref_s,
        items_per_s: bytes as f64 / wall_s.max(1e-12),
        outputs_match: ours.outputs == reference.outputs
            && ours.metrics == reference.metrics
            && !ours.metrics.recovery.recovered()
            && ours.metrics.recovery.attempts > 0
            && bytes > 0,
        bytes_on_wire: bytes,
    }
}

fn zipf_dataset(opts: SuiteOptions, alpha: f64, seed: u64, log_u_full: u32) -> wh_data::Dataset {
    let (n, log_u, m) = if opts.fast {
        (1u64 << 17, 13, 16)
    } else {
        (1u64 << 21, log_u_full, 64)
    };
    DatasetBuilder::new()
        .domain(Domain::new(log_u).expect("valid log_u"))
        .distribution(wh_data::Distribution::Zipf { alpha })
        .records(n)
        .splits(m)
        .seed(seed)
        .build()
}

fn end_to_end<B: HistogramBuilder>(
    name: &'static str,
    dataset: &wh_data::Dataset,
    k: usize,
    opts: SuiteOptions,
    make: impl Fn(EngineConfig) -> B,
) -> BenchRecord {
    let cluster = ClusterConfig::paper_cluster();
    // One reduce slot per slave of the paper cluster, Hadoop's natural
    // multi-reducer deployment.
    let reducers = cluster.num_slaves() as u32;
    let (ref_s, reference) = time_best(opts.repeats, || {
        make(with_threads(
            EngineConfig::reference().with_reducers(reducers),
            opts.threads,
        ))
        .build(dataset, &cluster, k)
    });
    let (wall_s, ours) = time_best(opts.repeats, || {
        make(with_threads(
            EngineConfig::pipelined().with_reducers(reducers),
            opts.threads,
        ))
        .build(dataset, &cluster, k)
    });
    let same_histogram = ours.histogram.coefficients() == reference.histogram.coefficients();
    let same_metrics: bool = {
        let a: &RunMetrics = &ours.metrics;
        a == &reference.metrics
    };
    BenchRecord {
        name,
        wall_s,
        reference_wall_s: ref_s,
        items_per_s: dataset.num_records() as f64 / wall_s.max(1e-12),
        outputs_match: same_histogram && same_metrics,
        bytes_on_wire: 0,
    }
}

/// Send-Coef end to end: every key touches `log u + 1` coefficients, so
/// this is the paper's shuffle-explosive algorithm — the regime the
/// pipelined engine exists for.
fn end_to_end_send_coef(opts: SuiteOptions) -> BenchRecord {
    let ds = zipf_dataset(opts, 0.8, 0x5eed, 18);
    end_to_end("end_to_end_send_coef", &ds, 30, opts, |engine| {
        SendCoef::new().with_engine(engine)
    })
}

/// Send-V end to end on low-skew Zipf data (α = 0.7 keeps per-split
/// frequency vectors dense, the regime where Send-V is shuffle-bound).
fn end_to_end_send_v(opts: SuiteOptions) -> BenchRecord {
    let ds = zipf_dataset(opts, 0.7, 0x5eed, 17);
    end_to_end("end_to_end_send_v", &ds, 30, opts, |engine| {
        SendV::new().with_engine(engine)
    })
}

/// TwoLevel-S end to end on the paper's default skew (sampling keeps the
/// shuffle tiny, so this guards the map/sample path's wall-clock).
fn end_to_end_two_level(opts: SuiteOptions) -> BenchRecord {
    let ds = zipf_dataset(opts, 1.1, 0x5eed, 17);
    end_to_end("end_to_end_two_level", &ds, 30, opts, |engine| {
        TwoLevelS::new(5e-3, 7).with_engine(engine)
    })
}

/// The serving subsystem end to end: answer a large batch of range
/// selectivity queries over a built, compiled `k`-term histogram. The
/// baseline side serves the queries **one at a time** (two `O(log k)`
/// binary searches each); the optimized side serves the identical batch
/// through `wh-query`'s batched path (radix-sort the endpoints, resolve
/// them in one galloping walk over the segments) — the answers must be
/// bit-identical.
///
/// When a thread budget is pinned ([`SuiteOptions::threads`]), **both**
/// sides split the batch across that many serving threads sharing one
/// `&CompiledHistogram` — the thread-per-core deployment the compiled
/// form's `Sync` immutability exists for — so the ratio isolates
/// batching, not parallelism. The histogram is the top-`k` of the exact
/// transform of a skewed synthetic frequency vector (what an exact
/// builder would ship at this domain scale); compilation is one-time
/// and untimed, as in a real serving deployment.
fn query_throughput(opts: SuiteOptions) -> BenchRecord {
    let (log_u, k, num_queries) = if opts.fast {
        (18u32, 16_384usize, 150_000usize)
    } else {
        (22, 65_536, 1_000_000)
    };
    let domain = Domain::new(log_u).expect("valid log_u");
    let u = domain.u();

    // A heavy-tailed frequency vector: most keys small, scattered spikes.
    let freq: Vec<f64> = (0..u)
        .map(|x| {
            let z = scramble(x);
            (z % 97) as f64 + if z % 1021 == 0 { 4_000.0 } else { 0.0 }
        })
        .collect();
    let w = wh_wavelet::haar::forward(&freq);
    let top =
        wh_wavelet::select::top_k_magnitude(w.iter().enumerate().map(|(s, &c)| (s as u64, c)), k);
    let hist = WaveletHistogram::new(domain, top.iter().map(|e| (e.slot, e.value)));
    let compiled = CompiledHistogram::compile(&hist);

    // Range predicates of mixed width, scattered over the domain.
    let queries: Vec<(u64, u64)> = (0..num_queries as u64)
        .map(|i| {
            let lo = scramble(i) % u;
            let len = scramble(i ^ 0x00c0ffee) % (u / 64).max(1);
            (lo, (lo + len).min(u - 1))
        })
        .collect();

    let threads = opts.threads.max(1);
    let chunk = num_queries.div_ceil(threads);
    let compiled = &compiled;

    let mut single_out = vec![0.0f64; num_queries];
    let (ref_s, ()) = time_best(opts.repeats, || {
        std::thread::scope(|s| {
            for (qs, outs) in queries.chunks(chunk).zip(single_out.chunks_mut(chunk)) {
                s.spawn(move || {
                    for (slot, &(lo, hi)) in outs.iter_mut().zip(qs) {
                        *slot = compiled.try_range_sum(lo, hi).expect("valid range");
                    }
                });
            }
        });
    });

    // Per-thread scratch allocated once and recycled across repetitions,
    // exactly like a warm serving loop.
    let mut scratches: Vec<BatchScratch> = (0..threads).map(|_| BatchScratch::new()).collect();
    let mut batch_out = vec![0.0f64; num_queries];
    let (wall_s, ()) = time_best(opts.repeats, || {
        std::thread::scope(|s| {
            for ((qs, outs), scratch) in queries
                .chunks(chunk)
                .zip(batch_out.chunks_mut(chunk))
                .zip(scratches.iter_mut())
            {
                s.spawn(move || {
                    compiled
                        .try_range_sum_batch_into(qs, scratch, outs)
                        .expect("valid ranges")
                });
            }
        });
    });

    let outputs_match = single_out
        .iter()
        .zip(&batch_out)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    BenchRecord {
        name: "query_throughput",
        wall_s,
        reference_wall_s: ref_s,
        items_per_s: num_queries as f64 / wall_s.max(1e-12),
        outputs_match,
        bytes_on_wire: 0,
    }
}

/// Absolute throughput floor CI enforces on `serve_throughput` on the
/// 4-thread gate leg (estimates per second across all serving threads).
/// Unlike the relative-cost gate this is machine-sensitive by design:
/// the tier's whole point is raw serving rate, and a deployment that
/// cannot clear tens of millions of estimates per second on four cores
/// has lost the batched fast path somewhere (per-query dispatch, a
/// snapshot clone per batch, a lock on the read path, …).
pub const SERVE_T4_FLOOR_ESTIMATES_PER_S: f64 = 1.0e7;

/// The serving **tier** end to end: the same closed-loop, thread-per-core
/// deployment as [`query_throughput`]'s batched side, but pushed through
/// `wh-serve` — dataset lookup in an epoch snapshot, then the same
/// batched walk — instead of calling the [`CompiledHistogram`] directly.
/// The reference side *is* that direct batched serving, so the ratio
/// measures the tier's overhead over the direct walk: snapshot
/// acquisition (one atomic epoch load per batch on the warm path), the
/// dataset lookup, and error plumbing. It should sit at ~1.0. Answers
/// must be bit-identical; the tier's absolute rate also feeds the
/// [`SERVE_T4_FLOOR_ESTIMATES_PER_S`] gate.
///
/// Each thread is a closed-loop load generator: it owns one
/// [`ServeHandle`](wh_serve::ServeHandle) (scratch and cached snapshot
/// recycled across batches, like a warm server thread) and issues its
/// next batch the moment the previous one is answered, for a fixed
/// number of rounds per timed repetition.
fn serve_throughput(opts: SuiteOptions) -> BenchRecord {
    let (log_u, k, num_queries) = if opts.fast {
        (18u32, 16_384usize, 150_000usize)
    } else {
        (22, 65_536, 1_000_000)
    };
    /// Batches each generator thread issues per timed repetition.
    const ROUNDS: usize = 4;
    let domain = Domain::new(log_u).expect("valid log_u");
    let u = domain.u();

    // A heavy-tailed frequency vector (different scramble stream from
    // `query_throughput`, so the two benches are independent workloads).
    let freq: Vec<f64> = (0..u)
        .map(|x| {
            let z = scramble(x ^ 0x5e57e);
            (z % 89) as f64 + if z % 997 == 0 { 3_000.0 } else { 0.0 }
        })
        .collect();
    let records = freq.iter().sum::<f64>() as u64;
    let w = wh_wavelet::haar::forward(&freq);
    let top =
        wh_wavelet::select::top_k_magnitude(w.iter().enumerate().map(|(s, &c)| (s as u64, c)), k);
    let hist = WaveletHistogram::new(domain, top.iter().map(|e| (e.slot, e.value)));
    let compiled = CompiledHistogram::compile(&hist);

    let queries: Vec<(u64, u64)> = (0..num_queries as u64)
        .map(|i| {
            let lo = scramble(i ^ 0xd15c0) % u;
            let len = scramble(i ^ 0x00c0ffee) % (u / 64).max(1);
            (lo, (lo + len).min(u - 1))
        })
        .collect();

    let threads = opts.threads.max(1);
    let chunk = num_queries.div_ceil(threads);
    let compiled_ref = &compiled;

    // Reference: direct batched selectivity over the compiled form — the
    // fast path the tier must not give back.
    let mut scratches: Vec<BatchScratch> = (0..threads).map(|_| BatchScratch::new()).collect();
    let mut direct_out = vec![0.0f64; num_queries];
    let (ref_s, ()) = time_best(opts.repeats, || {
        std::thread::scope(|s| {
            for ((qs, outs), scratch) in queries
                .chunks(chunk)
                .zip(direct_out.chunks_mut(chunk))
                .zip(scratches.iter_mut())
            {
                s.spawn(move || {
                    for _ in 0..ROUNDS {
                        compiled_ref
                            .try_selectivity_batch_into(qs, records, scratch, outs)
                            .expect("bench queries are valid");
                    }
                });
            }
        });
    });

    // Measured: the tier, each serving thread driving its own handle in
    // a closed loop.
    let tier = ServeTier::default();
    tier.publish(0, &compiled, records);
    let mut handles: Vec<_> = (0..threads).map(|_| tier.handle()).collect();
    let mut tier_out = vec![0.0f64; num_queries];
    let (wall_s, ()) = time_best(opts.repeats, || {
        std::thread::scope(|s| {
            for ((qs, outs), handle) in queries
                .chunks(chunk)
                .zip(tier_out.chunks_mut(chunk))
                .zip(handles.iter_mut())
            {
                s.spawn(move || {
                    for _ in 0..ROUNDS {
                        handle
                            .try_selectivity_batch_into(0, qs, outs)
                            .expect("bench queries are valid");
                    }
                });
            }
        });
    });

    let outputs_match = direct_out
        .iter()
        .zip(&tier_out)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    BenchRecord {
        name: "serve_throughput",
        wall_s,
        reference_wall_s: ref_s,
        items_per_s: (ROUNDS * num_queries) as f64 / wall_s.max(1e-12),
        outputs_match,
        bytes_on_wire: 0,
    }
}

/// Section name a `(fast, threads)` combination's records live under in
/// the report. Full-scale runs and fast (CI smoke) runs are **not**
/// comparable to each other — fast workloads are far less shuffle-bound —
/// and neither are runs at different pinned thread budgets, because more
/// threads lower the pipelined engine's relative cost while the reference
/// engine stays serial. So each combination regresses only against its
/// own committed section: `benches` / `fast_benches` for unpinned runs,
/// with a `_t{threads}` suffix when a budget is pinned (the CI matrix
/// gates `fast_benches_t1` and `fast_benches_t4`).
pub fn section_for(fast: bool, threads: usize) -> String {
    let base = if fast { "fast_benches" } else { "benches" };
    if threads == 0 {
        base.to_string()
    } else {
        format!("{base}_t{threads}")
    }
}

fn render_section(out: &mut String, name: &str, records: &[BenchRecord], last: bool) {
    out.push_str(&format!("  \"{name}\": [\n"));
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_s\": {:.6}, \"reference_wall_s\": {:.6}, \
             \"speedup\": {:.3}, \"relative_cost\": {:.4}, \"items_per_s\": {:.1}, \
             \"outputs_match\": {}, \"bytes_on_wire\": {}}}{}\n",
            r.name,
            r.wall_s,
            r.reference_wall_s,
            r.speedup(),
            r.relative_cost(),
            r.items_per_s,
            r.outputs_match,
            r.bytes_on_wire,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str(if last { "  ]\n" } else { "  ],\n" });
}

/// Renders the machine-readable suite report (the `BENCH_PR10.json`
/// schema): one JSON array per `(section name, records)` pair. Any subset
/// of sections may be present; the committed baseline carries every
/// combination CI gates plus the unpinned full/fast sections, so each
/// kind of run has a like-for-like reference.
pub fn render_json(sections: &[(String, Vec<BenchRecord>)], repeats: usize) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"wh-bench-suite/1\",\n");
    out.push_str("  \"suite\": \"PR10\",\n");
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str(&format!("  \"repeats\": {repeats},\n"));
    if sections.is_empty() {
        out.push_str("  \"benches\": []\n");
    }
    for (i, (name, records)) in sections.iter().enumerate() {
        render_section(&mut out, name, records, i + 1 == sections.len());
    }
    out.push_str("}\n");
    out
}

/// The pipelined side of a bench must clear this wall-clock floor before
/// its timing ratio is compared: below a few milliseconds, scheduler
/// jitter on a shared CI runner routinely exceeds any sane tolerance, so
/// a ratio check would only produce flakes — and a bench whose pipelined
/// side still finishes under the floor cannot hide a regression of
/// practical size. A slow pipelined side is always checked, however tiny
/// the reference side. Output equality is enforced regardless.
pub const MIN_COMPARABLE_WALL_S: f64 = 0.005;

/// Compares `records` against the named section of a committed baseline
/// JSON (use [`section_for`] to derive the section from the run's mode
/// and thread budget). A bench regresses when its `relative_cost`
/// (pipelined ÷ reference, measured on the *same* machine) grows by more
/// than `tolerance` (0.25 = 25 %) over the baseline's, or when outputs
/// stop matching. Absolute seconds are deliberately not compared — CI
/// machines differ from the one that committed the baseline — and benches
/// whose pipelined side runs below [`MIN_COMPARABLE_WALL_S`] are exempt
/// from the ratio check (timing noise, not signal).
///
/// One asymmetry to know about: the committed baseline records its core
/// count, and more cores lower the true relative cost (the pipelined
/// engine parallelizes where the reference engine is serial). Checking a
/// multi-core run against a lower-core baseline therefore only adds
/// slack — the gate never false-fails from core count, it just catches
/// only grosser regressions until the baseline is regenerated on
/// runner-shaped hardware. The pinned-thread sections (`…_t1`, `…_t4`)
/// exist to shrink exactly that slack: a `_t4` run compares against a
/// `_t4` baseline, so the gate finally sees the parallel speedups.
pub fn check_regression(
    baseline_json: &str,
    records: &[BenchRecord],
    section: &str,
    tolerance: f64,
) -> Result<(), Vec<String>> {
    let baseline = match serde_json::parse(baseline_json) {
        Ok(v) => v,
        Err(e) => return Err(vec![format!("baseline JSON unreadable: {e:?}")]),
    };
    let mut errors = Vec::new();
    let benches = match baseline.get(section).and_then(|b| match b {
        serde_json::Value::Array(items) => Some(items.clone()),
        _ => None,
    }) {
        Some(items) => items,
        None => {
            return Err(vec![format!(
                "baseline has no \"{section}\" section — regenerate it with --baseline"
            )])
        }
    };
    for r in records {
        if !r.outputs_match {
            errors.push(format!("{}: outputs diverged between engines", r.name));
        }
        let base = benches.iter().find(|b| {
            b.get("name")
                .and_then(|n| match n {
                    serde_json::Value::Str(s) => Some(s == r.name),
                    _ => None,
                })
                .unwrap_or(false)
        });
        let Some(base) = base else {
            errors.push(format!("{}: missing from baseline", r.name));
            continue;
        };
        if r.wall_s < MIN_COMPARABLE_WALL_S {
            // Too fast to time meaningfully on a shared runner; output
            // equality above is the whole check.
            continue;
        }
        let Some(base_cost) = base
            .get("relative_cost")
            .and_then(serde_json::Value::as_f64)
        else {
            // A silent default here could mask a real regression (e.g. a
            // true cost of 0.38 judged against 1.0); fail loudly instead.
            errors.push(format!(
                "{}: baseline entry has no numeric relative_cost — regenerate the baseline",
                r.name
            ));
            continue;
        };
        let allowed = base_cost * (1.0 + tolerance);
        if r.relative_cost() > allowed {
            errors.push(format!(
                "{}: relative cost {:.4} exceeds baseline {:.4} by more than {:.0}% (limit {:.4})",
                r.name,
                r.relative_cost(),
                base_cost,
                tolerance * 100.0,
                allowed
            ));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Renders a GitHub-flavored-markdown table of per-bench deltas between
/// the committed baseline section and `records` — what the CI bench job
/// appends to `$GITHUB_STEP_SUMMARY`, so a regression is readable in the
/// run summary without downloading the report artifact. Entries the
/// baseline cannot resolve render as `—`; this function never fails, it
/// only reports ([`check_regression`] is the gate).
/// Human-readable bytes for the delta table: `—` when nothing crossed a
/// process boundary.
fn format_wire_bytes(bytes: u64) -> String {
    if bytes == 0 {
        "—".to_string()
    } else if bytes < 1 << 20 {
        format!("{bytes} B")
    } else {
        format!("{:.1} MiB", bytes as f64 / (1 << 20) as f64)
    }
}

pub fn render_delta_table(baseline_json: &str, records: &[BenchRecord], section: &str) -> String {
    let baseline = serde_json::parse(baseline_json).ok();
    let benches = baseline
        .as_ref()
        .and_then(|b| b.get(section))
        .and_then(|b| match b {
            serde_json::Value::Array(items) => Some(items.clone()),
            _ => None,
        });
    let mut out = format!("### Bench gate — `{section}`\n\n");
    out.push_str("| bench | baseline cost | current cost | delta | bytes on wire | outputs |\n");
    out.push_str("|---|---:|---:|---:|---:|:---:|\n");
    for r in records {
        let base_cost = benches.as_ref().and_then(|items| {
            items
                .iter()
                .find(|b| matches!(b.get("name"), Some(serde_json::Value::Str(s)) if s == r.name))
                .and_then(|b| b.get("relative_cost"))
                .and_then(serde_json::Value::as_f64)
        });
        let current = r.relative_cost();
        let (base_cell, delta_cell) = match base_cost {
            Some(b) if b > 0.0 => (
                format!("{b:.4}"),
                format!("{:+.1}%", (current / b - 1.0) * 100.0),
            ),
            _ => ("—".to_string(), "—".to_string()),
        };
        // Sub-noise-floor timings are exempt from the gate; mark them so
        // a reader does not chase a phantom delta.
        let noise = if r.wall_s < MIN_COMPARABLE_WALL_S {
            " (below noise floor)"
        } else {
            ""
        };
        out.push_str(&format!(
            "| {} | {} | {:.4} | {}{} | {} | {} |\n",
            r.name,
            base_cell,
            current,
            delta_cell,
            noise,
            format_wire_bytes(r.bytes_on_wire),
            if r.outputs_match {
                "✓"
            } else {
                "✗ diverged"
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &'static str, wall: f64, reference: f64) -> BenchRecord {
        BenchRecord {
            name,
            wall_s: wall,
            reference_wall_s: reference,
            items_per_s: 1.0,
            outputs_match: true,
            bytes_on_wire: 0,
        }
    }

    fn one_section(name: &str, records: &[BenchRecord]) -> String {
        render_json(&[(name.to_string(), records.to_vec())], 3)
    }

    #[test]
    fn section_names_encode_mode_and_thread_budget() {
        assert_eq!(section_for(false, 0), "benches");
        assert_eq!(section_for(true, 0), "fast_benches");
        assert_eq!(section_for(true, 1), "fast_benches_t1");
        assert_eq!(section_for(true, 4), "fast_benches_t4");
        assert_eq!(section_for(false, 8), "benches_t8");
    }

    #[test]
    fn json_roundtrips_through_vendored_parser() {
        let full = vec![record("haar_forward", 0.5, 1.0)];
        let fast_t1 = vec![record("haar_forward", 0.1, 0.15)];
        let fast_t4 = vec![record("haar_forward", 0.1, 0.3)];
        let json = render_json(
            &[
                (section_for(false, 0), full.clone()),
                (section_for(true, 1), fast_t1.clone()),
                (section_for(true, 4), fast_t4.clone()),
            ],
            3,
        );
        let v = serde_json::parse(&json).expect("valid JSON");
        assert_eq!(
            v.get("schema"),
            Some(&serde_json::Value::Str("wh-bench-suite/1".into()))
        );
        assert_eq!(v.get("suite"), Some(&serde_json::Value::Str("PR10".into())));
        // Round-trip gate: the file we commit must satisfy our own checker,
        // per section.
        check_regression(&json, &full, "benches", 0.25).expect("full self-comparison");
        check_regression(&json, &fast_t1, "fast_benches_t1", 0.25).expect("t1 self-comparison");
        check_regression(&json, &fast_t4, "fast_benches_t4", 0.25).expect("t4 self-comparison");
        // Thread sections are independent: t4's better ratio must not
        // leak into the t1 comparison and vice versa.
        assert!(check_regression(&json, &fast_t1, "fast_benches_t4", 0.25).is_err());
    }

    #[test]
    fn regression_detected_beyond_tolerance() {
        let baseline = one_section("benches", &[record("x", 0.5, 1.0)]);
        // Same relative cost: fine.
        check_regression(&baseline, &[record("x", 1.0, 2.0)], "benches", 0.25)
            .expect("no regression");
        // 2× relative cost: flagged.
        let got = check_regression(&baseline, &[record("x", 1.0, 1.0)], "benches", 0.25);
        assert!(got.is_err());
        // Diverged outputs always fail.
        let mut bad = record("x", 0.5, 1.0);
        bad.outputs_match = false;
        assert!(check_regression(&baseline, &[bad], "benches", 0.25).is_err());
    }

    #[test]
    fn modes_regress_only_against_their_own_section() {
        let full_only = one_section("benches", &[record("x", 0.5, 1.0)]);
        // A fast-mode run cannot be judged against a full-only baseline.
        let err = check_regression(
            &full_only,
            &[record("x", 0.5, 1.0)],
            "fast_benches_t4",
            0.25,
        )
        .unwrap_err();
        assert!(err[0].contains("fast_benches_t4"), "{err:?}");
    }

    #[test]
    fn sub_millisecond_benches_skip_the_ratio_check() {
        let baseline = one_section("benches", &[record("tiny", 0.0001, 0.0002)]);
        // 10x relative-cost growth, but the pipelined side is below the
        // noise floor: only output equality is enforced.
        check_regression(&baseline, &[record("tiny", 0.002, 0.0004)], "benches", 0.25)
            .expect("noise-floor benches are exempt from ratio checks");
        let mut bad = record("tiny", 0.0001, 0.0002);
        bad.outputs_match = false;
        assert!(check_regression(&baseline, &[bad], "benches", 0.25).is_err());
        // A pipelined side well above the floor is checked even against a
        // tiny reference side — that shape is a real regression.
        assert!(
            check_regression(&baseline, &[record("tiny", 0.1, 0.0004)], "benches", 0.25).is_err()
        );
    }

    #[test]
    fn baseline_without_relative_cost_fails_loudly() {
        let baseline = r#"{"schema": "wh-bench-suite/1", "benches": [{"name": "x"}]}"#;
        let err =
            check_regression(baseline, &[record("x", 1.0, 1.0)], "benches", 0.25).unwrap_err();
        assert!(
            err.iter().any(|e| e.contains("no numeric relative_cost")),
            "{err:?}"
        );
    }

    #[test]
    fn missing_bench_in_baseline_is_an_error() {
        let baseline = one_section("benches", &[record("x", 0.5, 1.0)]);
        let err =
            check_regression(&baseline, &[record("y", 0.5, 1.0)], "benches", 0.25).unwrap_err();
        assert!(
            err.iter().any(|e| e.contains("missing from baseline")),
            "{err:?}"
        );
    }

    #[test]
    fn delta_table_reports_costs_and_divergence() {
        let baseline = one_section("fast_benches_t1", &[record("x", 0.5, 1.0)]);
        let mut diverged = record("z", 0.2, 0.4);
        diverged.outputs_match = false;
        let table = render_delta_table(
            &baseline,
            &[record("x", 0.75, 1.0), diverged],
            "fast_benches_t1",
        );
        assert!(table.contains("`fast_benches_t1`"), "{table}");
        // x: baseline cost 0.5, current 0.75 → +50%; no wire traffic.
        assert!(
            table.contains("| x | 0.5000 | 0.7500 | +50.0% | — | ✓ |"),
            "{table}"
        );
        // z: no baseline entry → em-dashes, divergence flagged.
        assert!(
            table.contains("| z | — | 0.5000 | — | — | ✗ diverged |"),
            "{table}"
        );
    }

    #[test]
    fn delta_table_renders_measured_wire_bytes() {
        let baseline = one_section("fast_benches_t1", &[record("wire_shuffle", 0.5, 0.25)]);
        let mut wired = record("wire_shuffle", 0.5, 0.25);
        wired.bytes_on_wire = 3 << 20;
        let table = render_delta_table(&baseline, &[wired], "fast_benches_t1");
        assert!(table.contains("| 3.0 MiB |"), "{table}");
        assert_eq!(format_wire_bytes(0), "—");
        assert_eq!(format_wire_bytes(512), "512 B");
        assert_eq!(format_wire_bytes(1 << 21), "2.0 MiB");
    }

    #[test]
    fn json_carries_bytes_on_wire() {
        let mut r = record("wire_shuffle", 0.5, 0.25);
        r.bytes_on_wire = 12_345;
        let json = one_section("benches", &[r]);
        let v = serde_json::parse(&json).expect("valid JSON");
        let bench = match v.get("benches") {
            Some(serde_json::Value::Array(items)) => items[0].clone(),
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(
            bench
                .get("bytes_on_wire")
                .and_then(serde_json::Value::as_f64),
            Some(12_345.0)
        );
    }

    #[test]
    fn fast_suite_smoke() {
        // The real thing, tiny: engines must agree on every bench. A
        // pinned thread budget exercises the parallelism plumbing even on
        // a single-core test machine.
        let records = run_suite(SuiteOptions {
            fast: true,
            repeats: 1,
            threads: 2,
        });
        assert_eq!(records.len(), 14 + 2 * usize::from(cfg!(unix)));
        for r in &records {
            assert!(r.outputs_match, "{} outputs diverged", r.name);
            assert!(r.wall_s > 0.0 && r.reference_wall_s > 0.0, "{}", r.name);
        }
        // The wire bench must have measured real cross-process traffic.
        if let Some(w) = records.iter().find(|r| r.name == "wire_shuffle") {
            assert!(w.bytes_on_wire > 0, "wire_shuffle measured no traffic");
        }
    }
}
