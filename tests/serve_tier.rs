//! Serving-tier suite: the epoch-swapped read path (`wh-serve`) against
//! the compiled histograms it must be indistinguishable from.
//!
//! Four contracts are pinned:
//!
//! * **Bit-identity** — for every builder, batched and single answers
//!   routed through the tier (snapshot → dataset lookup → compiled
//!   `try_*` query) equal the direct `CompiledHistogram` answers bit for
//!   bit; a property test extends this to arbitrary query shapes of both
//!   kinds, where the tier must return the direct answer or the same
//!   typed error, never panic, and leave the output untouched on `Err`.
//! * **Atomic generations** — readers hammering the tier while a writer
//!   republishes observe answers from exactly one generation per batch,
//!   never a blend of two (the epoch swap publishes whole `Arc`'d
//!   snapshots).
//! * **No panics from traffic** — serving threads fed malformed queries
//!   (bad ranges, out-of-domain keys, unknown datasets, zero record
//!   counts) report errors and keep serving.
//! * **One namespace** — 1-D and 2-D datasets share ids, record counts,
//!   failure streaks, and `remove`; a query of the other kind is an
//!   unknown dataset.

use proptest::prelude::*;
use wavelet_hist::builders::{
    BasicS, HWTopk, HistogramBuilder, ImprovedS, SendCoef, SendSketch, SendSketchAms, SendV,
    TwoLevelS,
};
use wavelet_hist::data::{Dataset, DatasetBuilder, Distribution};
use wavelet_hist::mapreduce::ClusterConfig;
use wavelet_hist::query::{BatchScratch, BatchScratch2D, CompiledHistogram, CompiledHistogram2D};
use wavelet_hist::query::{QueryError, WaveletHistogram2d};
use wavelet_hist::serve::{DatasetHealth, DatasetId, ServeError, ServeTier, QUARANTINE_AFTER};
use wavelet_hist::wavelet::twod::{forward2d, pack_slot};
use wavelet_hist::wavelet::{forward, top_k_magnitude, Domain};
use wavelet_hist::WaveletHistogram;

const K: usize = 24;

fn builders() -> Vec<(&'static str, Box<dyn HistogramBuilder>)> {
    let eps = 0.02;
    vec![
        ("Send-V", Box::new(SendV::new())),
        ("Send-Coef", Box::new(SendCoef::new())),
        ("H-WTopk", Box::new(HWTopk::new())),
        ("Basic-S", Box::new(BasicS::new(eps, 3))),
        ("Improved-S", Box::new(ImprovedS::new(eps, 3))),
        ("TwoLevel-S", Box::new(TwoLevelS::new(eps, 3))),
        ("Send-Sketch", Box::new(SendSketch::new(5))),
        ("Send-Sketch-AMS", Box::new(SendSketchAms::new(5))),
    ]
}

fn zipf_dataset() -> Dataset {
    DatasetBuilder::new()
        .domain(Domain::new(10).expect("valid domain"))
        .distribution(Distribution::Zipf { alpha: 1.1 })
        .records(60_000)
        .splits(8)
        .seed(0x51e1)
        .build()
}

fn scramble(x: u64) -> u64 {
    let mut z = x.wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z ^ (z >> 27)
}

fn range_queries(u: u64, count: usize, seed: u64) -> Vec<(u64, u64)> {
    (0..count as u64)
        .map(|i| {
            let lo = scramble(i ^ seed) % u;
            let hi = lo + scramble(i ^ seed ^ 0xc0ffee) % (u - lo);
            (lo, hi)
        })
        .collect()
}

/// Bit-identity of the whole route — snapshot, dataset lookup, compiled
/// `try_*` query — for every builder, batched and single.
#[test]
fn tier_answers_are_bit_identical_for_every_builder() {
    let ds = zipf_dataset();
    let cluster = ClusterConfig::paper_cluster();
    let n = ds.num_records();
    let u = ds.domain().u();
    let queries = range_queries(u, 600, 0x7e57);
    let keys: Vec<u64> = (0..400u64).map(|i| scramble(i) % u).collect();
    let tier = ServeTier::default();
    let mut h = tier.handle();
    for (b, (name, builder)) in builders().into_iter().enumerate() {
        let hist = builder.build(&ds, &cluster, K).histogram;
        let compiled = CompiledHistogram::compile(&hist);
        let mut scratch = BatchScratch::new();
        let mut want_sels = vec![0.0; queries.len()];
        compiled
            .try_selectivity_batch_into(&queries, n, &mut scratch, &mut want_sels)
            .unwrap();
        let mut want_sums = vec![0.0; queries.len()];
        compiled
            .try_range_sum_batch_into(&queries, &mut scratch, &mut want_sums)
            .unwrap();
        let mut want_pts = vec![0.0; keys.len()];
        compiled
            .try_point_estimate_batch_into(&keys, &mut scratch, &mut want_pts)
            .unwrap();

        // One handle serves every dataset, its scratch recycled across
        // all of them.
        let id = b as u32;
        tier.publish(id, &compiled, n);
        let mut got = vec![0.0; queries.len()];
        h.try_selectivity_batch_into(id, &queries, &mut got)
            .unwrap();
        for (i, (a, g)) in want_sels.iter().zip(&got).enumerate() {
            assert_eq!(a.to_bits(), g.to_bits(), "{name} sel {i}");
        }
        h.try_range_sum_batch_into(id, &queries, &mut got).unwrap();
        for (i, (a, g)) in want_sums.iter().zip(&got).enumerate() {
            assert_eq!(a.to_bits(), g.to_bits(), "{name} sum {i}");
        }
        let mut got_pts = vec![0.0; keys.len()];
        h.try_point_estimate_batch_into(id, &keys, &mut got_pts)
            .unwrap();
        for (i, (a, g)) in want_pts.iter().zip(&got_pts).enumerate() {
            assert_eq!(a.to_bits(), g.to_bits(), "{name} pt {i}");
        }
        for &(lo, hi) in queries.iter().take(50) {
            assert_eq!(
                h.try_range_sum(id, lo, hi).unwrap().to_bits(),
                compiled.try_range_sum(lo, hi).unwrap().to_bits(),
                "{name} [{lo},{hi}]"
            );
            assert_eq!(
                h.try_selectivity(id, lo, hi).unwrap().to_bits(),
                compiled.try_selectivity(lo, hi, n).unwrap().to_bits(),
                "{name} [{lo},{hi}]"
            );
        }
        for &x in keys.iter().take(50) {
            assert_eq!(
                h.try_point_estimate(id, x).unwrap().to_bits(),
                compiled.try_point_estimate(x).unwrap().to_bits(),
                "{name} key {x}"
            );
        }
    }
}

/// The concurrent reader/swapper contract: while a writer republishes a
/// dataset back and forth between two histograms, every reader batch is
/// answered entirely by one of the two complete generations — bit-equal
/// to one or the other for *every* query of the batch, never a mix.
#[test]
fn readers_never_observe_a_torn_generation_under_swaps() {
    let ds = zipf_dataset();
    let cluster = ClusterConfig::paper_cluster();
    let n = ds.num_records();
    let u = ds.domain().u();
    // Two deliberately different generations of the "same" dataset.
    let gen_a =
        CompiledHistogram::compile(&TwoLevelS::new(0.02, 3).build(&ds, &cluster, K).histogram);
    let gen_b = CompiledHistogram::compile(&SendV::new().build(&ds, &cluster, 6).histogram);
    let queries = range_queries(u, 64, 0xfeed);
    let mut scratch = BatchScratch::new();
    let mut expect_a = vec![0.0; queries.len()];
    gen_a
        .try_selectivity_batch_into(&queries, n, &mut scratch, &mut expect_a)
        .unwrap();
    let mut expect_b = vec![0.0; queries.len()];
    gen_b
        .try_selectivity_batch_into(&queries, n, &mut scratch, &mut expect_b)
        .unwrap();
    // The generations must actually disagree somewhere, or the test
    // could not detect tearing.
    assert!(
        expect_a
            .iter()
            .zip(&expect_b)
            .any(|(a, b)| a.to_bits() != b.to_bits()),
        "test needs distinguishable generations"
    );

    let tier = ServeTier::default();
    tier.publish(0, &gen_a, n);
    const SWAPS: u64 = 400;
    std::thread::scope(|s| {
        for t in 0..3 {
            let (tier, queries, expect_a, expect_b) = (&tier, &queries, &expect_a, &expect_b);
            s.spawn(move || {
                let mut h = tier.handle();
                let mut got = vec![0.0; queries.len()];
                let mut batches = 0u64;
                let mut seen_a = 0u64;
                let mut seen_b = 0u64;
                while batches < 2_000 {
                    h.try_selectivity_batch_into(0, queries, &mut got).unwrap();
                    let all_a = got
                        .iter()
                        .zip(expect_a)
                        .all(|(g, e)| g.to_bits() == e.to_bits());
                    let all_b = got
                        .iter()
                        .zip(expect_b)
                        .all(|(g, e)| g.to_bits() == e.to_bits());
                    assert!(
                        all_a || all_b,
                        "reader {t}: batch {batches} blended two generations"
                    );
                    seen_a += u64::from(all_a);
                    seen_b += u64::from(all_b);
                    batches += 1;
                }
                (seen_a, seen_b)
            });
        }
        let tier = &tier;
        let (gen_a, gen_b) = (&gen_a, &gen_b);
        s.spawn(move || {
            for i in 0..SWAPS {
                let gen = if i % 2 == 0 { gen_b } else { gen_a };
                tier.publish(0, gen, n);
            }
        });
    });
    // All swaps landed: initial publish + SWAPS republishes.
    assert_eq!(tier.generation(), 1 + SWAPS);
}

/// Serving threads survive malformed traffic: each worker interleaves
/// valid batches with every class of bad query, collects errors as
/// values, and its valid answers stay bit-identical throughout. (With
/// the old `assert!`-driven path this test would abort the process.)
#[test]
fn serving_threads_survive_bad_queries_and_keep_serving() {
    let ds = zipf_dataset();
    let cluster = ClusterConfig::paper_cluster();
    let n = ds.num_records();
    let u = ds.domain().u();
    let compiled = CompiledHistogram::compile(&HWTopk::new().build(&ds, &cluster, K).histogram);
    let tier = ServeTier::default();
    tier.publish(9, &compiled, n);

    let queries = range_queries(u, 128, 0xbad);
    let mut want = vec![0.0; queries.len()];
    compiled
        .try_selectivity_batch_into(&queries, n, &mut BatchScratch::new(), &mut want)
        .unwrap();

    std::thread::scope(|s| {
        for _ in 0..4 {
            let (tier, queries, want) = (&tier, &queries, &want);
            s.spawn(move || {
                let mut h = tier.handle();
                let mut got = vec![0.0; queries.len()];
                for round in 0..200 {
                    // A bad query of every class, between valid batches.
                    assert_eq!(
                        h.try_selectivity(77, 0, 1),
                        Err(ServeError::UnknownDataset(77))
                    );
                    assert_eq!(
                        h.try_range_sum(9, 10, 3),
                        Err(ServeError::Query(QueryError::EmptyRange { lo: 10, hi: 3 }))
                    );
                    assert!(matches!(
                        h.try_point_estimate(9, u + 5),
                        Err(ServeError::Query(QueryError::OutOfDomain { .. }))
                    ));
                    let err = h
                        .try_range_sum_batch_into(9, &[(0, 1), (4, u)], &mut got[..2])
                        .unwrap_err();
                    assert!(matches!(
                        err,
                        ServeError::Query(QueryError::OutOfDomain { .. })
                    ));
                    // …and the very same handle keeps answering exactly.
                    h.try_selectivity_batch_into(9, queries, &mut got).unwrap();
                    for (i, (a, g)) in want.iter().zip(&got).enumerate() {
                        assert_eq!(a.to_bits(), g.to_bits(), "round {round} query {i}");
                    }
                }
            });
        }
    });
}

/// Removing a dataset under load: readers get `UnknownDataset` (not a
/// panic, not stale garbage) once their snapshot refreshes, and
/// republishing restores service.
#[test]
fn remove_and_republish_under_handles() {
    let ds = zipf_dataset();
    let cluster = ClusterConfig::paper_cluster();
    let n = ds.num_records();
    let compiled = CompiledHistogram::compile(&SendCoef::new().build(&ds, &cluster, K).histogram);
    let tier = ServeTier::default();
    tier.publish(3, &compiled, n);
    let mut h = tier.handle();
    assert!(h.try_range_sum(3, 0, 10).is_ok());
    tier.remove(3);
    assert_eq!(
        h.try_range_sum(3, 0, 10),
        Err(ServeError::UnknownDataset(3))
    );
    tier.publish(3, &compiled, n);
    assert_eq!(
        h.try_range_sum(3, 0, 10).unwrap().to_bits(),
        compiled.try_range_sum(0, 10).unwrap().to_bits()
    );
}

/// PR 8 satellite: `parking_lot` mutexes do not poison, and the epoch
/// swap publishes whole snapshots — so a rebuild that *panics* on the
/// publish path leaves readers on the previous generation, and the tier
/// (writer lock included) keeps working for the next publisher.
#[test]
fn panicking_rebuild_leaves_the_previous_snapshot_serving() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let ds = zipf_dataset();
    let cluster = ClusterConfig::paper_cluster();
    let compiled = CompiledHistogram::compile(&SendV::new().build(&ds, &cluster, K).histogram);
    let n = ds.num_records();

    let tier = ServeTier::default();
    tier.publish(1, &compiled, n);
    let gen_before = tier.generation();
    let mut h = tier.handle();
    let before = h.try_range_sum(1, 0, 100).unwrap();

    let unwound = catch_unwind(AssertUnwindSafe(|| {
        tier.try_publish::<ServeError>(1, n, || panic!("rebuild pipeline blew up"))
    }));
    assert!(unwound.is_err(), "the panic propagates to the publisher");

    // Readers never saw a torn or advanced generation…
    assert_eq!(tier.generation(), gen_before);
    assert_eq!(h.snapshot().generation(), gen_before);
    assert_eq!(
        h.try_range_sum(1, 0, 100).unwrap().to_bits(),
        before.to_bits()
    );

    // …and the tier is not wedged: the next (successful) publish lands.
    let gen_after = tier.publish(1, &compiled, n);
    assert_eq!(gen_after, gen_before + 1);
    assert_eq!(h.snapshot().generation(), gen_after);
}

/// PR 8 tentpole (serve side): failed rebuilds leave the last good
/// epoch serving and are reported as degraded / quarantined health
/// without ever gating reads.
#[test]
fn failed_rebuilds_degrade_without_dropping_reads() {
    let ds = zipf_dataset();
    let cluster = ClusterConfig::paper_cluster();
    let compiled = CompiledHistogram::compile(&SendV::new().build(&ds, &cluster, K).histogram);
    let n = ds.num_records();
    let queries = range_queries(ds.domain().u(), 64, 0xdead);

    let tier = ServeTier::default();
    tier.publish(7, &compiled, n);
    let mut h = tier.handle();
    let mut want = vec![0.0; queries.len()];
    h.try_selectivity_batch_into(7, &queries, &mut want)
        .unwrap();

    // Drive the dataset into quarantine; every read in between answers
    // bit-identically from the last good snapshot.
    for i in 1..=QUARANTINE_AFTER {
        let err = tier
            .try_publish(7, n, || {
                Err::<CompiledHistogram, _>("upstream build failed")
            })
            .unwrap_err();
        assert_eq!(err, "upstream build failed");
        let mut got = vec![0.0; queries.len()];
        h.try_selectivity_batch_into(7, &queries, &mut got).unwrap();
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let health = tier.dataset_health(7);
        if i < QUARANTINE_AFTER {
            assert_eq!(health, DatasetHealth::Degraded(i));
        } else {
            assert_eq!(health, DatasetHealth::Quarantined(i));
        }
    }
    assert_eq!(
        tier.degraded_datasets(),
        vec![(7, DatasetHealth::Quarantined(QUARANTINE_AFTER))]
    );
    // A healthy dataset alongside is unaffected by its neighbor's state.
    tier.publish(8, &compiled, n);
    assert_eq!(tier.dataset_health(8), DatasetHealth::Healthy);

    // One landed rebuild heals the quarantine.
    let gen = tier
        .try_publish(7, n, || Ok::<_, ServeError>(compiled.clone()))
        .unwrap();
    assert_eq!(gen, tier.generation());
    assert_eq!(tier.dataset_health(7), DatasetHealth::Healthy);
    assert!(tier.degraded_datasets().is_empty());
}

/// A small 2-D histogram from a seeded grid, for the namespace tests.
fn compiled_2d(u: u64, k: usize, seed: u64) -> CompiledHistogram2D {
    let domain = Domain::covering(u).expect("valid domain");
    let grid: Vec<f64> = (0..u * u)
        .map(|i| (scramble(i ^ seed) % 13) as f64)
        .collect();
    let w = forward2d(domain, &grid);
    let top = top_k_magnitude(
        w.iter()
            .enumerate()
            .map(|(i, &c)| (pack_slot(i as u64 / u, i as u64 % u), c)),
        k,
    );
    CompiledHistogram2D::compile(&WaveletHistogram2d::new(
        domain,
        top.iter().map(|e| (e.slot, e.value)),
    ))
}

/// A small 1-D histogram from a seeded signal.
fn compiled_1d(signal: &[f64], k: usize) -> CompiledHistogram {
    let domain = Domain::covering(signal.len() as u64).expect("valid domain");
    let w = forward(signal);
    let top = top_k_magnitude(w.iter().enumerate().map(|(s, &c)| (s as u64, c)), k);
    CompiledHistogram::compile(&WaveletHistogram::new(
        domain,
        top.iter().map(|e| (e.slot, e.value)),
    ))
}

/// 2-D datasets sit inside the tier's bookkeeping exactly like 1-D ones:
/// one id namespace, record counts, failure streaks (healed by a publish
/// of either kind, forgotten by `remove`), and a wrong-kind query is an
/// unknown dataset.
#[test]
fn twod_datasets_share_the_tier_bookkeeping() {
    let ds = zipf_dataset();
    let n = ds.num_records();
    let oned = CompiledHistogram::compile(
        &SendV::new()
            .build(&ds, &ClusterConfig::paper_cluster(), K)
            .histogram,
    );
    let twod = compiled_2d(16, 20, 0x2d);
    let rect = (1, 9, 2, 14);
    let tier = ServeTier::default();
    let mut h = tier.handle();

    // Records of a 2-D dataset, and a wrong-kind query.
    tier.publish2d(4, &twod, 900);
    assert_eq!(tier.dataset_records(4), Some(900));
    assert_eq!(h.try_range_sum(4, 0, 1), Err(ServeError::UnknownDataset(4)));
    assert_eq!(
        h.try_rectangle_sum(4, rect).unwrap().to_bits(),
        twod.try_rectangle_sum(rect).unwrap().to_bits()
    );

    // A failed rebuild counts against the id; a 2-D publish heals it.
    let _ = tier.try_publish(4, 10, || Err::<CompiledHistogram, _>("down"));
    assert_eq!(tier.dataset_health(4), DatasetHealth::Degraded(1));
    tier.publish2d(4, &twod, 950);
    assert_eq!(tier.dataset_health(4), DatasetHealth::Healthy);
    assert_eq!(tier.dataset_records(4), Some(950));

    // Republishing across kinds replaces the dataset under the same id.
    tier.publish(4, &oned, n);
    assert_eq!(h.snapshot().num_datasets(), 1);
    assert_eq!(tier.dataset_records(4), Some(n));
    assert_eq!(
        h.try_rectangle_sum(4, rect),
        Err(ServeError::UnknownDataset(4))
    );
    assert_eq!(
        h.try_range_sum(4, 3, 300).unwrap().to_bits(),
        oned.try_range_sum(3, 300).unwrap().to_bits()
    );
    tier.publish2d(4, &twod, 950);
    assert_eq!(h.snapshot().num_datasets(), 1);
    assert_eq!(
        h.try_range_sum(4, 3, 300),
        Err(ServeError::UnknownDataset(4))
    );
    assert_eq!(
        h.try_rectangle_selectivity(4, rect).unwrap().to_bits(),
        twod.try_selectivity(rect, 950).unwrap().to_bits()
    );

    // `remove` withdraws a 2-D dataset and forgets its failure streak …
    let _ = tier.try_publish(4, 10, || Err::<CompiledHistogram, _>("down"));
    assert_eq!(tier.dataset_health(4), DatasetHealth::Degraded(1));
    let generation = tier.generation();
    assert_eq!(tier.remove(4), Some(generation + 1));
    assert_eq!(tier.dataset_health(4), DatasetHealth::Healthy);
    assert_eq!(tier.dataset_records(4), None);
    assert_eq!(
        h.try_rectangle_sum(4, rect),
        Err(ServeError::UnknownDataset(4))
    );
    assert_eq!(tier.remove(4), None);

    // … and a 1-D one the same way.
    tier.publish(5, &oned, n);
    assert_eq!(tier.remove(5), Some(generation + 3));
    assert_eq!(tier.remove(5), None);
    assert_eq!(h.try_range_sum(5, 0, 1), Err(ServeError::UnknownDataset(5)));
    assert_eq!(h.snapshot().num_datasets(), 0);
}

const ID_1D: DatasetId = 1;
const ID_2D: DatasetId = 2;
const ID_NONE: DatasetId = 3;
const U_1D: u64 = 64;
const U_2D: u64 = 16;
/// What every output slot holds before a call; an `Err` must leave it.
const SENTINEL: f64 = -7.25;

/// Same `Ok` bits, or the same error.
fn agree(got: Result<f64, ServeError>, want: Result<f64, ServeError>) -> bool {
    match (got, want) {
        (Ok(a), Ok(b)) => a.to_bits() == b.to_bits(),
        (a, b) => a == b,
    }
}

/// Runs one batched call through the tier and directly, each into its
/// own sentinel-filled buffer of `len` slots: same result, same bits,
/// and an untouched buffer on `Err`.
fn agree_batch(
    len: usize,
    tier: impl FnOnce(&mut [f64]) -> Result<(), ServeError>,
    direct: impl FnOnce(&mut [f64]) -> Result<(), ServeError>,
) -> Result<(), TestCaseError> {
    let mut got = vec![SENTINEL; len];
    let mut want = vec![SENTINEL; len];
    let result = tier(&mut got);
    prop_assert_eq!(result, direct(&mut want));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&got), bits(&want));
    if result.is_err() {
        prop_assert_eq!(bits(&got), bits(&vec![SENTINEL; len]), "Err wrote to out");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every `ServeHandle::try_*` method, fed arbitrary traffic — inverted
    /// ranges and rectangles, endpoints at and past `u`, output buffers of
    /// the wrong length, unknown and wrong-kind ids, datasets published
    /// with zero records — answers exactly what the compiled form answers
    /// directly (bit for bit, or the same typed error) and never panics.
    #[test]
    fn tier_try_api_never_panics_and_matches_direct_answers(
        signal in prop::collection::vec(0u64..40, U_1D as usize),
        k_1d in 0usize..24,
        grid_seed in 0u64..1_000,
        k_2d in 0usize..48,
        zero_records in 0u8..3,
        ranges in prop::collection::vec((0u64..U_1D + 8, 0u64..U_1D + 8), 0..10),
        keys in prop::collection::vec(0u64..U_1D + 8, 0..10),
        rects in prop::collection::vec(
            (0u64..U_2D + 4, 0u64..U_2D + 4, 0u64..U_2D + 4, 0u64..U_2D + 4),
            0..8,
        ),
        out_skew in 0u8..4,
    ) {
        let signal: Vec<f64> = signal.into_iter().map(|c| c as f64).collect();
        let c1 = compiled_1d(&signal, k_1d);
        let c2 = compiled_2d(U_2D, k_2d, grid_seed);
        let rec_1d = if zero_records == 0 { 0 } else { 5_000 };
        let rec_2d = if zero_records == 1 { 0 } else { 5_000 };
        // 0: one slot short, 1: one slot long, otherwise exact.
        let out_len = |n: usize| match out_skew {
            0 => n.saturating_sub(1),
            1 => n + 1,
            _ => n,
        };

        let tier = ServeTier::default();
        tier.publish(ID_1D, &c1, rec_1d);
        tier.publish2d(ID_2D, &c2, rec_2d);
        let mut h = tier.handle();
        for id in [ID_1D, ID_2D, ID_NONE] {
            let unknown = ServeError::UnknownDataset(id);
            let d1 = if id == ID_1D { Ok(&c1) } else { Err(unknown) };
            let d2 = if id == ID_2D { Ok(&c2) } else { Err(unknown) };

            for &(lo, hi) in &ranges {
                let want = d1.and_then(|c| Ok(c.try_range_sum(lo, hi)?));
                prop_assert!(agree(h.try_range_sum(id, lo, hi), want), "sum {id} [{lo},{hi}]");
                let want = d1.and_then(|c| Ok(c.try_selectivity(lo, hi, rec_1d)?));
                prop_assert!(agree(h.try_selectivity(id, lo, hi), want), "sel {id} [{lo},{hi}]");
            }
            for &x in &keys {
                let want = d1.and_then(|c| Ok(c.try_point_estimate(x)?));
                prop_assert!(agree(h.try_point_estimate(id, x), want), "point {id} {x}");
            }
            for &rect in &rects {
                let want = d2.and_then(|c| Ok(c.try_rectangle_sum(rect)?));
                prop_assert!(agree(h.try_rectangle_sum(id, rect), want), "rect {id} {rect:?}");
                let want = d2.and_then(|c| Ok(c.try_selectivity(rect, rec_2d)?));
                prop_assert!(
                    agree(h.try_rectangle_selectivity(id, rect), want),
                    "rect sel {id} {rect:?}"
                );
                let (x, y) = (rect.0, rect.2);
                let want = d2.and_then(|c| Ok(c.try_point_estimate(x, y)?));
                prop_assert!(agree(h.try_point_estimate2d(id, x, y), want), "cell {id} ({x},{y})");
            }

            agree_batch(
                out_len(ranges.len()),
                |out| h.try_range_sum_batch_into(id, &ranges, out),
                |out| Ok(d1?.try_range_sum_batch_into(&ranges, &mut BatchScratch::new(), out)?),
            )?;
            agree_batch(
                out_len(ranges.len()),
                |out| h.try_selectivity_batch_into(id, &ranges, out),
                |out| {
                    let c = d1?;
                    Ok(c.try_selectivity_batch_into(&ranges, rec_1d, &mut BatchScratch::new(), out)?)
                },
            )?;
            agree_batch(
                out_len(keys.len()),
                |out| h.try_point_estimate_batch_into(id, &keys, out),
                |out| Ok(d1?.try_point_estimate_batch_into(&keys, &mut BatchScratch::new(), out)?),
            )?;
            agree_batch(
                out_len(rects.len()),
                |out| h.try_rectangle_sum_batch_into(id, &rects, out),
                |out| Ok(d2?.try_rectangle_sum_batch_into(&rects, &mut BatchScratch2D::new(), out)?),
            )?;
            agree_batch(
                out_len(rects.len()),
                |out| h.try_rectangle_selectivity_batch_into(id, &rects, out),
                |out| {
                    let c = d2?;
                    Ok(c.try_selectivity_batch_into(&rects, rec_2d, &mut BatchScratch2D::new(), out)?)
                },
            )?;
        }
    }
}
