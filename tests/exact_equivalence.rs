//! Cross-crate integration: every exact construction path — centralized,
//! Send-V, Send-Coef, H-WTopk — produces the same best-k-term histogram
//! on every dataset shape, matching §3's claim that they compute the same
//! object at different costs.

use std::collections::BTreeMap;

use wavelet_hist::builders::{Centralized, HWTopk, HistogramBuilder, SendCoef, SendV};
use wavelet_hist::data::{Dataset, DatasetBuilder, Distribution};
use wavelet_hist::incremental::MaintainedHistogram;
use wavelet_hist::mapreduce::ClusterConfig;
use wavelet_hist::wavelet::Domain;
use wavelet_hist::WaveletHistogram;

/// Distributed sums differ from the centralized transform only by float
/// associativity, so: magnitudes must match position by position, and any
/// coefficient whose magnitude clearly exceeds the k-th place must be the
/// same slot with the same value. (Near-ties at the boundary may swap —
/// both choices are equally "best" k-term representations.)
fn assert_same(a: &WaveletHistogram, b: &WaveletHistogram, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length");
    let kth = b.coefficients().last().map_or(0.0, |&(_, v)| v.abs());
    let tol = 1e-6 * (1.0 + kth);
    for (x, y) in a.coefficients().iter().zip(b.coefficients()) {
        assert!(
            (x.1.abs() - y.1.abs()).abs() < 1e-6 * (1.0 + y.1.abs()),
            "{ctx}: magnitude {x:?} vs {y:?}"
        );
    }
    let b_map: std::collections::HashMap<u64, f64> = b.coefficients().iter().copied().collect();
    for &(slot, value) in a.coefficients() {
        if value.abs() > kth + tol {
            let want = b_map.get(&slot).copied().unwrap_or_else(|| {
                panic!(
                    "{ctx}: slot {slot} (|w|={}) missing from reference",
                    value.abs()
                )
            });
            assert!(
                (value - want).abs() < 1e-6 * (1.0 + want.abs()),
                "{ctx}: slot {slot}: {value} vs {want}"
            );
        }
    }
}

fn datasets() -> Vec<(&'static str, Dataset)> {
    let base = |dist| {
        DatasetBuilder::new()
            .domain(Domain::new(9).expect("valid"))
            .distribution(dist)
            .records(30_000)
            .splits(12)
            .seed(0xd00d)
            .build()
    };
    vec![
        ("zipf-0.8", base(Distribution::Zipf { alpha: 0.8 })),
        ("zipf-1.4", base(Distribution::Zipf { alpha: 1.4 })),
        (
            "scrambled",
            base(Distribution::ScrambledZipf { alpha: 1.1 }),
        ),
        ("uniform", base(Distribution::Uniform)),
        ("worldcup", base(Distribution::WorldCup)),
    ]
}

#[test]
fn all_exact_builders_agree_on_all_distributions() {
    let cluster = ClusterConfig::paper_cluster();
    for (name, ds) in datasets() {
        let reference = Centralized::new().build(&ds, &cluster, 15);
        for b in [
            Box::new(SendV::new()) as Box<dyn HistogramBuilder>,
            Box::new(SendCoef::new()),
            Box::new(HWTopk::new()),
        ] {
            let got = b.build(&ds, &cluster, 15);
            assert_same(
                &got.histogram,
                &reference.histogram,
                &format!("{name}/{}", b.name()),
            );
        }
    }
}

#[test]
fn agreement_across_k_values() {
    let cluster = ClusterConfig::paper_cluster();
    let ds = Dataset::zipf(8, 1.1, 20_000, 8);
    for k in [1usize, 2, 7, 30, 200] {
        let reference = Centralized::new().build(&ds, &cluster, k);
        let hw = HWTopk::new().build(&ds, &cluster, k);
        assert_same(&hw.histogram, &reference.histogram, &format!("k={k}"));
    }
}

#[test]
fn agreement_across_split_counts() {
    let cluster = ClusterConfig::paper_cluster();
    for m in [1u32, 2, 5, 31, 64] {
        let ds = Dataset::zipf(8, 1.1, 12_800, m);
        let reference = Centralized::new().build(&ds, &cluster, 10);
        let hw = HWTopk::new().build(&ds, &cluster, 10);
        assert_same(&hw.histogram, &reference.histogram, &format!("m={m}"));
    }
}

#[test]
fn exact_builders_are_deterministic() {
    let cluster = ClusterConfig::paper_cluster();
    let ds = Dataset::zipf(9, 1.1, 25_000, 9);
    for b in [
        Box::new(SendV::new()) as Box<dyn HistogramBuilder>,
        Box::new(HWTopk::new()),
    ] {
        let a = b.build(&ds, &cluster, 12);
        let c = b.build(&ds, &cluster, 12);
        assert_eq!(a.histogram, c.histogram, "{}", b.name());
        assert_eq!(a.metrics, c.metrics, "{} metrics", b.name());
    }
}

#[test]
fn histogram_queries_match_reconstruction_on_real_data() {
    let cluster = ClusterConfig::paper_cluster();
    let ds = Dataset::zipf(8, 1.1, 20_000, 8);
    let r = HWTopk::new().build(&ds, &cluster, 20);
    let recon = r.histogram.reconstruct();
    for x in (0..256u64).step_by(17) {
        let p = r.histogram.point_estimate(x);
        assert!((p - recon[x as usize]).abs() < 1e-9);
    }
    let total: f64 = recon.iter().sum();
    assert!((r.histogram.range_sum(0, 255) - total).abs() < 1e-6);
}

/// Send-V reduces exact integer counts and runs the sparse transform once,
/// so under the one Haar arithmetic it is bit-identical — not merely
/// close — to the dense Centralized oracle and to the incrementally
/// maintained snapshot, at every budget and domain.
#[test]
fn send_v_centralized_and_maintained_snapshot_are_bit_identical() {
    let cluster = ClusterConfig::paper_cluster();
    for log_u in [4u32, 8, 10, 12] {
        for (seed, dist) in [
            (0x5e1, Distribution::Zipf { alpha: 1.1 }),
            (0x5e2, Distribution::Uniform),
        ] {
            let ds = DatasetBuilder::new()
                .domain(Domain::new(log_u).expect("valid"))
                .distribution(dist)
                .records(24_000)
                .splits(6)
                .seed(seed)
                .build();
            for k in [1usize, 30, 500] {
                let ctx = format!("log_u {log_u}, seed {seed:#x}, k {k}");
                let central = Centralized::new().build(&ds, &cluster, k).histogram;
                let send_v = SendV::new().build(&ds, &cluster, k).histogram;
                let maintained = MaintainedHistogram::from_dataset(&ds, k).snapshot();
                assert_eq!(
                    bits(&send_v),
                    bits(&central),
                    "{ctx}: Send-V vs Centralized"
                );
                assert_eq!(
                    bits(&maintained),
                    bits(&central),
                    "{ctx}: maintained vs Centralized"
                );
            }
        }
    }
}

fn bits(h: &WaveletHistogram) -> Vec<(u64, u64)> {
    h.coefficients()
        .iter()
        .map(|&(slot, v)| (slot, v.to_bits()))
        .collect()
}

/// The number of non-zero coefficients of split `j`, from exact integer
/// counts: slot 0 when the split is non-empty, plus every block whose two
/// halves hold different counts.
fn exact_nonzero_coefficients(ds: &Dataset, j: u32) -> u64 {
    let mut level: BTreeMap<u64, u64> = BTreeMap::new();
    for r in ds.scan_split(j) {
        *level.entry(r.key).or_insert(0) += 1;
    }
    let mut n = u64::from(!level.is_empty());
    for _ in 0..ds.domain().log_u() {
        let mut halves: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for (&x, &c) in &level {
            let half = halves.entry(x >> 1).or_default();
            if x & 1 == 0 {
                half.0 += c;
            } else {
                half.1 += c;
            }
        }
        n += halves.values().filter(|(l, r)| l != r).count() as u64;
        level = halves.into_iter().map(|(t, (l, r))| (t, l + r)).collect();
    }
    n
}

/// No float residue crosses the shuffle: Send-Coef ships exactly the
/// per-split coefficients whose integer halves differ. Uniform small
/// counts make many blocks with equal halves but different layouts —
/// exactly where accumulating `±c/√B` per key leaves rounding dust.
#[test]
fn send_coef_ships_no_float_residue() {
    let cluster = ClusterConfig::paper_cluster();
    for (log_u, records, splits) in [(10u32, 40_000u64, 8u32), (12, 60_000, 6)] {
        let ds = DatasetBuilder::new()
            .domain(Domain::new(log_u).expect("valid"))
            .distribution(Distribution::Uniform)
            .records(records)
            .splits(splits)
            .seed(0x2e51d)
            .build();
        let want: u64 = (0..splits)
            .map(|j| exact_nonzero_coefficients(&ds, j))
            .sum();
        let got = SendCoef::new()
            .build(&ds, &cluster, 16)
            .metrics
            .map_output_pairs;
        assert_eq!(
            got, want,
            "log_u {log_u}: shipped pairs vs exact non-zero coefficients"
        );
    }
}
