//! Property-based tests on the wavelet substrate: the invariants every
//! algorithm in the workspace leans on, checked over arbitrary signals.

use proptest::prelude::*;
use wavelet_hist::wavelet::{haar, sparse, sse, tree::ErrorTree, Domain, IncrementalTransform};

fn signal(log_u: u32) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1000.0f64..1000.0, 1usize << log_u)
}

fn sparse_pairs(log_u: u32) -> impl Strategy<Value = Vec<(u64, f64)>> {
    prop::collection::vec(
        ((0u64..(1 << log_u)), 1.0f64..500.0).prop_map(|(k, c)| (k, c)),
        0..60,
    )
}

/// A multiset of `(key, count)` leaves over `[2^log_u]` in arbitrary
/// order: the drawn pairs, then every third of them again in reverse, so
/// duplicate keys arrive out of order even in wide domains.
fn multiset(log_u: u32, raw: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mask = (1u64 << log_u) - 1;
    let pairs: Vec<(u64, u64)> = raw.iter().map(|&(x, c)| (x & mask, c)).collect();
    let again: Vec<(u64, u64)> = pairs.iter().rev().step_by(3).copied().collect();
    pairs.into_iter().chain(again).collect()
}

fn raw_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..u64::MAX, 1u64..1000), 0..120)
}

fn to_bits(coefs: &[(u64, f64)]) -> Vec<(u64, u64)> {
    coefs.iter().map(|&(s, v)| (s, v.to_bits())).collect()
}

fn sparse_of(domain: Domain, leaves: &[(u64, u64)]) -> Vec<(u64, f64)> {
    sparse::sparse_transform(domain, leaves.iter().map(|&(x, c)| (x, c as f64)))
}

fn incremental_of(domain: Domain, leaves: &[(u64, u64)]) -> Vec<(u64, f64)> {
    let t = IncrementalTransform::from_counts(domain, leaves.iter().copied());
    let mut coefs: Vec<(u64, f64)> = t.coefficients().collect();
    coefs.sort_unstable_by_key(|&(s, _)| s);
    coefs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The one arithmetic: sparse ≡ dense ≡ incremental, bit for bit.
    #[test]
    fn sparse_dense_and_incremental_are_bit_identical(log_u in 0u32..=12, raw in raw_pairs()) {
        let domain = Domain::new(log_u).expect("valid");
        let leaves = multiset(log_u, &raw);
        let sparse = sparse_of(domain, &leaves);
        let mut v = vec![0.0f64; 1 << log_u];
        for &(x, c) in &leaves {
            v[x as usize] += c as f64;
        }
        let dense = haar::forward(&v);
        let dense_nonzero: Vec<(u64, f64)> = dense
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w != 0.0)
            .map(|(s, &w)| (s as u64, w))
            .collect();
        prop_assert_eq!(to_bits(&sparse), to_bits(&dense_nonzero));
        prop_assert_eq!(to_bits(&incremental_of(domain, &leaves)), to_bits(&sparse));
    }

    #[test]
    fn sparse_and_incremental_are_bit_identical_on_wide_domains(
        log_u in 13u32..=24,
        raw in raw_pairs(),
    ) {
        let domain = Domain::new(log_u).expect("valid");
        let leaves = multiset(log_u, &raw);
        let sparse = sparse_of(domain, &leaves);
        prop_assert!(sparse.windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert_eq!(to_bits(&incremental_of(domain, &leaves)), to_bits(&sparse));
    }

    #[test]
    fn forward_inverse_roundtrip(v in signal(6)) {
        let w = haar::forward(&v);
        let back = haar::inverse(&w);
        for (a, b) in v.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-8 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn parseval_energy_preserved(v in signal(5)) {
        let w = haar::forward(&v);
        let ev = sse::energy(&v);
        let ew = sse::energy(&w);
        prop_assert!((ev - ew).abs() < 1e-7 * (1.0 + ev));
    }

    #[test]
    fn transform_is_linear(a in signal(5), b in signal(5)) {
        let wa = haar::forward(&a);
        let wb = haar::forward(&b);
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let ws = haar::forward(&sum);
        for i in 0..32 {
            prop_assert!((ws[i] - (wa[i] + wb[i])).abs() < 1e-8 * (1.0 + ws[i].abs()));
        }
    }

    #[test]
    fn sparse_transform_matches_dense(pairs in sparse_pairs(7)) {
        let domain = Domain::new(7).expect("valid");
        let coefs = sparse::sparse_transform(domain, pairs.iter().copied());
        let mut v = vec![0.0f64; 128];
        for &(k, c) in &pairs {
            v[k as usize] += c;
        }
        let dense = haar::forward(&v);
        let got = sparse::densify(domain, &coefs);
        for (slot, (&g, &want)) in got.iter().zip(&dense).enumerate() {
            prop_assert_eq!(g.to_bits(), want.to_bits(), "slot {}: {} vs {}", slot, g, want);
        }
    }

    #[test]
    fn error_tree_point_queries_match_reconstruction(pairs in sparse_pairs(6), k in 1usize..20) {
        let domain = Domain::new(6).expect("valid");
        let coefs = sparse::sparse_transform(domain, pairs.iter().copied());
        let top = wavelet_hist::wavelet::select::top_k_magnitude(coefs.into_iter(), k);
        let tree = ErrorTree::new(domain, top.iter().map(|e| (e.slot, e.value)));
        let recon = tree.reconstruct();
        for x in 0..64u64 {
            prop_assert!((tree.point_estimate(x) - recon[x as usize]).abs() < 1e-8);
        }
    }

    #[test]
    fn range_sum_equals_sum_of_points(pairs in sparse_pairs(6), lo in 0u64..64, len in 0u64..64) {
        let hi = (lo + len).min(63);
        let domain = Domain::new(6).expect("valid");
        let coefs = sparse::sparse_transform(domain, pairs.iter().copied());
        let tree = ErrorTree::new(domain, coefs.into_iter());
        let by_points: f64 = (lo..=hi).map(|x| tree.point_estimate(x)).sum();
        let by_range = tree.range_sum(lo, hi);
        prop_assert!((by_points - by_range).abs() < 1e-6 * (1.0 + by_points.abs()));
    }

    #[test]
    fn top_k_is_optimal_energy_subset(v in signal(5), k in 1usize..32) {
        let w = haar::forward(&v);
        let top = wavelet_hist::wavelet::select::top_k_magnitude(
            w.iter().enumerate().map(|(s, &c)| (s as u64, c)), k);
        let retained_energy: f64 = top.iter().map(|e| e.value * e.value).sum();
        // No other subset of size k retains more energy than the top-k by
        // magnitude: compare against the sum of the k largest squares.
        let mut sq: Vec<f64> = w.iter().map(|c| c * c).collect();
        sq.sort_by(|a, b| b.partial_cmp(a).expect("no NaN"));
        let best: f64 = sq.iter().take(k).sum();
        prop_assert!((retained_energy - best).abs() < 1e-7 * (1.0 + best));
    }

    #[test]
    fn ideal_sse_plus_retained_energy_is_total(v in signal(5), k in 0usize..40) {
        let w = haar::forward(&v);
        let total = sse::energy(&w);
        let ideal = sse::ideal_sse(&w, k);
        let mut sq: Vec<f64> = w.iter().map(|c| c * c).collect();
        sq.sort_by(|a, b| b.partial_cmp(a).expect("no NaN"));
        let retained: f64 = sq.iter().take(k).sum();
        prop_assert!((ideal + retained - total).abs() < 1e-7 * (1.0 + total));
    }
}

#[test]
fn two_dimensional_roundtrip_property() {
    // Deterministic sweep standing in for a 2-D proptest (dense 2-D is
    // quadratic; keep it bounded).
    use wavelet_hist::wavelet::twod;
    let domain = Domain::new(4).expect("valid");
    for seed in 0..8u64 {
        let v: Vec<f64> = (0..256)
            .map(|i| (((i as u64 + seed).wrapping_mul(2654435761)) % 97) as f64)
            .collect();
        let w = twod::forward2d(domain, &v);
        let back = twod::inverse2d(domain, &w);
        for (a, b) in v.iter().zip(&back) {
            assert!((a - b).abs() < 1e-8);
        }
        let ev: f64 = v.iter().map(|x| x * x).sum();
        let ew: f64 = w.iter().map(|x| x * x).sum();
        assert!((ev - ew).abs() < 1e-7 * ev.max(1.0));
    }
}
