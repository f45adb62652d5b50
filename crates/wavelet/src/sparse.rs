//! Sparse Haar transform: `O(N · log u)` over the non-zero entries.
//!
//! A frequency vector with `N = |v_j|` distinct keys has at most
//! `N·(log u + 1)` non-zero wavelet coefficients (each key only touches the
//! root-to-leaf path above it). The paper's mappers exploit this
//! (Appendix A): they run this algorithm instead of the dense `O(u)` pass,
//! because a 256 MB split typically has `|v_j| ≪ u`.
//!
//! [`sparse_transform`] is a level-wise kernel over the key-sorted leaves:
//! sibling pairs are adjacent, so each level is one linear pass that adds
//! sibling sums into their parent and emits the detail `(R − L)·s(h)` —
//! the arithmetic of [`crate::haar`]'s module docs, bit-identical to the
//! dense [`crate::haar::forward`] and to [`crate::IncrementalTransform`].
//! A detail is emitted only when it is non-zero, i.e. exactly when
//! `R != L` for integer counts: cancelled blocks leave no float residue.
//!
//! [`coefficient_updates`] is the single-key primitive the sketching crate
//! uses to translate every key update into `log u + 1` coefficient-space
//! updates.

use crate::haar::level_scale;
use crate::Domain;

/// Calls `emit(slot, delta)` for every wavelet coefficient affected by
/// adding `weight` occurrences of the (0-based) key `x`.
///
/// Exactly `log u + 1` updates are emitted: the overall average (slot 0)
/// plus one detail per level. For the detail at level `j` (block size
/// `B = u/2^j`) the contribution is `±weight/√B`: negative when `x` falls in
/// the left half of the block, positive in the right half — the sign
/// convention of the paper's basis vectors (Fig. 2).
///
/// # Panics
///
/// Debug-panics when `x` is outside the domain.
#[inline]
pub fn coefficient_updates(domain: Domain, x: u64, weight: f64, mut emit: impl FnMut(u64, f64)) {
    debug_assert!(domain.contains(x), "key {x} outside {domain}");
    let log_u = domain.log_u();
    // Overall average: ψ₁ = 1/√u everywhere.
    emit(0, weight / domain.u_f64().sqrt());
    for j in 0..log_u {
        let block_log = log_u - j; // log₂ of the block size at level j
        let k = x >> block_log;
        let slot = (1u64 << j) + k;
        // Position within the block decides the sign.
        let in_right_half = (x >> (block_log - 1)) & 1 == 1;
        let scale = 1.0 / ((1u64 << block_log) as f64).sqrt();
        let delta = if in_right_half {
            weight * scale
        } else {
            -(weight * scale)
        };
        emit(slot, delta);
    }
}

/// Computes all non-zero coefficients of the sparse frequency vector given
/// by `(key, weight)` pairs, as `(slot, value)` in ascending slot order.
///
/// Keys may repeat: a key's weights are summed in arrival order (the
/// leaves are stably sorted), and a missing sibling counts as `0.0`, so
/// the result equals the non-zero entries of the dense
/// [`crate::haar::forward`] of the accumulated vector bit for bit.
///
/// Time `O(N·log N + N·log u)` for `N` pairs, memory `O(N + output)`.
///
/// # Panics
///
/// Panics when a key lies outside the domain.
pub fn sparse_transform<I>(domain: Domain, entries: I) -> Vec<(u64, f64)>
where
    I: IntoIterator<Item = (u64, f64)>,
{
    let mut level: Vec<(u64, f64)> = entries.into_iter().collect();
    for &(x, _) in &level {
        assert!(domain.contains(x), "key {x} outside {domain}");
    }
    level.sort_by_key(|&(x, _)| x);
    level.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    // `out` collects each level's details in ascending slot order, from
    // the leaves up; `ends` marks where each level's block ends.
    let log_u = domain.log_u();
    let mut out: Vec<(u64, f64)> = Vec::with_capacity(2 * level.len());
    let mut ends: Vec<usize> = Vec::with_capacity(log_u as usize + 1);
    for p in (0..log_u).rev() {
        // `level` holds the sums of level `p + 1`; fold sibling pairs into
        // the parents in place (parent index ≤ child index).
        let s = level_scale(log_u - p);
        let (mut read, mut write) = (0, 0);
        while read < level.len() {
            let (x, w) = level[read];
            read += 1;
            let (l, r) = if x & 1 == 1 {
                (0.0, w)
            } else if read < level.len() && level[read].0 == x + 1 {
                read += 1;
                (w, level[read - 1].1)
            } else {
                (w, 0.0)
            };
            let detail = (r - l) * s;
            if detail != 0.0 {
                out.push(((1u64 << p) + (x >> 1), detail));
            }
            level[write] = (x >> 1, l + r);
            write += 1;
        }
        level.truncate(write);
        ends.push(out.len());
    }
    if let Some(&(_, total)) = level.first() {
        let avg = total * level_scale(log_u);
        if avg != 0.0 {
            out.push((0, avg));
        }
    }
    ends.push(out.len());
    // Blocks run leaves-first; reversing each block and then the whole
    // vector puts slot 0 first and every level in ascending slot order.
    let mut start = 0;
    for end in ends {
        out[start..end].reverse();
        start = end;
    }
    out.reverse();
    out
}

/// Densifies sparse `(slot, value)` coefficients into a full vector of
/// length `u`.
///
/// Intended for tests, SSE evaluation and small-u reconstruction; for large
/// `u` prefer [`crate::tree::ErrorTree`].
pub fn densify(domain: Domain, coefs: &[(u64, f64)]) -> Vec<f64> {
    let mut w = vec![0.0; domain.u() as usize];
    for &(slot, val) in coefs {
        w[slot as usize] = val;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haar::forward;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    fn dense_from_pairs(u: usize, pairs: &[(u64, f64)]) -> Vec<f64> {
        let mut v = vec![0.0; u];
        for &(x, c) in pairs {
            v[x as usize] += c;
        }
        v
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|c| c.to_bits()).collect()
    }

    #[test]
    fn matches_dense_transform() {
        let domain = Domain::new(6).unwrap();
        let pairs = [
            (0u64, 3.0),
            (5, 1.0),
            (5, 2.0),
            (31, 7.0),
            (32, 4.0),
            (63, 1.0),
        ];
        let sparse = sparse_transform(domain, pairs.iter().copied());
        let dense = forward(&dense_from_pairs(64, &pairs));
        assert_eq!(bits(&densify(domain, &sparse)), bits(&dense));
        assert_eq!(sparse.len(), dense.iter().filter(|&&c| c != 0.0).count());
    }

    #[test]
    fn output_is_slot_ascending() {
        let domain = Domain::new(9).unwrap();
        let pairs: Vec<(u64, f64)> = (0..200u64).map(|i| ((i * 389) % 512, 1.0)).collect();
        let coefs = sparse_transform(domain, pairs);
        assert!(coefs.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(coefs[0].0, 0);
    }

    #[test]
    fn update_count_is_log_u_plus_one() {
        let domain = Domain::new(12).unwrap();
        let mut n = 0;
        coefficient_updates(domain, 999, 1.0, |_, _| n += 1);
        assert_eq!(n, 13);
    }

    #[test]
    fn single_key_path_slots() {
        // Key 5 in u=8 (binary 101): level-0 block k=0 (right half since bit2=1),
        // level-1 block k=1 (left half: bit1=0), level-2 block k=2 (right: bit0=1).
        let domain = Domain::new(3).unwrap();
        let mut got = Vec::new();
        coefficient_updates(domain, 5, 1.0, |s, d| got.push((s, d)));
        let slots: Vec<u64> = got.iter().map(|(s, _)| *s).collect();
        assert_eq!(slots, vec![0, 1, 3, 6]);
        assert!(got[1].1 > 0.0); // right half at level 0
        assert!(got[2].1 < 0.0); // left half at level 1
        assert!(got[3].1 > 0.0); // right half at level 2
                                 // The kernel visits the same path with the same signs.
        let coefs = sparse_transform(domain, [(5u64, 1.0)]);
        let kernel_slots: Vec<u64> = coefs.iter().map(|&(s, _)| s).collect();
        assert_eq!(kernel_slots, slots);
        for (&(_, a), &(_, b)) in coefs.iter().zip(&got) {
            assert!(close(a, b));
        }
    }

    #[test]
    fn cancellation_prunes_exact_zeros() {
        // Two equal keys in sibling positions cancel their shared leaf detail.
        let domain = Domain::new(4).unwrap();
        let coefs = sparse_transform(domain, [(2u64, 1.0), (3u64, 1.0)]);
        // Leaf detail for the pair (2,3): slot 8 + 1 = 9 must be gone.
        assert!(!coefs.iter().any(|&(s, _)| s == 9));
        assert!(coefs.iter().any(|&(s, _)| s == 0));
    }

    #[test]
    fn equal_halves_leave_no_residue() {
        // Blocks whose halves hold equal totals through different key
        // layouts: every such detail is exactly absent, at every level.
        let domain = Domain::new(4).unwrap();
        let pairs = [
            (0u64, 3.0),
            (1, 7.0),
            (2, 5.0),
            (3, 5.0),
            (9, 10.0),
            (12, 10.0),
        ];
        let coefs = sparse_transform(domain, pairs);
        let slots: Vec<u64> = coefs.iter().map(|&(s, _)| s).collect();
        // Slots 1 (halves 20 vs 20), 3 (10 vs 10), 4 (10 vs 10) and
        // 9 (5 vs 5) cancel exactly.
        assert_eq!(slots, vec![0, 2, 6, 7, 8, 12, 14]);
    }

    #[test]
    fn densify_roundtrip() {
        let domain = Domain::new(5).unwrap();
        let pairs = [(1u64, 2.0), (17, 5.0)];
        let coefs = sparse_transform(domain, pairs.iter().copied());
        let dense = densify(domain, &coefs);
        let expect = forward(&dense_from_pairs(32, &pairs));
        assert_eq!(bits(&dense), bits(&expect));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_domain_key_rejected() {
        sparse_transform(Domain::new(3).unwrap(), [(8u64, 1.0)]);
    }

    #[test]
    fn linearity_of_sparse_transform() {
        let domain = Domain::new(8).unwrap();
        let a = [(3u64, 1.0), (100, 2.0)];
        let b = [(3u64, 4.0), (200, 1.0)];
        let wa = densify(domain, &sparse_transform(domain, a.iter().copied()));
        let wb = densify(domain, &sparse_transform(domain, b.iter().copied()));
        let wab = sparse_transform(domain, a.iter().chain(b.iter()).copied());
        for &(slot, v) in &wab {
            let s = wa[slot as usize] + wb[slot as usize];
            assert!(close(v, s));
        }
    }
}
