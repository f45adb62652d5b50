//! The immutable, query-optimized form of a built wavelet histogram.

use crate::error::QueryError;
use wh_core::WaveletHistogram;
use wh_wavelet::Domain;

/// A [`WaveletHistogram`] compiled for serving: the pruned error tree
/// flattened to its piecewise-constant segments, with per-segment prefix
/// sums.
///
/// All state is immutable after [`compile`](Self::compile), so the type
/// is `Sync` — a multi-threaded server shares one instance by reference.
/// Every query method is allocation-free and runs in `O(log k)` for `k`
/// retained coefficients (the segment count is at most `3k + 1`); the
/// batched methods ([`Self::try_range_sum_batch_into`] and friends)
/// amortize further. Every query method is fallible: a malformed query
/// returns a [`QueryError`], never a panic.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledHistogram {
    domain: Domain,
    /// Segment start keys, strictly ascending; `starts[0] == 0`. Segment
    /// `i` covers `[starts[i], starts[i+1])`, the last running to `u`.
    starts: Vec<u64>,
    /// Estimated frequency of every key inside the segment.
    values: Vec<f64>,
    /// Estimated cumulative frequency of all keys *before* the segment.
    prefix: Vec<f64>,
    /// Estimated total frequency over the whole domain.
    total: f64,
}

impl CompiledHistogram {
    /// Compiles a built histogram. `O(k log u)` once; queries never touch
    /// the coefficient set again.
    pub fn compile(hist: &WaveletHistogram) -> Self {
        let mut compiled = Self {
            domain: hist.domain(),
            starts: Vec::new(),
            values: Vec::new(),
            prefix: Vec::new(),
            total: 0.0,
        };
        compiled.recompile(hist);
        compiled
    }

    /// Re-snapshots this compiled form from a (typically delta-merged)
    /// histogram in place, reusing the segment arrays' allocations — the
    /// compile side of the incremental-maintenance loop, where a fresh
    /// snapshot is compiled per delta batch before being handed to the
    /// serving tier. Equivalent to `*self = CompiledHistogram::compile(h)`
    /// bit for bit, without the three reallocations.
    pub fn recompile(&mut self, hist: &WaveletHistogram) {
        let domain = hist.domain();
        let segs = hist.segments();
        self.domain = domain;
        self.starts.clear();
        self.values.clear();
        self.prefix.clear();
        self.starts.reserve(segs.len());
        self.values.reserve(segs.len());
        self.prefix.reserve(segs.len());
        let mut acc = 0.0f64;
        for (i, &(start, value)) in segs.iter().enumerate() {
            self.starts.push(start);
            self.values.push(value);
            self.prefix.push(acc);
            let end = segs.get(i + 1).map_or(domain.u(), |&(s, _)| s);
            acc += value * ((end - start) as f64);
        }
        self.total = acc;
    }

    /// The key domain this histogram describes.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Number of piecewise-constant segments (≤ `3k + 1`).
    pub fn num_segments(&self) -> usize {
        self.starts.len()
    }

    /// The segments as ascending `(start, value)` pairs.
    pub fn segments(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.starts.iter().copied().zip(self.values.iter().copied())
    }

    /// Estimated total frequency over the whole domain (equals
    /// `try_prefix_sum(u − 1)` bit for bit).
    pub fn total_estimate(&self) -> f64 {
        self.total
    }

    /// Index of the segment containing `x` (caller guarantees `x` is in
    /// the domain, so a segment always exists).
    #[inline]
    fn segment_of(&self, x: u64) -> usize {
        self.starts.partition_point(|&s| s <= x) - 1
    }

    /// The cumulative-estimate formula, shared verbatim by the single and
    /// batched paths so their answers are bit-identical.
    #[inline]
    pub(crate) fn prefix_at(&self, seg: usize, x: u64) -> f64 {
        self.prefix[seg] + self.values[seg] * ((x - self.starts[seg] + 1) as f64)
    }

    /// Start-key array, for the batched walk.
    #[inline]
    pub(crate) fn start_keys(&self) -> &[u64] {
        &self.starts
    }

    /// Per-key estimate of segment `seg`, for the batched walk.
    #[inline]
    pub(crate) fn value_at(&self, seg: usize) -> f64 {
        self.values[seg]
    }

    /// Checks that `x` lies in the domain, as a value.
    #[inline]
    pub(crate) fn check_key(&self, x: u64) -> Result<(), QueryError> {
        if self.domain.contains(x) {
            Ok(())
        } else {
            Err(QueryError::OutOfDomain {
                key: x,
                domain: self.domain,
            })
        }
    }

    /// Estimated frequency of the (0-based) key `x`, or the reason the
    /// query is malformed. This is the serve-path entry point: a bad key
    /// is an error value, never a panic.
    pub fn try_point_estimate(&self, x: u64) -> Result<f64, QueryError> {
        self.check_key(x)?;
        Ok(self.values[self.segment_of(x)])
    }

    /// Estimated cumulative frequency of keys `0..=x`, or the reason the
    /// query is malformed.
    pub fn try_prefix_sum(&self, x: u64) -> Result<f64, QueryError> {
        self.check_key(x)?;
        Ok(self.prefix_at(self.segment_of(x), x))
    }

    /// Estimated total frequency of keys in `[lo, hi]` (0-based,
    /// inclusive) — two cumulative estimates — or the reason the query is
    /// malformed.
    pub fn try_range_sum(&self, lo: u64, hi: u64) -> Result<f64, QueryError> {
        if lo > hi {
            return Err(QueryError::EmptyRange { lo, hi });
        }
        let hi_p = self.try_prefix_sum(hi)?;
        let lo_p = if lo == 0 {
            0.0
        } else {
            self.try_prefix_sum(lo - 1)?
        };
        Ok(hi_p - lo_p)
    }

    /// Estimated selectivity of `[lo, hi]` relative to `n` records,
    /// clamped to `[0, 1]`, or the reason the query is malformed.
    pub fn try_selectivity(&self, lo: u64, hi: u64, n: u64) -> Result<f64, QueryError> {
        if n == 0 {
            return Err(QueryError::ZeroRecords);
        }
        Ok((self.try_range_sum(lo, hi)? / n as f64).clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_wavelet::haar::forward;
    use wh_wavelet::select::top_k_magnitude;

    fn compiled_from_signal(v: &[f64], k: usize) -> (CompiledHistogram, WaveletHistogram) {
        let domain = Domain::covering(v.len() as u64).unwrap();
        assert_eq!(domain.u() as usize, v.len());
        let w = forward(v);
        let top = top_k_magnitude(w.iter().enumerate().map(|(s, &c)| (s as u64, c)), k);
        let hist = WaveletHistogram::new(domain, top.iter().map(|e| (e.slot, e.value)));
        (CompiledHistogram::compile(&hist), hist)
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn matches_error_tree_on_full_and_truncated_retention() {
        let v: Vec<f64> = (0..128).map(|i| ((i * 17) % 23) as f64).collect();
        for k in [128usize, 9, 3, 1] {
            let (compiled, hist) = compiled_from_signal(&v, k);
            for x in 0..128u64 {
                assert!(
                    close(
                        compiled.try_point_estimate(x).unwrap(),
                        hist.point_estimate(x)
                    ),
                    "k={k} x={x}"
                );
                assert!(
                    close(compiled.try_prefix_sum(x).unwrap(), hist.prefix_sum(x)),
                    "k={k} x={x}"
                );
            }
            for (lo, hi) in [(0, 127), (5, 5), (31, 96), (0, 0), (127, 127)] {
                assert!(
                    close(
                        compiled.try_range_sum(lo, hi).unwrap(),
                        hist.range_sum(lo, hi)
                    ),
                    "k={k} [{lo},{hi}]"
                );
            }
        }
    }

    #[test]
    fn recompile_matches_fresh_compile_bitwise() {
        let a: Vec<f64> = (0..64).map(|i| ((i * 13) % 19) as f64).collect();
        let b: Vec<f64> = (0..64).map(|i| ((i * 7) % 29) as f64 + 1.0).collect();
        let (mut reused, _) = compiled_from_signal(&a, 12);
        let (_, hist_b) = compiled_from_signal(&b, 9);
        reused.recompile(&hist_b);
        let fresh = CompiledHistogram::compile(&hist_b);
        assert_eq!(reused, fresh);
        assert_eq!(
            reused.total_estimate().to_bits(),
            fresh.total_estimate().to_bits()
        );
        for x in 0..64u64 {
            assert_eq!(
                reused.try_prefix_sum(x).unwrap().to_bits(),
                fresh.try_prefix_sum(x).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn total_equals_last_prefix_bitwise() {
        let v: Vec<f64> = (0..64).map(|i| ((i * 31) % 11) as f64).collect();
        let (compiled, _) = compiled_from_signal(&v, 10);
        assert_eq!(
            compiled.total_estimate().to_bits(),
            compiled.try_prefix_sum(63).unwrap().to_bits()
        );
    }

    #[test]
    fn empty_histogram_serves_zeros() {
        let domain = Domain::new(4).unwrap();
        let hist = WaveletHistogram::new(domain, std::iter::empty::<(u64, f64)>());
        let compiled = CompiledHistogram::compile(&hist);
        assert_eq!(compiled.num_segments(), 1);
        assert_eq!(compiled.try_point_estimate(7).unwrap(), 0.0);
        assert_eq!(compiled.try_range_sum(0, 15).unwrap(), 0.0);
        assert_eq!(compiled.try_selectivity(3, 9, 100).unwrap(), 0.0);
        assert_eq!(compiled.total_estimate(), 0.0);
    }

    #[test]
    fn selectivity_clamps_like_the_histogram() {
        let v = vec![10.0, 0.0, 0.0, 0.0];
        let (compiled, hist) = compiled_from_signal(&v, 4);
        assert_eq!(
            compiled.try_selectivity(0, 0, 10).unwrap().to_bits(),
            hist.selectivity(0, 0, 10).to_bits()
        );
        assert!(compiled.try_selectivity(1, 3, 10).unwrap() < 1e-12);
    }

    #[test]
    fn compiled_is_sync_and_send() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<CompiledHistogram>();
    }
}
