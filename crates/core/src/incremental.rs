//! Incrementally maintained wavelet histograms: the delta-build path.
//!
//! A [`MaintainedHistogram`] wraps `wh-wavelet`'s
//! [`IncrementalTransform`] — exact integer leaf counts and subtree sums,
//! with the details recomputed only along dirty paths — and
//! re-selects the top-`k` on demand. Its [`snapshot`](MaintainedHistogram::snapshot)
//! is **bit-identical** to what [`crate::builders::Centralized`] would
//! build from scratch on the concatenated data, whatever order the deltas
//! arrived in, so the serving tier can publish delta-merged snapshots
//! without giving up the exact builders' differential guarantees.
//!
//! The freshness loop this enables (see `docs/architecture.md`,
//! "Incremental maintenance"):
//!
//! ```text
//! new segment ──▶ MaintainedHistogram::merge_delta   O(d·log u)
//!                        │ snapshot()                O(D + k·heap)
//!                        ▼
//!                 WaveletHistogram ──▶ CompiledHistogram::compile
//!                        │                            O(k·log u)
//!                        ▼
//!                 ServeTier::try_publish ──▶ epoch swap
//! ```
//!
//! versus a full rebuild's `O(n + u)` scan-and-transform per batch.

use wh_data::Dataset;
use wh_wavelet::hash::FxHashMap;
use wh_wavelet::{Domain, IncrementalTransform};

use crate::histogram::WaveletHistogram;

/// A wavelet histogram kept current under streaming data arrivals.
///
/// Holds the full non-zero coefficient set (not just the top `k`), which
/// is what makes re-selection after a delta exact: a delta can shrink the
/// k-th magnitude and let a previously unselected coefficient enter, so
/// selection must scan the whole non-zero set.
#[derive(Debug, Clone, PartialEq)]
pub struct MaintainedHistogram {
    transform: IncrementalTransform,
    k: usize,
}

impl MaintainedHistogram {
    /// An empty maintained histogram over `domain`, snapshotting the best
    /// `k` terms.
    pub fn new(domain: Domain, k: usize) -> Self {
        Self {
            transform: IncrementalTransform::new(domain),
            k,
        }
    }

    /// Seeds the maintained state from every split of `dataset` — the
    /// "initial build" of the freshness story. The resulting
    /// [`snapshot`](Self::snapshot) is bit-identical to
    /// [`crate::builders::Centralized`] on the same data.
    pub fn from_dataset(dataset: &Dataset, k: usize) -> Self {
        let mut m = Self::new(dataset.domain(), k);
        for j in 0..dataset.num_splits() {
            m.merge_split(dataset, j);
        }
        m
    }

    /// The key domain.
    pub fn domain(&self) -> Domain {
        self.transform.domain()
    }

    /// The snapshot budget `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total records absorbed so far (what the serving tier publishes as
    /// the dataset's record count).
    pub fn total_records(&self) -> u64 {
        self.transform.total_count()
    }

    /// Distinct keys with a non-zero count.
    pub fn distinct_keys(&self) -> usize {
        self.transform.distinct_keys()
    }

    /// Read-only view of the maintained transform.
    pub fn transform(&self) -> &IncrementalTransform {
        &self.transform
    }

    /// Absorbs a delta segment of `(key, additional_count)` pairs in
    /// `O(d·log u)`. Empty deltas are no-ops; merge order never changes
    /// the resulting state.
    ///
    /// # Panics
    ///
    /// Panics when a key lies outside the domain or a count would
    /// overflow `u64`. The delta is validated before anything changes,
    /// so after a caught panic the histogram is exactly as it was.
    pub fn merge_delta(&mut self, delta: impl IntoIterator<Item = (u64, u64)>) {
        self.transform.apply_delta(delta);
    }

    /// Absorbs a stream of raw record keys (each one occurrence),
    /// pre-aggregating per key so the transform sees each dirty leaf once.
    pub fn merge_keys(&mut self, keys: impl IntoIterator<Item = u64>) {
        let mut agg: FxHashMap<u64, u64> = FxHashMap::default();
        for x in keys {
            *agg.entry(x).or_insert(0) += 1;
        }
        self.transform.apply_delta(agg);
    }

    /// Absorbs one split of `dataset` — the unit new segments arrive in.
    ///
    /// # Panics
    ///
    /// Panics when `split` is out of range or the dataset's domain does
    /// not match.
    pub fn merge_split(&mut self, dataset: &Dataset, split: u32) {
        assert_eq!(
            dataset.domain(),
            self.domain(),
            "dataset domain does not match the maintained histogram"
        );
        self.merge_keys(dataset.scan_split(split).map(|r| r.key));
    }

    /// Re-selects the best `k` terms and materializes the queryable
    /// histogram — bit-identical to a from-scratch exact build
    /// ([`crate::builders::Centralized`]) on the accumulated data.
    pub fn snapshot(&self) -> WaveletHistogram {
        self.snapshot_k(self.k)
    }

    /// [`Self::snapshot`] with an explicit term budget.
    pub fn snapshot_k(&self, k: usize) -> WaveletHistogram {
        WaveletHistogram::new(
            self.domain(),
            self.transform
                .top_coefficients(k)
                .into_iter()
                .map(|e| (e.slot, e.value)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{Centralized, HistogramBuilder};
    use wh_data::DatasetBuilder;
    use wh_mapreduce::ClusterConfig;

    fn dataset(seed: u64, records: u64, splits: u32) -> Dataset {
        DatasetBuilder::new()
            .domain(Domain::new(8).unwrap())
            .distribution(wh_data::Distribution::Zipf { alpha: 1.1 })
            .records(records)
            .splits(splits)
            .seed(seed)
            .build()
    }

    #[test]
    fn from_dataset_is_bit_identical_to_centralized() {
        let ds = dataset(11, 20_000, 6);
        let maintained = MaintainedHistogram::from_dataset(&ds, 24);
        let scratch = Centralized::new().build(&ds, &ClusterConfig::paper_cluster(), 24);
        assert_eq!(maintained.total_records(), ds.num_records());
        let a = maintained.snapshot();
        let b = scratch.histogram;
        assert_eq!(a.len(), b.len());
        for (x, y) in a.coefficients().iter().zip(b.coefficients()) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
    }

    #[test]
    fn split_at_a_time_equals_all_at_once() {
        let ds = dataset(7, 12_000, 5);
        let mut incremental = MaintainedHistogram::new(ds.domain(), 16);
        for j in 0..ds.num_splits() {
            incremental.merge_split(&ds, j);
        }
        let oneshot = MaintainedHistogram::from_dataset(&ds, 16);
        assert_eq!(incremental, oneshot);
        assert_eq!(incremental.snapshot(), oneshot.snapshot());
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let ds = dataset(3, 5_000, 4);
        let mut m = MaintainedHistogram::from_dataset(&ds, 12);
        let before = m.clone();
        m.merge_delta(std::iter::empty());
        m.merge_keys(std::iter::empty());
        assert_eq!(m, before);
        assert_eq!(m.snapshot(), before.snapshot());
    }

    #[test]
    fn snapshot_k_overrides_the_stored_budget() {
        let ds = dataset(9, 8_000, 4);
        let m = MaintainedHistogram::from_dataset(&ds, 8);
        assert_eq!(m.k(), 8);
        assert!(m.snapshot_k(4).len() <= 4);
        assert!(m.snapshot_k(1_000_000).len() >= m.snapshot().len());
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_domain_rejected() {
        let ds = dataset(1, 1_000, 2);
        let mut m = MaintainedHistogram::new(Domain::new(4).unwrap(), 8);
        m.merge_split(&ds, 0);
    }
}
