//! A packed, sorted-array [`KeyStore`].
//!
//! This is the layout the paper's evaluation implies: one contiguous sorted
//! list per index, binary-searched at query time. Rank queries are a single
//! `partition_point`, scans are linear memory walks, and memory overhead is
//! exactly `12 bytes/entry` (key + id). Point updates are O(n) — use
//! [`super::BPlusTree`] when updates dominate.

use super::{canon, Entry, KeyStore};
use crate::memory::{reserve_slack, shrink_slack, HeapSize};

/// Sorted `Vec` of entries ordered by `(key, id)`.
#[derive(Debug, Clone, Default)]
pub struct VecStore {
    entries: Vec<Entry>,
}

impl VecStore {
    /// Position of the first entry not strictly below `e` in `(key, id)`
    /// order.
    fn lower_bound(&self, e: &Entry) -> usize {
        self.entries
            .partition_point(|x| x.total_cmp(e) == core::cmp::Ordering::Less)
    }
}

impl KeyStore for VecStore {
    fn build(mut entries: Vec<Entry>) -> Self {
        for e in &mut entries {
            e.key = canon(e.key);
        }
        entries.sort_unstable_by(Entry::total_cmp);
        Self { entries }
    }

    #[inline]
    fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    fn rank_leq(&self, threshold: f64) -> usize {
        let t = canon(threshold);
        self.entries.partition_point(|e| e.key <= t)
    }

    #[inline]
    fn rank_lt(&self, threshold: f64) -> usize {
        let t = canon(threshold);
        self.entries.partition_point(|e| e.key < t)
    }

    fn iter_asc(&self, from: usize, to: usize) -> impl Iterator<Item = Entry> + '_ {
        let to = to.min(self.entries.len());
        let from = from.min(to);
        self.entries[from..to].iter().copied()
    }

    fn iter_desc(&self, below: usize) -> impl Iterator<Item = Entry> + '_ {
        let below = below.min(self.entries.len());
        self.entries[..below].iter().rev().copied()
    }

    fn insert(&mut self, e: Entry) {
        let e = Entry::new(e.key, e.id);
        let pos = self.lower_bound(&e);
        reserve_slack(&mut self.entries, 1);
        self.entries.insert(pos, e);
    }

    fn remove(&mut self, e: Entry) -> bool {
        let e = Entry::new(e.key, e.id);
        let pos = self.lower_bound(&e);
        if pos < self.entries.len() && self.entries[pos] == e {
            self.entries.remove(pos);
            shrink_slack(&mut self.entries);
            true
        } else {
            false
        }
    }

    fn min_key(&self) -> Option<f64> {
        self.entries.first().map(|e| e.key)
    }

    fn max_key(&self) -> Option<f64> {
        self.entries.last().map(|e| e.key)
    }
}

impl HeapSize for VecStore {
    fn heap_size(&self) -> usize {
        self.entries.capacity() * core::mem::size_of::<Entry>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::test_support::conformance;

    #[test]
    fn vec_store_conformance() {
        conformance::<VecStore>();
    }

    #[test]
    fn iter_bounds_are_clamped() {
        let s = VecStore::build(vec![Entry::new(1.0, 0), Entry::new(2.0, 1)]);
        assert_eq!(s.iter_asc(0, 99).count(), 2);
        assert_eq!(s.iter_asc(5, 99).count(), 0);
        assert_eq!(s.iter_desc(99).count(), 2);
    }

    #[test]
    fn heap_size_is_12_bytes_per_entry_plus_padding() {
        let s = VecStore::build((0..100).map(|i| Entry::new(i as f64, i)).collect());
        // Entry is (f64, u32) → 16 bytes with padding; capacity == len after build.
        assert_eq!(s.heap_size(), 100 * core::mem::size_of::<Entry>());
    }
}
