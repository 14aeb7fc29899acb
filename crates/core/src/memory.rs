//! Heap-size accounting.
//!
//! The paper's Figure 13b reports the memory consumption of the index
//! structure as the number of indices and the data dimensionality vary.
//! Rather than measuring RSS (noisy, allocator-dependent), every structure
//! in this workspace reports the exact number of heap bytes it owns.

/// Structures that can report the heap bytes they own (excluding the size of
/// the value itself, i.e. `size_of::<Self>()` is *not* included).
pub trait HeapSize {
    /// Number of heap-allocated bytes owned by `self`.
    fn heap_size(&self) -> usize;

    /// Heap bytes plus the inline size of the value itself.
    fn total_size(&self) -> usize
    where
        Self: Sized,
    {
        self.heap_size() + core::mem::size_of::<Self>()
    }
}

/// Spare capacity a vector that grows a row at a time keeps: under 1 %
/// of its length.
pub(crate) fn slack(len: usize) -> usize {
    len / 128 + 16
}

/// Make room for `additional` more elements, growing by [`slack`] instead
/// of doubling. Vectors that grow a row at a time under mutation use
/// this, so a set that has taken writes stays within about 1 % of a fresh
/// clone — in reported and real heap bytes alike. A regrowth copies the
/// vector once per `len / 128` pushes: 128 element copies per push,
/// amortized. Bulk builds reserve their exact size up front instead.
pub(crate) fn reserve_slack<T>(v: &mut Vec<T>, additional: usize) {
    if v.capacity() - v.len() < additional {
        v.reserve_exact(additional + slack(v.len()));
    }
}

/// Give back capacity once deletions leave more than twice [`slack`]
/// spare, so a set under churn stays as tight as a fresh clone.
pub(crate) fn shrink_slack<T>(v: &mut Vec<T>) {
    if v.capacity() - v.len() > 2 * slack(v.len()) {
        v.shrink_to(v.len() + slack(v.len()));
    }
}

/// Resize `v` to `len` elements, growing with the slack of
/// [`reserve_slack`].
pub(crate) fn resize_slack<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    reserve_slack(v, len.saturating_sub(v.len()));
    v.resize(len, fill);
}

impl<T: Copy> HeapSize for Vec<T> {
    fn heap_size(&self) -> usize {
        self.capacity() * core::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_heap_size_counts_capacity() {
        let v: Vec<f64> = Vec::with_capacity(10);
        assert_eq!(v.heap_size(), 80);
        let w: Vec<u32> = vec![1, 2, 3];
        assert!(w.heap_size() >= 12);
    }

    #[test]
    fn reserve_slack_grows_by_a_bounded_fraction() {
        let mut v: Vec<u64> = (0..6400).collect();
        v.shrink_to_fit();
        reserve_slack(&mut v, 1);
        assert_eq!(v.capacity(), 6400 + 1 + 50 + 16);
        let cap = v.capacity();
        v.extend(0..67);
        reserve_slack(&mut v, 0);
        assert_eq!(v.capacity(), cap, "no growth while room remains");
        v.truncate(6400);
        shrink_slack(&mut v);
        assert_eq!(v.capacity(), cap, "spare within twice the slack is kept");
        v.truncate(6000);
        shrink_slack(&mut v);
        assert_eq!(v.capacity(), 6000 + 46 + 16);
    }

    #[test]
    fn total_size_adds_inline_part() {
        let v: Vec<u8> = Vec::new();
        assert_eq!(v.total_size(), core::mem::size_of::<Vec<u8>>());
    }
}
