//! A small vector stored inline up to a fixed capacity.
//!
//! The event loop prefetches the slot of the node the next event touches
//! (`core.rs`, the look-ahead). A table behind a `Vec` pointer in that slot
//! is a second, dependent miss the prefetch cannot reach: its address is
//! only known once the slot has arrived. Every per-node table an event
//! reads — the FIFO clocks, HyParView's active view, its peer records and
//! probes, BRISA's link table — is bounded by the active view, so it fits
//! in the slot itself. [`InlineVec`] holds up to `N` elements there and,
//! past `N`, moves them whole to the heap and stays there, so a table
//! larger than `N` (a larger configured view) behaves exactly like the
//! `Vec` it replaced.
//!
//! Element order under `push`, `insert`, `remove`, `swap_remove` and
//! `retain` is `Vec`'s: every caller that iterated a `Vec` iterates the
//! same sequence.

use std::fmt;
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};

/// The default inline capacity of a per-node table: HyParView's default
/// `max_active`, an active view of 4 times its expansion factor of 2.
pub const INLINE_TABLE: usize = 8;

/// A vector of `Copy` elements that keeps up to `N` of them inline and
/// spills to the heap, whole and for good, past `N`. It is a slice through
/// `Deref`.
pub struct InlineVec<T: Copy, const N: usize = INLINE_TABLE>(Repr<T, N>);

enum Repr<T: Copy, const N: usize> {
    /// The first `len` elements of `items` are initialised.
    Inline {
        len: u32,
        items: [MaybeUninit<T>; N],
    },
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// An empty vector, inline.
    pub const fn new() -> Self {
        InlineVec(Repr::Inline {
            len: 0,
            items: [MaybeUninit::uninit(); N],
        })
    }

    /// An empty vector with room for `capacity` elements: inline if that
    /// fits in `N`, otherwise on the heap from the start.
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity <= N {
            Self::new()
        } else {
            InlineVec(Repr::Heap(Vec::with_capacity(capacity)))
        }
    }

    /// True once the elements live on the heap.
    #[cfg(test)]
    pub(crate) fn spilled(&self) -> bool {
        matches!(self.0, Repr::Heap(_))
    }

    /// Bytes held on the heap: the spilled capacity, 0 while inline (the
    /// inline storage is part of `size_of::<Self>()`).
    pub fn heap_bytes(&self) -> usize {
        match &self.0 {
            Repr::Inline { .. } => 0,
            Repr::Heap(v) => v.capacity() * std::mem::size_of::<T>(),
        }
    }

    /// Appends `value`, spilling to the heap if the inline storage is full.
    #[inline]
    pub fn push(&mut self, value: T) {
        if let Repr::Inline { len, items } = &mut self.0 {
            if let Some(free) = items.get_mut(*len as usize) {
                *free = MaybeUninit::new(value);
                *len += 1;
                return;
            }
            self.spill();
        }
        if let Repr::Heap(v) = &mut self.0 {
            v.push(value);
        }
    }

    /// Moves the full inline storage to the heap, for good.
    #[cold]
    fn spill(&mut self) {
        let mut v = Vec::with_capacity(2 * N.max(1));
        v.extend_from_slice(self);
        self.0 = Repr::Heap(v);
    }

    /// Inserts `value` at `index`, shifting the tail right (`Vec::insert`).
    ///
    /// # Panics
    /// If `index > len`.
    pub fn insert(&mut self, index: usize, value: T) {
        assert!(index <= self.len(), "insertion index {index} past the end");
        self.push(value);
        self[index..].rotate_right(1);
    }

    /// Removes and returns the element at `index`, shifting the tail left
    /// (`Vec::remove`).
    ///
    /// # Panics
    /// If `index >= len`.
    pub fn remove(&mut self, index: usize) -> T {
        let value = self[index];
        self.copy_within(index + 1.., index);
        self.truncate(self.len() - 1);
        value
    }

    /// Removes and returns the element at `index`, moving the last element
    /// into its place (`Vec::swap_remove`).
    ///
    /// # Panics
    /// If `index >= len`.
    pub fn swap_remove(&mut self, index: usize) -> T {
        let value = self[index];
        let last = self.len() - 1;
        self[index] = self[last];
        self.truncate(last);
        value
    }

    /// Keeps the elements `keep` accepts, in order, and lets it edit each
    /// (`Vec::retain_mut`).
    #[inline]
    pub fn retain_mut(&mut self, mut keep: impl FnMut(&mut T) -> bool) {
        let mut kept = 0;
        for i in 0..self.len() {
            if keep(&mut self[i]) {
                self[kept] = self[i];
                kept += 1;
            }
        }
        self.truncate(kept);
    }

    /// Keeps the elements `keep` accepts, in order (`Vec::retain`).
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.retain_mut(|x| keep(x));
    }

    /// Shortens the vector to `new_len` elements; no-op if it is shorter.
    pub fn truncate(&mut self, new_len: usize) {
        match &mut self.0 {
            Repr::Inline { len, .. } => {
                if new_len < *len as usize {
                    *len = new_len as u32;
                }
            }
            Repr::Heap(v) => v.truncate(new_len),
        }
    }

    /// Removes every element, keeping the storage (a spilled vector stays
    /// on the heap).
    pub fn clear(&mut self) {
        self.truncate(0);
    }
}

impl<T: Copy, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy, const N: usize> Clone for InlineVec<T, N> {
    fn clone(&self) -> Self {
        match &self.0 {
            Repr::Inline { len, items } => InlineVec(Repr::Inline {
                len: *len,
                items: *items,
            }),
            Repr::Heap(v) => InlineVec(Repr::Heap(v.clone())),
        }
    }
}

impl<T: Copy, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        match &self.0 {
            // SAFETY: the first `len` items are initialised, and
            // `MaybeUninit<T>` has `T`'s layout.
            Repr::Inline { len, items } => unsafe {
                std::slice::from_raw_parts(items.as_ptr().cast::<T>(), *len as usize)
            },
            Repr::Heap(v) => v,
        }
    }
}

impl<T: Copy, const N: usize> DerefMut for InlineVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            // SAFETY: as in `deref`.
            Repr::Inline { len, items } => unsafe {
                std::slice::from_raw_parts_mut(items.as_mut_ptr().cast::<T>(), *len as usize)
            },
            Repr::Heap(v) => v,
        }
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn spills_whole_past_n_and_stays_on_the_heap() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        v.push(1);
        v.push(2);
        assert!(!v.spilled());
        assert_eq!(v.heap_bytes(), 0, "inline storage is in size_of");
        v.push(3);
        assert!(v.spilled());
        assert_eq!(&v[..], &[1, 2, 3]);
        assert_eq!(v.heap_bytes(), 4 * 4, "twice N, four bytes each");
        v.clear();
        assert!(v.spilled() && v.is_empty(), "clear keeps the storage");
        let big: InlineVec<u32, 8> = InlineVec::with_capacity(30);
        assert!(big.spilled(), "a capacity past N starts on the heap");
        assert_eq!(big.heap_bytes(), 30 * 4);
        assert!(!InlineVec::<u32, 8>::with_capacity(8).spilled());
    }

    /// One step applied to an [`InlineVec`] and to a `Vec` alike.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(u32),
        Insert(usize, u32),
        Remove(usize),
        SwapRemove(usize),
        /// `retain_mut` that bumps each element, keeping those the divisor
        /// does not divide.
        Retain(u32),
        Truncate(usize),
        Set(usize, u32),
        Clear,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let value = || 0u32..1_000;
        prop_oneof![
            6 => value().prop_map(Op::Push),
            2 => (0usize..24, value()).prop_map(|(i, x)| Op::Insert(i, x)),
            2 => (0usize..24).prop_map(Op::Remove),
            2 => (0usize..24).prop_map(Op::SwapRemove),
            1 => (2u32..5).prop_map(Op::Retain),
            1 => (0usize..24).prop_map(Op::Truncate),
            1 => (0usize..24, value()).prop_map(|(i, x)| Op::Set(i, x)),
            1 => Just(Op::Clear),
        ]
    }

    /// Applies `ops` to both and compares contents after every step.
    /// Indices are taken modulo the current length, so every step is legal.
    fn run<const N: usize>(ops: &[Op]) {
        let mut ours: InlineVec<u32, N> = InlineVec::new();
        let mut oracle: Vec<u32> = Vec::new();
        for &op in ops {
            let len = oracle.len();
            match op {
                Op::Push(x) => {
                    ours.push(x);
                    oracle.push(x);
                }
                Op::Insert(i, x) => {
                    ours.insert(i % (len + 1), x);
                    oracle.insert(i % (len + 1), x);
                }
                Op::Remove(i) if len > 0 => {
                    assert_eq!(ours.remove(i % len), oracle.remove(i % len))
                }
                Op::SwapRemove(i) if len > 0 => {
                    assert_eq!(ours.swap_remove(i % len), oracle.swap_remove(i % len))
                }
                Op::Retain(d) => {
                    let keep = |x: &mut u32| {
                        *x += 1;
                        !x.is_multiple_of(d)
                    };
                    ours.retain_mut(keep);
                    oracle.retain_mut(keep);
                }
                Op::Truncate(n) => {
                    ours.truncate(n);
                    oracle.truncate(n);
                }
                Op::Set(i, x) if len > 0 => {
                    ours[i % len] = x;
                    oracle[i % len] = x;
                }
                Op::Clear => {
                    ours.clear();
                    oracle.clear();
                }
                _ => {}
            }
            assert_eq!(&ours[..], &oracle[..], "after {op:?}");
            assert!(ours.spilled() || oracle.len() <= N, "past N is on the heap");
            assert_eq!(&ours.clone()[..], &oracle[..]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Under any sequence of pushes, inserts, removes, swap-removes,
        /// retains, truncations, writes and clears, an `InlineVec` holds
        /// exactly what a `Vec` does, in the same order — below, at and
        /// past its inline capacity, and at a capacity of zero.
        #[test]
        fn matches_vec_across_the_spill_boundary(
            ops in proptest::collection::vec(op_strategy(), 1..120),
        ) {
            run::<0>(&ops);
            run::<3>(&ops);
            run::<INLINE_TABLE>(&ops);
        }
    }
}
