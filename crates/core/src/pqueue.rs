//! An indexed max-priority queue over dense `u32` handles with `i64` keys —
//! the gain structure behind FM refinement. Supports O(log n) insert, pop,
//! and key update with O(1) handle lookup.
//!
//! Each heap slot holds its `(key, handle)` pair, so a sift reads keys from
//! the array it walks instead of chasing handles into a side table. Sifts
//! move a hole rather than swapping: the moving entry is written once, where
//! it stops. They make exactly the comparisons of a swap-based binary heap
//! (strict `>` to rise or sink, the left child winning ties with the right),
//! so a sequence of operations leaves the layout, and pops the handles,
//! ties included, that the swap-based heap would. FM's move sequence, and
//! through it every partition, depends on that order; a test holds the heap
//! to a kept swap-based copy.

/// Indexed binary max-heap. Handles must be `< capacity`.
#[derive(Clone, Debug)]
pub struct IndexedMaxHeap {
    /// heap[i] = (key, handle) at heap position i.
    heap: Vec<(i64, u32)>,
    /// pos[h] = heap position of handle h, or NONE.
    pos: Vec<u32>,
}

const NONE: u32 = u32::MAX;

impl IndexedMaxHeap {
    /// Creates a heap able to hold handles `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        IndexedMaxHeap {
            heap: Vec::with_capacity(capacity),
            pos: vec![NONE; capacity],
        }
    }

    /// Empties the heap and makes it able to hold handles `0..capacity`,
    /// keeping its buffers (O(len) plus any growth).
    pub fn reset(&mut self, capacity: usize) {
        self.clear();
        if self.pos.len() < capacity {
            self.pos.resize(capacity, NONE);
        }
    }

    /// Number of elements currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when the queue holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// True when `handle` is currently queued.
    #[inline]
    pub fn contains(&self, handle: u32) -> bool {
        self.pos[handle as usize] != NONE
    }

    /// The key of a queued handle.
    #[inline]
    pub fn key(&self, handle: u32) -> i64 {
        debug_assert!(self.contains(handle));
        self.heap[self.pos[handle as usize] as usize].0
    }

    /// The maximum-key handle without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(u32, i64)> {
        self.heap.first().map(|&(k, h)| (h, k))
    }

    /// Inserts `handle` with `key`. Panics in debug builds if already queued.
    pub fn insert(&mut self, handle: u32, key: i64) {
        debug_assert!(!self.contains(handle), "handle {handle} already queued");
        self.heap.push((key, handle));
        self.sift_up(self.heap.len() - 1, (key, handle));
    }

    /// Removes and returns the maximum-key handle.
    pub fn pop(&mut self) -> Option<(u32, i64)> {
        let (key, top) = *self.heap.first()?;
        let last = self.heap.pop().expect("heap is non-empty");
        self.pos[top as usize] = NONE;
        if !self.heap.is_empty() {
            // The former last element takes the root slot and sinks.
            self.sift_down(0, last);
        }
        Some((top, key))
    }

    /// Changes the key of a queued handle, restoring heap order.
    pub fn update(&mut self, handle: u32, key: i64) {
        let p = self.pos[handle as usize];
        debug_assert!(p != NONE, "update of non-queued handle {handle}");
        let p = p as usize;
        let old = self.heap[p].0;
        if key > old {
            self.sift_up(p, (key, handle));
        } else if key < old {
            self.sift_down(p, (key, handle));
        }
    }

    /// Inserts or updates, whichever applies.
    pub fn upsert(&mut self, handle: u32, key: i64) {
        if self.contains(handle) {
            self.update(handle, key);
        } else {
            self.insert(handle, key);
        }
    }

    /// Clears the queue (O(len)).
    pub fn clear(&mut self) {
        for &(_, h) in &self.heap {
            self.pos[h as usize] = NONE;
        }
        self.heap.clear();
    }

    /// Places `item` at `p` after moving every parent with a smaller key
    /// one level down into the hole.
    fn sift_up(&mut self, mut p: usize, item: (i64, u32)) {
        while p > 0 {
            let parent = (p - 1) / 2;
            if item.0 <= self.heap[parent].0 {
                break;
            }
            self.place(p, self.heap[parent]);
            p = parent;
        }
        self.place(p, item);
    }

    /// Places `item` at `p` after moving the larger child up into the hole
    /// while that child's key exceeds `item`'s.
    fn sift_down(&mut self, mut p: usize, item: (i64, u32)) {
        let len = self.heap.len();
        loop {
            let l = 2 * p + 1;
            let r = 2 * p + 2;
            let mut largest = p;
            let mut largest_key = item.0;
            if l < len && self.heap[l].0 > largest_key {
                largest = l;
                largest_key = self.heap[l].0;
            }
            if r < len && self.heap[r].0 > largest_key {
                largest = r;
            }
            if largest == p {
                break;
            }
            self.place(p, self.heap[largest]);
            p = largest;
        }
        self.place(p, item);
    }

    #[inline]
    fn place(&mut self, p: usize, item: (i64, u32)) {
        self.heap[p] = item;
        self.pos[item.1 as usize] = p as u32;
    }
}

/// The heap as it was before inline keys and hole sifts, kept word for word
/// (the methods FM and the tests call) as an oracle: [`IndexedMaxHeap`] must
/// pop the same handles in the same order, and the 2-way FM oracle runs on
/// it.
#[cfg(test)]
pub(crate) mod reference {
    /// Indexed binary max-heap. Handles must be `< capacity`.
    #[derive(Clone, Debug)]
    pub struct IndexedMaxHeap {
        /// heap[i] = handle at heap position i.
        heap: Vec<u32>,
        /// keys[h] = key of handle h (valid while in the heap).
        keys: Vec<i64>,
        /// pos[h] = heap position of handle h, or NONE.
        pos: Vec<u32>,
    }

    const NONE: u32 = u32::MAX;

    impl IndexedMaxHeap {
        /// Creates a heap able to hold handles `0..capacity`.
        pub fn new(capacity: usize) -> Self {
            IndexedMaxHeap {
                heap: Vec::with_capacity(capacity),
                keys: vec![0; capacity],
                pos: vec![NONE; capacity],
            }
        }

        /// True when `handle` is currently queued.
        #[inline]
        pub fn contains(&self, handle: u32) -> bool {
            self.pos[handle as usize] != NONE
        }

        /// The maximum-key handle without removing it.
        #[inline]
        pub fn peek(&self) -> Option<(u32, i64)> {
            self.heap.first().map(|&h| (h, self.keys[h as usize]))
        }

        /// Inserts `handle` with `key`. Panics in debug builds if already queued.
        pub fn insert(&mut self, handle: u32, key: i64) {
            debug_assert!(!self.contains(handle), "handle {handle} already queued");
            self.keys[handle as usize] = key;
            self.pos[handle as usize] = self.heap.len() as u32;
            self.heap.push(handle);
            self.sift_up(self.heap.len() - 1);
        }

        /// Removes and returns the maximum-key handle.
        pub fn pop(&mut self) -> Option<(u32, i64)> {
            let top = *self.heap.first()?;
            let last = self.heap.pop().expect("heap is non-empty");
            self.pos[top as usize] = NONE;
            if !self.heap.is_empty() {
                // The former last element takes the root slot and sinks.
                self.heap[0] = last;
                self.pos[last as usize] = 0;
                self.sift_down(0);
            }
            Some((top, self.keys[top as usize]))
        }

        /// Changes the key of a queued handle, restoring heap order.
        pub fn update(&mut self, handle: u32, key: i64) {
            let p = self.pos[handle as usize];
            debug_assert!(p != NONE, "update of non-queued handle {handle}");
            let old = self.keys[handle as usize];
            self.keys[handle as usize] = key;
            if key > old {
                self.sift_up(p as usize);
            } else if key < old {
                self.sift_down(p as usize);
            }
        }

        /// Clears the queue (O(len)).
        pub fn clear(&mut self) {
            for &h in &self.heap {
                self.pos[h as usize] = NONE;
            }
            self.heap.clear();
        }

        #[inline]
        fn key_at(&self, p: usize) -> i64 {
            self.keys[self.heap[p] as usize]
        }

        fn sift_up(&mut self, mut p: usize) {
            while p > 0 {
                let parent = (p - 1) / 2;
                if self.key_at(p) <= self.key_at(parent) {
                    break;
                }
                self.swap(p, parent);
                p = parent;
            }
        }

        fn sift_down(&mut self, mut p: usize) {
            loop {
                let l = 2 * p + 1;
                let r = 2 * p + 2;
                let mut largest = p;
                if l < self.heap.len() && self.key_at(l) > self.key_at(largest) {
                    largest = l;
                }
                if r < self.heap.len() && self.key_at(r) > self.key_at(largest) {
                    largest = r;
                }
                if largest == p {
                    break;
                }
                self.swap(p, largest);
                p = largest;
            }
        }

        #[inline]
        fn swap(&mut self, a: usize, b: usize) {
            self.heap.swap(a, b);
            self.pos[self.heap[a] as usize] = a as u32;
            self.pos[self.heap[b] as usize] = b as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_runtime::rng::Rng;

    #[test]
    fn pops_in_descending_key_order() {
        let mut q = IndexedMaxHeap::new(5);
        for (h, k) in [(0u32, 3i64), (1, 7), (2, -2), (3, 7), (4, 0)] {
            q.insert(h, k);
        }
        let mut keys = Vec::new();
        while let Some((_, k)) = q.pop() {
            keys.push(k);
        }
        assert_eq!(keys, vec![7, 7, 3, 0, -2]);
    }

    #[test]
    fn update_reorders() {
        let mut q = IndexedMaxHeap::new(3);
        q.insert(0, 1);
        q.insert(1, 2);
        q.insert(2, 3);
        q.update(0, 10);
        assert_eq!(q.pop(), Some((0, 10)));
        q.update(1, -5);
        assert_eq!(q.pop(), Some((2, 3)));
        assert_eq!(q.pop(), Some((1, -5)));
    }

    #[test]
    fn upsert_and_clear() {
        let mut q = IndexedMaxHeap::new(2);
        q.upsert(0, 1);
        q.upsert(0, 4);
        assert_eq!(q.key(0), 4);
        q.clear();
        assert!(q.is_empty());
        assert!(!q.contains(0));
        q.upsert(0, 2);
        assert_eq!(q.pop(), Some((0, 2)));
    }

    #[test]
    fn randomized_against_reference_sort() {
        let mut rng = Rng::seed_from_u64(99);
        for _ in 0..50 {
            let n = rng.gen_range(1..60);
            let mut q = IndexedMaxHeap::new(n);
            let mut reference: Vec<(u32, i64)> = Vec::new();
            for h in 0..n as u32 {
                let k = rng.gen_range(-100..100);
                q.insert(h, k);
                reference.push((h, k));
            }
            // Random key updates.
            for _ in 0..n / 2 {
                let h = rng.gen_range(0..n as u32);
                let k = rng.gen_range(-100..100);
                q.update(h, k);
                reference.iter_mut().find(|(x, _)| *x == h).unwrap().1 = k;
            }
            let mut popped = Vec::new();
            while let Some((_, k)) = q.pop() {
                popped.push(k);
            }
            let mut expect: Vec<i64> = reference.iter().map(|&(_, k)| k).collect();
            expect.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(popped, expect);
        }
    }

    /// Random inserts, updates, pops and clears over a handful of distinct
    /// keys, so most comparisons are ties: the heap must pop the same
    /// handle sequence as the reference heap, not merely the same keys.
    #[test]
    fn pops_the_reference_handle_sequence_under_ties() {
        let mut rng = Rng::seed_from_u64(21);
        let mut popped = 0usize;
        for round in 0..200 {
            let n = rng.gen_range(1..120usize);
            let spread = [1i64, 2, 3, 5, 40][round % 5];
            let mut got = IndexedMaxHeap::new(if round % 2 == 0 { n } else { 1 });
            got.reset(n);
            let mut want = reference::IndexedMaxHeap::new(n);
            for _ in 0..4 * n {
                let h = rng.gen_range(0..n as u32);
                let k = rng.gen_range(-spread..spread + 1);
                match rng.gen_range(0..10u32) {
                    0..=3 => {
                        assert_eq!(got.contains(h), want.contains(h));
                        if want.contains(h) {
                            want.update(h, k);
                            got.update(h, k);
                        } else {
                            want.insert(h, k);
                            got.insert(h, k);
                        }
                    }
                    4..=8 => {
                        assert_eq!(got.peek(), want.peek());
                        let w = want.pop();
                        assert_eq!(got.pop(), w, "round {round}");
                        popped += w.is_some() as usize;
                    }
                    _ => {
                        if rng.gen_range(0..8u32) == 0 {
                            want.clear();
                            got.reset(n);
                        }
                    }
                }
            }
            while let Some(w) = want.pop() {
                assert_eq!(got.pop(), Some(w), "round {round} drain");
                popped += 1;
            }
            assert!(got.is_empty());
        }
        assert!(popped > 10_000, "only {popped} pops compared");
    }
}
