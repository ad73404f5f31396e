//! Software prefetch hints for loops that hold their visit order ahead of
//! time.
//!
//! Matching and the k-way sweep visit vertices in a shuffled order, so each
//! visit would otherwise stall on a cache miss. Both draw the whole order
//! before the first visit, so they can ask for the vertex a fixed distance
//! ahead while working on the current one (DESIGN.md, "Latency hiding
//! along the drawn visit order").
//!
//! A prefetch is a hint: it reads no value into the program, draws no
//! random number and can never fault, so a loop that issues them computes
//! exactly what it computed without them.

/// Hints the CPU to pull the cache line holding `s[i]` into L1.
///
/// A no-op when `i >= s.len()` and on targets other than x86_64.
#[inline(always)]
pub fn read<T>(s: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if i < s.len() {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let p = s[i..].as_ptr().cast::<i8>();
        // SAFETY: `p` points into `s` (or is its dangling, aligned base for
        // a zero-sized `T`), and a prefetch never dereferences its address
        // and never faults.
        unsafe { _mm_prefetch(p, _MM_HINT_T0) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (s, i);
}

#[cfg(test)]
mod tests {
    use super::read;

    #[test]
    fn empty_slice_is_a_no_op() {
        let empty: [u64; 0] = [];
        read(&empty, 0);
    }

    #[test]
    fn index_at_len_is_a_no_op() {
        let s = [1u32, 2, 3];
        read(&s, s.len());
        read(&s, 2);
        assert_eq!(s, [1, 2, 3]);
    }

    #[test]
    fn index_at_usize_max_is_a_no_op() {
        read(&[7u8; 64], usize::MAX);
    }

    #[test]
    fn zero_sized_elements_are_accepted() {
        let zst = [(); 4];
        read(&zst, 0);
        read(&zst, 3);
        read(&zst, usize::MAX);
    }
}
