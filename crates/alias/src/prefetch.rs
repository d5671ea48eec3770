//! Explicit cache-prefetch shim — the **only** module in the workspace
//! allowed to contain `unsafe` or `core::arch` (CI greps for both).
//!
//! The batched sampling kernels are latency-bound: the dominant per-draw
//! cost is a *dependent random load* into an alias row or tree node
//! (EXPERIMENTS.md E16). Software pipelining hides that latency by
//! asking for draw `i + K`'s row while draw `i`'s is read — but the
//! request has to be explicit, because the address is data-dependent (it
//! comes out of a decoded RNG word) and the hardware prefetchers cannot
//! predict it.
//!
//! [`read`] lowers to `prefetcht0` on x86-64 and to nothing elsewhere.
//! A prefetch is a *hint*: it never faults, never changes architectural
//! state, and the kernels remain bit-identical to their unpipelined
//! forms with the shim compiled out. That is what keeps this safe to
//! expose as a safe function: the pointer is never dereferenced by the
//! program semantics, only handed to the cache hierarchy.
//!
//! The portable fallback is a deliberate no-op rather than a dummy read:
//! a real read would *change* semantics (it could fault on a speculative
//! out-of-range address) whereas the whole point of the shim is that
//! call sites may prefetch slightly past what they will actually touch
//! (e.g. both children of a tree node when only one will be descended).

/// Hints the cache hierarchy to pull the line containing `p` into all
/// cache levels (temporal locality hint, `_MM_HINT_T0`). Safe for any
/// pointer value, including dangling or unaligned ones: the line is
/// never architecturally accessed.
#[inline(always)]
pub fn read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a cache hint; it performs no
    // architectural memory access, cannot fault, and is defined for
    // arbitrary addresses. No preconditions on `p`.
    #[allow(unsafe_code)]
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Prefetches the line holding `slice[idx]`, if `idx` is in bounds.
/// The bounds check keeps the *pointer arithmetic* defined (the hint
/// itself would tolerate anything); out-of-range indices are ignored.
#[inline(always)]
pub fn slice_element<T>(slice: &[T], idx: usize) {
    if idx < slice.len() {
        read(&slice[idx] as *const T);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_semantically_inert() {
        // A prefetch must not change observable state; all we can assert
        // is that arbitrary addresses (in-bounds, one-past-end, null)
        // neither fault nor panic.
        let v = vec![1u64, 2, 3];
        read(v.as_ptr());
        read(unsafe_free_end(&v));
        read(core::ptr::null::<u64>());
        slice_element(&v, 0);
        slice_element(&v, 2);
        slice_element(&v, 3); // out of bounds: ignored
        slice_element(&v, usize::MAX);
        assert_eq!(v, [1, 2, 3]);
    }

    /// One-past-the-end pointer — valid to *form* in safe Rust.
    fn unsafe_free_end(v: &[u64]) -> *const u64 {
        v.as_ptr().wrapping_add(v.len())
    }
}
