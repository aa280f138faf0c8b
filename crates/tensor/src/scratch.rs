//! Thread-local scratch-buffer pool for kernel intermediates.
//!
//! A denoise step allocates dozens of short-lived `[L, H]`-sized
//! tensors (normalized activations, Q/K/V projections, attention
//! contexts, FFN intermediates). This module recycles their storage:
//! kernels draw output buffers from [`take`], and the diffusion layer
//! returns dead intermediates with [`Tensor::recycle`], so steady-state
//! forward passes stop hitting the allocator entirely.
//!
//! The pool is thread-local — each serving worker recycles its own
//! buffers with no locking — and deterministic: [`take`] always returns
//! a zero-filled buffer and [`take_copy`] an exact copy of its source,
//! so a recycled buffer is indistinguishable from a fresh one and kernel
//! outputs cannot depend on what previously occupied the storage.
//!
//! [`Tensor::recycle`]: crate::Tensor::recycle

use std::cell::RefCell;

/// Maximum number of idle buffers retained per thread. Overflow drops
/// the smallest buffer (the cheapest to re-create).
const MAX_POOLED: usize = 64;

thread_local! {
    static POOL: RefCell<Pool> = const {
        RefCell::new(Pool {
            bufs: Vec::new(),
            stats: Stats { hits: 0, misses: 0, returns: 0 },
        })
    };
}

struct Pool {
    bufs: Vec<Vec<f32>>,
    stats: Stats,
}

/// Counters describing the calling thread's scratch pool traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// `take`/`take_copy` calls satisfied from a recycled buffer.
    pub hits: u64,
    /// `take`/`take_copy` calls that fell back to a fresh allocation.
    pub misses: u64,
    /// Buffers handed back via `give`.
    pub returns: u64,
}

/// Returns a zero-filled buffer of exactly `len` elements, reusing a
/// recycled buffer when one is large enough (best fit by capacity).
pub fn take(len: usize) -> Vec<f32> {
    match recycled(len) {
        Some(mut buf) => {
            buf.resize(len, 0.0);
            buf
        }
        None => vec![0.0; len],
    }
}

/// Returns a copy of `src` in a pooled buffer — [`take`] then a copy,
/// without the zero fill the copy would overwrite.
pub fn take_copy(src: &[f32]) -> Vec<f32> {
    let mut buf = recycled(src.len()).unwrap_or_else(|| Vec::with_capacity(src.len()));
    buf.extend_from_slice(src);
    buf
}

/// An emptied recycled buffer with room for `len` elements (best fit by
/// capacity), counted as a hit; `None`, counted as a miss, when no
/// pooled buffer is large enough.
fn recycled(len: usize) -> Option<Vec<f32>> {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let best = pool
            .bufs
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        match best {
            Some(i) => {
                pool.stats.hits += 1;
                let mut buf = pool.bufs.swap_remove(i);
                buf.clear();
                Some(buf)
            }
            None => {
                pool.stats.misses += 1;
                None
            }
        }
    })
}

/// Hands a buffer back to the calling thread's pool for reuse.
pub fn give(buf: Vec<f32>) {
    if buf.capacity() == 0 {
        return;
    }
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        pool.stats.returns += 1;
        pool.bufs.push(buf);
        if pool.bufs.len() > MAX_POOLED {
            let smallest = pool
                .bufs
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i)
                .expect("pool is non-empty");
            pool.bufs.swap_remove(smallest);
        }
    });
}

/// Returns the calling thread's pool counters.
pub fn stats() -> Stats {
    POOL.with(|p| p.borrow().stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_even_after_dirty_give() {
        let mut buf = take(8);
        buf.iter_mut().for_each(|v| *v = 7.5);
        give(buf);
        let again = take(8);
        assert_eq!(again, vec![0.0; 8]);
    }

    #[test]
    fn take_copy_holds_exactly_the_source() {
        let mut buf = take(9);
        buf.iter_mut().for_each(|v| *v = 7.5);
        give(buf);
        let src = [1.0, -2.0, 3.5];
        assert_eq!(take_copy(&src), src);
    }

    #[test]
    fn reuse_registers_as_hit() {
        // Use a distinctive size so parallel tests on this thread's
        // pool don't interfere with the accounting.
        let len = 12_345;
        give(Vec::with_capacity(len));
        let before = stats();
        let buf = take(len);
        assert_eq!(buf.len(), len);
        let after = stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn miss_allocates_fresh() {
        let before = stats();
        let buf = take(1 << 22); // far larger than anything pooled
        assert_eq!(buf.len(), 1 << 22);
        assert_eq!(stats().misses, before.misses + 1);
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let before = stats();
        give(Vec::new());
        assert_eq!(stats().returns, before.returns);
    }

    #[test]
    fn pool_is_bounded() {
        for _ in 0..(MAX_POOLED * 2) {
            give(Vec::with_capacity(16));
        }
        POOL.with(|p| assert!(p.borrow().bufs.len() <= MAX_POOLED));
    }
}
