//! Reusable activation buffers for serving loops.
//!
//! A compiled inference plan produces one activation tensor per step;
//! allocating each of them freshly on every request turns the steady
//! state of a serving thread into an allocator benchmark. An
//! [`ActivationScratch`] is a small ping-pong buffer arena: steps
//! [`take`](ActivationScratch::take) a buffer, fill it (e.g. through
//! [`crate::GemmEngine::run_into`]) and hand it to
//! [`Tensor::from_vec`]; once an activation is dead, its storage is
//! [`recycle`](ActivationScratch::recycle)d back into the arena. After
//! the first request, a fixed plan cycles the same few allocations
//! forever.
//!
//! The arena is deliberately **not** shared between threads: each
//! serving thread owns one scratch and reuses it across requests, so
//! the compiled plan itself can stay `Sync` with no interior locking.
//!
//! ```
//! use mirage_tensor::scratch::ActivationScratch;
//!
//! let mut scratch = ActivationScratch::new();
//! let mut buf = scratch.take(16);
//! buf.resize(16, 0.0);
//! let ptr = buf.as_ptr();
//! scratch.recycle(buf);
//! // Steady state: the same allocation comes back.
//! assert_eq!(scratch.take(16).as_ptr(), ptr);
//! ```

/// Buffers retained per arena. A feed-forward plan ping-pongs between
/// two live activations plus the occasional staging buffer (im2col
/// patches, permutation targets), so a handful suffices; anything
/// beyond the cap is dropped rather than hoarded.
const MAX_POOLED: usize = 8;

/// A recycling pool of `f32` buffers for activation ping-pong.
#[derive(Debug, Default)]
pub struct ActivationScratch {
    free: Vec<Vec<f32>>,
}

impl ActivationScratch {
    /// Creates an empty arena.
    pub fn new() -> Self {
        ActivationScratch::default()
    }

    /// Takes a cleared buffer with at least `capacity` spare capacity,
    /// reusing a recycled allocation when one is available. The buffer
    /// comes back empty (`len == 0`); fill it and move it into a
    /// [`Tensor`](crate::Tensor) via `Tensor::from_vec`.
    // mirage-lint: no_alloc
    pub fn take(&mut self, capacity: usize) -> Vec<f32> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.reserve(capacity);
                buf
            }
            // Cold path only: the first request of a thread's lifetime
            // (or a plan outgrowing the pool) allocates; steady state
            // always hits the recycled arm above.
            // mirage-lint: allow(alloc_ok) -- first-request cold path; steady state reuses the pooled buffer
            None => Vec::with_capacity(capacity),
        }
    }

    /// Returns a buffer to the arena for reuse (typically a dead
    /// activation's storage, via `Tensor::into_data`). Buffers beyond
    /// the retention cap are dropped.
    pub fn recycle(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 && self.free.len() < MAX_POOLED {
            self.free.push(buf);
        }
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_prefers_recycled_buffers() {
        let mut scratch = ActivationScratch::new();
        let mut a = scratch.take(32);
        a.extend_from_slice(&[1.0; 32]);
        let ptr = a.as_ptr();
        scratch.recycle(a);
        assert_eq!(scratch.pooled(), 1);
        let b = scratch.take(8);
        assert_eq!(b.as_ptr(), ptr, "recycled allocation should be reused");
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert_eq!(scratch.pooled(), 0);
    }

    #[test]
    fn take_grows_capacity_when_needed() {
        let mut scratch = ActivationScratch::new();
        scratch.recycle(Vec::with_capacity(4));
        let buf = scratch.take(64);
        assert!(buf.capacity() >= 64);
    }

    #[test]
    fn pool_is_bounded() {
        let mut scratch = ActivationScratch::new();
        for _ in 0..3 * MAX_POOLED {
            scratch.recycle(Vec::with_capacity(8));
        }
        assert_eq!(scratch.pooled(), MAX_POOLED);
        // Zero-capacity buffers are not worth pooling.
        let mut empty = ActivationScratch::new();
        empty.recycle(Vec::new());
        assert_eq!(empty.pooled(), 0);
    }
}
