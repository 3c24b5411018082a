//! A call-counting [`GemmEngine`] wrapper for verifying *where* work
//! happens, not just what it computes.
//!
//! The compiled-model serving claims ("zero weight-side quantization
//! after compile") are about which engine entry points run on the hot
//! path. Every GEMM goes through the two methods an engine writes:
//! weight-side quantization happens inside [`GemmEngine::prepare`] —
//! once at compile time, or once per call on the eager path, where a
//! raw [`GemmEngine::gemm`] is a `prepare` plus a `run_into` — and never
//! inside [`GemmEngine::run_into`]. [`CountingEngine`] wraps any engine
//! and tallies both through shared atomic counters, so a test can
//! compile a model, serve a thousand requests, and assert the `prepare`
//! counter did not move — the call-count analogue of
//! `kernel_microbench`'s scratch-pointer spot-check.

use mirage_tensor::engines::Epilogue;
use mirage_tensor::{GemmEngine, PreparedRhs, Result, Tensor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared tallies of the two [`GemmEngine`] entry points (see
/// [`CountingEngine`]). Counters are atomic so the wrapped engine can
/// run under the tiled parallel driver.
#[derive(Debug, Default)]
pub struct GemmCounters {
    prepares: AtomicUsize,
    runs: AtomicUsize,
}

impl GemmCounters {
    /// Calls to [`GemmEngine::prepare`] — weight-side quantization,
    /// including the one inside every raw [`GemmEngine::gemm`].
    pub fn prepares(&self) -> usize {
        self.prepares.load(Ordering::Relaxed)
    }

    /// Calls to [`GemmEngine::run_into`] — every GEMM, prepared or raw;
    /// only the activation side touches the quantizer here.
    pub fn runs(&self) -> usize {
        self.runs.load(Ordering::Relaxed)
    }

    /// Total weight-side quantization opportunities, which is exactly
    /// [`GemmCounters::prepares`]. On a compiled serving path this must
    /// stay frozen at its post-compile value.
    pub fn weight_side_work(&self) -> usize {
        self.prepares()
    }
}

/// A [`GemmEngine`] decorator that counts entry-point calls in shared
/// [`GemmCounters`] and otherwise delegates everything — results are
/// bit-identical to the wrapped engine by construction.
#[derive(Debug, Clone)]
pub struct CountingEngine<E> {
    inner: E,
    counters: Arc<GemmCounters>,
}

impl<E: GemmEngine> CountingEngine<E> {
    /// Wraps `inner`, returning the engine and a handle to its
    /// counters (the handle stays valid after the engine is moved into
    /// an `Engines`/`Arc<dyn GemmEngine>` stack).
    pub fn new(inner: E) -> (Self, Arc<GemmCounters>) {
        let counters = Arc::new(GemmCounters::default());
        (
            CountingEngine {
                inner,
                counters: Arc::clone(&counters),
            },
            counters,
        )
    }
}

impl<E: GemmEngine> GemmEngine for CountingEngine<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tile_invariant(&self) -> bool {
        self.inner.tile_invariant()
    }

    fn prepare(&self, b: &Tensor) -> Result<PreparedRhs> {
        self.counters.prepares.fetch_add(1, Ordering::Relaxed);
        self.inner.prepare(b)
    }

    fn run_into(
        &self,
        a: &Tensor,
        b: &PreparedRhs,
        epilogue: &Epilogue<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize)> {
        self.counters.runs.fetch_add(1, Ordering::Relaxed);
        self.inner.run_into(a, b, epilogue, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_tensor::engines::ExactEngine;

    #[test]
    fn counts_every_entry_point_and_stays_bit_identical() {
        let (engine, counters) = CountingEngine::new(ExactEngine);
        let a = Tensor::full(&[4, 8], 0.5);
        let b = Tensor::full(&[8, 3], -1.0);
        let reference = ExactEngine.gemm(&a, &b).unwrap();
        assert_eq!(engine.gemm(&a, &b).unwrap().data(), reference.data());
        let prepared = engine.prepare(&b).unwrap();
        assert_eq!(
            engine.gemm_prepared(&a, &prepared).unwrap().data(),
            reference.data()
        );
        let mut out = Vec::new();
        assert_eq!(
            engine.gemm_prepared_into(&a, &prepared, &mut out).unwrap(),
            (4, 3)
        );
        assert_eq!(out, reference.data());
        // A column view shares the preparation: no new `prepare`.
        let _ = engine
            .gemm_prepared(&a, &prepared.slice_cols(0, 2).unwrap())
            .unwrap();
        // The raw `gemm` is one prepare plus one run.
        assert_eq!(counters.prepares(), 2);
        assert_eq!(counters.runs(), 4);
        assert_eq!(counters.weight_side_work(), 2);
        assert_eq!(engine.name(), "fp32");
        assert!(engine.tile_invariant());
    }
}
