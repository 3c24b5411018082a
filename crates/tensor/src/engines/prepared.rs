//! Type-erased prepared right-hand sides for [`GemmEngine`]s.
//!
//! Serving-scale inference multiplies millions of activation matrices
//! against the *same* static weight matrix. Engines that quantize their
//! operands (BFP, RNS-BFP, the photonic device path) used to redo the
//! B-side quantization on every call — and, under the tiled parallel
//! driver, once per row band on top of that. [`PreparedRhs`] makes
//! weight preparation a one-time cost: [`GemmEngine::prepare`] quantizes
//! (and, for RNS engines, residue-converts) the weight once, and
//! [`GemmEngine::run_into`] reuses that state on every subsequent call,
//! bit-identically to preparing afresh. Column tiles and model shards
//! are [`PreparedRhs::slice_cols`] views of the same shared state.

#[cfg(doc)]
use crate::engines::GemmEngine;
use crate::{Result, Tensor, TensorError};
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// A right-hand side matrix prepared once by [`GemmEngine::prepare`]
/// for repeated use with [`GemmEngine::run_into`].
///
/// The value is type-erased so `dyn GemmEngine` consumers (training
/// `Engines`, boxed engine stacks) can carry prepared weights without
/// knowing which engine produced them. It always retains the raw `f32`
/// matrix, so *any* engine can consume *any* `PreparedRhs`: an engine
/// that does not recognize the attached state (different engine,
/// different quantization config) computes from the raw matrix instead —
/// worst case the preparation speedup is lost, never correctness.
///
/// A value may be a **column view** ([`PreparedRhs::slice_cols`]): it
/// then covers columns `[col_start, col_start + n)` of the attached
/// state, which stays shared through its [`Arc`], while
/// [`PreparedRhs::raw`] holds just the view's own columns.
///
/// Cloning is cheap for the engine-specific state (shared via [`Arc`])
/// but clones the raw matrix; share a `PreparedRhs` by reference (or
/// wrap it in an `Arc`, as `mirage-core`'s `InferenceSession` does)
/// rather than cloning per call.
#[derive(Clone)]
pub struct PreparedRhs {
    raw: Tensor,
    engine: &'static str,
    state: Option<Arc<dyn Any + Send + Sync>>,
    col_start: usize,
}

impl PreparedRhs {
    /// Wraps a raw rank-2 matrix with no engine-specific state — the
    /// whole preparation of engines that keep no B-side state, and the
    /// starting point quantizing engines attach their state to.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `b` is rank-2.
    pub fn from_raw(engine: &'static str, b: &Tensor) -> Result<Self> {
        if b.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: b.rank(),
            });
        }
        Ok(PreparedRhs {
            raw: b.clone(),
            engine,
            state: None,
            col_start: 0,
        })
    }

    /// Attaches engine-specific prepared state (pre-quantized groups,
    /// pre-converted residues, …).
    #[must_use]
    pub fn with_state(mut self, state: Arc<dyn Any + Send + Sync>) -> Self {
        self.state = Some(state);
        self
    }

    /// The raw `f32` matrix — the universal fallback representation.
    pub fn raw(&self) -> &Tensor {
        &self.raw
    }

    /// Reduction length `k` (rows of the prepared matrix).
    pub fn k(&self) -> usize {
        self.raw.shape()[0]
    }

    /// Output width `n` (columns of the prepared matrix).
    pub fn n(&self) -> usize {
        self.raw.shape()[1]
    }

    /// Name of the engine that prepared this value.
    pub fn engine(&self) -> &'static str {
        self.engine
    }

    /// First column of the attached state this value covers: `0` for a
    /// fresh preparation, the offset into the shared state for a
    /// [`PreparedRhs::slice_cols`] view. Engines index their packed
    /// B-side buffers from here.
    pub fn col_start(&self) -> usize {
        self.col_start
    }

    /// A view of columns `[c0, c0 + width)`: shares the attached state
    /// through its [`Arc`] (no re-quantization, no copy of packed
    /// buffers) and copies only the raw columns, which engines need for
    /// the foreign-preparation fallback. Running against the view is
    /// bit-identical to preparing the raw column slice from scratch for
    /// every tile-invariant engine. The tiled parallel driver and
    /// model-level sharding cut their column tiles with this.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimMismatch`] when the slice exceeds the
    /// matrix width.
    pub fn slice_cols(&self, c0: usize, width: usize) -> Result<Self> {
        let (k, n) = (self.k(), self.n());
        let end =
            c0.checked_add(width)
                .filter(|&end| end <= n)
                .ok_or(TensorError::DimMismatch {
                    left: c0.saturating_add(width),
                    right: n,
                })?;
        let mut data = Vec::with_capacity(k * width);
        if width > 0 {
            for row in self.raw.data().chunks_exact(n) {
                data.extend_from_slice(&row[c0..end]);
            }
        }
        Ok(PreparedRhs {
            raw: Tensor::from_vec(data, &[k, width])?,
            engine: self.engine,
            state: self.state.clone(),
            col_start: self.col_start + c0,
        })
    }

    /// Downcasts the attached state to `S` **iff** this value was
    /// prepared by an engine named `engine`. Engines use this to
    /// recognize their own preparations and fall back to the raw matrix
    /// otherwise (callers still verify config equality themselves —
    /// two instances of one engine type can differ in quantization
    /// parameters). Column-indexed state is shared by every
    /// [`PreparedRhs::slice_cols`] view, so readers offset it by
    /// [`PreparedRhs::col_start`].
    pub fn state_for<S: Any + Send + Sync>(&self, engine: &str) -> Option<&S> {
        if self.engine != engine {
            return None;
        }
        self.state.as_deref().and_then(|s| s.downcast_ref::<S>())
    }
}

impl fmt::Debug for PreparedRhs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedRhs")
            .field("engine", &self.engine)
            .field("k", &self.k())
            .field("n", &self.n())
            .field("col_start", &self.col_start)
            .field("has_state", &self.state.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{BfpEngine, ExactEngine, GemmEngine, RnsBfpEngine};
    use mirage_bfp::BfpConfig;
    use rand::SeedableRng;

    #[test]
    fn from_raw_validates_rank() {
        assert!(PreparedRhs::from_raw("fp32", &Tensor::zeros(&[2, 2, 2])).is_err());
        let p = PreparedRhs::from_raw("fp32", &Tensor::zeros(&[3, 4])).unwrap();
        assert_eq!((p.k(), p.n()), (3, 4));
        assert_eq!(p.engine(), "fp32");
    }

    #[test]
    fn state_for_checks_engine_name_and_type() {
        let p = PreparedRhs::from_raw("fp32", &Tensor::zeros(&[2, 2]))
            .unwrap()
            .with_state(Arc::new(42usize));
        assert_eq!(p.state_for::<usize>("fp32"), Some(&42));
        assert_eq!(p.state_for::<usize>("mirage-bfp"), None);
        assert_eq!(p.state_for::<i32>("fp32"), None);
    }

    #[test]
    fn default_prepare_round_trips_through_gemm() {
        let a = Tensor::full(&[4, 3], 0.5);
        let b = Tensor::full(&[3, 5], 2.0);
        let p = ExactEngine.prepare(&b).unwrap();
        assert_eq!(
            ExactEngine.gemm_prepared(&a, &p).unwrap().data(),
            ExactEngine.gemm(&a, &b).unwrap().data()
        );
    }

    #[test]
    fn default_gemm_prepared_into_reuses_the_caller_buffer() {
        let a = Tensor::full(&[4, 3], 0.5);
        let b = Tensor::full(&[3, 5], 2.0);
        let p = ExactEngine.prepare(&b).unwrap();
        let mut out = Vec::with_capacity(64);
        let ptr = out.as_ptr();
        assert_eq!(
            ExactEngine.gemm_prepared_into(&a, &p, &mut out).unwrap(),
            (4, 5)
        );
        assert_eq!(out, ExactEngine.gemm(&a, &b).unwrap().data());
        assert_eq!(
            out.as_ptr(),
            ptr,
            "the default impl must write into the caller's allocation"
        );
    }

    #[test]
    fn debug_is_informative() {
        let p = BfpEngine::new(BfpConfig::mirage_default())
            .prepare(&Tensor::zeros(&[4, 4]))
            .unwrap();
        let s = format!("{p:?}");
        assert!(
            s.contains("mirage-bfp") && s.contains("has_state: true"),
            "{s}"
        );
    }

    #[test]
    fn slice_cols_rejects_out_of_range_and_handles_zero_width() {
        let engine = BfpEngine::new(BfpConfig::mirage_default());
        let b = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]).unwrap();
        let p = engine.prepare(&b).unwrap();
        assert!(matches!(
            p.slice_cols(3, 2),
            Err(TensorError::DimMismatch { left: 5, right: 4 })
        ));
        assert!(matches!(
            p.slice_cols(usize::MAX, 2),
            Err(TensorError::DimMismatch { .. })
        ));
        let mid = p.slice_cols(1, 2).unwrap();
        assert_eq!(mid.raw().data(), &[1.0, 2.0, 5.0, 6.0, 9.0, 10.0]);
        assert_eq!((mid.col_start(), mid.engine()), (1, "mirage-bfp"));
        // Zero-width views — at either edge, or of a zero-width matrix —
        // are well-formed and run to an `m × 0` output.
        for (c0, whole) in [(0, &p), (4, &p)] {
            let empty = whole.slice_cols(c0, 0).unwrap();
            assert_eq!((empty.k(), empty.n(), empty.col_start()), (3, 0, c0));
            let y = engine
                .gemm_prepared(&Tensor::ones(&[2, 3]), &empty)
                .unwrap();
            assert_eq!(y.shape(), &[2, 0]);
        }
        let narrow = ExactEngine.prepare(&Tensor::zeros(&[3, 0])).unwrap();
        assert_eq!(narrow.slice_cols(0, 0).unwrap().n(), 0);
        assert!(narrow.slice_cols(0, 1).is_err());
    }

    #[test]
    fn a_view_of_a_foreign_preparation_falls_back_to_its_raw_columns() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let a = Tensor::randn(&[5, 40], 1.0, &mut rng);
        let b = Tensor::randn(&[40, 12], 1.0, &mut rng);
        // Prepared at another BFP operating point: every consumer below
        // must ignore the attached state and use the view's raw columns.
        let foreign = BfpEngine::new(BfpConfig::new(8, 16).unwrap())
            .prepare(&b)
            .unwrap();
        let view = foreign.slice_cols(3, 6).unwrap();
        let cfg = BfpConfig::mirage_default();
        let consumers: Vec<Box<dyn GemmEngine>> = vec![
            Box::new(ExactEngine),
            Box::new(BfpEngine::new(cfg)),
            Box::new(RnsBfpEngine::with_min_special_set(cfg).unwrap()),
        ];
        for engine in consumers {
            let got = engine.gemm_prepared(&a, &view).unwrap();
            let full = engine.gemm(&a, &b).unwrap();
            for i in 0..5 {
                for j in 0..6 {
                    assert_eq!(
                        got.data()[i * 6 + j].to_bits(),
                        full.data()[i * 12 + 3 + j].to_bits(),
                        "{} at ({i}, {j})",
                        engine.name()
                    );
                }
            }
        }
    }
}
