//! FP32 reference GEMM.

use super::{gemm_dims, Epilogue, GemmEngine, PreparedRhs};
use crate::{Result, Tensor};

/// Full-precision FP32 GEMM — the accuracy reference all quantized
/// engines are compared against (the paper's "FP32 training" baseline).
///
/// Tile-invariant: each output row's accumulation chain is independent,
/// so [`crate::parallel::ParallelGemm`] reproduces it bit-exactly while
/// fanning row bands across threads.
///
/// ```
/// use mirage_tensor::{Tensor, GemmEngine, engines::ExactEngine};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let id = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
/// assert_eq!(ExactEngine.gemm(&a, &id)?, a);
/// # Ok::<(), mirage_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactEngine;

impl GemmEngine for ExactEngine {
    fn name(&self) -> &'static str {
        "fp32"
    }

    /// `true`: no quantization state at all; each output element is one
    /// independent FP32 accumulation chain over its row/column.
    fn tile_invariant(&self) -> bool {
        true
    }

    fn prepare(&self, b: &Tensor) -> Result<PreparedRhs> {
        PreparedRhs::from_raw(self.name(), b)
    }

    fn run_into(
        &self,
        a: &Tensor,
        b: &PreparedRhs,
        epilogue: &Epilogue<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize)> {
        let (m, n) = exact_gemm_into(a, b.raw(), out)?;
        epilogue.apply(out, m, n)?;
        Ok((m, n))
    }
}

/// The FP32 kernel over raw operands, writing `A · B` into `out`
/// (cleared first) and returning `(m, n)` — shared with the engines
/// that round their operands and then accumulate in FP32.
pub(crate) fn exact_gemm_into(
    a: &Tensor,
    b: &Tensor,
    out: &mut Vec<f32>,
) -> Result<(usize, usize)> {
    let (m, k, n) = gemm_dims(a, b)?;
    out.clear();
    out.resize(m * n, 0.0);
    let ad = a.data();
    let bd = b.data();
    // i-k-j loop order: unit-stride access for both B and C.
    for i in 0..m {
        for p in 0..k {
            let av = ad[i * k + p];
            if av == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            let crow = &mut out[i * n..(i + 1) * n];
            for (c, &bv) in crow.iter_mut().zip(brow) {
                *c += av * bv;
            }
        }
    }
    Ok((m, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                *out.at_mut(&[i, j]) = acc;
            }
        }
        out
    }

    #[test]
    fn identity() {
        let a = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[3, 3]).unwrap();
        let mut id = Tensor::zeros(&[3, 3]);
        for i in 0..3 {
            *id.at_mut(&[i, i]) = 1.0;
        }
        assert_eq!(ExactEngine.gemm(&a, &id).unwrap(), a);
        assert_eq!(ExactEngine.gemm(&id, &a).unwrap(), a);
    }

    #[test]
    fn matches_naive_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for (m, k, n) in [(1, 1, 1), (2, 3, 4), (7, 5, 3), (16, 16, 16), (1, 33, 2)] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let fast = ExactEngine.gemm(&a, &b).unwrap();
            assert!(fast.allclose(&naive(&a, &b), 1e-5), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn rectangular_shapes() {
        let a = Tensor::ones(&[1, 8]);
        let b = Tensor::ones(&[8, 1]);
        let c = ExactEngine.gemm(&a, &b).unwrap();
        assert_eq!(c.shape(), &[1, 1]);
        assert_eq!(c.data()[0], 8.0);
    }

    #[test]
    fn zero_dimensions() {
        let a = Tensor::zeros(&[0, 4]);
        let b = Tensor::zeros(&[4, 3]);
        let c = ExactEngine.gemm(&a, &b).unwrap();
        assert_eq!(c.shape(), &[0, 3]);
    }
}
