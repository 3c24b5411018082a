//! Baseline data-format engines: bfloat16, HFP8 and symmetric integers.
//!
//! All three are tile-invariant — bf16/HFP8 quantize element-wise and
//! [`IntEngine`] scales per-row (`A`) / per-column (`B`) — so
//! [`crate::parallel::ParallelGemm`] reproduces them bit-exactly while
//! partitioning the output across worker threads.

use super::exact::exact_gemm_into;
use super::{gemm_dims, Epilogue, GemmEngine, PreparedRhs};
use crate::quant::{int_scale, quantize_int, to_bf16, to_fp8, Fp8Format, FP8_E4M3};
use crate::{Result, Tensor};

/// bfloat16 GEMM: operands rounded to bf16, FP32 accumulation — the TPU
/// recipe (Wang & Kanwar 2019), one of the paper's baselines.
///
/// ```
/// use mirage_tensor::{Tensor, GemmEngine, engines::Bf16Engine};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2])?;
/// let b = Tensor::from_vec(vec![3.0, 4.0], &[2, 1])?;
/// assert_eq!(Bf16Engine.gemm(&a, &b)?.data()[0], 11.0);
/// # Ok::<(), mirage_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bf16Engine;

impl GemmEngine for Bf16Engine {
    fn name(&self) -> &'static str {
        "bfloat16"
    }

    /// `true`: element-wise rounding has no cross-element state.
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
        let (m, n) = exact_gemm_into(&a.map(to_bf16), &b.raw().map(to_bf16), out)?;
        epilogue.apply(out, m, n)?;
        Ok((m, n))
    }
}

/// HFP8 GEMM (Sun et al., NeurIPS 2019): operands in a reduced FP8
/// format, FP32 accumulation. The forward 1-4-3 format is the default;
/// training code switches to 1-5-2 for gradient GEMMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hfp8Engine {
    format: Fp8Format,
}

impl Hfp8Engine {
    /// Engine using the given FP8 format.
    pub fn new(format: Fp8Format) -> Self {
        Hfp8Engine { format }
    }

    /// The FP8 format in use.
    pub fn format(&self) -> Fp8Format {
        self.format
    }
}

impl Default for Hfp8Engine {
    fn default() -> Self {
        Hfp8Engine::new(FP8_E4M3)
    }
}

impl GemmEngine for Hfp8Engine {
    fn name(&self) -> &'static str {
        "hfp8"
    }

    /// `true`: element-wise rounding has no cross-element state.
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
        let f = self.format;
        let qa = a.map(|v| to_fp8(v, f));
        let qb = b.raw().map(|v| to_fp8(v, f));
        let (m, n) = exact_gemm_into(&qa, &qb, out)?;
        epilogue.apply(out, m, n)?;
        Ok((m, n))
    }
}

/// Symmetric integer GEMM with per-row/per-column dynamic scales —
/// the INT8/INT12 baselines of Table I/II.
///
/// Rows of `A` and columns of `B` each get a dynamic scale mapping their
/// max magnitude to the largest integer code; accumulation is exact in
/// `i64` and rescaled on output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntEngine {
    bits: u32,
}

impl IntEngine {
    /// Creates an integer engine.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 16`.
    pub fn new(bits: u32) -> Self {
        assert!((2..=16).contains(&bits), "bits must be in 2..=16");
        IntEngine { bits }
    }

    /// The INT8 baseline.
    pub fn int8() -> Self {
        IntEngine::new(8)
    }

    /// The INT12 baseline.
    pub fn int12() -> Self {
        IntEngine::new(12)
    }

    /// Quantization bit width.
    pub fn bits(&self) -> u32 {
        self.bits
    }
}

impl GemmEngine for IntEngine {
    fn name(&self) -> &'static str {
        match self.bits {
            8 => "int8",
            12 => "int12",
            _ => "int",
        }
    }

    /// `true`: dynamic scales are derived per-row of `A` and per-column
    /// of `B`, never across them.
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
        let b = b.raw();
        let (m, k, n) = gemm_dims(a, b)?;
        let bits = self.bits;

        // Per-row quantization of A.
        let mut a_q = vec![0i32; m * k];
        let mut a_scales = vec![0.0f32; m];
        for i in 0..m {
            let row = &a.data()[i * k..(i + 1) * k];
            let s = int_scale(row.iter().fold(0.0f32, |x, &v| x.max(v.abs())), bits);
            a_scales[i] = s;
            for (dst, &v) in a_q[i * k..(i + 1) * k].iter_mut().zip(row) {
                *dst = quantize_int(v, s, bits);
            }
        }
        // Per-column quantization of B.
        let mut b_q = vec![0i32; k * n];
        let mut b_scales = vec![0.0f32; n];
        for j in 0..n {
            let mut max = 0.0f32;
            for p in 0..k {
                max = max.max(b.data()[p * n + j].abs());
            }
            let s = int_scale(max, bits);
            b_scales[j] = s;
            for p in 0..k {
                b_q[p * n + j] = quantize_int(b.data()[p * n + j], s, bits);
            }
        }

        out.clear();
        out.resize(m * n, 0.0);
        for i in 0..m {
            for j in 0..n {
                let mut acc: i64 = 0;
                for p in 0..k {
                    acc += i64::from(a_q[i * k + p]) * i64::from(b_q[p * n + j]);
                }
                out[i * n + j] = acc as f32 * a_scales[i] * b_scales[j];
            }
        }
        epilogue.apply(out, m, n)?;
        Ok((m, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::ExactEngine;
    use crate::quant::FP8_E5M2;
    use rand::SeedableRng;

    fn random_pair(seed: u64, m: usize, k: usize, n: usize) -> (Tensor, Tensor) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (
            Tensor::randn(&[m, k], 1.0, &mut rng),
            Tensor::randn(&[k, n], 1.0, &mut rng),
        )
    }

    #[test]
    fn bf16_close_to_exact() {
        let (a, b) = random_pair(31, 8, 32, 8);
        let exact = ExactEngine.gemm(&a, &b).unwrap();
        let q = Bf16Engine.gemm(&a, &b).unwrap();
        assert!(q.allclose(&exact, 0.05));
    }

    #[test]
    fn hfp8_coarser_than_bf16() {
        let (a, b) = random_pair(32, 8, 64, 8);
        let exact = ExactEngine.gemm(&a, &b).unwrap();
        let e_bf16 = Bf16Engine
            .gemm(&a, &b)
            .unwrap()
            .sub(&exact)
            .unwrap()
            .max_abs();
        let e_fp8 = Hfp8Engine::default()
            .gemm(&a, &b)
            .unwrap()
            .sub(&exact)
            .unwrap()
            .max_abs();
        assert!(e_fp8 > e_bf16);
    }

    #[test]
    fn hfp8_backward_format_selectable() {
        let e = Hfp8Engine::new(FP8_E5M2);
        assert_eq!(e.format(), FP8_E5M2);
        let (a, b) = random_pair(33, 4, 16, 4);
        assert!(e.gemm(&a, &b).is_ok());
    }

    #[test]
    fn int12_more_accurate_than_int8() {
        let (a, b) = random_pair(34, 8, 64, 8);
        let exact = ExactEngine.gemm(&a, &b).unwrap();
        let e8 = IntEngine::int8()
            .gemm(&a, &b)
            .unwrap()
            .sub(&exact)
            .unwrap()
            .max_abs();
        let e12 = IntEngine::int12()
            .gemm(&a, &b)
            .unwrap()
            .sub(&exact)
            .unwrap()
            .max_abs();
        assert!(e12 < e8, "e12 = {e12}, e8 = {e8}");
    }

    #[test]
    fn int_engine_names() {
        assert_eq!(IntEngine::int8().name(), "int8");
        assert_eq!(IntEngine::int12().name(), "int12");
        assert_eq!(IntEngine::new(4).name(), "int");
    }

    #[test]
    #[should_panic(expected = "bits must be in 2..=16")]
    fn int_engine_rejects_wide() {
        IntEngine::new(17);
    }

    #[test]
    fn int_zero_matrix() {
        let a = Tensor::zeros(&[2, 4]);
        let b = Tensor::zeros(&[4, 2]);
        let c = IntEngine::int8().gemm(&a, &b).unwrap();
        assert_eq!(c.max_abs(), 0.0);
    }
}
