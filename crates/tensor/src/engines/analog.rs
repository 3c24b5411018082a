//! Conventional analog-core GEMM with lossy ADC read-out.

use super::{gemm_dims, Epilogue, GemmEngine, PreparedRhs};
use crate::quant::{int_scale, quantize_int};
use crate::{Result, Tensor};

/// A *conventional* (non-RNS) analog MVM core: `b_dac`-bit operand
/// encoding, `h`-long analog dot products, and a `b_adc`-bit ADC applied
/// to **every partial output without rescaling** — the information-loss
/// mechanism described in paper §II-C that makes naive analog training
/// fail and motivates Mirage.
///
/// A full dot product of `b_dac`-bit operands over `h` elements carries
/// `b_out = 2*b_dac + log2(h) - 1` bits; whenever `b_adc < b_out` the ADC
/// floor truncates `b_out - b_adc` bits of every tile's partial sum.
///
/// ```
/// use mirage_tensor::{Tensor, GemmEngine};
/// use mirage_tensor::engines::{AnalogFxpEngine, ExactEngine};
///
/// let lossy = AnalogFxpEngine::new(8, 8, 128); // 8-bit ADC, h = 128
/// assert_eq!(lossy.information_loss_bits(), 2 * 8 + 7 - 1 - 8);
/// # Ok::<(), mirage_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalogFxpEngine {
    b_dac: u32,
    b_adc: u32,
    h: usize,
}

impl AnalogFxpEngine {
    /// Creates an engine with DAC precision `b_dac`, ADC precision
    /// `b_adc`, and analog vector (tile) length `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h == 0` or either precision is outside `2..=16`.
    pub fn new(b_dac: u32, b_adc: u32, h: usize) -> Self {
        assert!(h > 0, "tile length must be positive");
        assert!((2..=16).contains(&b_dac) && (2..=16).contains(&b_adc));
        AnalogFxpEngine { b_dac, b_adc, h }
    }

    /// DAC (operand) precision in bits.
    pub fn b_dac(&self) -> u32 {
        self.b_dac
    }

    /// ADC (read-out) precision in bits.
    pub fn b_adc(&self) -> u32 {
        self.b_adc
    }

    /// Analog dot-product length `h` (the photonic array width).
    pub fn h(&self) -> usize {
        self.h
    }

    /// Bits of information lost per partial output:
    /// `max(0, b_out - b_adc)` with `b_out = 2*b_dac + log2(h) - 1`.
    pub fn information_loss_bits(&self) -> u32 {
        let b_out = 2 * self.b_dac + (self.h as f64).log2().ceil() as u32 - 1;
        b_out.saturating_sub(self.b_adc)
    }
}

impl GemmEngine for AnalogFxpEngine {
    fn name(&self) -> &'static str {
        "analog-fxp"
    }

    /// `false`: the DAC scales are derived from the **whole-matrix**
    /// `max_abs`, so slicing the operands into row/column tiles would
    /// change the quantization grid. [`crate::parallel::ParallelGemm`]
    /// therefore runs this engine on its serial path.
    fn tile_invariant(&self) -> bool {
        false
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

        // Operand quantization before the DACs (per-matrix dynamic scale,
        // as done digitally before a layer — §II-C).
        let a_scale = int_scale(a.max_abs(), self.b_dac);
        let b_scale = int_scale(b.max_abs(), self.b_dac);
        let qa: Vec<i32> = a
            .data()
            .iter()
            .map(|&v| quantize_int(v, a_scale, self.b_dac))
            .collect();
        let qb: Vec<i32> = b
            .data()
            .iter()
            .map(|&v| quantize_int(v, b_scale, self.b_dac))
            .collect();

        // The ADC's fixed full scale covers the worst-case tile output;
        // with only b_adc levels across that range, each partial output is
        // floored to a coarse grid — no per-tile rescaling exists in the
        // analog domain.
        let max_code = f64::from((1i64 << (self.b_dac - 1)) as i32 - 1);
        let full_scale = max_code * max_code * self.h as f64;
        let adc_levels = f64::from((1i64 << (self.b_adc - 1)) as i32 - 1);
        let lsb = full_scale / adc_levels;

        out.clear();
        out.resize(m * n, 0.0);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                // Tile the dot product into h-long analog MVMs.
                for tile_start in (0..k).step_by(self.h) {
                    let tile_end = (tile_start + self.h).min(k);
                    let mut partial: i64 = 0;
                    for p in tile_start..tile_end {
                        partial += i64::from(qa[i * k + p]) * i64::from(qb[p * n + j]);
                    }
                    // ADC read-out: round to the coarse LSB grid.
                    let read = (partial as f64 / lsb).round() * lsb;
                    acc += read;
                }
                out[i * n + j] = (acc * f64::from(a_scale) * f64::from(b_scale)) as f32;
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
    use rand::SeedableRng;

    fn pair(seed: u64, m: usize, k: usize, n: usize) -> (Tensor, Tensor) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (
            Tensor::randn(&[m, k], 1.0, &mut rng),
            Tensor::randn(&[k, n], 1.0, &mut rng),
        )
    }

    fn rel_err(e: &dyn GemmEngine, a: &Tensor, b: &Tensor) -> f32 {
        let exact = ExactEngine.gemm(a, b).unwrap();
        e.gemm(a, b).unwrap().sub(&exact).unwrap().max_abs() / exact.max_abs()
    }

    #[test]
    fn loss_bits_formula() {
        // 8-bit DACs, h = 128: b_out = 16 + 7 - 1 = 22; 8-bit ADC loses 14.
        assert_eq!(AnalogFxpEngine::new(8, 8, 128).information_loss_bits(), 14);
        // Full-precision ADC: no loss.
        assert_eq!(AnalogFxpEngine::new(4, 16, 16).information_loss_bits(), 0);
    }

    #[test]
    fn error_grows_with_h() {
        // The paper's §II-C claim: larger analog tiles hurt more when the
        // ADC precision is fixed.
        let (a, b) = pair(50, 8, 256, 8);
        let e16 = rel_err(&AnalogFxpEngine::new(8, 8, 16), &a, &b);
        let e128 = rel_err(&AnalogFxpEngine::new(8, 8, 128), &a, &b);
        assert!(e128 > e16, "e128 = {e128}, e16 = {e16}");
    }

    #[test]
    fn error_shrinks_with_adc_bits() {
        let (a, b) = pair(51, 8, 128, 8);
        let e8 = rel_err(&AnalogFxpEngine::new(8, 8, 64), &a, &b);
        let e14 = rel_err(&AnalogFxpEngine::new(8, 14, 64), &a, &b);
        assert!(e14 < e8, "e14 = {e14}, e8 = {e8}");
    }

    #[test]
    fn lossless_when_adc_wide_enough() {
        // b_adc >= b_out: quantization only from the DAC side.
        let (a, b) = pair(52, 4, 8, 4);
        let wide = AnalogFxpEngine::new(4, 16, 8);
        assert_eq!(wide.information_loss_bits(), 0);
        let err = rel_err(&wide, &a, &b);
        // Residual error is DAC quantization only — small but nonzero.
        assert!(err < 0.2, "err = {err}");
    }

    #[test]
    #[should_panic(expected = "tile length must be positive")]
    fn zero_tile_panics() {
        AnalogFxpEngine::new(8, 8, 0);
    }
}
