//! Property-based tests for BFP invariants.

use mirage_bfp::{BfpBlock, BfpConfig, BfpVector, PackedBfpMatrix, RoundingMode};
use proptest::prelude::*;

/// Hostile inputs for the packed quantizers: NaN, ±Inf, subnormals,
/// signed zeros and `±f32::MAX` among ordinary values.
fn hostile_values(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = ((state >> 40) as f32 / 8388608.0) - 1.0;
            match state % 29 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => f32::from_bits(1 + (state >> 41) as u32 % 0x007f_ffff),
                4 => -f32::from_bits(0x007f_ffff),
                5 => -0.0,
                6 => 0.0,
                7 => f32::MAX,
                8 => -f32::MAX,
                9 => f32::MIN_POSITIVE,
                _ => v * 1e3,
            }
        })
        .collect()
}

/// Row-major transpose of a `k × n` matrix by the definition.
fn naive_transpose(data: &[f32], k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0; k * n];
    for r in 0..k {
        for c in 0..n {
            out[c * k + r] = data[r * n + c];
        }
    }
    out
}

/// `quantize_cols_into(b, k, n)` must equal `quantize_rows(bᵀ)` on
/// every buffer: `i32` mantissae, the `i16` shadow (kept or dropped)
/// and the shared exponents.
fn assert_cols_match_rows_of_transpose(
    data: &[f32],
    k: usize,
    n: usize,
    cfg: BfpConfig,
) -> Result<(), TestCaseError> {
    let bt = naive_transpose(data, k, n);
    for shadow in [true, false] {
        let fresh = || {
            let m = PackedBfpMatrix::empty(cfg);
            if shadow {
                m
            } else {
                m.without_narrow_shadow()
            }
        };
        let mut cols = fresh();
        cols.quantize_cols_into(data, k, n).unwrap();
        let mut rows = fresh();
        rows.quantize_rows_into(&bt, n, k).unwrap();
        prop_assert_eq!((cols.rows(), cols.k()), (n, k));
        prop_assert_eq!(cols.mantissas(), rows.mantissas());
        prop_assert_eq!(cols.mantissas_i16(), rows.mantissas_i16());
        prop_assert_eq!(cols.scale_exps(), rows.scale_exps());
        if !cols.mantissas().is_empty() {
            let narrow = shadow && cfg.max_mantissa() <= i64::from(i16::MAX);
            prop_assert_eq!(cols.mantissas_i16().is_some(), narrow);
        }
    }
    Ok(())
}

fn finite_f32() -> impl Strategy<Value = f32> {
    // Moderate range so squared errors stay finite in f64.
    prop::num::f32::NORMAL.prop_map(|v| v.clamp(-1e12, 1e12))
}

proptest! {
    /// Mantissa magnitudes never exceed 2^bm - 1.
    #[test]
    fn mantissa_bound(
        vals in prop::collection::vec(finite_f32(), 1..64),
        bm in 1u32..=12,
    ) {
        let cfg = BfpConfig::new(bm, vals.len()).unwrap();
        for mode in [RoundingMode::Truncate, RoundingMode::RoundNearest] {
            let block = BfpBlock::quantize(&vals, cfg.with_rounding(mode));
            for &m in block.mantissas() {
                prop_assert!(i64::from(m).abs() <= cfg.max_mantissa());
            }
        }
    }

    /// Relative error of the dominant element is bounded by 2^-bm
    /// (truncation of a full-width mantissa).
    #[test]
    fn dominant_element_relative_error(
        vals in prop::collection::vec(finite_f32(), 1..32),
        bm in 3u32..=12,
    ) {
        let cfg = BfpConfig::new(bm, vals.len()).unwrap();
        let block = BfpBlock::quantize(&vals, cfg);
        let back = block.dequantize();
        // Find the largest-magnitude element; it defines the shared
        // exponent so its own error is one ulp of the bm-bit mantissa.
        let (idx, &v) = vals
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap();
        let rel = ((f64::from(v) - f64::from(back[idx])) / f64::from(v)).abs();
        prop_assert!(rel <= (-(bm as f64 - 1.0)).exp2() + 1e-9, "rel = {rel}");
    }

    /// Quantization is idempotent.
    #[test]
    fn idempotent(
        vals in prop::collection::vec(finite_f32(), 1..48),
        bm in 2u32..=10,
        g in 1usize..=32,
    ) {
        let cfg = BfpConfig::new(bm, g).unwrap();
        let once = BfpVector::quantize(&vals, cfg).dequantize();
        let twice = BfpVector::quantize(&once, cfg).dequantize();
        prop_assert_eq!(once, twice);
    }

    /// Block dot product equals the exact dot of the dequantized values.
    #[test]
    fn dot_exactness(
        n in 1usize..=24,
        seed in any::<u64>(),
        bm in 2u32..=10,
    ) {
        let cfg = BfpConfig::new(bm, n).unwrap();
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 40) as f32 / 8388608.0) - 1.0
        };
        let xs: Vec<f32> = (0..n).map(|_| next()).collect();
        let ws: Vec<f32> = (0..n).map(|_| next()).collect();
        let bx = BfpBlock::quantize(&xs, cfg);
        let bw = BfpBlock::quantize(&ws, cfg);
        let d = bx.dot(&bw).unwrap().to_f64();
        let exact: f64 = bx
            .dequantize()
            .iter()
            .zip(&bw.dequantize())
            .map(|(a, b)| f64::from(*a) * f64::from(*b))
            .sum();
        prop_assert!((d - exact).abs() <= 1e-6 * exact.abs().max(1.0), "{d} vs {exact}");
    }

    /// The packed quantizer is bit-identical to the legacy block path:
    /// same mantissae on every unpadded lane, exact zeros on the
    /// padding, same shared exponent — across ragged tails, arbitrary
    /// `(bm, g)` and occasional non-finite inputs.
    #[test]
    fn packed_quantizer_matches_block_path(
        rows in 1usize..=5,
        k in 1usize..=40,
        g in 1usize..=20,
        bm in 2u32..=12,
        seed in any::<u64>(),
    ) {
        let cfg = BfpConfig::new(bm, g).unwrap();
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            match state % 23 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => 0.0,
                _ => (((state >> 40) as f32 / 8388608.0) - 1.0) * 1e4,
            }
        };
        let data: Vec<f32> = (0..rows * k).map(|_| next()).collect();
        let packed = PackedBfpMatrix::quantize_rows(&data, rows, k, cfg).unwrap();
        prop_assert_eq!(packed.groups_per_row(), k.div_ceil(g));
        for r in 0..rows {
            for (gi, chunk) in data[r * k..(r + 1) * k].chunks(g).enumerate() {
                let block = BfpBlock::quantize(chunk, cfg);
                let lanes = packed.group_mantissas(r, gi);
                prop_assert_eq!(&lanes[..chunk.len()], block.mantissas());
                prop_assert!(lanes[chunk.len()..].iter().all(|&m| m == 0));
                prop_assert_eq!(packed.group_scale_exp(r, gi), block.scale_exp());
            }
        }
    }

    /// Packed row dots are bit-identical to chaining `BfpBlock::dot`
    /// over the groups: zero padding contributes `0 · w` to the exact
    /// integer accumulation, so ragged tails cannot diverge.
    #[test]
    fn packed_dot_matches_block_dot_chain(
        k in 1usize..=50,
        g in 1usize..=20,
        bm in 2u32..=10,
        seed in any::<u64>(),
    ) {
        let cfg = BfpConfig::new(bm, g).unwrap();
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 40) as f32 / 8388608.0) - 1.0
        };
        let xs: Vec<f32> = (0..k).map(|_| next()).collect();
        let ws: Vec<f32> = (0..k).map(|_| next()).collect();
        let px = PackedBfpMatrix::quantize_rows(&xs, 1, k, cfg).unwrap();
        let pw = PackedBfpMatrix::quantize_rows(&ws, 1, k, cfg).unwrap();
        let mut want = 0.0f32;
        for (cx, cw) in xs.chunks(g).zip(ws.chunks(g)) {
            want += BfpBlock::quantize(cx, cfg)
                .dot(&BfpBlock::quantize(cw, cfg))
                .unwrap()
                .to_f32();
        }
        prop_assert_eq!(px.dot_rows(0, &pw, 0).to_bits(), want.to_bits());
    }

    /// The column quantizer is bit-identical to quantizing the
    /// transpose row by row, across ragged `k`, `n` on both sides of
    /// the 64-column tile, the constant-folded group sizes and an odd
    /// one, both rounding modes, `bm` with and without the `i16`
    /// shadow, and hostile values.
    #[test]
    fn column_quantizer_matches_rows_of_the_transpose(
        k in 0usize..=150,
        n in 0usize..=140,
        g_pick in 0usize..5,
        bm in 1u32..=23,
        nearest in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let g = [8, 16, 32, 64, 12][g_pick];
        let mode = if nearest { RoundingMode::RoundNearest } else { RoundingMode::Truncate };
        let cfg = BfpConfig::new(bm, g).unwrap().with_rounding(mode);
        assert_cols_match_rows_of_transpose(&hostile_values(k * n, seed), k, n, cfg)?;
    }

    /// Vector dot never loses more than the worst-case group bound.
    #[test]
    fn vector_dot_error_bounded(
        n in 1usize..=128,
        seed in any::<u64>(),
    ) {
        let cfg = BfpConfig::new(8, 16).unwrap();
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 40) as f32 / 8388608.0) - 1.0
        };
        let xs: Vec<f32> = (0..n).map(|_| next()).collect();
        let ws: Vec<f32> = (0..n).map(|_| next()).collect();
        let exact: f64 = xs.iter().zip(&ws).map(|(a, b)| f64::from(*a) * f64::from(*b)).sum();
        let d = BfpVector::quantize(&xs, cfg)
            .dot(&BfpVector::quantize(&ws, cfg))
            .unwrap();
        // 8-bit mantissae: error per element ~2^-7; allow generous slack.
        let bound = n as f64 * 2.0f64.powi(-6);
        prop_assert!((d - exact).abs() <= bound, "err = {}", (d - exact).abs());
    }
}

/// The edge shapes of the column quantizer, exhaustively: `k` and `n`
/// of 0 and 1, ragged tails, one past the tile width.
#[test]
fn column_quantizer_edge_shapes_match_rows_of_the_transpose() {
    for g in [8, 16, 32, 64, 12] {
        for mode in [RoundingMode::Truncate, RoundingMode::RoundNearest] {
            for bm in [4, 16] {
                let cfg = BfpConfig::new(bm, g).unwrap().with_rounding(mode);
                for k in [0, 1, g - 1, g, g + 1, 2 * g + 3] {
                    for n in [0, 1, 7, 63, 64, 65] {
                        let data = hostile_values(k * n, (k * 1000 + n) as u64);
                        assert_cols_match_rows_of_transpose(&data, k, n, cfg).unwrap();
                    }
                }
            }
        }
    }
}
