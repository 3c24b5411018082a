//! Packed BFP matrices: flat operand layouts for the GEMM hot path.
//!
//! [`crate::BfpBlock`] is the *reference* representation — one heap
//! object per group, convenient for tests and device models, but a
//! `Vec<Vec<BfpBlock>>` of them pointer-chases on every group dot. A
//! [`PackedBfpMatrix`] stores the same quantization in two contiguous
//! buffers:
//!
//! ```text
//! mantissas  (rows × groups_per_row × g) i32, row-major
//!   row 0: [ g0 ........ | g1 ........ | g_last ...0 0 0 ]
//!   row 1: [ g0 ........ | g1 ........ | g_last ...0 0 0 ]
//!                                         ^^^^^ tail zero-padding
//! scale_exps (rows × groups_per_row) i32
//! ```
//!
//! Every group occupies **exactly `g` lanes**; a ragged tail group
//! (`k % g != 0`) is padded with zero mantissae. Padding is exact: a
//! padded lane contributes `0 · w = 0` to the integer dot and zeros
//! never participate in the shared-exponent scan, so every packed group
//! dot is **bit-identical** to [`crate::BfpBlock::dot`] on the unpadded
//! group — the property the proptests pin against the block path.

use crate::block::{exponent_of, sanitize};
use crate::config::{BfpConfig, RoundingMode};
use crate::math::pow2;
use crate::{BfpError, Result};

/// A matrix quantized row-by-row into BFP groups, stored flat.
///
/// Rows run along the reduction dimension: packing the rows of `A` (or
/// of `Bᵀ`) groups exactly like [`crate::BfpBlock`] chunking each row,
/// so the layout serves both GEMM operands.
///
/// ```
/// use mirage_bfp::{BfpBlock, BfpConfig, PackedBfpMatrix};
///
/// let cfg = BfpConfig::new(4, 4)?;
/// let data = [1.0, 0.5, -0.25, 0.0, 2.0, 0.125]; // 2 rows, k = 3
/// let packed = PackedBfpMatrix::quantize_rows(&data, 2, 3, cfg)?;
/// // Groups are padded to g = 4 lanes; values match the block path.
/// let block = BfpBlock::quantize(&data[..3], cfg);
/// assert_eq!(&packed.group_mantissas(0, 0)[..3], block.mantissas());
/// assert_eq!(packed.group_mantissas(0, 0)[3], 0); // exact zero padding
/// assert_eq!(packed.group_scale_exp(0, 0), block.scale_exp());
/// # Ok::<(), mirage_bfp::BfpError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedBfpMatrix {
    rows: usize,
    k: usize,
    groups_per_row: usize,
    config: BfpConfig,
    /// `rows * groups_per_row * g` mantissae, tail groups zero-padded.
    mantissas: Vec<i32>,
    /// A narrow copy of [`Self::mantissas`], kept when
    /// `max_mantissa <= i16::MAX` (every `bm <= 15` operating point)
    /// and the shadow is enabled (see
    /// [`PackedBfpMatrix::without_narrow_shadow`]): the flat kernels'
    /// `i16 × i16 → i32` multiply-accumulate maps onto twice-as-wide
    /// SIMD lanes (`pmaddwd` and friends). The `i32` buffer stays
    /// canonical; this is a same-values shadow.
    mantissas_i16: Vec<i16>,
    /// Whether [`Self::mantissas_i16`] is maintained.
    keep_shadow: bool,
    /// `rows * groups_per_row` shared scale exponents.
    scale_exps: Vec<i32>,
}

impl PackedBfpMatrix {
    /// An empty matrix (0 × 0) ready to be filled by
    /// [`PackedBfpMatrix::quantize_rows_into`] — the reusable scratch
    /// for serving loops that quantize a new activation matrix per call.
    pub fn empty(config: BfpConfig) -> Self {
        PackedBfpMatrix {
            rows: 0,
            k: 0,
            groups_per_row: 0,
            config,
            mantissas: Vec::new(),
            mantissas_i16: Vec::new(),
            keep_shadow: true,
            scale_exps: Vec::new(),
        }
    }

    /// Disables the `i16` mantissa shadow for consumers that only read
    /// the canonical `i32` buffer — the RNS forward conversion and the
    /// photonic `i64` widening — so their packing skips the extra pass
    /// and allocation. The BFP flat kernel keeps the shadow (default).
    #[must_use]
    pub fn without_narrow_shadow(mut self) -> Self {
        self.keep_shadow = false;
        self.mantissas_i16 = Vec::new();
        self
    }

    /// Quantizes `rows` rows of `k` elements each (row-major `data`)
    /// into a freshly allocated packed matrix.
    ///
    /// # Errors
    ///
    /// Returns [`BfpError::LengthMismatch`] unless
    /// `data.len() == rows * k`.
    pub fn quantize_rows(data: &[f32], rows: usize, k: usize, config: BfpConfig) -> Result<Self> {
        let mut packed = Self::empty(config);
        packed.quantize_rows_into(data, rows, k)?;
        Ok(packed)
    }

    /// Re-quantizes into this matrix's existing buffers.
    ///
    /// Zero heap allocation once the buffers have grown to the steady
    /// state: the mantissa and exponent vectors are `resize`d in place,
    /// and the quantizer itself never allocates per group — there is no
    /// `sanitized` staging copy (non-finite inputs are remapped on the
    /// fly, and an all-finite group takes a branch-free fast path) and
    /// no per-group `Vec` like the [`crate::BfpBlock`] path builds.
    ///
    /// # Errors
    ///
    /// Returns [`BfpError::LengthMismatch`] unless
    /// `data.len() == rows * k`.
    // mirage-lint: no_alloc
    pub fn quantize_rows_into(&mut self, data: &[f32], rows: usize, k: usize) -> Result<()> {
        if data.len() != rows * k {
            return Err(BfpError::LengthMismatch {
                left: data.len(),
                right: rows * k,
            });
        }
        let quant = self.reset(rows, k);
        let g = self.config.group_size();
        let padded = self.padded_k();
        let groups_per_row = self.groups_per_row;
        for r in 0..rows {
            let row = &data[r * k..(r + 1) * k];
            let m_row = &mut self.mantissas[r * padded..(r + 1) * padded];
            let e_row = &mut self.scale_exps[r * groups_per_row..(r + 1) * groups_per_row];
            // Monomorphize the common group sizes: with a compile-time
            // group length the shared-exponent scan and the mantissa
            // pass both unroll and vectorize.
            match g {
                8 => quantize_row_const::<8>(quant, row, m_row, e_row),
                16 => quantize_row_const::<16>(quant, row, m_row, e_row),
                32 => quantize_row_const::<32>(quant, row, m_row, e_row),
                64 => quantize_row_const::<64>(quant, row, m_row, e_row),
                _ => {
                    for (gi, chunk) in row.chunks(g).enumerate() {
                        quant.quantize_group(chunk, &mut m_row[gi * g..gi * g + g], &mut e_row[gi]);
                    }
                }
            }
        }
        self.fill_narrow_shadow();
        Ok(())
    }

    /// Quantizes the **columns** of a row-major `k × n` matrix into
    /// this matrix's buffers: row `j` of the result is column `j` of
    /// `data`, grouped along `k` — exactly what
    /// [`PackedBfpMatrix::quantize_rows_into`] makes of the transpose,
    /// without materializing it.
    ///
    /// A `g × J` block of the input (one group of rows, `J` columns) is
    /// gathered into an L1-resident stack tile, so each input row is
    /// read contiguously and each packed group is written contiguously;
    /// every column group then goes through the same group quantizer as
    /// the row path, so the result is bit-identical to quantizing `dataᵀ`
    /// row by row. This is the B-side packing of every GEMM: a weight
    /// `[k, n]` never needs its transposed copy.
    ///
    /// ```
    /// use mirage_bfp::{BfpConfig, PackedBfpMatrix};
    ///
    /// let cfg = BfpConfig::new(4, 4)?;
    /// let b = [1.0, 2.0, 0.5, -1.0, 0.25, 4.0]; // k = 3 rows, n = 2 columns
    /// let bt = [1.0, 0.5, 0.25, 2.0, -1.0, 4.0];
    /// let mut cols = PackedBfpMatrix::empty(cfg);
    /// cols.quantize_cols_into(&b, 3, 2)?;
    /// assert_eq!(cols, PackedBfpMatrix::quantize_rows(&bt, 2, 3, cfg)?);
    /// # Ok::<(), mirage_bfp::BfpError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`BfpError::LengthMismatch`] unless `data.len() == k * n`.
    // mirage-lint: no_alloc
    pub fn quantize_cols_into(&mut self, data: &[f32], k: usize, n: usize) -> Result<()> {
        if data.len() != k * n {
            return Err(BfpError::LengthMismatch {
                left: data.len(),
                right: k * n,
            });
        }
        let quant = self.reset(n, k);
        let g = self.config.group_size();
        let (m_out, e_out) = (&mut self.mantissas[..], &mut self.scale_exps[..]);
        let mut tile = [0.0f32; COL_TILE];
        // The literal group sizes constant-fold through the inlined
        // body, like the row path's monomorphized group lengths.
        match g {
            8 => quantize_cols_tiled(quant, data, k, n, 8, &mut tile, m_out, e_out),
            16 => quantize_cols_tiled(quant, data, k, n, 16, &mut tile, m_out, e_out),
            32 => quantize_cols_tiled(quant, data, k, n, 32, &mut tile, m_out, e_out),
            64 => quantize_cols_tiled(quant, data, k, n, 64, &mut tile, m_out, e_out),
            _ if g <= COL_TILE => {
                quantize_cols_tiled(quant, data, k, n, g, &mut tile, m_out, e_out);
            }
            _ => {
                // mirage-lint: allow(alloc_ok) -- only for g > COL_TILE, far beyond any hardware group size; one staging group per call
                let mut wide = vec![0.0f32; g];
                quantize_cols_tiled(quant, data, k, n, g, &mut wide, m_out, e_out);
            }
        }
        self.fill_narrow_shadow();
        Ok(())
    }

    /// Sets the shape to `rows` packed rows of `k` and zero-fills the
    /// buffers in place (padding lanes must read zero), returning the
    /// group quantizer for the configuration.
    // mirage-lint: no_alloc
    fn reset(&mut self, rows: usize, k: usize) -> GroupQuantizer {
        let g = self.config.group_size();
        self.rows = rows;
        self.k = k;
        self.groups_per_row = k.div_ceil(g);
        let lanes = rows * self.groups_per_row * g;
        self.mantissas.clear();
        self.mantissas.resize(lanes, 0);
        self.mantissas_i16.clear();
        if self.narrow() {
            self.mantissas_i16.resize(lanes, 0);
        }
        self.scale_exps.clear();
        self.scale_exps.resize(rows * self.groups_per_row, 0);
        GroupQuantizer {
            bm: self.config.mantissa_bits() as i32,
            limit: self.config.max_mantissa() as f64,
            limit_u64: self.config.max_mantissa() as u64,
            rounding: self.config.rounding(),
        }
    }

    /// Whether the `i16` shadow is kept: enabled and every mantissa fits.
    fn narrow(&self) -> bool {
        self.keep_shadow && self.config.max_mantissa() <= i64::from(i16::MAX)
    }

    /// Copies the canonical mantissae into the `i16` shadow, if kept.
    // mirage-lint: no_alloc
    fn fill_narrow_shadow(&mut self) {
        if self.narrow() {
            for (nl, &lane) in self.mantissas_i16.iter_mut().zip(&self.mantissas) {
                *nl = lane as i16;
            }
        }
    }

    /// Number of quantized rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical reduction length `k` (unpadded row width).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Groups per row, `ceil(k / g)`.
    pub fn groups_per_row(&self) -> usize {
        self.groups_per_row
    }

    /// Padded row width, `groups_per_row * g`.
    pub fn padded_k(&self) -> usize {
        self.groups_per_row * self.config.group_size()
    }

    /// The configuration the rows were quantized with.
    pub fn config(&self) -> BfpConfig {
        self.config
    }

    /// The whole flat mantissa buffer (`rows * padded_k`, row-major).
    pub fn mantissas(&self) -> &[i32] {
        &self.mantissas
    }

    /// The narrow `i16` shadow of [`Self::mantissas`] (same layout,
    /// same values), present whenever the operating point's mantissae
    /// fit (`bm <= 15`). Kernels pair it with
    /// [`PackedBfpMatrix::dot_fits_i32`] to run [`group_dot_i16`].
    pub fn mantissas_i16(&self) -> Option<&[i16]> {
        (self.mantissas_i16.len() == self.mantissas.len()).then_some(&self.mantissas_i16[..])
    }

    /// The whole flat scale-exponent buffer (`rows * groups_per_row`).
    pub fn scale_exps(&self) -> &[i32] {
        &self.scale_exps
    }

    /// One padded row of mantissae (`padded_k` lanes).
    pub fn row_mantissas(&self, row: usize) -> &[i32] {
        let w = self.padded_k();
        &self.mantissas[row * w..(row + 1) * w]
    }

    /// One row's scale exponents (`groups_per_row` entries).
    pub fn row_scale_exps(&self, row: usize) -> &[i32] {
        &self.scale_exps[row * self.groups_per_row..(row + 1) * self.groups_per_row]
    }

    /// The `g` (padded) mantissa lanes of group `gi` of `row`.
    pub fn group_mantissas(&self, row: usize, gi: usize) -> &[i32] {
        let g = self.config.group_size();
        let base = (row * self.groups_per_row + gi) * g;
        &self.mantissas[base..base + g]
    }

    /// The unpadded length of group `gi`: `g` except for a ragged tail.
    pub fn group_len(&self, gi: usize) -> usize {
        let g = self.config.group_size();
        (self.k - gi * g).min(g)
    }

    /// The shared scale exponent of group `gi` of `row`.
    pub fn group_scale_exp(&self, row: usize, gi: usize) -> i32 {
        self.scale_exps[row * self.groups_per_row + gi]
    }

    /// Whether every group dot between `self` and `other` fits an `i32`
    /// accumulator: `g · max_mantissa(self) · max_mantissa(other) <=
    /// i32::MAX`. True for every realistic operating point (the paper's
    /// `bm = 4`, `g = 16` peaks at 3600), letting kernels run the
    /// vectorizer-friendly [`group_dot_i32`] instead of widening every
    /// product to `i64`. Both paths produce the same exact integer.
    pub fn dot_fits_i32(&self, other: &PackedBfpMatrix) -> bool {
        let bound = self.config.max_mantissa() as u128
            * other.config.max_mantissa() as u128
            * self.config.group_size() as u128;
        bound <= i32::MAX as u128
    }

    /// The BFP dot product of row `i` of `self` with row `j` of `other`,
    /// accumulated group-by-group in FP32 — the flat-kernel equivalent
    /// of chaining [`crate::BfpBlock::dot`] + `to_f32()` over the rows'
    /// groups, **bit-identical** to that path by the padding invariant.
    ///
    /// The inner loop is a straight-line integer dot over two `&[i32]`
    /// slices (`i32 × i32 → i64` accumulate) with no bounds decisions
    /// left — shape agreement is debug-asserted, callers validate once
    /// per GEMM.
    pub fn dot_rows(&self, i: usize, other: &PackedBfpMatrix, j: usize) -> f32 {
        debug_assert_eq!(self.k, other.k, "packed operand k mismatch");
        debug_assert_eq!(
            self.config.group_size(),
            other.config.group_size(),
            "packed operand group-size mismatch"
        );
        let g = self.config.group_size();
        let fits_i32 = self.dot_fits_i32(other);
        let a_row = self.row_mantissas(i);
        let b_row = other.row_mantissas(j);
        let a_exps = self.row_scale_exps(i);
        let b_exps = other.row_scale_exps(j);
        let mut acc = 0.0f32;
        for gi in 0..self.groups_per_row {
            let base = gi * g;
            let (a_g, b_g) = (&a_row[base..base + g], &b_row[base..base + g]);
            let integer = if fits_i32 {
                group_dot_i32(a_g, b_g)
            } else {
                group_dot(a_g, b_g)
            };
            acc += (integer as f64 * pow2(a_exps[gi] + b_exps[gi])) as f32;
        }
        acc
    }
}

/// The per-group quantization constants, grouped so the monomorphized
/// row quantizers take one argument.
#[derive(Clone, Copy)]
struct GroupQuantizer {
    bm: i32,
    limit: f64,
    limit_u64: u64,
    rounding: RoundingMode,
}

impl GroupQuantizer {
    /// Quantizes one group, writing `chunk.len()` mantissae into
    /// `lanes` (padding lanes are already zero) and the shared exponent
    /// into `exp`. Bit-identical to [`crate::BfpBlock::quantize`]:
    /// same sanitize mapping, same shared-exponent rule, same `f64`
    /// scaling — minus the per-group heap objects.
    #[inline(always)]
    fn quantize_group(self, chunk: &[f32], lanes: &mut [i32], exp: &mut i32) {
        // The all-finite fast path (the overwhelmingly common case):
        // both passes are branchless per lane, so they vectorize. The
        // slow path applies the same `sanitize` mapping as the block
        // quantizer, element by element, with no staging copy.
        if chunk.iter().all(|v| v.is_finite()) {
            // Shared-exponent scan: the max over the raw biased
            // exponent field is the max over `exponent_of` whenever any
            // element is normal (zeros and subnormals both carry a zero
            // field, and every subnormal exponent lies below every
            // normal one), and it is two vector ops per lane. Groups of
            // only zeros/subnormals fall back to the scalar replica —
            // both pinned against the block quantizer by the
            // packed-vs-block proptests.
            let mut max_field = 0u32;
            for &v in chunk {
                max_field = max_field.max(v.to_bits() & 0x7f80_0000);
            }
            if max_field == 0 {
                let max_exp = chunk
                    .iter()
                    .filter(|v| **v != 0.0)
                    .map(|&v| exponent_of(v))
                    .max();
                let Some(e_shared) = max_exp else {
                    // All-zero group: scale_exp = 0, mantissae stay 0.
                    *exp = 0;
                    return;
                };
                let scale_exp = e_shared - self.bm + 1;
                let scale = pow2(-scale_exp);
                *exp = scale_exp;
                for (lane, &v) in lanes.iter_mut().zip(chunk) {
                    let scaled = f64::from(v) * scale;
                    let q = match self.rounding {
                        RoundingMode::Truncate => scaled.trunc(),
                        RoundingMode::RoundNearest => scaled.round(),
                    };
                    *lane = q.clamp(-self.limit, self.limit) as i32;
                }
                return;
            }
            let scale_exp = ((max_field >> 23) as i32 - 127) - self.bm + 1;
            *exp = scale_exp;
            // Mantissa pass as exact integer arithmetic: for a finite
            // `v = ±mant24 · 2^(e-23)`, the legacy `trunc(f64(v) ·
            // 2^-scale_exp)` (every step of which is exact — f32→f64 is
            // lossless, and scaling by a power of two only moves the
            // exponent) equals `±(mant24 >> (scale_exp + 23 - e))`, and
            // `round` equals the half-added shift (ties away from zero
            // in both). The shift is >= 24 - bm >= 1 because the shared
            // exponent is the group max; shifts past 63 are clamped
            // (the result is 0 either way). Branchless per lane, so the
            // whole pass vectorizes.
            let limit = self.limit_u64;
            let round_nearest = self.rounding == RoundingMode::RoundNearest;
            for (lane, &v) in lanes.iter_mut().zip(chunk) {
                let bits = v.to_bits();
                let abs = bits & 0x7fff_ffff;
                let raw = (abs >> 23) as i32;
                // Subnormals have no implicit bit and a fixed exponent.
                let mant24 = u64::from(if raw > 0 {
                    (abs & 0x7f_ffff) | 0x80_0000
                } else {
                    abs
                });
                let e = if raw > 0 { raw - 127 } else { -126 };
                let shift = (scale_exp + 23 - e).clamp(1, 63) as u32;
                let add = if round_nearest {
                    1u64 << (shift - 1)
                } else {
                    0
                };
                let mag = ((mant24 + add) >> shift).min(limit);
                *lane = if bits >> 31 == 1 {
                    -(mag as i32)
                } else {
                    mag as i32
                };
            }
            return;
        }
        let max_exp = chunk
            .iter()
            .map(|&v| sanitize(v))
            .filter(|&v| v != 0.0)
            .map(exponent_of)
            .max();
        let Some(e_shared) = max_exp else {
            *exp = 0;
            return;
        };
        let scale_exp = e_shared - self.bm + 1;
        let scale = pow2(-scale_exp);
        *exp = scale_exp;
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            let scaled = f64::from(sanitize(v)) * scale;
            let q = match self.rounding {
                RoundingMode::Truncate => scaled.trunc(),
                RoundingMode::RoundNearest => scaled.round(),
            };
            *lane = q.clamp(-self.limit, self.limit) as i32;
        }
    }
}

/// One row's groups with a compile-time group size: full groups get
/// constant-length slices (unrolled scans), only the ragged tail is
/// dynamic.
#[inline(always)]
fn quantize_row_const<const G: usize>(
    quant: GroupQuantizer,
    row: &[f32],
    m_row: &mut [i32],
    e_row: &mut [i32],
) {
    let full = row.len() / G;
    for gi in 0..full {
        quant.quantize_group(
            &row[gi * G..(gi + 1) * G],
            &mut m_row[gi * G..(gi + 1) * G],
            &mut e_row[gi],
        );
    }
    let tail = full * G;
    if tail < row.len() {
        quant.quantize_group(
            &row[tail..],
            &mut m_row[tail..tail + G][..row.len() - tail],
            &mut e_row[full],
        );
    }
}

/// Floats in the column quantizer's stack tile (16 KiB, L1-resident).
const COL_TILE: usize = 4096;

/// Most columns gathered per tile: 64 input floats are four cache lines
/// per row read.
const COL_TILE_J: usize = 64;

/// The column quantizer's loop nest: for each block of `J` columns and
/// each group of `g` rows, gather the `g × J` block into `tile` with
/// columns contiguous (a small in-cache transpose; input rows are read
/// contiguously), then quantize each column's group into its packed
/// lanes. `tile` holds at least `g` floats.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn quantize_cols_tiled(
    quant: GroupQuantizer,
    data: &[f32],
    k: usize,
    n: usize,
    g: usize,
    tile: &mut [f32],
    mantissas: &mut [i32],
    scale_exps: &mut [i32],
) {
    let groups = k.div_ceil(g);
    let padded = groups * g;
    let jt = (tile.len() / g).clamp(1, COL_TILE_J);
    for j0 in (0..n).step_by(jt) {
        let jw = (n - j0).min(jt);
        for gi in 0..groups {
            let r0 = gi * g;
            let glen = (k - r0).min(g);
            gather_block(&data[r0 * n + j0..], n, glen, jw, g, tile);
            for jj in 0..jw {
                let j = j0 + jj;
                let lanes = &mut mantissas[j * padded + r0..j * padded + r0 + g];
                let exp = &mut scale_exps[j * groups + gi];
                if glen == g {
                    quant.quantize_group(&tile[jj * g..jj * g + g], lanes, exp);
                } else {
                    quant.quantize_group(&tile[jj * g..jj * g + glen], &mut lanes[..glen], exp);
                }
            }
        }
    }
}

/// Copies the `rows × cols` block at the start of `src` (row stride
/// `stride`) into `tile` column by column, column `c` at
/// `tile[c * g..]`. Whole 8×8 sub-blocks go through a register-sized
/// buffer, so each load and each store is eight contiguous floats; the
/// ragged edges go element by element.
#[inline(always)]
fn gather_block(src: &[f32], stride: usize, rows: usize, cols: usize, g: usize, tile: &mut [f32]) {
    let (rows8, cols8) = (rows - rows % 8, cols - cols % 8);
    for r0 in (0..rows8).step_by(8) {
        for c0 in (0..cols8).step_by(8) {
            let mut blk = [[0.0f32; 8]; 8];
            for (i, row) in blk.iter_mut().enumerate() {
                let at = (r0 + i) * stride + c0;
                row.copy_from_slice(&src[at..at + 8]);
            }
            for c in 0..8 {
                let dst = &mut tile[(c0 + c) * g + r0..(c0 + c) * g + r0 + 8];
                for (i, lane) in dst.iter_mut().enumerate() {
                    *lane = blk[i][c];
                }
            }
        }
    }
    for r in 0..rows {
        let lo = if r < rows8 { cols8 } else { 0 };
        for c in lo..cols {
            tile[c * g + r] = src[r * stride + c];
        }
    }
}

// The three group-dot kernels below are the innermost loops of every
// packed GEMM: pure integer multiply-accumulate over quantized
// mantissae. Any floating point here would silently break the exact
// BFP arithmetic (paper §IV-B), so the region is machine-checked.
// mirage-lint: region(int_kernel)

/// Exact integer dot of two equal-length mantissa slices with an `i64`
/// accumulator — the general path, safe for every operating point.
// mirage-lint: no_alloc
#[inline]
pub fn group_dot(a: &[i32], b: &[i32]) -> i64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0i64;
    for (&x, &w) in a.iter().zip(b) {
        acc += i64::from(x) * i64::from(w);
    }
    acc
}

/// [`group_dot`] with an `i32` accumulator: exact **iff** the group's
/// worst-case magnitude fits (`g · max_a · max_b <= i32::MAX`, see
/// [`PackedBfpMatrix::dot_fits_i32`]) — the caller's contract. Narrower
/// arithmetic lets the autovectorizer keep twice as many lanes per
/// register, which is most of the flat kernel's speedup.
// mirage-lint: no_alloc
#[inline]
pub fn group_dot_i32(a: &[i32], b: &[i32]) -> i64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0i32;
    for (&x, &w) in a.iter().zip(b) {
        acc += x * w;
    }
    i64::from(acc)
}

/// [`group_dot_i32`] over the narrow [`PackedBfpMatrix::mantissas_i16`]
/// shadow: the `i16 × i16 → i32` multiply-accumulate is the SIMD dot
/// idiom (`pmaddwd`), packing twice as many lanes again. Same caller
/// contract as [`group_dot_i32`]; same exact integer result.
// mirage-lint: no_alloc
#[inline]
pub fn group_dot_i16(a: &[i16], b: &[i16]) -> i64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0i32;
    for (&x, &w) in a.iter().zip(b) {
        acc += i32::from(x) * i32::from(w);
    }
    i64::from(acc)
}

// mirage-lint: end_region(int_kernel)

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BfpBlock;

    fn cfg(bm: u32, g: usize) -> BfpConfig {
        BfpConfig::new(bm, g).unwrap()
    }

    /// Deterministic pseudo-random values, occasionally non-finite.
    fn values(n: usize, seed: u64, specials: bool) -> Vec<f32> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let v = ((state >> 40) as f32 / 8388608.0) - 1.0;
                if specials {
                    match state % 17 {
                        0 => f32::NAN,
                        1 => f32::INFINITY,
                        2 => f32::NEG_INFINITY,
                        3 => 0.0,
                        _ => v * 1e3,
                    }
                } else {
                    v
                }
            })
            .collect()
    }

    /// Packed groups must match the block path exactly: same mantissae
    /// on the unpadded lanes, zeros on the padding, same exponent.
    fn assert_matches_blocks(data: &[f32], rows: usize, k: usize, config: BfpConfig) {
        let packed = PackedBfpMatrix::quantize_rows(data, rows, k, config).unwrap();
        let g = config.group_size();
        assert_eq!(packed.groups_per_row(), k.div_ceil(g));
        for r in 0..rows {
            let row = &data[r * k..(r + 1) * k];
            for (gi, chunk) in row.chunks(g).enumerate() {
                let block = BfpBlock::quantize(chunk, config);
                let lanes = packed.group_mantissas(r, gi);
                assert_eq!(
                    &lanes[..chunk.len()],
                    block.mantissas(),
                    "row {r} group {gi}"
                );
                assert!(
                    lanes[chunk.len()..].iter().all(|&m| m == 0),
                    "row {r} group {gi}: nonzero padding"
                );
                assert_eq!(
                    packed.group_scale_exp(r, gi),
                    block.scale_exp(),
                    "row {r} group {gi}"
                );
                assert_eq!(packed.group_len(gi), chunk.len());
            }
        }
    }

    #[test]
    fn matches_block_quantizer_on_aligned_and_ragged_shapes() {
        for (rows, k, g) in [(1, 16, 16), (3, 19, 16), (4, 7, 4), (2, 1, 8), (5, 48, 16)] {
            let data = values(rows * k, (rows * 1000 + k) as u64, false);
            assert_matches_blocks(&data, rows, k, cfg(4, g));
            assert_matches_blocks(&data, rows, k, cfg(8, g));
        }
    }

    #[test]
    fn matches_block_quantizer_with_non_finite_inputs() {
        for (rows, k, g) in [(2, 20, 16), (3, 5, 4)] {
            let data = values(rows * k, 99, true);
            assert_matches_blocks(&data, rows, k, cfg(4, g));
        }
    }

    #[test]
    fn subnormal_and_signed_zero_lanes_match_blocks() {
        // The integer mantissa pass has special cases for subnormals
        // (no implicit bit, fixed exponent) and signed zeros; pin all
        // of them against the f64 block path, in both rounding modes
        // and in groups with and without a normal maximum.
        let tiny = f32::from_bits(1);
        let big_sub = f32::from_bits(0x007f_ffff);
        let cases: Vec<Vec<f32>> = vec![
            vec![tiny, 1.0, -0.0, 0.5],
            vec![tiny, -big_sub, 0.0, tiny * 2.0],
            vec![-1.5, big_sub, f32::MIN_POSITIVE, -0.0],
            vec![0.0, -0.0, 0.0, 0.0],
            vec![f32::MAX, tiny, -f32::MAX, 1e-38],
            vec![1.0 + f32::EPSILON, -1.0 - f32::EPSILON, 0.75, 0.25],
        ];
        for vals in &cases {
            for mode in [RoundingMode::Truncate, RoundingMode::RoundNearest] {
                for bm in [1u32, 4, 8, 15, 23] {
                    let config = cfg(bm, 4).with_rounding(mode);
                    assert_matches_blocks(vals, 1, 4, config);
                }
            }
        }
    }

    #[test]
    fn round_nearest_mode_matches_blocks() {
        let config = cfg(4, 8).with_rounding(RoundingMode::RoundNearest);
        let data = values(3 * 13, 7, false);
        assert_matches_blocks(&data, 3, 13, config);
    }

    #[test]
    fn dot_rows_matches_block_dot_chain() {
        let config = cfg(4, 16);
        for k in [1usize, 15, 16, 17, 33, 64] {
            let a = values(2 * k, 11 + k as u64, false);
            let b = values(3 * k, 23 + k as u64, false);
            let pa = PackedBfpMatrix::quantize_rows(&a, 2, k, config).unwrap();
            let pb = PackedBfpMatrix::quantize_rows(&b, 3, k, config).unwrap();
            for i in 0..2 {
                for j in 0..3 {
                    let mut want = 0.0f32;
                    for (ca, cb) in a[i * k..(i + 1) * k]
                        .chunks(16)
                        .zip(b[j * k..(j + 1) * k].chunks(16))
                    {
                        let ba = BfpBlock::quantize(ca, config);
                        let bb = BfpBlock::quantize(cb, config);
                        want += ba.dot(&bb).unwrap().to_f32();
                    }
                    let got = pa.dot_rows(i, &pb, j);
                    assert_eq!(got.to_bits(), want.to_bits(), "k = {k}, ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn reuse_does_not_reallocate_at_steady_state() {
        let config = cfg(4, 16);
        let data = values(8 * 50, 3, false);
        let mut scratch = PackedBfpMatrix::empty(config);
        scratch.quantize_rows_into(&data, 8, 50).unwrap();
        let mantissa_ptr = scratch.mantissas().as_ptr();
        let exps_ptr = scratch.scale_exps().as_ptr();
        for seed in 0..4 {
            let next = values(8 * 50, seed, false);
            scratch.quantize_rows_into(&next, 8, 50).unwrap();
            assert_eq!(scratch.mantissas().as_ptr(), mantissa_ptr);
            assert_eq!(scratch.scale_exps().as_ptr(), exps_ptr);
        }
        // Shrinking shapes reuse the buffers too.
        scratch.quantize_rows_into(&data[..4 * 50], 4, 50).unwrap();
        assert_eq!(scratch.mantissas().as_ptr(), mantissa_ptr);
        assert_eq!(scratch.rows(), 4);
    }

    #[test]
    fn stale_state_is_fully_overwritten_on_reuse() {
        let config = cfg(4, 16);
        let mut scratch = PackedBfpMatrix::empty(config);
        scratch
            .quantize_rows_into(&values(4 * 33, 5, false), 4, 33)
            .unwrap();
        // Refill with an all-zero matrix: every mantissa and exponent
        // from the previous call must be cleared, including padding.
        scratch.quantize_rows_into(&[0.0; 2 * 20], 2, 20).unwrap();
        assert!(scratch.mantissas().iter().all(|&m| m == 0));
        assert!(scratch.scale_exps().iter().all(|&e| e == 0));
    }

    #[test]
    fn zero_dimension_matrices_are_well_formed() {
        let config = cfg(4, 16);
        let empty_rows = PackedBfpMatrix::quantize_rows(&[], 0, 16, config).unwrap();
        assert_eq!((empty_rows.rows(), empty_rows.groups_per_row()), (0, 1));
        let empty_k = PackedBfpMatrix::quantize_rows(&[], 3, 0, config).unwrap();
        assert_eq!((empty_k.rows(), empty_k.groups_per_row()), (3, 0));
        assert_eq!(empty_k.padded_k(), 0);
        // A k = 0 dot accumulates nothing.
        assert_eq!(empty_k.dot_rows(0, &empty_k, 1), 0.0);
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let err = PackedBfpMatrix::quantize_rows(&[1.0; 5], 2, 3, cfg(4, 4)).unwrap_err();
        assert_eq!(err, BfpError::LengthMismatch { left: 5, right: 6 });
        let err = PackedBfpMatrix::empty(cfg(4, 4))
            .quantize_cols_into(&[1.0; 5], 2, 3)
            .unwrap_err();
        assert_eq!(err, BfpError::LengthMismatch { left: 5, right: 6 });
    }

    /// `dataᵀ` of a row-major `k × n` matrix, by the definition.
    fn transposed(data: &[f32], k: usize, n: usize) -> Vec<f32> {
        (0..n)
            .flat_map(|c| (0..k).map(move |r| data[r * n + c]))
            .collect()
    }

    #[test]
    fn column_quantizer_handles_groups_wider_than_its_tile() {
        // g > COL_TILE takes the heap-staged branch; one column per tile.
        let g = COL_TILE + 4;
        let (k, n) = (g + 3, 3);
        let data = values(k * n, 17, true);
        let mut cols = PackedBfpMatrix::empty(cfg(4, g));
        cols.quantize_cols_into(&data, k, n).unwrap();
        let rows = PackedBfpMatrix::quantize_rows(&transposed(&data, k, n), n, k, cfg(4, g));
        assert_eq!(cols, rows.unwrap());
    }

    #[test]
    fn column_quantizer_reuses_buffers_and_clears_stale_state() {
        let config = cfg(4, 16);
        let mut scratch = PackedBfpMatrix::empty(config);
        scratch
            .quantize_cols_into(&values(50 * 8, 3, false), 50, 8)
            .unwrap();
        let mantissa_ptr = scratch.mantissas().as_ptr();
        let data = values(50 * 8, 4, false);
        scratch.quantize_cols_into(&data, 50, 8).unwrap();
        assert_eq!(scratch.mantissas().as_ptr(), mantissa_ptr);
        assert_eq!(
            scratch,
            PackedBfpMatrix::quantize_rows(&transposed(&data, 50, 8), 8, 50, config).unwrap()
        );
        // A smaller all-zero refill leaves no stale lane or exponent.
        scratch.quantize_cols_into(&[0.0; 20 * 2], 20, 2).unwrap();
        assert_eq!(scratch.mantissas().as_ptr(), mantissa_ptr);
        assert!(scratch.mantissas().iter().all(|&m| m == 0));
        assert!(scratch.scale_exps().iter().all(|&e| e == 0));
    }
}
