//! Causal dilated 1-D convolution kernels and gradients.
//!
//! Layout convention: inputs are `[B, C_in, L]`, weights `[C_out, C_in, K]`,
//! outputs `[B, C_out, L]`. The convolution is *causal*: output step `l` only
//! reads input steps `<= l`, padding the left edge with zeros, so the output
//! length equals the input length. This is the temporal convolution used by
//! the GDCC operator (Graph WaveNet-style gated dilated causal conv).
//!
//! ## Small shapes: bit-identical register tiles
//! Below [`DIRECT_MAX_WORK`] the `small` kernels run. The forward pass and
//! the input gradient keep a row of time steps per channel in registers
//! across all taps, the weight gradient a row of output channels; lanes a
//! tap does not reach are masked. Each element gets the reference loops'
//! arithmetic in their order, so the output is bit-identical to [`direct`].
//!
//! ## im2col lowering
//! From [`DIRECT_MAX_WORK`] up the convolution is lowered onto the packed
//! matmul kernels: each batch element's zero-padded input is unrolled into a
//! `(C_in·K) × L` column matrix (`im2col`), so the forward pass becomes
//! `W[C_out × C_in·K] · cols`, the weight gradient becomes `dOut · colsᵀ` and
//! the input gradient scatters `Wᵀ · dOut` back through `col2im`. The column
//! scratch comes from the thread-local [`crate::pool`] and is reused across
//! the batch, so steady-state conv calls allocate nothing. This path is only
//! tolerance-close to the direct loops.
//!
//! ## Reference path
//! The original nested loops are kept in [`direct`]: the test and bench
//! reference, and what `matmul::set_fast_enabled(false)` runs.

/// Work bound (`C_out · C_in · K · L` multiply-adds per batch element) below
/// which the small-shape kernels beat the im2col + packed-matmul detour.
const DIRECT_MAX_WORK: usize = 4096;

/// Reference direct kernels: the original nested loops. Every weight tap is
/// applied (no zero-weight skip), matching IEEE product semantics over the
/// valid (unpadded) input range. Only the test/bench reference and the
/// `set_fast_enabled(false)` path run them.
pub mod direct {
    /// Forward causal dilated conv1d. `out` must be zero-filled by the caller.
    #[allow(clippy::too_many_arguments)]
    pub fn conv1d_forward(
        x: &[f32],
        w: &[f32],
        bias: Option<&[f32]>,
        out: &mut [f32],
        b: usize,
        c_in: usize,
        c_out: usize,
        l: usize,
        ksize: usize,
        dilation: usize,
    ) {
        debug_assert_eq!(x.len(), b * c_in * l);
        debug_assert_eq!(w.len(), c_out * c_in * ksize);
        debug_assert_eq!(out.len(), b * c_out * l);
        let reach = (ksize - 1) * dilation;
        for bi in 0..b {
            for co in 0..c_out {
                let out_row = &mut out[(bi * c_out + co) * l..(bi * c_out + co + 1) * l];
                for ci in 0..c_in {
                    let x_row = &x[(bi * c_in + ci) * l..(bi * c_in + ci) * l + l];
                    let w_row = &w[(co * c_in + ci) * ksize..(co * c_in + ci + 1) * ksize];
                    for (k, &wk) in w_row.iter().enumerate() {
                        // input index for output l: t = l - (reach - k*dilation)
                        let shift = reach - k * dilation;
                        for t in shift..l {
                            out_row[t] += wk * x_row[t - shift];
                        }
                    }
                }
                if let Some(bias) = bias {
                    let bv = bias[co];
                    for o in out_row.iter_mut() {
                        *o += bv;
                    }
                }
            }
        }
    }

    /// Backward pass of [`conv1d_forward`].
    ///
    /// Accumulates into `dx`, `dw` and (optionally) `dbias`.
    #[allow(clippy::too_many_arguments)]
    pub fn conv1d_backward(
        x: &[f32],
        w: &[f32],
        dout: &[f32],
        dx: &mut [f32],
        dw: &mut [f32],
        mut dbias: Option<&mut [f32]>,
        b: usize,
        c_in: usize,
        c_out: usize,
        l: usize,
        ksize: usize,
        dilation: usize,
    ) {
        let reach = (ksize - 1) * dilation;
        for bi in 0..b {
            for co in 0..c_out {
                let g_row = &dout[(bi * c_out + co) * l..(bi * c_out + co + 1) * l];
                if let Some(dbias) = dbias.as_deref_mut() {
                    dbias[co] += g_row.iter().sum::<f32>();
                }
                for ci in 0..c_in {
                    let x_row = &x[(bi * c_in + ci) * l..(bi * c_in + ci) * l + l];
                    let w_row = &w[(co * c_in + ci) * ksize..(co * c_in + ci + 1) * ksize];
                    let dw_row = &mut dw[(co * c_in + ci) * ksize..(co * c_in + ci + 1) * ksize];
                    let dx_row = &mut dx[(bi * c_in + ci) * l..(bi * c_in + ci) * l + l];
                    for k in 0..ksize {
                        let shift = reach - k * dilation;
                        let wk = w_row[k];
                        let mut dwk = 0.0f32;
                        for t in shift..l {
                            let g = g_row[t];
                            dwk += g * x_row[t - shift];
                            dx_row[t - shift] += g * wk;
                        }
                        dw_row[k] += dwk;
                    }
                }
            }
        }
    }
}

/// Small-shape kernels, bit-identical to [`direct`].
///
/// The forward pass and the input gradient hold one row of up to `W` time
/// steps per output channel (input channel) in registers across all
/// `(C_in, K)` (`(C_out, K)`) taps, `ROWS` rows at a time; the weight
/// gradient holds `W` output channels of one `(c_in, k)` dot product and
/// adds it to a transposed copy of `dw` once per batch element. Each
/// element sees the reference arithmetic in the reference order (separate
/// multiply and add, taps in loop order). Lanes a tap does not reach are
/// masked, not added: adding a zero-padded product would flip `-0.0` to
/// `0.0` and let an `inf`/NaN weight times the padding poison the result.
mod small {
    use crate::ops::matmul::{Isa, Kernel};

    /// Rows (channels) per register tile.
    const ROWS: usize = 4;

    /// Geometry of one call.
    #[derive(Clone, Copy)]
    pub(super) struct Shape {
        pub b: usize,
        pub c_in: usize,
        pub c_out: usize,
        pub l: usize,
        pub ksize: usize,
        pub dilation: usize,
    }

    impl Shape {
        /// Offset between an output step and the input step tap `k` reads.
        fn shift(&self, k: usize) -> usize {
            (self.ksize - 1 - k) * self.dilation
        }
    }

    /// Register tile width for `len` lanes on a tier with `lanes`-wide
    /// registers; longer rows are split into chunks of this width.
    fn width(len: usize, lanes: usize) -> usize {
        if len > 8 && lanes >= 16 {
            16
        } else if len > 4 {
            8
        } else {
            4
        }
    }

    /// `HALVES[16 - lo + t]` is all ones exactly when `t >= lo`, and
    /// `HALVES[32 - hi + t]` exactly when `t < hi` (for `lo, hi <= 16`).
    /// Reading the masks from memory keeps them opaque, so the select below
    /// stays one vector operation instead of being folded lane by lane.
    static HALVES: [u32; 48] = {
        let mut h = [0u32; 48];
        let mut i = 16;
        while i < 32 {
            h[i] = !0;
            i += 1;
        }
        h
    };

    /// The lanes `lo..hi` as a bit mask, or `None` when that range covers
    /// every lane that is stored (`0..tw`).
    #[inline(always)]
    fn lane_mask<const W: usize>(lo: usize, hi: usize, tw: usize) -> Option<[u32; W]> {
        (lo > 0 || hi < tw).then(|| {
            let ge: &[u32; W] = HALVES[16 - lo.min(16)..][..W].try_into().expect("mask width");
            let lt: &[u32; W] = HALVES[32 - hi.min(16)..][..W].try_into().expect("mask width");
            std::array::from_fn(|t| ge[t] & lt[t])
        })
    }

    /// `acc[t] += w * v[t]` on the lanes in `mask` (all when `None`); the
    /// others keep their value (a bitwise select, so no lane outside the
    /// mask is ever rounded).
    #[inline(always)]
    fn madd_masked<const W: usize>(
        acc: &mut [f32; W],
        w: f32,
        v: &[f32; W],
        mask: &Option<[u32; W]>,
    ) {
        match mask {
            None => {
                for (o, &x) in acc.iter_mut().zip(v) {
                    *o += w * x;
                }
            }
            Some(keep) => {
                for ((o, &x), &m) in acc.iter_mut().zip(v).zip(keep) {
                    let sum = (*o + w * x).to_bits();
                    *o = f32::from_bits((sum & m) | (o.to_bits() & !m));
                }
            }
        }
    }

    /// `src[start + t]` for lanes `t` in `0..W`, where `start` counts
    /// `back` elements before `from`. One plain load when the whole range is
    /// inside `src`; otherwise lanes outside it read `0`. Callers mask the
    /// lanes that fall outside their row, so what those hold never matters.
    #[inline(always)]
    fn lanes_at<const W: usize>(src: &[f32], from: usize, back: usize) -> [f32; W] {
        match from.checked_sub(back) {
            Some(start) if start + W <= src.len() => {
                src[start..start + W].try_into().expect("lane count")
            }
            _ => std::array::from_fn(|t| {
                (from + t).checked_sub(back).and_then(|i| src.get(i)).copied().unwrap_or(0.0)
            }),
        }
    }

    /// The first `src.len() <= W` lanes from `src`, the rest `0`.
    #[inline(always)]
    fn load_row<const W: usize>(src: &[f32]) -> [f32; W] {
        match src.try_into() {
            Ok(full) => full,
            Err(_) => std::array::from_fn(|t| src.get(t).copied().unwrap_or(0.0)),
        }
    }

    /// Stores the first `dst.len() <= W` lanes of `v`.
    #[inline(always)]
    fn store_row<const W: usize>(dst: &mut [f32], v: &[f32; W]) {
        if dst.len() == W {
            dst.copy_from_slice(v);
        } else {
            // Lane by lane: a length-dependent copy would become a memcpy call.
            for (t, &x) in v.iter().enumerate() {
                if let Some(d) = dst.get_mut(t) {
                    *d = x;
                }
            }
        }
    }

    /// Forward causal dilated conv1d: `out += conv(x, w)`, then `+ bias`.
    pub(super) fn forward(x: &[f32], w: &[f32], bias: Option<&[f32]>, out: &mut [f32], sh: Shape) {
        Isa::current().run(Forward { x, w, bias, out, sh });
    }

    struct Forward<'a> {
        x: &'a [f32],
        w: &'a [f32],
        bias: Option<&'a [f32]>,
        out: &'a mut [f32],
        sh: Shape,
    }

    impl Kernel for Forward<'_> {
        #[inline(always)]
        fn run(self, lanes: usize) {
            let Forward { x, w, bias, out, sh } = self;
            match width(sh.l, lanes) {
                4 => forward_w::<4>(x, w, bias, out, sh),
                8 => forward_w::<8>(x, w, bias, out, sh),
                _ => forward_w::<16>(x, w, bias, out, sh),
            }
        }
    }

    #[inline(always)]
    fn forward_w<const W: usize>(
        x: &[f32],
        w: &[f32],
        bias: Option<&[f32]>,
        out: &mut [f32],
        sh: Shape,
    ) {
        let Shape { b, c_in, c_out, l, .. } = sh;
        for bi in 0..b {
            // Taps read `x` through the whole batch, so only the very first
            // and last rows need a lane-by-lane load.
            let xb = (x, bi * c_in * l);
            let ob = &mut out[bi * c_out * l..][..c_out * l];
            for t0 in (0..l).step_by(W) {
                let mut co = 0;
                while co + ROWS <= c_out {
                    forward_tile::<ROWS, W>(xb, w, bias, ob, sh, co, t0);
                    co += ROWS;
                }
                while co < c_out {
                    forward_tile::<1, W>(xb, w, bias, ob, sh, co, t0);
                    co += 1;
                }
            }
        }
    }

    /// Output channels `co0 .. co0 + RR`, time steps `t0 .. t0 + W`; `xb`
    /// is `x` and the offset of this batch element.
    #[inline(always)]
    fn forward_tile<const RR: usize, const W: usize>(
        (x, xoff): (&[f32], usize),
        w: &[f32],
        bias: Option<&[f32]>,
        ob: &mut [f32],
        sh: Shape,
        co0: usize,
        t0: usize,
    ) {
        let Shape { c_in, l, ksize, .. } = sh;
        let tw = W.min(l - t0);
        let mut acc: [[f32; W]; RR] =
            std::array::from_fn(|r| load_row(&ob[(co0 + r) * l + t0..][..tw]));
        for ci in 0..c_in {
            for k in 0..ksize {
                // Output step t takes this tap only from t = shift on.
                let shift = sh.shift(k);
                if shift >= t0 + tw {
                    continue;
                }
                let v = lanes_at::<W>(x, xoff + ci * l + t0, shift);
                let mask = lane_mask::<W>(shift.saturating_sub(t0), W, tw);
                for (r, a) in acc.iter_mut().enumerate() {
                    madd_masked(a, w[((co0 + r) * c_in + ci) * ksize + k], &v, &mask);
                }
            }
        }
        for (r, a) in acc.iter_mut().enumerate() {
            if let Some(bias) = bias {
                let bv = bias[co0 + r];
                for o in a.iter_mut() {
                    *o += bv;
                }
            }
            store_row(&mut ob[(co0 + r) * l + t0..][..tw], a);
        }
    }

    /// Input gradient: `dx[ci, s] += Σ_{co, k} dout[co, s + shift_k] · w[co, ci, k]`,
    /// `co` outer and `k` inner, like the reference loop.
    pub(super) fn backward_dx(w: &[f32], dout: &[f32], dx: &mut [f32], sh: Shape) {
        Isa::current().run(BackwardDx { w, dout, dx, sh });
    }

    struct BackwardDx<'a> {
        w: &'a [f32],
        dout: &'a [f32],
        dx: &'a mut [f32],
        sh: Shape,
    }

    impl Kernel for BackwardDx<'_> {
        #[inline(always)]
        fn run(self, lanes: usize) {
            let BackwardDx { w, dout, dx, sh } = self;
            match width(sh.l, lanes) {
                4 => backward_dx_w::<4>(w, dout, dx, sh),
                8 => backward_dx_w::<8>(w, dout, dx, sh),
                _ => backward_dx_w::<16>(w, dout, dx, sh),
            }
        }
    }

    #[inline(always)]
    fn backward_dx_w<const W: usize>(w: &[f32], dout: &[f32], dx: &mut [f32], sh: Shape) {
        let Shape { b, c_in, c_out, l, .. } = sh;
        for bi in 0..b {
            // Taps read `dout` through the whole batch, as in the forward pass.
            let gb = (dout, bi * c_out * l);
            let db = &mut dx[bi * c_in * l..][..c_in * l];
            for t0 in (0..l).step_by(W) {
                let mut ci = 0;
                while ci + ROWS <= c_in {
                    backward_dx_tile::<ROWS, W>(gb, w, db, sh, ci, t0);
                    ci += ROWS;
                }
                while ci < c_in {
                    backward_dx_tile::<1, W>(gb, w, db, sh, ci, t0);
                    ci += 1;
                }
            }
        }
    }

    /// Input channels `ci0 .. ci0 + RR`, time steps `t0 .. t0 + W`; `gb` is
    /// `dout` and the offset of this batch element.
    #[inline(always)]
    fn backward_dx_tile<const RR: usize, const W: usize>(
        (dout, goff): (&[f32], usize),
        w: &[f32],
        db: &mut [f32],
        sh: Shape,
        ci0: usize,
        t0: usize,
    ) {
        let Shape { c_in, c_out, l, ksize, .. } = sh;
        let tw = W.min(l - t0);
        let mut acc: [[f32; W]; RR] =
            std::array::from_fn(|r| load_row(&db[(ci0 + r) * l + t0..][..tw]));
        for co in 0..c_out {
            for k in 0..ksize {
                // Input step s receives this tap only while s + shift < l.
                let shift = sh.shift(k);
                if shift + t0 >= l {
                    continue;
                }
                let v = lanes_at::<W>(dout, goff + co * l + t0 + shift, 0);
                let mask = lane_mask::<W>(0, l - shift - t0, tw);
                for (r, a) in acc.iter_mut().enumerate() {
                    madd_masked(a, w[(co * c_in + ci0 + r) * ksize + k], &v, &mask);
                }
            }
        }
        for (r, a) in acc.iter().enumerate() {
            store_row(&mut db[(ci0 + r) * l + t0..][..tw], a);
        }
    }

    /// Weight gradient: per batch element, `dw[co, ci, k] += (0 + Σ_t
    /// dout[co, t] · x[ci, t - shift_k])` over `t = shift_k..l` in order,
    /// `W` output channels per register.
    pub(super) fn backward_dw(x: &[f32], dout: &[f32], dw: &mut [f32], sh: Shape) {
        Isa::current().run(BackwardDw { x, dout, dw, sh });
    }

    struct BackwardDw<'a> {
        x: &'a [f32],
        dout: &'a [f32],
        dw: &'a mut [f32],
        sh: Shape,
    }

    impl Kernel for BackwardDw<'_> {
        #[inline(always)]
        fn run(self, lanes: usize) {
            let BackwardDw { x, dout, dw, sh } = self;
            match width(sh.c_out, lanes) {
                4 => backward_dw_w::<4>(x, dout, dw, sh),
                8 => backward_dw_w::<8>(x, dout, dw, sh),
                _ => backward_dw_w::<16>(x, dout, dw, sh),
            }
        }
    }

    #[inline(always)]
    fn backward_dw_w<const W: usize>(x: &[f32], dout: &[f32], dw: &mut [f32], sh: Shape) {
        let Shape { b, c_in, c_out, l, ksize, .. } = sh;
        let cols = c_out.div_ceil(W) * W;
        // gt[t · cols + co] = dout[bi, co, t] and dwt[(ci·K + k) · cols + co]
        // = dw[co, ci, k]: both transposed so a register holds W channels.
        // Padding channels are zero and never copied back.
        let mut gt = crate::pool::take_raw(l * cols);
        let mut dwt = crate::pool::take_raw(c_in * ksize * cols);
        for (tap, row) in dwt.chunks_exact_mut(cols.max(1)).enumerate() {
            for (co, d) in row.iter_mut().enumerate() {
                *d = if co < c_out { dw[co * c_in * ksize + tap] } else { 0.0 };
            }
        }
        for bi in 0..b {
            let gb = &dout[bi * c_out * l..][..c_out * l];
            for (t, row) in gt.chunks_exact_mut(cols.max(1)).enumerate() {
                for (co, d) in row.iter_mut().enumerate() {
                    *d = if co < c_out { gb[co * l + t] } else { 0.0 };
                }
            }
            let xb = &x[bi * c_in * l..][..c_in * l];
            for co0 in (0..c_out).step_by(W) {
                let mut ci = 0;
                while ci + ROWS <= c_in {
                    backward_dw_tile::<ROWS, W>(&gt, xb, &mut dwt, sh, co0, ci);
                    ci += ROWS;
                }
                while ci < c_in {
                    backward_dw_tile::<1, W>(&gt, xb, &mut dwt, sh, co0, ci);
                    ci += 1;
                }
            }
        }
        for (tap, row) in dwt.chunks_exact(cols.max(1)).enumerate() {
            for (co, &v) in row[..c_out].iter().enumerate() {
                dw[co * c_in * ksize + tap] = v;
            }
        }
        crate::pool::give(dwt);
        crate::pool::give(gt);
    }

    /// Output channels `co0 .. co0 + W` by input channels `ci0 .. ci0 + RR`,
    /// every tap: one batch element's dot products, added to `dwt` once.
    #[inline(always)]
    fn backward_dw_tile<const RR: usize, const W: usize>(
        gt: &[f32],
        xb: &[f32],
        dwt: &mut [f32],
        sh: Shape,
        co0: usize,
        ci0: usize,
    ) {
        let Shape { c_out, l, ksize, .. } = sh;
        let cols = c_out.div_ceil(W) * W;
        for k in 0..ksize {
            let shift = sh.shift(k);
            let mut acc = [[0.0f32; W]; RR];
            for t in shift..l {
                let g: &[f32; W] = gt[t * cols + co0..][..W].try_into().expect("tile width");
                for (r, a) in acc.iter_mut().enumerate() {
                    let xv = xb[(ci0 + r) * l + t - shift];
                    for (o, &gv) in a.iter_mut().zip(g) {
                        *o += gv * xv;
                    }
                }
            }
            for (r, a) in acc.iter().enumerate() {
                let dst: &mut [f32; W] = (&mut dwt[((ci0 + r) * ksize + k) * cols + co0..][..W])
                    .try_into()
                    .expect("tile width");
                *dst = std::array::from_fn(|c| dst[c] + a[c]);
            }
        }
    }
}

/// Unrolls one batch element (`[C_in, L]`, row-major) into the causal column
/// matrix: `cols[(ci·K + k) · L + t] = x[ci, t - shift_k]` with zero padding
/// left of the sequence start (`shift_k = (K-1-k) · dilation`).
fn im2col(x: &[f32], cols: &mut [f32], c_in: usize, l: usize, ksize: usize, dilation: usize) {
    debug_assert_eq!(x.len(), c_in * l);
    debug_assert_eq!(cols.len(), c_in * ksize * l);
    let reach = (ksize - 1) * dilation;
    for ci in 0..c_in {
        let x_row = &x[ci * l..(ci + 1) * l];
        for k in 0..ksize {
            let shift = reach - k * dilation;
            let row = &mut cols[(ci * ksize + k) * l..(ci * ksize + k + 1) * l];
            row[..shift.min(l)].fill(0.0);
            if shift < l {
                row[shift..].copy_from_slice(&x_row[..l - shift]);
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatter-adds a `(C_in·K) × L` gradient back onto
/// the `[C_in, L]` input layout (padding columns are discarded).
fn col2im(dcols: &[f32], dx: &mut [f32], c_in: usize, l: usize, ksize: usize, dilation: usize) {
    debug_assert_eq!(dcols.len(), c_in * ksize * l);
    debug_assert_eq!(dx.len(), c_in * l);
    let reach = (ksize - 1) * dilation;
    for ci in 0..c_in {
        let dx_row = &mut dx[ci * l..(ci + 1) * l];
        for k in 0..ksize {
            let shift = reach - k * dilation;
            if shift >= l {
                continue;
            }
            let row = &dcols[(ci * ksize + k) * l + shift..(ci * ksize + k + 1) * l];
            for (d, &g) in dx_row[..l - shift].iter_mut().zip(row) {
                *d += g;
            }
        }
    }
}

/// Which kernels a conv of this shape runs on this thread.
#[derive(Clone, Copy, PartialEq)]
enum Route {
    Im2col,
    Small,
    Direct,
}

fn route(c_in: usize, c_out: usize, l: usize, ksize: usize) -> Route {
    if !crate::ops::matmul::fast_enabled() {
        Route::Direct
    } else if c_out * c_in * ksize * l < DIRECT_MAX_WORK {
        Route::Small
    } else {
        Route::Im2col
    }
}

/// `dbias[co] += Σ_t dout[bi, co, t]` for each batch element in order, as
/// the direct loop does.
fn add_bias_grad(dout: &[f32], dbias: &mut [f32], b: usize, c_out: usize, l: usize) {
    for bi in 0..b {
        for (co, db) in dbias.iter_mut().enumerate() {
            *db += dout[(bi * c_out + co) * l..][..l].iter().sum::<f32>();
        }
    }
}

/// Forward causal dilated conv1d. `out` must be zero-filled by the caller.
#[allow(clippy::too_many_arguments)]
pub fn conv1d_forward(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    b: usize,
    c_in: usize,
    c_out: usize,
    l: usize,
    ksize: usize,
    dilation: usize,
) {
    debug_assert_eq!(x.len(), b * c_in * l);
    debug_assert_eq!(w.len(), c_out * c_in * ksize);
    debug_assert_eq!(out.len(), b * c_out * l);
    match route(c_in, c_out, l, ksize) {
        Route::Direct => {
            direct::conv1d_forward(x, w, bias, out, b, c_in, c_out, l, ksize, dilation);
        }
        Route::Small => {
            let sh = small::Shape { b, c_in, c_out, l, ksize, dilation };
            small::forward(x, w, bias, out, sh);
        }
        Route::Im2col => {
            let ck = c_in * ksize;
            let mut cols = crate::pool::take_raw(ck * l);
            for bi in 0..b {
                im2col(&x[bi * c_in * l..(bi + 1) * c_in * l], &mut cols, c_in, l, ksize, dilation);
                let out_b = &mut out[bi * c_out * l..(bi + 1) * c_out * l];
                crate::ops::matmul::matmul_kernel(w, &cols, out_b, c_out, ck, l);
                if let Some(bias) = bias {
                    for (co, &bv) in bias.iter().enumerate() {
                        for o in out_b[co * l..(co + 1) * l].iter_mut() {
                            *o += bv;
                        }
                    }
                }
            }
            crate::pool::give(cols);
        }
    }
}

/// Backward pass of [`conv1d_forward`].
///
/// Accumulates into `dx`, `dw` and `dbias`; a `None` gradient is not
/// computed.
#[allow(clippy::too_many_arguments)]
pub fn conv1d_backward(
    x: &[f32],
    w: &[f32],
    dout: &[f32],
    dx: Option<&mut [f32]>,
    dw: Option<&mut [f32]>,
    dbias: Option<&mut [f32]>,
    b: usize,
    c_in: usize,
    c_out: usize,
    l: usize,
    ksize: usize,
    dilation: usize,
) {
    match route(c_in, c_out, l, ksize) {
        Route::Direct => {
            // The reference computes both gradients; a skipped one lands in
            // scratch.
            let (mut dx_tmp, mut dw_tmp) = (Vec::new(), Vec::new());
            let dx = dx.unwrap_or_else(|| {
                dx_tmp.resize(x.len(), 0.0);
                &mut dx_tmp
            });
            let dw = dw.unwrap_or_else(|| {
                dw_tmp.resize(w.len(), 0.0);
                &mut dw_tmp
            });
            direct::conv1d_backward(x, w, dout, dx, dw, dbias, b, c_in, c_out, l, ksize, dilation);
        }
        Route::Small => {
            if let Some(dbias) = dbias {
                add_bias_grad(dout, dbias, b, c_out, l);
            }
            let sh = small::Shape { b, c_in, c_out, l, ksize, dilation };
            if let Some(dw) = dw {
                small::backward_dw(x, dout, dw, sh);
            }
            if let Some(dx) = dx {
                small::backward_dx(w, dout, dx, sh);
            }
        }
        Route::Im2col => {
            if let Some(dbias) = dbias {
                add_bias_grad(dout, dbias, b, c_out, l);
            }
            let ck = c_in * ksize;
            let (mut dx, mut dw) = (dx, dw);
            let mut cols = crate::pool::take_raw(ck * l);
            let mut dcols = crate::pool::take_raw(ck * l);
            for bi in 0..b {
                let g_b = &dout[bi * c_out * l..(bi + 1) * c_out * l];
                if let Some(dw) = dw.as_deref_mut() {
                    im2col(
                        &x[bi * c_in * l..(bi + 1) * c_in * l],
                        &mut cols,
                        c_in,
                        l,
                        ksize,
                        dilation,
                    );
                    // dW += dOut · colsᵀ
                    crate::ops::matmul::matmul_a_bt(g_b, &cols, dw, c_out, l, ck);
                }
                if let Some(dx) = dx.as_deref_mut() {
                    // dCols = Wᵀ · dOut, then scatter back through the unroll.
                    dcols.fill(0.0);
                    crate::ops::matmul::matmul_at_b(w, g_b, &mut dcols, c_out, ck, l);
                    let dx_b = &mut dx[bi * c_in * l..(bi + 1) * c_in * l];
                    col2im(&dcols, dx_b, c_in, l, ksize, dilation);
                }
            }
            crate::pool::give(dcols);
            crate::pool::give(cols);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_passes_through() {
        // K=1, w=1: output == input.
        let x = [1., 2., 3., 4.];
        let w = [1.0];
        let mut out = [0.0; 4];
        conv1d_forward(&x, &w, None, &mut out, 1, 1, 1, 4, 1, 1);
        assert_eq!(out, x);
    }

    #[test]
    fn causal_shift() {
        // K=2, dilation=1, w=[1,0]: output[t] = x[t-1] (pure delay).
        let x = [1., 2., 3., 4.];
        let w = [1.0, 0.0];
        let mut out = [0.0; 4];
        conv1d_forward(&x, &w, None, &mut out, 1, 1, 1, 4, 2, 1);
        assert_eq!(out, [0., 1., 2., 3.]);
    }

    #[test]
    fn dilated_reach() {
        // K=2, dilation=2, w=[1,1]: out[t] = x[t] + x[t-2].
        let x = [1., 2., 3., 4., 5.];
        let w = [1.0, 1.0];
        let mut out = [0.0; 5];
        conv1d_forward(&x, &w, None, &mut out, 1, 1, 1, 5, 2, 2);
        assert_eq!(out, [1., 2., 4., 6., 8.]);
    }

    #[test]
    fn bias_added_per_channel() {
        let x = [1., 1.];
        let w = [1.0, 2.0]; // two output channels, K=1
        let bias = [10.0, 20.0];
        let mut out = [0.0; 4];
        conv1d_forward(&x, &w, Some(&bias), &mut out, 1, 1, 2, 2, 1, 1);
        assert_eq!(out, [11., 11., 22., 22.]);
    }

    #[test]
    fn backward_matches_finite_difference() {
        // Small numeric check of dx and dw.
        let b = 1;
        let (c_in, c_out, l, k, d) = (2, 2, 5, 2, 2);
        let x: Vec<f32> = (0..c_in * l).map(|i| (i as f32) * 0.1 - 0.4).collect();
        let w: Vec<f32> = (0..c_out * c_in * k).map(|i| 0.05 * (i as f32) - 0.1).collect();
        let loss = |x: &[f32], w: &[f32]| -> f32 {
            let mut out = vec![0.0; c_out * l];
            conv1d_forward(x, w, None, &mut out, b, c_in, c_out, l, k, d);
            out.iter().map(|v| v * v).sum::<f32>()
        };
        let mut out = vec![0.0; c_out * l];
        conv1d_forward(&x, &w, None, &mut out, b, c_in, c_out, l, k, d);
        let dout: Vec<f32> = out.iter().map(|v| 2.0 * v).collect();
        let mut dx = vec![0.0; x.len()];
        let mut dw = vec![0.0; w.len()];
        conv1d_backward(&x, &w, &dout, Some(&mut dx), Some(&mut dw), None, b, c_in, c_out, l, k, d);

        let eps = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!((num - dx[i]).abs() < 1e-2, "dx[{i}]: {num} vs {}", dx[i]);
        }
        for i in 0..w.len() {
            let mut wp = w.clone();
            wp[i] += eps;
            let mut wm = w.clone();
            wm[i] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!((num - dw[i]).abs() < 1e-2, "dw[{i}]: {num} vs {}", dw[i]);
        }
    }

    fn seq(n: usize, scale: f32, shift: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32).mul_add(scale, shift).sin()).collect()
    }

    /// Shapes big enough to take the im2col route must agree with the direct
    /// loops, forward and backward, within float tolerance.
    #[test]
    fn im2col_route_matches_direct_kernels() {
        for &(b, c_in, c_out, l, k, d) in
            &[(2, 8, 16, 48, 3, 1), (1, 16, 16, 64, 2, 4), (3, 4, 32, 96, 3, 2)]
        {
            assert!(c_out * c_in * k * l >= DIRECT_MAX_WORK, "shape must exercise the im2col path");
            let x = seq(b * c_in * l, 0.11, 0.2);
            let w = seq(c_out * c_in * k, 0.07, -0.3);
            let bias = seq(c_out, 0.41, 0.9);
            let mut fast = vec![0.0; b * c_out * l];
            let mut slow = vec![0.0; b * c_out * l];
            conv1d_forward(&x, &w, Some(&bias), &mut fast, b, c_in, c_out, l, k, d);
            direct::conv1d_forward(&x, &w, Some(&bias), &mut slow, b, c_in, c_out, l, k, d);
            for (i, (&f, &s)) in fast.iter().zip(&slow).enumerate() {
                assert!((f - s).abs() <= 1e-4 * s.abs().max(1.0), "fwd[{i}]: {f} vs {s}");
            }

            let dout = seq(b * c_out * l, 0.19, 0.5);
            let mut dxf = vec![0.0; x.len()];
            let mut dwf = vec![0.0; w.len()];
            let mut dbf = vec![0.0; c_out];
            conv1d_backward(
                &x,
                &w,
                &dout,
                Some(&mut dxf),
                Some(&mut dwf),
                Some(&mut dbf),
                b,
                c_in,
                c_out,
                l,
                k,
                d,
            );
            let mut dxs = vec![0.0; x.len()];
            let mut dws = vec![0.0; w.len()];
            let mut dbs = vec![0.0; c_out];
            direct::conv1d_backward(
                &x,
                &w,
                &dout,
                &mut dxs,
                &mut dws,
                Some(&mut dbs),
                b,
                c_in,
                c_out,
                l,
                k,
                d,
            );
            for (name, fast, slow) in
                [("dx", &dxf, &dxs), ("dw", &dwf, &dws), ("dbias", &dbf, &dbs)]
            {
                for (i, (&f, &s)) in fast.iter().zip(slow.iter()).enumerate() {
                    assert!((f - s).abs() <= 2e-4 * s.abs().max(1.0), "{name}[{i}]: {f} vs {s}");
                }
            }
        }
    }

    #[test]
    fn im2col_col2im_roundtrip_counts_taps() {
        // col2im(im2col(x)) multiplies each x[t] by the number of kernel taps
        // that can reach it without crossing the left edge.
        let (c_in, l, k, d) = (2, 6, 3, 2);
        let x = seq(c_in * l, 0.3, 0.1);
        let mut cols = vec![0.0; c_in * k * l];
        im2col(&x, &mut cols, c_in, l, k, d);
        let mut back = vec![0.0; c_in * l];
        col2im(&cols, &mut back, c_in, l, k, d);
        let reach = (k - 1) * d;
        for ci in 0..c_in {
            for t in 0..l {
                // taps with shift s = reach - kk*d need t + s <= l-1... the
                // roundtrip count is how many shifts s satisfy t < l - s.
                let count = (0..k).filter(|kk| t < l - (reach - kk * d).min(l)).count() as f32;
                let got = back[ci * l + t];
                let want = count * x[ci * l + t];
                assert!((got - want).abs() < 1e-5, "t={t}: {got} vs {want}");
            }
        }
    }
}
