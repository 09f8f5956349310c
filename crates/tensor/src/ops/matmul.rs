//! Matrix-multiply kernels (plain and batched) and their gradients.
//!
//! Three kernel signatures cover every product the tape needs:
//! - [`matmul_kernel`]: `out += a · b`
//! - [`matmul_at_b`]: `out += aᵀ · b` (no materialized transpose)
//! - [`matmul_a_bt`]: `out += a · bᵀ` (no materialized transpose)
//!
//! Each picks one of two kernel families from the shape alone (`m·k·n`
//! against [`FAST_MIN_WORK`]) and the CPU's SIMD tier ([`Simd`], detected
//! once: AVX-512, then AVX2, then portable code that LLVM auto-vectorizes).
//!
//! ## Small shapes: bit-identical register tiles
//! Below [`FAST_MIN_WORK`] the `small` kernels run. They hold a
//! `4 × W` output tile in registers for the whole reduction, `W` lanes
//! across the output columns, and keep the reference loops' per-element
//! arithmetic exactly: a separate multiply and add (no FMA), `p = 0..k` in
//! order, `a · bᵀ` summed into a fresh `0.0` and added to `out` once. Their
//! output is therefore bit-identical to [`naive`], which is what lets the
//! training hot path (thousands of tiny per-slice products) leave the
//! scalar loops without moving a single label bit. [`bmm_forward`] and
//! [`bmm_backward`] run a whole small batch in one call: a shared operand
//! is packed once and a broadcast right operand turns the batch into one
//! tall product.
//!
//! ## Large shapes: packed panels
//! From [`FAST_MIN_WORK`] up, the right operand is packed into `NR`-wide
//! column panels and the left operand into `MR`-tall row panels (both
//! zero-padded), and a `MR×NR` micro-kernel keeps its accumulator tile in
//! registers. The micro-kernel uses FMA where the CPU has it, so this path
//! is only tolerance-close to the reference loops. Packing makes every
//! inner-loop access contiguous regardless of which operand is logically
//! transposed, which is what lets all three signatures share the core.
//!
//! Above [`PAR_MIN_WORK`] the output is split into *fixed-height* row bands
//! farmed out via rayon. Band boundaries depend only on the shape — never on
//! the worker count — and each output element is still reduced sequentially
//! over `p = 0..k`, so results are byte-identical for any `RAYON_NUM_THREADS`
//! (the determinism contract the search stack relies on).
//!
//! ## Reference path
//! The original scalar triple loops are kept in [`naive`] (minus the
//! historical `a == 0.0` skip, which violated IEEE semantics by dropping
//! `0 × NaN` / `0 × inf` contributions). They are the differential-testing
//! and benchmark reference, and what [`set_fast_enabled`]`(false)` runs.
//!
//! All scratch (packed panels) comes from the thread-local
//! [`crate::pool`], so steady-state matmuls allocate nothing.

use rayon::prelude::*;
use std::cell::Cell;
use std::sync::OnceLock;

/// Micro-kernel tile height (rows of the left operand per register block).
const MR: usize = 6;
/// Micro-kernel tile width (columns of the right operand per register block).
/// `6 × 16` is the classic f32 tile for 256-bit SIMD: twelve 8-lane
/// accumulators plus two loaded B vectors fit the 16-register file.
const NR: usize = 16;

/// Below this `m·k·n` product the packed path is skipped: packing two panels
/// costs O(mk + kn) writes, which only pays for itself once the O(mkn) core
/// dominates.
const FAST_MIN_WORK: usize = 4096;

/// From this `m·k·n` product on the row-band rayon split engages. The
/// vendored rayon starts fresh threads per call, which only pays off for
/// large products: on a 2-vCPU AVX-512 VM two threads took 1.2–2× as long
/// as one at 128³–192³, tied at 256³ (`1 << 24`) and won by 7–19% from
/// `384·256·256` (this value) up.
const PAR_MIN_WORK: usize = 3 << 23;

/// Fixed row-band height for the parallel split. Chosen from the shape alone
/// so that band boundaries are identical for every worker count; each output
/// element's reduction depends only on its own row and column, so band (and
/// `MR`-panel) grouping never changes results.
const BAND_ROWS: usize = 32;

thread_local! {
    static FAST_ENABLED: Cell<bool> = const { Cell::new(true) };
    static SIMD_PIN: Cell<Option<Simd>> = const { Cell::new(None) };
}

/// Enables or disables the fast kernels on this thread (the naive
/// reference kernels run instead). Used by differential tests and the
/// before/after columns of `kernel_bench`.
pub fn set_fast_enabled(enabled: bool) {
    FAST_ENABLED.with(|f| f.set(enabled));
}

/// Whether the fast kernels are active on this thread.
pub fn fast_enabled() -> bool {
    FAST_ENABLED.with(Cell::get)
}

/// SIMD instruction-set tier of the fast kernels.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Simd {
    /// AVX-512F: 16 f32 lanes per register.
    Avx512,
    /// AVX2 and FMA: 8 lanes per register.
    Avx2,
    /// The baseline instruction set.
    Portable,
}

/// Every tier this CPU can run, widest first (the first is the one used).
#[doc(hidden)]
pub fn supported_simd() -> Vec<Simd> {
    let mut tiers = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            tiers.push(Simd::Avx512);
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            tiers.push(Simd::Avx2);
        }
    }
    tiers.push(Simd::Portable);
    tiers
}

/// Runs `f` with this thread's kernels pinned to `tier`: the entry point
/// through which the differential tests cover every tier the host supports.
///
/// # Panics
/// Panics if the CPU does not support `tier`.
#[doc(hidden)]
pub fn with_simd<R>(tier: Simd, f: impl FnOnce() -> R) -> R {
    assert!(supported_simd().contains(&tier), "this CPU cannot run {tier:?} kernels");
    struct Restore(Option<Simd>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SIMD_PIN.with(|p| p.set(self.0));
        }
    }
    let _restore = Restore(SIMD_PIN.with(|p| p.replace(Some(tier))));
    f()
}

/// A SIMD tier this CPU supports. Only [`Isa::current`] makes one, which is
/// what makes the feature-enabled calls in [`Isa::run`] sound.
#[derive(Clone, Copy)]
pub(crate) struct Isa(Simd);

impl Isa {
    /// This thread's tier: the pinned one (see [`with_simd`]), else the
    /// widest the CPU supports.
    pub(crate) fn current() -> Isa {
        static DETECTED: OnceLock<Simd> = OnceLock::new();
        let pinned = SIMD_PIN.with(Cell::get);
        Isa(pinned.unwrap_or_else(|| *DETECTED.get_or_init(|| supported_simd()[0])))
    }

    /// Runs `kernel` compiled for this tier's instruction set.
    #[inline(always)]
    pub(crate) fn run(self, kernel: impl Kernel) {
        match self.0 {
            // SAFETY: an `Isa` only holds a tier from `supported_simd`.
            #[cfg(target_arch = "x86_64")]
            Simd::Avx512 => unsafe { x86::on_avx512(kernel) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            Simd::Avx2 => unsafe { x86::on_avx2(kernel) },
            _ => kernel.run(8),
        }
    }
}

/// A kernel body [`Isa::run`] compiles once per SIMD tier.
pub(crate) trait Kernel {
    /// Runs the body with `lanes`-wide registers. Implementations must be
    /// `#[inline(always)]` all the way down: only code inlined into the
    /// feature-enabled caller gets the tier's instruction set.
    fn run(self, lanes: usize);
}

/// Reference scalar kernels: the original triple loops, IEEE-faithful
/// (every `a[i,p] * b[p,j]` product is formed, including `0 × NaN`). They
/// only run as the test/bench reference and under
/// [`set_fast_enabled`]`(false)`; the `small` kernels reproduce them bit for bit.
pub mod naive {
    /// `out[m,n] += a[m,k] * b[k,n]` over contiguous row-major slices.
    pub fn matmul_kernel(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        // ikj loop order: streams through b and out rows contiguously.
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &a_ip) in a_row.iter().enumerate() {
                let b_row = &b[p * n..(p + 1) * n];
                for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                    *o += a_ip * b_pj;
                }
            }
        }
    }

    /// `out[m,n] += a[k,m]ᵀ * b[k,n]` without materializing the transpose.
    pub fn matmul_at_b(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
        debug_assert_eq!(a.len(), k * m);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        for p in 0..k {
            let a_row = &a[p * m..(p + 1) * m];
            let b_row = &b[p * n..(p + 1) * n];
            for (i, &a_pi) in a_row.iter().enumerate() {
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                    *o += a_pi * b_pj;
                }
            }
        }
    }

    /// `out[m,k] += a[m,n] * b[k,n]ᵀ` without materializing the transpose.
    pub fn matmul_a_bt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, n: usize, k: usize) {
        debug_assert_eq!(a.len(), m * n);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * k);
        for i in 0..m {
            let a_row = &a[i * n..(i + 1) * n];
            let out_row = &mut out[i * k..(i + 1) * k];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &b[j * n..(j + 1) * n];
                let mut acc = 0.0f32;
                for (&x, &y) in a_row.iter().zip(b_row) {
                    acc += x * y;
                }
                *o += acc;
            }
        }
    }
}

/// Small-shape kernels, bit-identical to [`naive`].
///
/// Each output tile of `ROWS × W` elements lives in registers for the whole
/// reduction, `W` lanes across output columns: `a · b` strips narrow from
/// 16 down to 1 lane over ragged widths, while `a · bᵀ` pads the operand it
/// packs anyway. Every element sees exactly the reference arithmetic: `a · b` and `aᵀ · b` start from `out` and add
/// `a[i,p] * b[p,j]` for `p = 0..k` in order; `a · bᵀ` sums the products
/// into a fresh `0.0` and adds that to `out` once. Multiplies and adds stay
/// separate (Rust never contracts them into FMA), so each step rounds like
/// the scalar loop.
mod small {
    use super::{Isa, Kernel};

    /// Output rows per register tile.
    const ROWS: usize = 4;

    /// Where slice `s` of each batched operand starts: `s * stride`. A
    /// stride of 0 shares the operand across slices; for `out` that means
    /// every slice accumulates into it, in slice order.
    #[derive(Clone, Copy)]
    pub(super) struct Strides {
        pub a: usize,
        pub b: usize,
        pub out: usize,
    }

    /// One `RR × W` tile at `(i0, j0)` of the `m × n` output, `jw <= W` of
    /// its columns valid. `b` holds `k` rows of `ldb >= j0 + W` elements.
    /// `COLS` reads `a` as a `k × m` matrix (the `aᵀ · b` form); `FRESH`
    /// sums into zero and adds the sum to `out` (the `a · bᵀ` form, `b`
    /// already transposed).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn tile<const RR: usize, const W: usize, const COLS: bool, const FRESH: bool>(
        a: &[f32],
        b: &[f32],
        ldb: usize,
        out: &mut [f32],
        (m, k, n): (usize, usize, usize),
        i0: usize,
        j0: usize,
        jw: usize,
    ) {
        let mut acc = [[0.0f32; W]; RR];
        if !FRESH {
            for (r, row) in acc.iter_mut().enumerate() {
                row.copy_from_slice(&out[(i0 + r) * n + j0..][..W]);
            }
        }
        for p in 0..k {
            let bv: &[f32; W] = b[p * ldb + j0..][..W].try_into().expect("tile width");
            for (r, row) in acc.iter_mut().enumerate() {
                let av = if COLS { a[p * m + i0 + r] } else { a[(i0 + r) * k + p] };
                for (o, &bj) in row.iter_mut().zip(bv) {
                    *o += av * bj;
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            let dst = &mut out[(i0 + r) * n + j0..][..jw];
            if !FRESH {
                dst.copy_from_slice(row);
            } else if jw == W {
                for (o, &v) in dst.iter_mut().zip(row) {
                    *o += v;
                }
            } else {
                for (t, &v) in row.iter().enumerate() {
                    if let Some(o) = dst.get_mut(t) {
                        *o += v;
                    }
                }
            }
        }
    }

    /// Every row of the column strip at `j0`; returns `jw`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn strip<const W: usize, const COLS: bool, const FRESH: bool>(
        a: &[f32],
        b: &[f32],
        ldb: usize,
        out: &mut [f32],
        mkn: (usize, usize, usize),
        j0: usize,
        jw: usize,
    ) -> usize {
        let m = mkn.0;
        let mut i0 = 0;
        while i0 + ROWS <= m {
            tile::<ROWS, W, COLS, FRESH>(a, b, ldb, out, mkn, i0, j0, jw);
            i0 += ROWS;
        }
        while i0 < m {
            tile::<1, W, COLS, FRESH>(a, b, ldb, out, mkn, i0, j0, jw);
            i0 += 1;
        }
        jw
    }

    /// `out[m,n] += lhs · b[k,n]` for one slice, in full column strips as
    /// wide as the tier's registers allow (`lanes`), halving for the
    /// remainder.
    #[inline(always)]
    fn gemm<const COLS: bool>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        mkn: (usize, usize, usize),
        lanes: usize,
    ) {
        let n = mkn.2;
        let mut j0 = 0;
        while j0 < n {
            j0 += match n - j0 {
                rem if rem >= 16 && lanes >= 16 => {
                    strip::<16, COLS, false>(a, b, n, out, mkn, j0, 16)
                }
                rem if rem >= 8 => strip::<8, COLS, false>(a, b, n, out, mkn, j0, 8),
                rem if rem >= 4 => strip::<4, COLS, false>(a, b, n, out, mkn, j0, 4),
                rem if rem >= 2 => strip::<2, COLS, false>(a, b, n, out, mkn, j0, 2),
                _ => strip::<1, COLS, false>(a, b, n, out, mkn, j0, 1),
            };
        }
    }

    /// Width of the `a · bᵀ` strips for `n` output columns: the packed `bᵀ`
    /// rows are padded to a multiple of it, so every strip loads full
    /// registers and only the last one stores fewer lanes.
    fn fresh_width(n: usize, lanes: usize) -> usize {
        if n > 8 && lanes >= 16 {
            16
        } else if n > 4 {
            8
        } else {
            4
        }
    }

    /// `out[m,n] += (0 + Σ_p a[m,k] · b[k,ldb])` for one slice, `b` padded to
    /// `ldb = n` rounded up to a multiple of `W`.
    #[inline(always)]
    fn gemm_fresh<const W: usize>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        mkn: (usize, usize, usize),
    ) {
        let (n, ldb) = (mkn.2, mkn.2.div_ceil(W) * W);
        for j0 in (0..n).step_by(W) {
            strip::<W, false, true>(a, b, ldb, out, mkn, j0, W.min(n - j0));
        }
    }

    /// `batch` slices of `out_s += a_s · b_s` (`a_s` is `m × k`, or `k × m`
    /// read transposed when `cols`; `b_s` is `k × n`).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn ab(
        cols: bool,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        st: Strides,
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        Isa::current().run(Ab { cols, a, b, out, st, batch, mkn: (m, k, n) });
    }

    struct Ab<'a> {
        cols: bool,
        a: &'a [f32],
        b: &'a [f32],
        out: &'a mut [f32],
        st: Strides,
        batch: usize,
        mkn: (usize, usize, usize),
    }

    impl Kernel for Ab<'_> {
        #[inline(always)]
        fn run(self, lanes: usize) {
            let Ab { cols, a, b, out, st, batch, mkn } = self;
            for s in 0..batch {
                let (a, b, o) = (&a[s * st.a..], &b[s * st.b..], &mut out[s * st.out..]);
                if cols {
                    gemm::<true>(a, b, o, mkn, lanes);
                } else {
                    gemm::<false>(a, b, o, mkn, lanes);
                }
            }
        }
    }

    /// `batch` slices of `out_s[m,k] += a_s[m,n] · b_s[k,n]ᵀ`. Each `b_s` is
    /// transposed into pooled scratch first (once when shared), so the tile
    /// reads it row by row like the `a · b` form.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn a_bt(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        st: Strides,
        batch: usize,
        m: usize,
        n: usize,
        k: usize,
    ) {
        Isa::current().run(ABt { a, b, out, st, batch, mnk: (m, n, k) });
    }

    struct ABt<'a> {
        a: &'a [f32],
        b: &'a [f32],
        out: &'a mut [f32],
        st: Strides,
        batch: usize,
        mnk: (usize, usize, usize),
    }

    impl Kernel for ABt<'_> {
        #[inline(always)]
        fn run(self, lanes: usize) {
            match fresh_width(self.mnk.2, lanes) {
                4 => self.run_w::<4>(),
                8 => self.run_w::<8>(),
                _ => self.run_w::<16>(),
            }
        }
    }

    impl ABt<'_> {
        #[inline(always)]
        fn run_w<const W: usize>(self) {
            let ABt { a, b, out, st, batch, mnk: (m, n, k) } = self;
            let ldb = k.div_ceil(W) * W;
            let mut bt = crate::pool::take_raw(n * ldb);
            for s in 0..batch {
                if s == 0 || st.b != 0 {
                    // bt[p, j] = b_s[j, p], zero in the padding columns
                    // (which only reach lanes that are never stored).
                    let bs = &b[s * st.b..][..k * n];
                    for (p, row) in bt.chunks_exact_mut(ldb.max(1)).enumerate() {
                        for (j, d) in row.iter_mut().enumerate() {
                            *d = if j < k { bs[j * n + p] } else { 0.0 };
                        }
                    }
                }
                gemm_fresh::<W>(&a[s * st.a..], &bt, &mut out[s * st.out..], (m, n, k));
            }
            crate::pool::give(bt);
        }
    }
}

/// How the left operand's element `(i, p)` is laid out in memory.
#[derive(Clone, Copy)]
enum Lhs<'a> {
    /// Row-major `m × k`: element `(i, p)` at `data[i * k + p]`.
    Rows(&'a [f32]),
    /// Row-major `k × m`, read transposed: element `(i, p)` at `data[p * m + i]`.
    Cols(&'a [f32]),
}

/// Packs rows `i0 .. i0 + iw` (`iw <= MR`) of the left operand into an
/// `MR`-tall panel: `panel[p * MR + ir] = lhs(i0 + ir, p)`, zero-padded rows.
fn pack_lhs_panel(lhs: Lhs<'_>, m: usize, k: usize, i0: usize, iw: usize, panel: &mut [f32]) {
    debug_assert!(panel.len() >= k * MR);
    match lhs {
        Lhs::Rows(a) => {
            for ir in 0..MR {
                if ir < iw {
                    let row = &a[(i0 + ir) * k..(i0 + ir + 1) * k];
                    for (p, &v) in row.iter().enumerate() {
                        panel[p * MR + ir] = v;
                    }
                } else {
                    for p in 0..k {
                        panel[p * MR + ir] = 0.0;
                    }
                }
            }
        }
        Lhs::Cols(a) => {
            for p in 0..k {
                let src = &a[p * m + i0..p * m + i0 + iw];
                let dst = &mut panel[p * MR..p * MR + MR];
                dst[..iw].copy_from_slice(src);
                dst[iw..].fill(0.0);
            }
        }
    }
}

/// Packs the whole right operand (`k × n`, row-major) into `NR`-wide column
/// panels: `packed[panel * k * NR + p * NR + jr] = b[p, panel * NR + jr]`.
fn pack_rhs_rows(b: &[f32], k: usize, n: usize, packed: &mut [f32]) {
    let npanels = n.div_ceil(NR);
    for jp in 0..npanels {
        let j0 = jp * NR;
        let jw = NR.min(n - j0);
        let dst_panel = &mut packed[jp * k * NR..(jp + 1) * k * NR];
        for p in 0..k {
            let src = &b[p * n + j0..p * n + j0 + jw];
            let dst = &mut dst_panel[p * NR..p * NR + NR];
            dst[..jw].copy_from_slice(src);
            dst[jw..].fill(0.0);
        }
    }
}

/// Packs the right operand transposed: logical `(p, j)` read from a row-major
/// `n_out × k` matrix at `b[j * k + p]` (the `a · bᵀ` case, where the
/// reduction runs along `b`'s rows).
fn pack_rhs_cols(b: &[f32], k: usize, n: usize, packed: &mut [f32]) {
    let npanels = n.div_ceil(NR);
    for jp in 0..npanels {
        let j0 = jp * NR;
        let jw = NR.min(n - j0);
        let dst_panel = &mut packed[jp * k * NR..(jp + 1) * k * NR];
        for jr in 0..NR {
            if jr < jw {
                let src = &b[(j0 + jr) * k..(j0 + jr + 1) * k];
                for (p, &v) in src.iter().enumerate() {
                    dst_panel[p * NR + jr] = v;
                }
            } else {
                for p in 0..k {
                    dst_panel[p * NR + jr] = 0.0;
                }
            }
        }
    }
}

/// Portable register-blocked core:
/// `acc[ir, jr] += Σ_p apanel[p, ir] * bpanel[p, jr]`.
///
/// `MR`/`NR` are constants, so the two inner loops unroll completely and the
/// `NR`-wide axis auto-vectorizes; the `MR × NR` accumulator tile stays in
/// registers for the whole `p` sweep.
#[inline(always)]
fn microkernel_portable(apanel: &[f32], bpanel: &[f32], kc: usize, acc: &mut [f32; MR * NR]) {
    for p in 0..kc {
        let arow: &[f32; MR] = apanel[p * MR..p * MR + MR].try_into().expect("panel layout");
        let brow: &[f32; NR] = bpanel[p * NR..p * NR + NR].try_into().expect("panel layout");
        for ir in 0..MR {
            let a = arow[ir];
            for jr in 0..NR {
                acc[ir * NR + jr] += a * brow[jr];
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{MR, NR};
    use std::arch::x86_64::*;

    /// Runs `kernel` on 16 lanes with AVX-512F code generation.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn on_avx512(kernel: impl super::Kernel) {
        kernel.run(16);
    }

    /// Runs `kernel` on 8 lanes with AVX2 code generation.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn on_avx2(kernel: impl super::Kernel) {
        kernel.run(8);
    }

    /// AVX2+FMA micro-kernel: the `6 × 16` tile lives in twelve YMM
    /// accumulators (two 8-lane vectors per row). Each accumulator is a
    /// single FMA chain sweeping `p = 0..kc` in order — the same
    /// per-element reduction order as the portable kernel and the band
    /// split, so determinism across worker counts is preserved (only the
    /// rounding of each step differs, because FMA does not round the
    /// intermediate product).
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA (checked by the caller).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn microkernel_avx2(
        apanel: &[f32],
        bpanel: &[f32],
        kc: usize,
        acc: &mut [f32; MR * NR],
    ) {
        debug_assert!(apanel.len() >= kc * MR);
        debug_assert!(bpanel.len() >= kc * NR);
        let mut c = [[_mm256_setzero_ps(); 2]; MR];
        for (r, row) in c.iter_mut().enumerate() {
            row[0] = _mm256_loadu_ps(acc.as_ptr().add(r * NR));
            row[1] = _mm256_loadu_ps(acc.as_ptr().add(r * NR + 8));
        }
        let mut ap = apanel.as_ptr();
        let mut bp = bpanel.as_ptr();
        // k-unroll by 2 to thin loop overhead; both steps stay in p order,
        // so each accumulator remains one sequential FMA chain.
        for _ in 0..kc / 2 {
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            for (r, row) in c.iter_mut().enumerate() {
                let a = _mm256_set1_ps(*ap.add(r));
                row[0] = _mm256_fmadd_ps(a, b0, row[0]);
                row[1] = _mm256_fmadd_ps(a, b1, row[1]);
            }
            let b0 = _mm256_loadu_ps(bp.add(NR));
            let b1 = _mm256_loadu_ps(bp.add(NR + 8));
            for (r, row) in c.iter_mut().enumerate() {
                let a = _mm256_set1_ps(*ap.add(MR + r));
                row[0] = _mm256_fmadd_ps(a, b0, row[0]);
                row[1] = _mm256_fmadd_ps(a, b1, row[1]);
            }
            ap = ap.add(2 * MR);
            bp = bp.add(2 * NR);
        }
        if kc % 2 == 1 {
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            for (r, row) in c.iter_mut().enumerate() {
                let a = _mm256_set1_ps(*ap.add(r));
                row[0] = _mm256_fmadd_ps(a, b0, row[0]);
                row[1] = _mm256_fmadd_ps(a, b1, row[1]);
            }
        }
        for (r, row) in c.iter().enumerate() {
            _mm256_storeu_ps(acc.as_mut_ptr().add(r * NR), row[0]);
            _mm256_storeu_ps(acc.as_mut_ptr().add(r * NR + 8), row[1]);
        }
    }

    /// AVX-512 micro-kernel over the same `6 × 16` panel layout: each tile
    /// row is exactly one 16-lane ZMM accumulator, so one B load and six
    /// broadcast-FMAs cover a whole `p` step — half the uops per flop of the
    /// AVX2 version. Reduction order per element is unchanged (one
    /// sequential FMA chain per accumulator).
    ///
    /// # Safety
    /// The CPU must support AVX-512F (checked by the caller).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn microkernel_avx512(
        apanel: &[f32],
        bpanel: &[f32],
        kc: usize,
        acc: &mut [f32; MR * NR],
    ) {
        debug_assert!(apanel.len() >= kc * MR);
        debug_assert!(bpanel.len() >= kc * NR);
        let mut c = [_mm512_setzero_ps(); MR];
        for (r, row) in c.iter_mut().enumerate() {
            *row = _mm512_loadu_ps(acc.as_ptr().add(r * NR));
        }
        let mut ap = apanel.as_ptr();
        let mut bp = bpanel.as_ptr();
        for _ in 0..kc / 2 {
            let b0 = _mm512_loadu_ps(bp);
            for (r, row) in c.iter_mut().enumerate() {
                *row = _mm512_fmadd_ps(_mm512_set1_ps(*ap.add(r)), b0, *row);
            }
            let b1 = _mm512_loadu_ps(bp.add(NR));
            for (r, row) in c.iter_mut().enumerate() {
                *row = _mm512_fmadd_ps(_mm512_set1_ps(*ap.add(MR + r)), b1, *row);
            }
            ap = ap.add(2 * MR);
            bp = bp.add(2 * NR);
        }
        if kc % 2 == 1 {
            let b0 = _mm512_loadu_ps(bp);
            for (r, row) in c.iter_mut().enumerate() {
                *row = _mm512_fmadd_ps(_mm512_set1_ps(*ap.add(r)), b0, *row);
            }
        }
        for (r, row) in c.iter().enumerate() {
            _mm512_storeu_ps(acc.as_mut_ptr().add(r * NR), *row);
        }
    }
}

/// Runs the micro-kernel of `isa`'s tier: the AVX-512 or AVX2+FMA
/// intrinsics, else the portable unrolled core.
#[inline(always)]
fn microkernel(isa: Isa, apanel: &[f32], bpanel: &[f32], kc: usize, acc: &mut [f32; MR * NR]) {
    match isa.0 {
        // SAFETY: an `Isa` only holds a tier from `supported_simd`.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx512 => unsafe { x86::microkernel_avx512(apanel, bpanel, kc, acc) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => unsafe { x86::microkernel_avx2(apanel, bpanel, kc, acc) },
        _ => microkernel_portable(apanel, bpanel, kc, acc),
    }
}

/// Multiplies rows `rows.start .. rows.end` of the (logical) left operand
/// against the pre-packed right operand, accumulating into `out_rows` (the
/// matching band of the output, `(rows.end - rows.start) × n`).
#[allow(clippy::too_many_arguments)]
fn gemm_rows(
    isa: Isa,
    lhs: Lhs<'_>,
    m: usize,
    k: usize,
    n: usize,
    bpack: &[f32],
    rows: std::ops::Range<usize>,
    out_rows: &mut [f32],
) {
    let npanels = n.div_ceil(NR);
    let mut apanel = crate::pool::take_raw(k * MR);
    let mut i0 = rows.start;
    while i0 < rows.end {
        let iw = MR.min(rows.end - i0);
        pack_lhs_panel(lhs, m, k, i0, iw, &mut apanel);
        for jp in 0..npanels {
            let j0 = jp * NR;
            let jw = NR.min(n - j0);
            let mut acc = [0.0f32; MR * NR];
            microkernel(isa, &apanel, &bpack[jp * k * NR..(jp + 1) * k * NR], k, &mut acc);
            for ir in 0..iw {
                let orow = &mut out_rows[(i0 - rows.start + ir) * n + j0..][..jw];
                for (o, &v) in orow.iter_mut().zip(&acc[ir * NR..ir * NR + jw]) {
                    *o += v;
                }
            }
        }
        i0 += iw;
    }
    crate::pool::give(apanel);
}

/// Shared fast-path driver: packs the right operand once, then runs
/// [`gemm_rows`] either sequentially or over fixed row bands in parallel.
/// The tier is resolved here, on the calling thread, so every band runs the
/// same micro-kernel.
fn gemm_packed(lhs: Lhs<'_>, m: usize, k: usize, n: usize, bpack: &[f32], out: &mut [f32]) {
    let isa = Isa::current();
    let work = m * k * n;
    if work >= PAR_MIN_WORK && rayon::current_num_threads() > 1 && m > BAND_ROWS {
        // Fixed-height bands: boundaries derive from the shape alone, so the
        // grouping of partial sums is identical for every worker count.
        let bands: Vec<(usize, &mut [f32])> = out.chunks_mut(BAND_ROWS * n).enumerate().collect();
        bands.into_par_iter().for_each(|(bi, band)| {
            let r0 = bi * BAND_ROWS;
            let r1 = (r0 + BAND_ROWS).min(m);
            gemm_rows(isa, lhs, m, k, n, bpack, r0..r1, band);
        });
    } else {
        gemm_rows(isa, lhs, m, k, n, bpack, 0..m, out);
    }
}

/// Which kernel family a product of this shape runs on this thread.
#[derive(Clone, Copy, PartialEq)]
enum Route {
    Packed,
    Small,
    Naive,
}

/// `m·k·n` against [`FAST_MIN_WORK`] (with `k` the reduction length) and
/// the [`set_fast_enabled`] switch pick the family.
fn route(m: usize, k: usize, n: usize) -> Route {
    if !fast_enabled() {
        Route::Naive
    } else if m * k * n >= FAST_MIN_WORK && k > 0 {
        Route::Packed
    } else {
        Route::Small
    }
}

/// One slice: all offsets are 0.
const ONE: small::Strides = small::Strides { a: 0, b: 0, out: 0 };

/// `out[m,n] += a[m,k] * b[k,n]` over contiguous row-major slices.
///
/// `out` must be zero-initialized by the caller if a pure product is wanted.
pub fn matmul_kernel(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    match route(m, k, n) {
        Route::Naive => naive::matmul_kernel(a, b, out, m, k, n),
        Route::Small => small::ab(false, a, b, out, ONE, 1, m, k, n),
        Route::Packed => {
            let mut bpack = crate::pool::take_raw(n.div_ceil(NR) * k * NR);
            pack_rhs_rows(b, k, n, &mut bpack);
            gemm_packed(Lhs::Rows(a), m, k, n, &bpack, out);
            crate::pool::give(bpack);
        }
    }
}

/// `out[m,n] += a[k,m]^T * b[k,n]` (i.e. `aᵀ·b`) without materializing the transpose.
pub fn matmul_at_b(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    match route(m, k, n) {
        Route::Naive => naive::matmul_at_b(a, b, out, k, m, n),
        Route::Small => small::ab(true, a, b, out, ONE, 1, m, k, n),
        Route::Packed => {
            let mut bpack = crate::pool::take_raw(n.div_ceil(NR) * k * NR);
            pack_rhs_rows(b, k, n, &mut bpack);
            gemm_packed(Lhs::Cols(a), m, k, n, &bpack, out);
            crate::pool::give(bpack);
        }
    }
}

/// `out[m,k] += a[m,n] * b[k,n]^T` (i.e. `a·bᵀ`) without materializing the transpose.
pub fn matmul_a_bt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, n: usize, k: usize) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * k);
    // Here the reduction length is `n` and the output is `m × k`.
    match route(m, n, k) {
        Route::Naive => naive::matmul_a_bt(a, b, out, m, n, k),
        Route::Small => small::a_bt(a, b, out, ONE, 1, m, n, k),
        Route::Packed => {
            let mut bpack = crate::pool::take_raw(k.div_ceil(NR) * n * NR);
            pack_rhs_cols(b, n, k, &mut bpack);
            gemm_packed(Lhs::Rows(a), m, n, k, &bpack, out);
            crate::pool::give(bpack);
        }
    }
}

/// Describes how the batch dimensions of the two matmul operands relate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchKind {
    /// Both operands carry the same batch dimensions (possibly none).
    Matched,
    /// The left operand is a plain matrix shared across the right's batches.
    BroadcastLhs,
    /// The right operand is a plain matrix shared across the left's batches.
    BroadcastRhs,
}

/// Resolves batch semantics for shapes `[b.., m, k] × [b.., k, n]`.
///
/// Returns `(kind, batch, m, k, n)`.
///
/// # Panics
/// Panics on rank < 2, inner-dimension mismatch or incompatible batch dims.
pub fn resolve_batch(lhs: &[usize], rhs: &[usize]) -> (BatchKind, usize, usize, usize, usize) {
    assert!(lhs.len() >= 2 && rhs.len() >= 2, "matmul needs rank >= 2: {lhs:?} x {rhs:?}");
    let (lb, m, k1) = crate::shape::split_matrix(lhs).unwrap();
    let (rb, k2, n) = crate::shape::split_matrix(rhs).unwrap();
    assert_eq!(k1, k2, "matmul inner dims {lhs:?} x {rhs:?}");
    if lhs.len() == 2 && rhs.len() > 2 {
        (BatchKind::BroadcastLhs, rb, m, k1, n)
    } else if rhs.len() == 2 && lhs.len() > 2 {
        (BatchKind::BroadcastRhs, lb, m, k1, n)
    } else {
        assert_eq!(
            &lhs[..lhs.len() - 2],
            &rhs[..rhs.len() - 2],
            "matmul batch dims {lhs:?} x {rhs:?}"
        );
        (BatchKind::Matched, lb, m, k1, n)
    }
}

/// Per-slice offsets of `a` (`m × k`), `b` (`k × n`) and the `m × n`
/// output for `kind`: a broadcast operand stays at offset 0.
fn slice_strides(kind: BatchKind, m: usize, k: usize, n: usize) -> (usize, usize, usize) {
    match kind {
        BatchKind::Matched => (m * k, k * n, m * n),
        BatchKind::BroadcastLhs => (0, k * n, m * n),
        BatchKind::BroadcastRhs => (m * k, 0, m * n),
    }
}

/// Batched forward matmul following [`resolve_batch`] semantics.
///
/// The kernel family is chosen per slice shape (as for [`matmul_kernel`]);
/// a small shape runs the whole batch in one call, and a broadcast right
/// operand turns it into one `(batch·m) × k · k × n` product.
#[allow(clippy::too_many_arguments)]
pub fn bmm_forward(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    kind: BatchKind,
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let (sa, sb, so) = slice_strides(kind, m, k, n);
    if route(m, k, n) == Route::Small {
        if kind == BatchKind::BroadcastRhs {
            small::ab(false, a, b, out, ONE, 1, batch * m, k, n);
        } else {
            let st = small::Strides { a: sa, b: sb, out: so };
            small::ab(false, a, b, out, st, batch, m, k, n);
        }
        return;
    }
    for bi in 0..batch {
        matmul_kernel(
            &a[bi * sa..bi * sa + m * k],
            &b[bi * sb..bi * sb + k * n],
            &mut out[bi * so..(bi + 1) * so],
            m,
            k,
            n,
        );
    }
}

/// Gradients of the batched matmul.
///
/// `da` and `db` are accumulated into (callers pass zero-filled buffers when a
/// fresh gradient is desired); broadcast operands accumulate over batches,
/// in batch order. A `None` gradient is not computed.
///
/// Small shapes run one call per gradient, like [`bmm_forward`]. With a
/// broadcast right operand, `dB = Σ_s A_sᵀ · dOut_s` becomes one `aᵀ·b`
/// over `k = batch·m`: its per-element add order is exactly the per-slice
/// loop's.
#[allow(clippy::too_many_arguments)]
pub fn bmm_backward(
    a: &[f32],
    b: &[f32],
    dout: &[f32],
    da: Option<&mut [f32]>,
    db: Option<&mut [f32]>,
    kind: BatchKind,
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let (sa, sb, so) = slice_strides(kind, m, k, n);
    if route(m, k, n) == Route::Small {
        let rhs = kind == BatchKind::BroadcastRhs;
        if let Some(da) = da {
            // dA = dOut · Bᵀ
            if rhs {
                small::a_bt(dout, b, da, ONE, 1, batch * m, n, k);
            } else {
                let st = small::Strides { a: so, b: sb, out: sa };
                small::a_bt(dout, b, da, st, batch, m, n, k);
            }
        }
        if let Some(db) = db {
            // dB = Aᵀ · dOut
            if rhs {
                small::ab(true, a, dout, db, ONE, 1, k, batch * m, n);
            } else {
                let st = small::Strides { a: sa, b: so, out: sb };
                small::ab(true, a, dout, db, st, batch, k, m, n);
            }
        }
        return;
    }
    let (mut da, mut db) = (da, db);
    for bi in 0..batch {
        let g = &dout[bi * so..(bi + 1) * so];
        let (a_s, b_s) = (&a[bi * sa..bi * sa + m * k], &b[bi * sb..bi * sb + k * n]);
        if let Some(da) = da.as_deref_mut() {
            // dA = dOut · Bᵀ
            matmul_a_bt(g, b_s, &mut da[bi * sa..bi * sa + m * k], m, n, k);
        }
        if let Some(db) = db.as_deref_mut() {
            // dB = Aᵀ · dOut
            matmul_at_b(a_s, g, &mut db[bi * sb..bi * sb + k * n], m, k, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_matches_naive() {
        let a = [1., 2., 3., 4., 5., 6.]; // 2x3
        let b = [7., 8., 9., 10., 11., 12.]; // 3x2
        let mut out = [0.0; 4];
        matmul_kernel(&a, &b, &mut out, 2, 3, 2);
        assert_eq!(out, [58., 64., 139., 154.]);
    }

    #[test]
    fn at_b_equals_transpose_then_mul() {
        // a: 3x2, compute aᵀ·b where b: 3x2 -> 2x2
        let a = [1., 2., 3., 4., 5., 6.];
        let b = [1., 0., 0., 1., 1., 1.];
        let mut out = [0.0; 4];
        matmul_at_b(&a, &b, &mut out, 3, 2, 2);
        // aᵀ = [[1,3,5],[2,4,6]]; aᵀ·b = [[1+5, 3+5],[2+6, 4+6]]
        assert_eq!(out, [6., 8., 8., 10.]);
    }

    #[test]
    fn a_bt_equals_mul_transpose() {
        // a: 2x3, b: 2x3, a·bᵀ -> 2x2
        let a = [1., 2., 3., 4., 5., 6.];
        let b = [1., 1., 1., 0., 1., 0.];
        let mut out = [0.0; 4];
        matmul_a_bt(&a, &b, &mut out, 2, 3, 2);
        assert_eq!(out, [6., 2., 15., 5.]);
    }

    #[test]
    fn resolve_batch_kinds() {
        assert_eq!(resolve_batch(&[3, 4], &[4, 5]), (BatchKind::Matched, 1, 3, 4, 5));
        assert_eq!(resolve_batch(&[2, 3, 4], &[2, 4, 5]), (BatchKind::Matched, 2, 3, 4, 5));
        assert_eq!(resolve_batch(&[3, 4], &[2, 4, 5]), (BatchKind::BroadcastLhs, 2, 3, 4, 5));
        assert_eq!(resolve_batch(&[2, 3, 4], &[4, 5]), (BatchKind::BroadcastRhs, 2, 3, 4, 5));
    }

    #[test]
    #[should_panic]
    fn resolve_batch_rejects_mismatch() {
        resolve_batch(&[2, 3, 4], &[3, 4, 5]);
    }

    fn seq(n: usize, scale: f32, shift: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32).mul_add(scale, shift).sin()).collect()
    }

    fn assert_close(fast: &[f32], reference: &[f32], what: &str) {
        assert_eq!(fast.len(), reference.len());
        for (i, (&f, &r)) in fast.iter().zip(reference).enumerate() {
            let tol = 1e-4 * r.abs().max(1.0);
            assert!((f - r).abs() <= tol, "{what}[{i}]: fast {f} vs naive {r}");
        }
    }

    /// The packed path (forced past the small-shape fallback) must agree with
    /// the reference loops on all three kernel variants, including ragged
    /// shapes that exercise partial MR/NR tiles.
    #[test]
    fn fast_kernels_match_naive_on_ragged_shapes() {
        for &(m, k, n) in &[(17, 23, 29), (32, 64, 32), (1, 100, 250), (64, 3, 150)] {
            let a = seq(m * k, 0.13, 0.7);
            let b = seq(k * n, 0.31, -0.4);
            let mut fast = vec![0.0; m * n];
            let mut slow = vec![0.0; m * n];
            let npanels = n.div_ceil(NR);
            let mut bpack = vec![0.0; npanels * k * NR];
            pack_rhs_rows(&b, k, n, &mut bpack);
            gemm_packed(Lhs::Rows(&a), m, k, n, &bpack, &mut fast);
            naive::matmul_kernel(&a, &b, &mut slow, m, k, n);
            assert_close(&fast, &slow, "a_b");

            // aᵀ·b with a stored k×m
            let at = seq(k * m, 0.21, 0.1);
            let mut fast2 = vec![0.0; m * n];
            let mut slow2 = vec![0.0; m * n];
            gemm_packed(Lhs::Cols(&at), m, k, n, &bpack, &mut fast2);
            naive::matmul_at_b(&at, &b, &mut slow2, k, m, n);
            assert_close(&fast2, &slow2, "at_b");
        }
    }

    /// `0 × NaN` and `0 × inf` must poison the product (IEEE semantics); the
    /// historical zero-skip silently dropped those contributions.
    #[test]
    fn nan_and_inf_propagate_through_zero_operands() {
        // a row contains an explicit 0 that multiplies a NaN/inf in b.
        let a = [0.0, 1.0]; // 1x2
        let b = [f32::NAN, 0.0, 1.0, 1.0]; // 2x2: b[0,0] = NaN
        let mut out = [0.0; 2];
        matmul_kernel(&a, &b, &mut out, 1, 2, 2);
        assert!(out[0].is_nan(), "0*NaN + 1*1 must be NaN, got {}", out[0]);
        assert_eq!(out[1], 1.0);

        let binf = [f32::INFINITY, 0.0, 1.0, 1.0];
        let mut out = [0.0; 2];
        matmul_kernel(&a, &binf, &mut out, 1, 2, 2);
        assert!(out[0].is_nan(), "0*inf must contribute NaN, got {}", out[0]);

        // Same contract for the transposed variant (a stored k×m).
        let at = [0.0, 1.0]; // 2x1: column [0, 1]
        let mut out = [0.0; 2];
        matmul_at_b(&at, &b, &mut out, 2, 1, 2);
        assert!(out[0].is_nan(), "at_b must keep 0*NaN, got {}", out[0]);

        // And on the fast path, forced by a large-enough shape.
        let n = 64;
        let mut big_b = vec![1.0f32; n * n];
        big_b[0] = f32::NAN;
        let mut big_a = vec![1.0f32; n * n];
        big_a[0] = 0.0; // multiplies big_b[0] = NaN in out[0,0]
        let mut out = vec![0.0; n * n];
        matmul_kernel(&big_a, &big_b, &mut out, n, n, n);
        assert!(out[0].is_nan(), "fast path must keep 0*NaN");
    }

    /// Results must not depend on whether the row-band parallel split
    /// engaged: fixed band boundaries mean byte-identical output.
    #[test]
    fn banded_split_is_byte_identical_to_sequential() {
        let (m, k, n) = (70, 96, 80);
        let a = seq(m * k, 0.17, 0.3);
        let b = seq(k * n, 0.29, -0.8);
        let npanels = n.div_ceil(NR);
        let mut bpack = vec![0.0; npanels * k * NR];
        pack_rhs_rows(&b, k, n, &mut bpack);

        let mut sequential = vec![0.0; m * n];
        gemm_rows(Isa::current(), Lhs::Rows(&a), m, k, n, &bpack, 0..m, &mut sequential);

        let mut banded = vec![0.0; m * n];
        for (bi, band) in banded.chunks_mut(BAND_ROWS * n).enumerate() {
            let r0 = bi * BAND_ROWS;
            let r1 = (r0 + BAND_ROWS).min(m);
            gemm_rows(Isa::current(), Lhs::Rows(&a), m, k, n, &bpack, r0..r1, band);
        }
        assert_eq!(sequential, banded, "band boundaries must not change results");
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        // k = 0: nothing to accumulate, out untouched.
        let mut out = [3.0f32; 4];
        matmul_kernel(&[], &[], &mut out, 2, 0, 2);
        assert_eq!(out, [3.0; 4]);
        // m = 0 / n = 0: empty output.
        let mut out: [f32; 0] = [];
        matmul_kernel(&[], &[1.0, 2.0], &mut out, 0, 1, 2);
        matmul_a_bt(&[], &[], &mut out, 0, 3, 0);
    }
}
