//! Differential property tests for the fast tensor kernels.
//!
//! The packed/register-blocked matmul kernels and the im2col conv1d lowering
//! in `octs-tensor` must agree with the retained naive reference loops
//! (`ops::matmul::naive`, `ops::conv::direct`) within relative tolerance on
//! seeded random shapes — including the degenerate ones (empty, 1×N,
//! over-reaching dilation) where a blocking/panel bug would hide. Below the
//! packed/im2col thresholds the small-shape kernels must match the reference
//! loops *bit for bit*, on every SIMD tier the host supports, including
//! signed zeros, infinities and NaN. The strided permute kernel is a pure
//! copy, so it must match `ops::shapeops::naive` bit for bit.
//!
//! Shapes and data are drawn from `octs_testkit::Gen`, so any failure
//! replays from the printed seed alone.

use octs_tensor::ops::matmul::BatchKind;
use octs_tensor::ops::{conv, matmul, shapeops};
use octs_tensor::Tensor;
use octs_testkit::Gen;

const SEEDS: u64 = 25;

/// Relative-tolerance comparison: the fast path may associate partial sums
/// differently (register tiles, im2col), so exact equality is not required.
fn assert_close(seed: u64, what: &str, fast: &[f32], reference: &[f32]) {
    assert_eq!(fast.len(), reference.len(), "seed {seed}: {what} length");
    for (i, (&f, &r)) in fast.iter().zip(reference).enumerate() {
        let tol = 1e-4 * r.abs().max(1.0);
        assert!((f - r).abs() <= tol, "seed {seed}: {what}[{i}] fast {f} vs naive {r} (tol {tol})");
    }
}

fn fill(gen: &mut Gen, n: usize) -> Vec<f32> {
    (0..n).map(|_| gen.f32_in(-2.0, 2.0)).collect()
}

/// Random shapes, biased to cross the fast-path threshold, plus pinned edge
/// shapes: empty output, empty reduction, single-row and single-column.
fn matmul_shapes(gen: &mut Gen) -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![
        (0, 4, 4),   // empty output rows
        (4, 0, 4),   // empty reduction: out must stay untouched (+= semantics)
        (4, 4, 0),   // empty output cols
        (1, 96, 64), // 1×N against the MR row blocking
        (64, 96, 1), // N×1 against the NR column panels
        (1, 1, 1),
    ];
    for _ in 0..6 {
        shapes.push((gen.usize_in(1, 70), gen.usize_in(1, 70), gen.usize_in(1, 70)));
    }
    shapes
}

#[test]
fn matmul_fast_matches_naive_reference() {
    for seed in 0..SEEDS {
        let mut gen = Gen::from_seed(seed);
        for (m, k, n) in matmul_shapes(&mut gen) {
            let a = fill(&mut gen, m * k);
            let b = fill(&mut gen, k * n);

            // out += a·b, over a nonzero starting accumulator.
            let init = fill(&mut gen, m * n);
            let mut fast = init.clone();
            let mut slow = init.clone();
            matmul::matmul_kernel(&a, &b, &mut fast, m, k, n);
            matmul::naive::matmul_kernel(&a, &b, &mut slow, m, k, n);
            assert_close(seed, &format!("a_b {m}x{k}x{n}"), &fast, &slow);

            // out += aᵀ·b with a stored k×m.
            let at = fill(&mut gen, k * m);
            let mut fast = vec![0.0; m * n];
            let mut slow = vec![0.0; m * n];
            matmul::matmul_at_b(&at, &b, &mut fast, k, m, n);
            matmul::naive::matmul_at_b(&at, &b, &mut slow, k, m, n);
            assert_close(seed, &format!("at_b {m}x{k}x{n}"), &fast, &slow);

            // out += a·bᵀ with b stored n_out×k_inner (here: k×?? — reuse
            // dims: a is m×k ("n" of the kernel), b is n×k, out m×n).
            let abt_a = fill(&mut gen, m * k);
            let abt_b = fill(&mut gen, n * k);
            let mut fast = vec![0.0; m * n];
            let mut slow = vec![0.0; m * n];
            matmul::matmul_a_bt(&abt_a, &abt_b, &mut fast, m, k, n);
            matmul::naive::matmul_a_bt(&abt_a, &abt_b, &mut slow, m, k, n);
            assert_close(seed, &format!("a_bt {m}x{k}x{n}"), &fast, &slow);
        }
    }
}

#[test]
fn conv1d_fast_matches_direct_reference() {
    for seed in 0..SEEDS {
        let mut gen = Gen::from_seed(1_000_000 + seed);
        // Random shapes around the im2col threshold, plus edge cases: K=1,
        // dilation pushing the reach past the sequence length, and C_in=1.
        let mut shapes = vec![
            (1, 1, 1, 8, 1, 1),     // identity-ish
            (2, 1, 24, 40, 3, 16),  // reach 32: taps straddle the left edge
            (1, 12, 12, 48, 2, 24), // reach 24, half the taps out of range
            (1, 4, 40, 10, 3, 8),   // reach 16 >= l: whole taps out of range
        ];
        for _ in 0..4 {
            shapes.push((
                gen.usize_in(1, 3),
                gen.usize_in(1, 12),
                gen.usize_in(1, 20),
                gen.usize_in(4, 56),
                gen.usize_in(1, 4),
                gen.usize_in(1, 6),
            ));
        }
        for (b, c_in, c_out, l, k, d) in shapes {
            let x = fill(&mut gen, b * c_in * l);
            let w = fill(&mut gen, c_out * c_in * k);
            let bias = fill(&mut gen, c_out);
            let what = format!("conv b={b} ci={c_in} co={c_out} l={l} k={k} d={d}");

            let mut fast = vec![0.0; b * c_out * l];
            let mut slow = vec![0.0; b * c_out * l];
            conv::conv1d_forward(&x, &w, Some(&bias), &mut fast, b, c_in, c_out, l, k, d);
            conv::direct::conv1d_forward(&x, &w, Some(&bias), &mut slow, b, c_in, c_out, l, k, d);
            assert_close(seed, &format!("{what} fwd"), &fast, &slow);

            let dout = fill(&mut gen, b * c_out * l);
            let mut dxf = vec![0.0; x.len()];
            let mut dwf = vec![0.0; w.len()];
            let mut dbf = vec![0.0; c_out];
            conv::conv1d_backward(
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
            conv::direct::conv1d_backward(
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
            assert_close(seed, &format!("{what} dx"), &dxf, &dxs);
            assert_close(seed, &format!("{what} dw"), &dwf, &dws);
            assert_close(seed, &format!("{what} dbias"), &dbf, &dbs);
        }
    }
}

/// The row-band parallel split must be byte-identical for any worker count:
/// band boundaries derive from the shape alone and every output element is
/// reduced sequentially, so `RAYON_NUM_THREADS` cannot move a single bit.
/// The shape is chosen to actually engage the parallel path (`m·k·n` above
/// the split threshold, more rows than one band).
#[test]
fn matmul_byte_identical_across_thread_counts() {
    let (m, k, n) = (400, 256, 256);
    let mut gen = Gen::from_seed(42);
    let a = fill(&mut gen, m * k);
    let b = fill(&mut gen, k * n);

    // The vendored rayon reads RAYON_NUM_THREADS per parallel call.
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    let mut runs = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let mut out = vec![0.0f32; m * n];
        matmul::matmul_kernel(&a, &b, &mut out, m, k, n);
        runs.push((threads, out));
    }
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }

    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let first = bits(&runs[0].1);
    for (threads, out) in &runs[1..] {
        assert_eq!(first, bits(out), "matmul moved bits with RAYON_NUM_THREADS={threads}");
    }
}

/// The `set_fast_enabled` switch (used by `kernel_bench` for before/after
/// columns) must actually route to the naive kernels and back.
#[test]
fn fast_toggle_switches_paths() {
    let mut gen = Gen::from_seed(7);
    let (m, k, n) = (48, 48, 48);
    let a = fill(&mut gen, m * k);
    let b = fill(&mut gen, k * n);
    let mut with_fast = vec![0.0; m * n];
    matmul::matmul_kernel(&a, &b, &mut with_fast, m, k, n);

    matmul::set_fast_enabled(false);
    assert!(!matmul::fast_enabled());
    let mut with_naive = vec![0.0; m * n];
    matmul::matmul_kernel(&a, &b, &mut with_naive, m, k, n);
    matmul::set_fast_enabled(true);
    assert!(matmul::fast_enabled());

    let mut reference = vec![0.0; m * n];
    matmul::naive::matmul_kernel(&a, &b, &mut reference, m, k, n);
    assert_eq!(with_naive, reference, "disabled toggle must be exactly the naive kernel");
    assert_close(7, "toggle", &with_fast, &reference);
}

/// Every permutation of `0..rank`, in lexicographic order.
fn permutations(rank: usize) -> Vec<Vec<usize>> {
    if rank == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for first in 0..rank {
        for rest in permutations(rank - 1) {
            let mut p = vec![first];
            p.extend(rest.into_iter().map(|a| if a >= first { a + 1 } else { a }));
            out.push(p);
        }
    }
    out
}

/// Random shapes of rank 1–5 (extents 0–4, so size-1 and zero-length axes
/// come up often) plus pinned ones: a zero-length axis in every position
/// class, all-ones, and shapes wide enough to merge axes or gather long runs.
fn permute_shapes(gen: &mut Gen) -> Vec<Vec<usize>> {
    let mut shapes = vec![
        vec![7],
        vec![0],
        vec![3, 0],
        vec![0, 5, 2],
        vec![1, 1, 1, 1],
        vec![2, 1, 3, 1, 2],
        vec![4, 9, 3, 12],
        vec![17, 33],
    ];
    for rank in 1..=5 {
        for _ in 0..3 {
            shapes.push((0..rank).map(|_| gen.usize_in(0, 4)).collect());
        }
    }
    shapes
}

#[test]
fn permute_strided_is_bit_identical_to_naive_reference() {
    for seed in 0..SEEDS {
        let mut gen = Gen::from_seed(seed);
        for shape in permute_shapes(&mut gen) {
            let n: usize = shape.iter().product();
            let mut data = fill(&mut gen, n);
            // Payloads a value-level comparison would gloss over.
            if n >= 2 {
                data[0] = -0.0;
                data[n - 1] = f32::from_bits(0x7fc0_1234);
            }
            let x = Tensor::new(shape.clone(), data);
            for axes in permutations(shape.len()) {
                let fast = shapeops::permute(&x, &axes);
                let reference = shapeops::naive::permute(&x, &axes);
                assert_eq!(fast.shape(), reference.shape(), "seed {seed}: {shape:?} by {axes:?}");
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&reference), "seed {seed}: {shape:?} by {axes:?}");
            }
        }
    }
}

/// The packed and im2col paths start at these per-slice work sizes
/// (`m·k·n` for matmul, `C_out·C_in·K·L` for conv1d); below them the
/// small-shape kernels run.
const FAST_MIN_WORK: usize = 4096;
const DIRECT_MAX_WORK: usize = 4096;

/// Bit identity with the reference: NaN exactly where the reference is NaN
/// (payloads are unspecified, and the compiler may commute an add's
/// operands), identical bits everywhere else.
fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let same = if w.is_nan() { g.is_nan() } else { g.to_bits() == w.to_bits() };
        assert!(
            same,
            "{what}[{i}]: got {g:?} ({:#010x}), reference {w:?} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Values with the cases a value-level comparison glosses over: about a
/// quarter signed zeros, and (when `specials`) a few ±inf and NaN.
fn fill_bits(gen: &mut Gen, n: usize, specials: bool) -> Vec<f32> {
    (0..n)
        .map(|_| match gen.usize_in(0, 99) {
            0..=12 => -0.0,
            13..=24 => 0.0,
            25 if specials => f32::INFINITY,
            26 if specials => f32::NEG_INFINITY,
            27 if specials => f32::NAN,
            _ => gen.f32_in(-2.0, 2.0),
        })
        .collect()
}

/// Runs `f` once per SIMD tier this CPU supports.
fn on_every_tier(mut f: impl FnMut(&str)) {
    for tier in matmul::supported_simd() {
        matmul::with_simd(tier, || f(&format!("{tier:?}")));
    }
}

/// Per-slice offsets of `a`, `b` and the output for `kind` (0 = shared).
fn strides(kind: BatchKind, m: usize, k: usize, n: usize) -> (usize, usize, usize) {
    match kind {
        BatchKind::Matched => (m * k, k * n, m * n),
        BatchKind::BroadcastLhs => (0, k * n, m * n),
        BatchKind::BroadcastRhs => (m * k, 0, m * n),
    }
}

/// `(batch, m, k, n)` below the packed threshold: the ladder's hot shapes,
/// pinned edge classes (n wider than one register and ragged, k = 0, m = 0,
/// 1×N, N×1, empty batch) and random ones.
fn small_bmm_shapes(gen: &mut Gen) -> Vec<(usize, usize, usize, usize)> {
    let mut shapes = vec![
        (48, 6, 8, 8),
        (48, 5, 8, 8),
        (24, 8, 8, 8),
        (48, 6, 6, 8),
        (32, 3, 4, 4),
        (2, 3, 5, 33), // n = 2·16 + 1
        (3, 5, 3, 20), // n = 16 + 4
        (2, 7, 2, 13), // n = 8 + 4 + 1
        (3, 4, 0, 5),  // k = 0: a·b leaves out alone, a·bᵀ adds 0.0
        (3, 0, 4, 5),  // m = 0
        (2, 4, 5, 0),  // n = 0
        (4, 1, 9, 30), // 1×N rows
        (2, 30, 9, 1), // N×1 columns
        (0, 4, 4, 4),  // empty batch
        (1, 15, 16, 17),
    ];
    for _ in 0..8 {
        let (m, k, n) = (gen.usize_in(1, 20), gen.usize_in(1, 20), gen.usize_in(1, 40));
        if m * k * n < FAST_MIN_WORK {
            shapes.push((gen.usize_in(1, 6), m, k, n));
        }
    }
    for &(_, m, k, n) in &shapes {
        assert!(m * k * n < FAST_MIN_WORK, "{m}x{k}x{n} must take the small-shape path");
    }
    shapes
}

#[test]
fn small_bmm_is_bit_identical_to_per_slice_naive() {
    on_every_tier(|tier| {
        for seed in 0..8 {
            let mut gen = Gen::from_seed(2_000_000 + seed);
            for (batch, m, k, n) in small_bmm_shapes(&mut gen) {
                for kind in [BatchKind::Matched, BatchKind::BroadcastLhs, BatchKind::BroadcastRhs] {
                    let specials = gen.flip();
                    let (sa, sb, so) = strides(kind, m, k, n);
                    let a_len = if sa == 0 { m * k } else { batch * m * k };
                    let b_len = if sb == 0 { k * n } else { batch * k * n };
                    let a = fill_bits(&mut gen, a_len, specials);
                    let b = fill_bits(&mut gen, b_len, specials);
                    let g = fill_bits(&mut gen, batch * so, specials);
                    let what = format!("{tier} seed {seed} {kind:?} {batch}x({m}x{k}x{n})");

                    // Forward, over a nonzero (and signed-zero) accumulator.
                    let init = fill_bits(&mut gen, batch * so, false);
                    let mut got = init.clone();
                    matmul::bmm_forward(&a, &b, &mut got, kind, batch, m, k, n);
                    let mut want = init;
                    for s in 0..batch {
                        matmul::naive::matmul_kernel(
                            &a[s * sa..][..m * k],
                            &b[s * sb..][..k * n],
                            &mut want[s * so..][..m * n],
                            m,
                            k,
                            n,
                        );
                    }
                    assert_bits(&format!("{what} forward"), &got, &want);

                    // Backward: both gradients, then each alone.
                    let da0 = fill_bits(&mut gen, a_len, false);
                    let db0 = fill_bits(&mut gen, b_len, false);
                    let (mut da_want, mut db_want) = (da0.clone(), db0.clone());
                    for s in 0..batch {
                        let gs = &g[s * so..][..m * n];
                        let da_s = &mut da_want[s * sa..][..m * k];
                        matmul::naive::matmul_a_bt(gs, &b[s * sb..][..k * n], da_s, m, n, k);
                        let db_s = &mut db_want[s * sb..][..k * n];
                        matmul::naive::matmul_at_b(&a[s * sa..][..m * k], gs, db_s, m, k, n);
                    }
                    let (mut da, mut db) = (da0.clone(), db0.clone());
                    let (da_out, db_out) = (Some(&mut da[..]), Some(&mut db[..]));
                    matmul::bmm_backward(&a, &b, &g, da_out, db_out, kind, batch, m, k, n);
                    assert_bits(&format!("{what} dA"), &da, &da_want);
                    assert_bits(&format!("{what} dB"), &db, &db_want);
                    let mut da = da0.clone();
                    matmul::bmm_backward(&a, &b, &g, Some(&mut da), None, kind, batch, m, k, n);
                    assert_bits(&format!("{what} dA alone"), &da, &da_want);
                    let mut db = db0.clone();
                    matmul::bmm_backward(&a, &b, &g, None, Some(&mut db), kind, batch, m, k, n);
                    assert_bits(&format!("{what} dB alone"), &db, &db_want);
                }
            }
        }
    });
}

#[test]
fn small_matmul_signatures_are_bit_identical_to_naive() {
    on_every_tier(|tier| {
        let mut gen = Gen::from_seed(3_000_000);
        for (_, m, k, n) in small_bmm_shapes(&mut gen) {
            let what = format!("{tier} {m}x{k}x{n}");
            let a = fill_bits(&mut gen, m * k, true);
            let b = fill_bits(&mut gen, k * n, true);
            let init = fill_bits(&mut gen, m * n, false);
            let (mut got, mut want) = (init.clone(), init.clone());
            matmul::matmul_kernel(&a, &b, &mut got, m, k, n);
            matmul::naive::matmul_kernel(&a, &b, &mut want, m, k, n);
            assert_bits(&format!("{what} a_b"), &got, &want);

            // aᵀ·b: the same data read as a k×m matrix.
            let (mut got, mut want) = (init.clone(), init.clone());
            matmul::matmul_at_b(&a, &b, &mut got, k, m, n);
            matmul::naive::matmul_at_b(&a, &b, &mut want, k, m, n);
            assert_bits(&format!("{what} at_b"), &got, &want);

            // a·bᵀ: a is m×k, b is n×k, out m×n.
            let bt = fill_bits(&mut gen, n * k, true);
            let (mut got, mut want) = (init.clone(), init);
            matmul::matmul_a_bt(&a, &bt, &mut got, m, k, n);
            matmul::naive::matmul_a_bt(&a, &bt, &mut want, m, k, n);
            assert_bits(&format!("{what} a_bt"), &got, &want);
        }
    });
}

/// `(b, c_in, c_out, l, k, dilation)` below the im2col threshold: the
/// ladder's GDCC shapes, rows longer than one register, taps that reach
/// past the sequence start (dilation over-reach), wide channel counts and
/// empty extents.
fn small_conv_shapes(gen: &mut Gen) -> Vec<(usize, usize, usize, usize, usize, usize)> {
    let mut shapes = vec![
        (12, 4, 4, 4, 2, 1),
        (12, 8, 8, 6, 2, 2),
        (4, 8, 8, 8, 3, 1),
        (4, 8, 8, 12, 2, 4),
        (2, 3, 5, 17, 2, 1), // l = 16 + 1
        (2, 2, 3, 40, 3, 5), // l = 2·16 + 8, reach 10
        (2, 4, 6, 5, 3, 4),  // reach 8 >= l: some taps reach nothing
        (1, 2, 20, 9, 2, 9), // c_out wider than one register
        (1, 1, 1, 1, 1, 1),
        (3, 5, 2, 3, 1, 1), // K = 1
        (0, 4, 4, 8, 2, 1), // empty batch
        (2, 4, 4, 0, 2, 1), // empty sequence
    ];
    for _ in 0..8 {
        let s = (
            gen.usize_in(1, 4),
            gen.usize_in(1, 10),
            gen.usize_in(1, 18),
            gen.usize_in(1, 24),
            gen.usize_in(1, 3),
            gen.usize_in(1, 10),
        );
        if s.1 * s.2 * s.3 * s.4 < DIRECT_MAX_WORK {
            shapes.push(s);
        }
    }
    for &(_, c_in, c_out, l, k, _) in &shapes {
        assert!(c_in * c_out * l * k < DIRECT_MAX_WORK, "conv must take the small-shape path");
    }
    shapes
}

#[test]
fn small_conv1d_is_bit_identical_to_direct() {
    on_every_tier(|tier| {
        for seed in 0..8 {
            let mut gen = Gen::from_seed(4_000_000 + seed);
            for (b, c_in, c_out, l, k, d) in small_conv_shapes(&mut gen) {
                let specials = gen.flip();
                let what =
                    format!("{tier} seed {seed} b={b} ci={c_in} co={c_out} l={l} k={k} d={d}");
                let x = fill_bits(&mut gen, b * c_in * l, specials);
                let w = fill_bits(&mut gen, c_out * c_in * k, specials);
                let bias = fill_bits(&mut gen, c_out, specials);

                let init = fill_bits(&mut gen, b * c_out * l, false);
                for bias in [None, Some(&bias[..])] {
                    let (mut got, mut want) = (init.clone(), init.clone());
                    conv::conv1d_forward(&x, &w, bias, &mut got, b, c_in, c_out, l, k, d);
                    conv::direct::conv1d_forward(&x, &w, bias, &mut want, b, c_in, c_out, l, k, d);
                    assert_bits(&format!("{what} fwd bias={}", bias.is_some()), &got, &want);
                }

                let g = fill_bits(&mut gen, b * c_out * l, specials);
                let dx0 = fill_bits(&mut gen, x.len(), false);
                let dw0 = fill_bits(&mut gen, w.len(), false);
                let db0 = fill_bits(&mut gen, c_out, false);
                let (mut dx_want, mut dw_want, mut db_want) =
                    (dx0.clone(), dw0.clone(), db0.clone());
                conv::direct::conv1d_backward(
                    &x,
                    &w,
                    &g,
                    &mut dx_want,
                    &mut dw_want,
                    Some(&mut db_want),
                    b,
                    c_in,
                    c_out,
                    l,
                    k,
                    d,
                );
                let (mut dx, mut dw, mut db) = (dx0.clone(), dw0.clone(), db0.clone());
                conv::conv1d_backward(
                    &x,
                    &w,
                    &g,
                    Some(&mut dx),
                    Some(&mut dw),
                    Some(&mut db),
                    b,
                    c_in,
                    c_out,
                    l,
                    k,
                    d,
                );
                assert_bits(&format!("{what} dx"), &dx, &dx_want);
                assert_bits(&format!("{what} dw"), &dw, &dw_want);
                assert_bits(&format!("{what} dbias"), &db, &db_want);

                let mut dx = dx0.clone();
                conv::conv1d_backward(
                    &x,
                    &w,
                    &g,
                    Some(&mut dx),
                    None,
                    None,
                    b,
                    c_in,
                    c_out,
                    l,
                    k,
                    d,
                );
                assert_bits(&format!("{what} dx alone"), &dx, &dx_want);
                let mut dw = dw0.clone();
                conv::conv1d_backward(
                    &x,
                    &w,
                    &g,
                    None,
                    Some(&mut dw),
                    None,
                    b,
                    c_in,
                    c_out,
                    l,
                    k,
                    d,
                );
                assert_bits(&format!("{what} dw alone"), &dw, &dw_want);
            }
        }
    });
}
