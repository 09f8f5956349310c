//! Differential property tests for the fast tensor kernels.
//!
//! The packed/register-blocked matmul kernels and the im2col conv1d lowering
//! in `octs-tensor` must agree with the retained naive reference loops
//! (`ops::matmul::naive`, `ops::conv::direct`) within relative tolerance on
//! seeded random shapes — including the degenerate ones (empty, 1×N,
//! over-reaching dilation) where a blocking/panel bug would hide. The strided
//! permute kernel is a pure copy, so it must match `ops::shapeops::naive`
//! bit for bit.
//!
//! Shapes and data are drawn from `octs_testkit::Gen`, so any failure
//! replays from the printed seed alone.

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
                &mut dxf,
                &mut dwf,
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
    let (m, k, n) = (160, 128, 128);
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
