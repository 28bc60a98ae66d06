//! Property-based tests of the tensor substrate.

use gnnopt_tensor::gemm::{gemm, GemmKernel, Layout};
use gnnopt_tensor::Tensor;
use proptest::prelude::*;

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Tensor::new(&[r, c], data).expect("shape matches"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_distributes_over_addition(
        seed in 0u64..1000,
        m in 1usize..6, k in 1usize..6, n in 1usize..6,
    ) {
        let gen = |s: u64, rows: usize, cols: usize| {
            Tensor::from_fn(&[rows, cols], |i| (((i as u64 + s) * 2654435761 % 97) as f32 - 48.0) / 16.0)
        };
        let a = gen(seed, m, k);
        let b = gen(seed + 1, k, n);
        let c = gen(seed + 2, k, n);
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        prop_assert!(lhs.allclose_with(&rhs, 1e-3, 1e-3), "diff {}", lhs.max_abs_diff(&rhs));
    }

    #[test]
    fn transpose_is_involution(t in small_matrix(8)) {
        let round_trip = t.transpose().transpose();
        prop_assert_eq!(round_trip.as_slice(), t.as_slice());
    }

    #[test]
    fn matmul_transpose_identity(
        seed in 0u64..1000, m in 1usize..6, k in 1usize..6, n in 1usize..6,
    ) {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let gen = |s: u64, rows: usize, cols: usize| {
            Tensor::from_fn(&[rows, cols], |i| (((i as u64 + s) * 40503 % 89) as f32 - 44.0) / 8.0)
        };
        let a = gen(seed, m, k);
        let b = gen(seed + 7, k, n);
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(lhs.allclose_with(&rhs, 1e-2, 1e-3));
    }

    #[test]
    fn softmax_rows_are_distributions(t in small_matrix(8)) {
        let s = t.softmax_rows().unwrap();
        for i in 0..s.rows() {
            let sum: f32 = s.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(i).iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn add_sub_roundtrip(t in small_matrix(8)) {
        let z = t.add(&t).unwrap().sub(&t).unwrap();
        prop_assert!(z.allclose_with(&t, 1e-4, 1e-4));
    }

    #[test]
    fn select_rows_matches_manual(t in small_matrix(6), idx in proptest::collection::vec(0usize..6, 1..8)) {
        let valid: Vec<usize> = idx.into_iter().filter(|&i| i < t.rows()).collect();
        prop_assume!(!valid.is_empty());
        let sel = t.select_rows(&valid).unwrap();
        for (out_row, &src) in valid.iter().enumerate() {
            prop_assert_eq!(sel.row(out_row), t.row(src));
        }
    }

    #[test]
    fn scalar_broadcast_equals_map(t in small_matrix(8), s in -4.0f32..4.0) {
        let via_broadcast = t.mul(&Tensor::from_vec(vec![s])).unwrap();
        let via_map = t.scale(s);
        prop_assert!(via_broadcast.allclose(&via_map));
    }

    #[test]
    fn max_cols_is_max(t in small_matrix(8)) {
        let (vals, idx) = t.max_cols().unwrap();
        for i in 0..t.rows() {
            let row = t.row(i);
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            prop_assert_eq!(vals.at(i, 0), m);
            prop_assert_eq!(row[idx[i]], m);
        }
    }
}

/// Deterministic pseudo-random operand with an optional sprinkling of
/// exact zeros (so the zero-skip fast path genuinely fires when asked).
fn gemm_operand(len: usize, seed: u64, with_zeros: bool) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(2654435761)
                .wrapping_add(seed.wrapping_mul(97));
            if with_zeros && h.is_multiple_of(5) {
                0.0
            } else {
                ((h % 193) as f32 - 96.0) / 32.0
            }
        })
        .collect()
}

/// The naive Nn loop on plain indices: the oracle every kernel, layout,
/// thread count and skip mode must reproduce **bitwise**.
fn nn_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, skip: bool) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            if skip && av == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += av * b[kk * n + j];
            }
        }
    }
    out
}

fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = x[r * cols + c];
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole determinism contract: the blocked register-tiled
    /// engine is bit-identical to the naive ikj reference on ragged
    /// shapes (nothing aligned to the MR/NR/KC tile sizes, including
    /// degenerate 1×n and m×1 extents), across every layout, thread
    /// count and both zero-skip modes.
    #[test]
    fn blocked_gemm_is_bit_identical_to_naive(
        seed in 0u64..1000,
        m in 1usize..40, k in 1usize..40, n in 1usize..40,
        degenerate in 0usize..4,
        with_zeros in 0usize..2,
        skip in 0usize..2,
    ) {
        let (with_zeros, skip) = (with_zeros == 1, skip == 1);
        // Force the degenerate extents the tile tails must survive.
        let (m, n) = match degenerate {
            1 => (1, n),
            2 => (m, 1),
            3 => (1, 1),
            _ => (m, n),
        };
        let a = gemm_operand(m * k, seed, with_zeros);
        let b = gemm_operand(k * n, seed + 1, false);
        let want = nn_reference(&a, &b, m, k, n, skip);
        let at = transpose(&a, m, k);
        let bt = transpose(&b, k, n);
        for threads in [1usize, 4] {
            for kernel in [GemmKernel::Naive, GemmKernel::Blocked] {
                let mut out = vec![0.0f32; m * n];
                gemm(kernel, Layout::Nn, &a, &b, &mut out, m, k, n, threads, skip);
                prop_assert_eq!(&out, &want, "Nn {:?} t={}", kernel, threads);

                let mut out = vec![0.0f32; m * n];
                gemm(kernel, Layout::Tn, &at, &b, &mut out, m, k, n, threads, skip);
                prop_assert_eq!(&out, &want, "Tn {:?} t={}", kernel, threads);

                let mut out = vec![0.0f32; m * n];
                gemm(kernel, Layout::Nt, &a, &bt, &mut out, m, k, n, threads, skip);
                prop_assert_eq!(&out, &want, "Nt {:?} t={}", kernel, threads);
            }
        }
    }

    /// `matmul_tn` is parallelized over output column blocks; the
    /// partition must never change a bit relative to one worker (each
    /// output element keeps its serial k-ordered accumulation chain).
    #[test]
    fn matmul_tn_parallel_is_bit_identical_to_serial(
        seed in 0u64..1000,
        m in 1usize..24, k in 1usize..64, n in 1usize..24,
        with_zeros in 0usize..2,
        skip in 0usize..2,
    ) {
        let (with_zeros, skip) = (with_zeros == 1, skip == 1);
        let a = gemm_operand(k * m, seed, with_zeros);
        let b = gemm_operand(k * n, seed + 3, false);
        for kernel in [GemmKernel::Naive, GemmKernel::Blocked] {
            let mut serial = vec![0.0f32; m * n];
            gemm(kernel, Layout::Tn, &a, &b, &mut serial, m, k, n, 1, skip);
            for threads in [2usize, 4, 7] {
                let mut par = vec![0.0f32; m * n];
                gemm(kernel, Layout::Tn, &a, &b, &mut par, m, k, n, threads, skip);
                prop_assert_eq!(&par, &serial, "{:?} threads={}", kernel, threads);
            }
        }
    }

    /// The `Tensor`-level products match the naive reference bitwise on
    /// data with ReLU-style zero sparsity (the shape of input the
    /// zero-gated skip decision actually sees in a GNN step). With finite
    /// operands skipping a zero term never changes a bit, so the
    /// non-skipping reference is the oracle whatever the skip decides.
    #[test]
    fn tensor_products_agree_across_kernels(
        seed in 0u64..1000,
        m in 1usize..20, k in 1usize..20, n in 1usize..20,
        with_zeros in 0usize..2,
    ) {
        let with_zeros = with_zeros == 1;
        let a = Tensor::new(&[m, k], gemm_operand(m * k, seed, with_zeros)).unwrap();
        let b = Tensor::new(&[k, n], gemm_operand(k * n, seed + 5, false)).unwrap();
        let want = nn_reference(a.as_slice(), b.as_slice(), m, k, n, false);
        let nn = a.matmul(&b).unwrap();
        prop_assert_eq!(nn.as_slice(), &want[..]);
        let tn = a.transpose().matmul_tn(&b).unwrap();
        prop_assert_eq!(tn.as_slice(), &want[..]);
        let nt = a.matmul_nt(&b.transpose()).unwrap();
        prop_assert_eq!(nt.as_slice(), &want[..]);
    }
}
