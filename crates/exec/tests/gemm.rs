//! The blocked GEMM engine at the session level: a GAT training step on
//! the fused tiled interpreter is bit-identical to the reference path,
//! forward outputs and parameter gradients alike, for any thread count
//! and tile budget. The engine's own bit-identity to the naive loops is
//! checked in `gnnopt-tensor` (`gemm::tests` and `tests/properties.rs`).

use gnnopt_core::{compile, CompileOptions, ExecPolicy};
use gnnopt_exec::{Bindings, EnvOverrides, Session};
use gnnopt_graph::{EdgeList, Graph};
use gnnopt_models::{gat, GatConfig, ModelSpec};
use gnnopt_tensor::Tensor;
use proptest::prelude::*;
use std::collections::HashMap;

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_bit_identical(name: &str, a: &Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "{name}: shapes differ");
    assert_eq!(bits(a), bits(b), "{name}: bits differ");
}

/// Random multigraphs with guaranteed trailing isolated vertices.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..20, 0usize..3).prop_flat_map(|(n, iso)| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..72)
            .prop_map(move |pairs| Graph::from_edge_list(&EdgeList::from_pairs(n + iso, &pairs)))
    })
}

/// One training step under a pinned policy and fused choice.
fn step(
    spec: &ModelSpec,
    graph: &Graph,
    vals: &HashMap<String, Tensor>,
    policy: ExecPolicy,
    fused: bool,
) -> (Vec<Tensor>, HashMap<String, Tensor>) {
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).expect("compiles");
    let mut sess = Session::builder(&compiled.plan, graph)
        .policy(policy)
        .fused(fused)
        .env(EnvOverrides::Off)
        .build()
        .expect("session");
    let mut b = Bindings::new();
    for (k, v) in vals {
        b.insert(k, v.clone());
    }
    let out = sess.forward(&b).expect("forward");
    let grads = sess
        .backward(Tensor::ones(out[0].shape()))
        .expect("backward");
    (out, grads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fused-vs-reference bit-identity contract with both sides on
    /// the blocked engine: the GEMMs must not open any gap between the
    /// two execution paths.
    #[test]
    fn fused_matches_reference_under_blocked_gemm(
        g in arb_graph(),
        threads in 1usize..5,
        tile_edges in prop_oneof![Just(1usize), Just(16), Just(4096)],
    ) {
        let spec = gat(&GatConfig {
            in_dim: 4,
            layers: vec![(2, 3)],
            negative_slope: 0.2,
            reorganized: false,
        }).expect("gat builds");
        let vals = spec.init_values(&g, 17);
        let policy = ExecPolicy {
            threads,
            parallel_threshold: 0,
            tile_edges,
            ..ExecPolicy::serial()
        };
        let reference = step(&spec, &g, &vals, policy, false);
        let fused = step(&spec, &g, &vals, policy, true);
        for (a, b) in reference.0.iter().zip(&fused.0) {
            assert_bit_identical("output", a, b);
        }
        for (k, gr) in &reference.1 {
            assert_bit_identical(&format!("grad '{k}'"), gr, &fused.1[k]);
        }
    }
}
