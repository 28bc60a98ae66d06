//! Determinism contract of the fused tiled interpreter: for any graph
//! (isolated vertices included), any tile budget, and any thread count,
//! fused execution of ByDst kernels is **bit-identical** to the reference
//! node-by-node path — tiling changes where intermediates live, never
//! what arithmetic is performed — while the measured peak of the value
//! store can only shrink.

use gnnopt_core::{compile, CompileOptions, ExecPolicy};
use gnnopt_exec::{Bindings, EnvOverrides, Session};
use gnnopt_graph::{EdgeList, Graph};
use gnnopt_models::{edgeconv, gat, gcn, EdgeConvConfig, GatConfig, GcnConfig, ModelSpec};
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

/// Random multigraphs with guaranteed trailing isolated vertices, so
/// empty reduction groups cross the fused/reference comparison too.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..24, 0usize..4).prop_flat_map(|(n, iso)| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..96)
            .prop_map(move |pairs| Graph::from_edge_list(&EdgeList::from_pairs(n + iso, &pairs)))
    })
}

/// One training step, returning `(output, grads, stats)`.
fn step(
    spec: &ModelSpec,
    graph: &Graph,
    vals: &HashMap<String, Tensor>,
    policy: ExecPolicy,
    fused: bool,
) -> (Vec<Tensor>, HashMap<String, Tensor>, gnnopt_exec::RunStats) {
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
    (out, grads, sess.stats())
}

fn compare_fused_vs_reference(spec: &ModelSpec, graph: &Graph, threads: usize, tile_edges: usize) {
    let vals = spec.init_values(graph, 23);
    let reference = step(spec, graph, &vals, ExecPolicy::serial(), false);
    let policy = ExecPolicy {
        threads,
        parallel_threshold: 0,
        tile_edges,
        ..ExecPolicy::serial()
    };
    let fused = step(spec, graph, &vals, policy, true);
    assert_eq!(reference.0.len(), fused.0.len());
    for (a, b) in reference.0.iter().zip(&fused.0) {
        assert_bit_identical("output", a, b);
    }
    assert_eq!(reference.1.len(), fused.1.len());
    for (k, g) in &reference.1 {
        assert_bit_identical(&format!("grad '{k}'"), g, &fused.1[k]);
    }
    assert!(
        fused.2.peak_value_bytes <= reference.2.peak_value_bytes,
        "fused peak {} exceeds reference peak {}",
        fused.2.peak_value_bytes,
        reference.2.peak_value_bytes
    );
    assert_eq!(
        reference.2.boundary_bytes, fused.2.boundary_bytes,
        "the forward→backward boundary is identical by construction"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// GAT training (softmax + ByDst/BySrc gathers, multi-head) over
    /// random graphs with isolated vertices: bit-identical fused vs
    /// reference for every thread count and tile budget, including
    /// single-edge tiles.
    #[test]
    fn gat_step_fused_is_bit_identical(
        g in arb_graph(),
        threads in 1usize..6,
        tile_edges in prop_oneof![Just(1usize), Just(3), Just(16), Just(4096)],
        heads in 1usize..3,
    ) {
        let spec = gat(&GatConfig {
            in_dim: 5,
            layers: vec![(heads, 4), (1, 3)],
            negative_slope: 0.2,
            reorganized: false,
        }).expect("gat builds");
        compare_fused_vs_reference(&spec, &g, threads, tile_edges);
    }

    /// EdgeConv training (max-gather: its backward kernel must fall back
    /// because of the scattered-write `gather_max_bwd`) stays correct and
    /// bit-identical under the mixed fused/fallback schedule.
    #[test]
    fn edgeconv_step_fused_is_bit_identical(
        g in arb_graph(),
        threads in 1usize..5,
        tile_edges in prop_oneof![Just(2usize), Just(64)],
    ) {
        let spec = edgeconv(&EdgeConvConfig { in_dim: 4, layer_dims: vec![3] })
            .expect("edgeconv builds");
        compare_fused_vs_reference(&spec, &g, threads, tile_edges);
    }

    /// GCN training (gSpMM pattern with edge weights).
    #[test]
    fn gcn_step_fused_is_bit_identical(
        g in arb_graph(),
        threads in 1usize..5,
        tile_edges in prop_oneof![Just(1usize), Just(32)],
    ) {
        let spec = gcn(&GcnConfig { in_dim: 4, layer_dims: vec![4, 2] }).expect("gcn builds");
        compare_fused_vs_reference(&spec, &g, threads, tile_edges);
    }
}

/// `GNNOPT_FUSED` must reject garbage loudly in the builder (the same
/// contract as `GNNOPT_THREADS`). Uses a throwaway process-global env var
/// write, restored immediately — the suite's other tests never read it
/// mid-flight because this test is the only one touching it.
#[test]
fn invalid_gnnopt_fused_is_a_policy_error() {
    let spec = gcn(&GcnConfig {
        in_dim: 2,
        layer_dims: vec![2],
    })
    .expect("gcn builds");
    let graph = Graph::from_edge_list(&EdgeList::from_pairs(3, &[(0, 1), (1, 2)]));
    let compiled = compile(&spec.ir, false, &CompileOptions::ours()).expect("compiles");
    let saved = std::env::var("GNNOPT_FUSED").ok();
    std::env::set_var("GNNOPT_FUSED", "banana");
    let res = Session::builder(&compiled.plan, &graph).build();
    match saved {
        Some(v) => std::env::set_var("GNNOPT_FUSED", v),
        None => std::env::remove_var("GNNOPT_FUSED"),
    }
    assert!(
        matches!(res, Err(gnnopt_exec::ExecError::Policy(_))),
        "expected a policy error, got {res:?}"
    );
}
