//! The `GNNOPT_FUSED` contract across the builder's [`EnvOverrides`]
//! modes, isolated in its own test binary: `std::env::set_var` races
//! `getenv` from *any* concurrent thread (glibc UB), and the executor
//! reads the environment on every loud session build — so the one test
//! that writes the variable runs alone in its process.
//!
//! `EnvOverrides::Loud` errors on an invalid value and applies a valid
//! one; `EnvOverrides::Off` consults neither; an explicit `.fused(..)`
//! pin outranks the override.

use gnnopt_core::{compile, CompileOptions};
use gnnopt_exec::{EnvOverrides, ExecError, Session};
use gnnopt_graph::{EdgeList, Graph};
use gnnopt_models::{gcn, GcnConfig};

#[test]
fn gnnopt_fused_env_contract() {
    let spec = gcn(&GcnConfig {
        in_dim: 3,
        layer_dims: vec![2],
    })
    .expect("gcn builds");
    let pairs: Vec<(u32, u32)> = (0..9u32).map(|v| (v, v + 1)).collect();
    let graph = Graph::from_edge_list(&EdgeList::from_pairs(10, &pairs));
    // The Ours preset keeps fused execution on by default.
    let compiled = compile(&spec.ir, false, &CompileOptions::ours()).expect("compiles");
    let plan = &compiled.plan;
    assert!(plan.exec.fused, "ours preset enables fused execution");
    let saved = std::env::var("GNNOPT_FUSED").ok();

    std::env::set_var("GNNOPT_FUSED", "maybe");
    let loud = Session::builder(plan, &graph).build().map(|s| s.fused());
    let off_invalid = Session::builder(plan, &graph)
        .env(EnvOverrides::Off)
        .build()
        .map(|s| s.fused());

    std::env::set_var("GNNOPT_FUSED", "0");
    let loud_off = Session::builder(plan, &graph).build().map(|s| s.fused());
    let env_off = Session::builder(plan, &graph)
        .env(EnvOverrides::Off)
        .build()
        .map(|s| s.fused());
    let pinned = Session::builder(plan, &graph)
        .fused(true)
        .build()
        .map(|s| s.fused());

    match saved {
        Some(v) => std::env::set_var("GNNOPT_FUSED", v),
        None => std::env::remove_var("GNNOPT_FUSED"),
    }

    match loud {
        Err(ExecError::Policy(msg)) => {
            assert!(msg.contains("GNNOPT_FUSED") && msg.contains("maybe"));
        }
        other => panic!("expected a policy error, got {other:?}"),
    }
    assert!(
        off_invalid.expect("off session builds"),
        "EnvOverrides::Off never reads the invalid value: the plan default stands"
    );

    assert!(!loud_off.expect("loud session builds"));
    assert!(
        env_off.expect("off session builds"),
        "EnvOverrides::Off consults no override: the policy's choice stands"
    );
    assert!(
        pinned.expect("pinned session builds"),
        "an explicit .fused(..) pin outranks a valid env override"
    );
}
