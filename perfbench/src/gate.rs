//! The correctness gate: the benchmark's first (cold) step against two
//! oracles on the same inputs.
//!
//! 1. The same plan on the reference executor (one thread, fused off,
//!    unsharded, overrides off). The fused, thread-count and sharding
//!    contracts promise bit-identical logits and parameter gradients.
//! 2. The `CompileOptions::dgl()` plan on that reference executor, which
//!    does not depend on reorg, fusion or recompute: within
//!    `DEFAULT_ATOL`/`DEFAULT_RTOL`.

use crate::workload::{Executor, Inputs};
use gnnopt_core::pipeline::CompiledModel;
use gnnopt_core::{compile, CompileOptions};
use gnnopt_graph::Graph;
use gnnopt_models::ModelSpec;
use gnnopt_tensor::{Tensor, DEFAULT_ATOL, DEFAULT_RTOL};
use gnnopt_train::softmax_cross_entropy_masked;
use std::collections::HashMap;

/// The gate's findings.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Tensors compared (logits plus every gradient, per oracle).
    pub compared: usize,
    /// One line per mismatch.
    pub mismatches: Vec<String>,
    pub lines: Vec<String>,
}

impl GateReport {
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty() && self.compared > 0
    }
}

/// Logits and parameter gradients of one step of `compiled` on the
/// reference executor, from the initial leaves.
fn reference_step(
    compiled: &CompiledModel,
    graph: &Graph,
    inputs: &Inputs,
) -> Result<(Tensor, HashMap<String, Tensor>), String> {
    let mut sess = Executor::reference(&compiled.plan, graph).map_err(|e| e.to_string())?;
    let logits = sess
        .forward(&inputs.bindings())
        .map_err(|e| e.to_string())?
        .swap_remove(0);
    let (_, seed) = softmax_cross_entropy_masked(&logits, &inputs.labels, &inputs.mask);
    let grads = sess.backward(seed).map_err(|e| e.to_string())?;
    Ok((logits, grads))
}

fn bit_identical(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks the benchmark's cold-step `logits` and `grads` against both
/// oracles.
///
/// # Errors
///
/// Fails when an oracle cannot be compiled or run.
pub fn check(
    spec: &ModelSpec,
    graph: &Graph,
    compiled: &CompiledModel,
    inputs: &Inputs,
    logits: &Tensor,
    grads: &HashMap<String, Tensor>,
) -> Result<GateReport, String> {
    let mut report = GateReport::default();
    let dgl = compile(&spec.ir, true, &CompileOptions::dgl()).map_err(|e| e.to_string())?;
    type Same = fn(&Tensor, &Tensor) -> bool;
    let oracles: [(&str, &CompiledModel, Same); 2] = [
        ("reference executor, bit-identical", compiled, bit_identical),
        ("dgl plan, within tolerance", &dgl, |a, b| {
            a.allclose_with(b, DEFAULT_ATOL, DEFAULT_RTOL)
        }),
    ];
    for (label, plan, same) in oracles {
        let (ref_logits, ref_grads) = reference_step(plan, graph, inputs)?;
        let mut pairs = vec![("logits", logits, &ref_logits)];
        for name in &inputs.params {
            let (Some(g), Some(r)) = (grads.get(name), ref_grads.get(name)) else {
                report
                    .mismatches
                    .push(format!("{label}: gradient of {name} missing"));
                continue;
            };
            pairs.push((name.as_str(), g, r));
        }
        let before = report.mismatches.len();
        for (name, got, want) in pairs {
            report.compared += 1;
            if !same(got, want) {
                report.mismatches.push(format!(
                    "{label}: {name} differs (max abs diff {:e})",
                    got.max_abs_diff(want)
                ));
            }
        }
        let verdict = if report.mismatches.len() == before {
            "ok"
        } else {
            "MISMATCH"
        };
        report.lines.push(format!(
            "gate: {label}: logits and {} gradients {verdict}",
            inputs.params.len()
        ));
    }
    report
        .lines
        .extend(report.mismatches.iter().map(|m| format!("gate: {m}")));
    Ok(report)
}
