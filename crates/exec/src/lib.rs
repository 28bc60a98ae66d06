//! CPU reference executor for `gnnopt` execution plans.
//!
//! Executes every IR operator with real numbers so that each compiler
//! rewrite (reorganization, fusion, recomputation) can be validated for
//! *numerical equivalence* against the unoptimized plan, while the
//! analytical counters (latency / IO / memory) come from the plan itself
//! via `gnnopt-sim`.
//!
//! The executor honours the plan's memory discipline: values drop as soon
//! as their last consumer kernel has run, stashed values survive the
//! forward→backward boundary, and recomputed values are *actually* dropped
//! and rebuilt inside the backward kernels (including the edge-softmax
//! rebuild from its stashed max/denominator) — so the recomputation pass
//! is exercised end-to-end, not just accounted for.
//!
//! # Constructing sessions
//!
//! [`Session::builder`] is the one construction path: it makes the
//! execution policy, the fused-execution choice, the arena and the
//! treatment of the `GNNOPT_*` environment overrides ([`EnvOverrides`])
//! explicit.
//!
//! # Thread-parallel backend and the sparse kernel engine
//!
//! Kernels run under an [`gnnopt_core::ExecPolicy`] carried by the
//! compiled plan (`CompileOptions::exec`) or pinned per session via the
//! builder. Gather-style kernels partition the CSR vertex range and
//! scatter/elementwise/head kernels partition output rows across
//! `std::thread::scope` workers — the same pattern (and the same pool
//! size, via `gnnopt_tensor::parallel`) as `Tensor::matmul`. Every
//! `Linear`-family kernel runs the blocked GEMM of `gnnopt_tensor::gemm`;
//! its naive loops are only a test oracle. Row-wise inner loops dispatch to AVX2-widened bodies at runtime when
//! the host supports them (`GNNOPT_ROWOPS=scalar` pins the scalar path;
//! both produce the same bits — see `gnnopt_tensor::rowops`).
//!
//! **Determinism contract:** reductions either keep their serial
//! accumulation order exactly (bit-identical at any thread count) or
//! re-associate on a *fixed grid* that is a pure function of the problem
//! size — never of the thread count — so every kernel's results are
//! invariant in `GNNOPT_THREADS`. Set `GNNOPT_THREADS=<n>` to override
//! the auto-detected pool size (`GNNOPT_THREADS=1` forces the serial
//! path); see the [`kernels`] module docs for the per-kernel contract,
//! the degree-binned heavy-row dispatch, and the tensor layout
//! convention the chunks slice along.
//!
//! # Fused tiled execution
//!
//! When the plan's policy enables fused execution
//! (`ExecPolicy::fused`, on in the `Ours` preset; override per process
//! with `GNNOPT_FUSED=0|1`, or pin per session via
//! `Session::builder(..).fused(..)`), kernels lowered to
//! `gnnopt_core::KernelProgram`s execute through the tiled interpreter
//! in `fused.rs` instead of node-by-node: kernel-internal values live in
//! per-worker scratch arenas covering one destination-vertex tile at a
//! time, so fused `O(|E|·d)` edge intermediates never materialize —
//! [`RunStats::peak_value_bytes`] genuinely drops, and
//! [`RunStats::scratch_bytes`] / [`RunStats::fused_kernels`] report the
//! realized substitution. Fused results remain bit-identical to the
//! reference path for any tile budget and thread count. Lowering is
//! **total** (see `gnnopt_core::lower`): every kernel of every plan has a
//! program, ops that cannot tile run as whole-graph *full steps* through
//! the same reference dispatch (`refexec`) the node-by-node path uses,
//! and there is no per-kernel fallback.
//!
//! # Runtime reordering
//!
//! When the policy carries a [`gnnopt_core::ReorderPolicy`] other than
//! `None` (or `GNNOPT_REORDER=<strategy|0>` overrides it under
//! [`EnvOverrides::Loud`]), the session applies a `gnnopt-reorder` vertex
//! relabeling to the CSR graph **once at build time** and runs every
//! kernel on the relabeled graph: vertex/edge-space bindings are
//! permuted in, user-facing outputs and gradients are inverse-permuted
//! out, so reordering is invisible except through its locality effect.
//! The stable permutation preserves every per-destination reduction
//! order, making forward results *bit-identical* to the identity
//! ordering; backward `BySrc` reductions re-associate, so parameter
//! gradients agree up to floating-point rounding. The one-time cost is
//! reported as [`RunStats::reorder_seconds`] alongside the resolved
//! strategy ([`RunStats::reorder`]).
//!
//! ```no_run
//! use gnnopt_core::{compile, CompileOptions};
//! use gnnopt_exec::Session;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let ir = gnnopt_core::ir::IrGraph::new();
//! # let graph = gnnopt_graph::Graph::from_edge_list(&gnnopt_graph::EdgeList::from_pairs(2, &[(0,1)]));
//! # let bindings = gnnopt_exec::Bindings::new();
//! let compiled = compile(&ir, false, &CompileOptions::ours())?;
//! let mut sess = Session::builder(&compiled.plan, &graph).build()?;
//! let outputs = sess.forward(&bindings)?;
//! # Ok(())
//! # }
//! ```

mod contain;
mod error;
mod fused;
pub mod kernels;
mod refexec;
mod session;
mod sharded;

pub use error::ExecError;
pub use session::{Bindings, EnvOverrides, RunStats, Session, SessionBuilder};
pub use sharded::{
    ExchangeKind, ExchangeRecord, ShardStrategy, ShardSummary, ShardedSession,
    ShardedSessionBuilder,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ExecError>;
