//! The repository benchmark: warmed training-step latency, cold start
//! and memory on named workloads, plus a traced run that times each call
//! into a layer (`graph`, `core`, `exec`, `tensor`, `train`) from here.
//!
//! `src/main.rs` is the command; `BENCHMARK.json` at the repository
//! root names the workloads and metrics.

pub mod alloc;
pub mod gate;
pub mod probe;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

/// Environment variables that would retarget the program (`GNNOPT_*`:
/// threads, fused, GEMM, rowops, reorder, shards, arena, failpoints,
/// guard), sorted.
pub fn retargeting_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GNNOPT_"))
        .collect();
    names.sort();
    names
}
