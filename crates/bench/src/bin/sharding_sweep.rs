//! Sharded-execution sweep: measures the edge-cut sharded session on
//! RMAT graphs up to scale 20 (the ~16.8M-edge point) across shard
//! counts, reporting per-shard arena bytes (the memory the sharding
//! exists to split), cut edges, halo vertices, and the **per-kernel
//! cross-shard traffic** of one training step — every halo exchange,
//! replica patch and global gather/scatter, with rows and bytes — then
//! writes `BENCH_PR9.json`.
//!
//! The workload is the same GCN configuration as the committed
//! `BENCH_PR8.json` step rows (64 → 64 → 32 on RMAT edge-factor 16), so
//! the `shards = 1` row at scale 16 is directly comparable to the PR 8
//! `GCN`/`Blocked` row: the single-shard path is a plain [`Session`]
//! and must reproduce its step time within noise — the snapshot records
//! the ratio.
//!
//! Run with `cargo run --release -p gnnopt-bench --bin sharding_sweep`;
//! `GNNOPT_SMOKE=1` shrinks the sweep to seconds and skips the file
//! write (a schema check, never a measurement).

use gnnopt_bench::{smoke, smoke_scale};
use gnnopt_core::{compile, CompileOptions};
use gnnopt_exec::{Bindings, EnvOverrides, ShardedSession};
use gnnopt_graph::{generators, Graph};
use gnnopt_models::{gcn, GcnConfig, ModelSpec};
use gnnopt_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Traffic of one plan kernel within one step, summed over exchanges.
#[derive(Serialize)]
struct KernelTrafficRow {
    kernel: usize,
    backward: bool,
    /// Exchange kinds seen (`VertexHalo`, `EdgeReplica`, ...).
    kinds: Vec<String>,
    exchanges: u64,
    rows: u64,
    bytes: u64,
}

/// One (graph scale, shard count) measurement.
#[derive(Serialize)]
struct SweepRow {
    scale: u32,
    num_vertices: usize,
    num_edges: usize,
    shards: usize,
    /// Edges whose endpoints land in different shards.
    cut_edges: u64,
    /// Union halo rows summed over shards.
    halo_vertices: u64,
    /// Cross-shard bytes moved by one training step.
    comm_bytes: u64,
    /// Number of exchange events in one step.
    halo_exchanges: u64,
    /// Per-shard planned arena bytes — the per-shard memory footprint.
    arena_bytes_per_shard: Vec<u64>,
    /// Largest single shard arena: the actual peak if shards ran on
    /// separate memory domains.
    max_shard_arena_bytes: u64,
    /// Sum of shard arenas: the replication + halo overhead vs one
    /// unsharded arena shows up here.
    total_arena_bytes: u64,
    forward_ms: f64,
    backward_ms: f64,
    step_ms: f64,
    /// Cross-shard traffic grouped by plan kernel (empty at shards=1).
    kernel_traffic: Vec<KernelTrafficRow>,
}

/// Comparison of the shards=1 control row against the committed PR 8
/// GCN step row on the same workload.
#[derive(Serialize)]
struct ControlRow {
    pr8_step_ms: f64,
    sharded1_step_ms: f64,
    /// `sharded1 / pr8` — must sit near 1.0: one shard is a plain
    /// session.
    ratio: f64,
}

#[derive(Serialize)]
struct Snapshot {
    /// Snapshot schema marker.
    schema: String,
    smoke: bool,
    threads: usize,
    model: String,
    sweep: Vec<SweepRow>,
    /// Present when `BENCH_PR8.json` is readable and the scale-16
    /// shards=1 row was measured.
    control_vs_pr8: Option<ControlRow>,
}

#[derive(Deserialize)]
struct Pr8Snapshot {
    steps: Vec<Pr8StepRow>,
}

#[derive(Deserialize)]
struct Pr8StepRow {
    model: String,
    kernel: String,
    step_ms: f64,
    arena: bool,
    threads: usize,
}

/// GCN 64-64-32: the model of the GCN rows in `BENCH_PR8.json`.
fn model() -> ModelSpec {
    gcn(&GcnConfig {
        in_dim: 64,
        layer_dims: vec![64, 32],
    })
    .expect("gcn builds")
}

fn measure(spec: &ModelSpec, graph: &Graph, scale: u32, k: usize, reps: usize) -> SweepRow {
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).expect("compiles");
    let mut b = Bindings::new();
    for (name, v) in spec.init_values(graph, 11) {
        b.insert(&name, v.clone());
    }
    let mut sess = ShardedSession::builder(&compiled.plan, graph)
        .shards(k)
        .env(EnvOverrides::Off)
        .build()
        .expect("sharded session");
    let seed = Tensor::ones(&[graph.num_vertices(), spec.output_dim()]);
    sess.step(&b, &seed).expect("warmup step");
    let mut best = sess.stats();
    for _ in 1..reps {
        sess.step(&b, &seed).expect("step");
        let s = sess.stats();
        if s.forward_seconds + s.backward_seconds < best.forward_seconds + best.backward_seconds {
            best = s;
        }
    }

    // Aggregate the last step's exchanges per kernel.
    let mut traffic: Vec<KernelTrafficRow> = Vec::new();
    for r in sess.exchanges() {
        let kind = format!("{:?}", r.kind);
        match traffic
            .iter_mut()
            .find(|t| t.kernel == r.kernel && t.backward == r.backward)
        {
            Some(t) => {
                t.exchanges += 1;
                t.rows += r.rows;
                t.bytes += r.bytes;
                if !t.kinds.contains(&kind) {
                    t.kinds.push(kind);
                }
            }
            None => traffic.push(KernelTrafficRow {
                kernel: r.kernel,
                backward: r.backward,
                kinds: vec![kind],
                exchanges: 1,
                rows: r.rows,
                bytes: r.bytes,
            }),
        }
    }

    let arenas: Vec<u64> = sess
        .shard_summaries()
        .iter()
        .map(|s| s.arena_bytes)
        .collect();
    SweepRow {
        scale,
        num_vertices: graph.num_vertices(),
        num_edges: graph.num_edges(),
        shards: sess.num_shards(),
        cut_edges: best.cut_edges,
        halo_vertices: best.halo_vertices,
        comm_bytes: best.comm_bytes,
        halo_exchanges: best.halo_exchanges,
        max_shard_arena_bytes: arenas.iter().copied().max().unwrap_or(0),
        total_arena_bytes: arenas.iter().sum(),
        arena_bytes_per_shard: arenas,
        forward_ms: best.forward_seconds * 1e3,
        backward_ms: best.backward_seconds * 1e3,
        step_ms: (best.forward_seconds + best.backward_seconds) * 1e3,
        kernel_traffic: traffic,
    }
}

/// The committed PR 8 GCN step time on the matching configuration: the
/// `Blocked`-kernel arena-on row at the auto thread count.
fn pr8_gcn_step_ms(path: &std::path::Path, threads: usize) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let snap: Pr8Snapshot = serde_json::from_str(&text).ok()?;
    snap.steps
        .iter()
        .find(|r| r.model == "GCN" && r.kernel == "Blocked" && r.arena && r.threads == threads)
        .map(|r| r.step_ms)
}

fn main() {
    let spec = model();
    let control_scale = smoke_scale(16u32, 6);
    let scales: Vec<u32> = smoke_scale(vec![16, 18, 20], vec![6]);
    let shard_counts = smoke_scale(vec![1usize, 2, 4, 8], vec![1usize, 2]);
    let reps = smoke_scale(3usize, 1);

    let mut sweep = Vec::new();
    for &scale in &scales {
        let graph = Graph::from_edge_list(&generators::rmat(scale, 16, 0.57, 0.19, 0.19, 7));
        // The full shard axis at the largest scale (the point of the
        // sweep) and at the PR 8 control scale; endpoints elsewhere.
        let ks: Vec<usize> = if scale == *scales.last().unwrap() || scale == control_scale {
            shard_counts.clone()
        } else {
            vec![shard_counts[0], *shard_counts.last().unwrap()]
        };
        for &k in &ks {
            eprintln!("measuring scale={scale} shards={k} ...");
            sweep.push(measure(&spec, &graph, scale, k, reps));
        }
    }

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let threads = gnnopt_tensor::parallel::available_threads();
    // The smoke workload is not the PR 8 workload: no comparison there.
    let control_vs_pr8 = sweep
        .iter()
        .filter(|_| !smoke())
        .find(|r| r.scale == control_scale && r.shards == 1)
        .and_then(|row| {
            let pr8 = pr8_gcn_step_ms(&root.join("BENCH_PR8.json"), threads)?;
            Some(ControlRow {
                pr8_step_ms: pr8,
                sharded1_step_ms: row.step_ms,
                ratio: row.step_ms / pr8,
            })
        });

    let snapshot = Snapshot {
        schema: "pr9-sharded-execution".to_owned(),
        smoke: smoke(),
        threads,
        model: "GCN 64-64-32 rmat ef16".to_owned(),
        sweep,
        control_vs_pr8,
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    println!("{json}");
    if smoke() {
        eprintln!("smoke mode: not overwriting BENCH_PR9.json");
    } else {
        let path = root.join("BENCH_PR9.json");
        std::fs::write(&path, &json).expect("BENCH_PR9.json writes");
        eprintln!("wrote {}", path.display());
    }
}
