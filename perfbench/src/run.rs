//! One benchmark run: set up a workload, train in a closed loop, check
//! the outputs, and report metrics.
//!
//! A step is `forward → softmax_cross_entropy_masked → backward →
//! Adam::step`; the next starts when the previous returns. Set-up
//! (graph, inputs, `compile`, executor build, the first — cold — step)
//! runs [`Workload::setups`] times and reports the median. With tracing
//! off the run reports the end-to-end metrics; with tracing on it times
//! half the run untraced and half traced, and reports per-layer metrics
//! from the spans.

use crate::alloc;
use crate::gate;
use crate::probe::{self, MB};
use crate::report::{Metric, RunResult};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::workload::{Executor, Inputs, Seeds, Workload};
use gnnopt_core::pipeline::CompiledModel;
use gnnopt_core::{compile, kernel_phase, CompileOptions, Phase};
use gnnopt_exec::{Bindings, ExecError};
use gnnopt_graph::Graph;
use gnnopt_models::ModelSpec;
use gnnopt_tensor::Tensor;
use gnnopt_train::{softmax_cross_entropy_masked, Adam, Optimizer};
use std::collections::HashMap;
use std::time::Instant;

/// Adam learning rate of the training loop.
const LEARNING_RATE: f32 = 0.01;

/// Steps (the cold one first) the loss digest covers; every run makes
/// at least this many.
pub const LOSS_DIGEST_STEPS: usize = 12;

/// Span buffer size of a traced run.
const SPAN_CAPACITY: usize = 1 << 16;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed loop (split in two halves when tracing).
    pub seconds: f64,
    pub trace: bool,
    /// Run the machine probes of a traced run (triad, GEMM).
    pub probes: bool,
}

/// What a run found.
#[derive(Debug)]
pub struct Outcome {
    /// The verdict and the metrics of the chosen mode.
    pub result: RunResult,
    /// Human-readable report: configuration, metrics with units, the
    /// memory report and the gate's findings.
    pub lines: Vec<String>,
    /// FNV-1a of the first [`LOSS_DIGEST_STEPS`] losses' bits.
    pub loss_digest: u64,
    /// The spans of a traced run.
    pub tracer: Tracer,
}

/// Leaves, graph and compiled plan of one set-up.
struct Prepared {
    graph: Graph,
    inputs: Inputs,
    compiled: CompiledModel,
}

fn prepare(
    w: &Workload,
    spec: &ModelSpec,
    seeds: Seeds,
    tr: &mut Tracer,
) -> Result<Prepared, String> {
    let s = tr.open("graph.build");
    let graph = w.build_graph(seeds.graph);
    tr.close(s);
    let s = tr.open("models.init");
    let inputs = Inputs::generate(spec, &graph, seeds);
    tr.close(s);
    let s = tr.open("core.compile");
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).map_err(|e| e.to_string());
    tr.close(s);
    Ok(Prepared {
        graph,
        inputs,
        compiled: compiled?,
    })
}

/// A training step's results.
struct StepOut {
    loss: f32,
    logits: Tensor,
    grads: HashMap<String, Tensor>,
    /// Heap allocations made inside `forward` and `backward`.
    allocs: u64,
}

/// The closed training loop over one executor.
struct Trainer<'a> {
    exec: Executor<'a>,
    bindings: Bindings,
    params: HashMap<String, Tensor>,
    names: &'a [String],
    labels: &'a [usize],
    mask: &'a [bool],
    adam: Adam,
}

impl<'a> Trainer<'a> {
    /// Builds the executor and runs the cold first step.
    fn start(w: &Workload, p: &'a Prepared, tr: &mut Tracer) -> Result<(Self, StepOut), String> {
        let s = tr.open("exec.build");
        let exec = Executor::build(&p.compiled.plan, &p.graph, w.shards());
        tr.close(s);
        let params = p
            .inputs
            .params
            .iter()
            .map(|n| (n.clone(), p.inputs.init[n].clone()))
            .collect();
        let mut t = Self {
            exec: exec.map_err(|e| e.to_string())?,
            bindings: p.inputs.bindings(),
            params,
            names: &p.inputs.params,
            labels: &p.inputs.labels,
            mask: &p.inputs.mask,
            adam: Adam::new(LEARNING_RATE),
        };
        let s = tr.open("bench.first_step");
        let first = t.step(tr);
        tr.close(s);
        match first {
            Ok(out) if out.loss.is_finite() => Ok((t, out)),
            Ok(out) => Err(format!("the cold step's loss is {}", out.loss)),
            Err(e) => Err(format!("the cold step failed: {e}")),
        }
    }

    /// One step. A non-finite loss skips backward and the update.
    fn step(&mut self, tr: &mut Tracer) -> Result<StepOut, ExecError> {
        let s = tr.open("exec.forward");
        let a0 = alloc::allocations();
        let outputs = self.exec.forward(&self.bindings);
        let a1 = alloc::allocations();
        tr.close(s);
        let logits = outputs?.swap_remove(0);
        let s = tr.open("train.loss");
        let (loss, seed) = softmax_cross_entropy_masked(&logits, self.labels, self.mask);
        tr.close(s);
        if !loss.is_finite() {
            return Ok(StepOut {
                loss,
                logits,
                grads: HashMap::new(),
                allocs: a1 - a0,
            });
        }
        let s = tr.open("exec.backward");
        let a2 = alloc::allocations();
        let grads = self.exec.backward(seed);
        let a3 = alloc::allocations();
        tr.close(s);
        let grads = grads?;
        let s = tr.open("train.optim");
        self.adam.step(&mut self.params, &grads);
        tr.close(s);
        for n in self.names {
            self.bindings.insert(n, self.params[n].clone());
        }
        Ok(StepOut {
            loss,
            logits,
            grads,
            allocs: (a1 - a0) + (a3 - a2),
        })
    }
}

/// What a timed loop measured.
#[derive(Debug, Default)]
struct LoopStats {
    step_s: Vec<f64>,
    allocs: Vec<u64>,
    attempted: u64,
    failed: u64,
    max_fallback_allocs: u64,
}

/// Steps until `seconds` have passed and at least `min_steps` ran.
fn timed_loop(
    t: &mut Trainer<'_>,
    tr: &mut Tracer,
    next_step: &mut u32,
    seconds: f64,
    min_steps: usize,
    losses: &mut Vec<f32>,
) -> LoopStats {
    let mut st = LoopStats {
        step_s: Vec::with_capacity(1 << 16),
        allocs: Vec::with_capacity(1 << 16),
        ..LoopStats::default()
    };
    let start = Instant::now();
    while st.step_s.len() < min_steps || start.elapsed().as_secs_f64() < seconds {
        tr.set_step(*next_step);
        *next_step += 1;
        let t0 = Instant::now();
        let s = tr.open("bench.step");
        let out = t.step(tr);
        tr.close(s);
        let dt = t0.elapsed().as_secs_f64();
        st.attempted += 1;
        match out {
            Ok(out) if out.loss.is_finite() => {
                st.step_s.push(dt);
                st.allocs.push(out.allocs);
                losses.push(out.loss);
                st.max_fallback_allocs = st.max_fallback_allocs.max(t.exec.stats().fallback_allocs);
            }
            Ok(out) => {
                losses.push(out.loss);
                st.failed += 1;
            }
            Err(_) => st.failed += 1,
        }
        // A session whose every step fails (a poisoned one fails fast)
        // stops after `min_steps` attempts instead of spinning.
        if st.step_s.is_empty() && st.attempted >= min_steps as u64 {
            break;
        }
    }
    st
}

/// FNV-1a over the bits of `losses`.
fn loss_digest(losses: &[f32]) -> u64 {
    losses.iter().fold(0xcbf2_9ce4_8422_2325, |h, l| {
        l.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Runs one workload.
///
/// # Errors
///
/// Fails when set-up, the cold step or the reference executors fail.
/// Failed timed steps are counted, not raised, and a gate mismatch is
/// reported through `result.correct`.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let w = cfg.workload;
    let spec = w.model();
    let seeds = Seeds::derive(cfg.seed);
    let mut tr = if cfg.trace {
        Tracer::on(SPAN_CAPACITY)
    } else {
        Tracer::off()
    };
    let mut next_step = 0u32;

    // Set-ups: all but the last are dropped; the last one trains.
    let mut setup_s = Vec::new();
    for _ in 1..w.setups() {
        tr.set_step(next_step);
        next_step += 1;
        let t0 = Instant::now();
        let root = tr.open("bench.setup");
        let p = prepare(&w, &spec, seeds, &mut tr)?;
        let started = Trainer::start(&w, &p, &mut tr)?;
        tr.close(root);
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(started);
    }
    tr.set_step(next_step);
    next_step += 1;
    let t0 = Instant::now();
    let root = tr.open("bench.setup");
    let p = prepare(&w, &spec, seeds, &mut tr)?;
    let (mut trainer, first) = Trainer::start(&w, &p, &mut tr)?;
    tr.close(root);
    setup_s.push(t0.elapsed().as_secs_f64());

    let mut losses = vec![first.loss];
    let min_steps = LOSS_DIGEST_STEPS.max(stats::TAIL_MIN_SAMPLES);
    let plain_seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let plain = timed_loop(
        &mut trainer,
        &mut Tracer::off(),
        &mut next_step,
        plain_seconds,
        min_steps,
        &mut losses,
    );
    let first_traced = next_step;
    let traced = cfg.trace.then(|| {
        timed_loop(
            &mut trainer,
            &mut tr,
            &mut next_step,
            cfg.seconds / 2.0,
            min_steps,
            &mut losses,
        )
    });
    let peak_rss = probe::peak_rss_mb();
    let run_stats = trainer.exec.stats();
    let largest_arena = trainer.exec.largest_arena_bytes();
    let shards = trainer.exec.shards();
    drop(trainer);

    let mut lines = Vec::new();
    lines.push(format!(
        "config: workload={} seed={} threads={} fused={} reorder={:?} shards={shards} rowops={} available_parallelism={}",
        w.name,
        cfg.seed,
        run_stats.threads,
        p.compiled.plan.exec.fused,
        run_stats.reorder,
        rowops_path(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    ));

    let attempted = plain.attempted + traced.as_ref().map_or(0, |t| t.attempted);
    let failed = plain.failed + traced.as_ref().map_or(0, |t| t.failed);
    lines.push(format!(
        "steps: {attempted} attempted, {failed} failed, fail_ratio {:.6}",
        failed as f64 / attempted.max(1) as f64
    ));
    let digest = loss_digest(&losses[..LOSS_DIGEST_STEPS.min(losses.len())]);
    lines.push(format!(
        "loss: {} steps, first {:.6}, last {:.6}; digest of the first {LOSS_DIGEST_STEPS} steps {digest:016x}",
        losses.len(),
        losses[0],
        losses[losses.len() - 1],
    ));
    let plain_ms: Vec<f64> = plain.step_s.iter().map(|s| s * 1e3).collect();
    let p50 = median(&plain_ms);
    let max_fallback_allocs = traced
        .as_ref()
        .map_or(0, |t| t.max_fallback_allocs)
        .max(plain.max_fallback_allocs);

    let metrics = if let Some(traced) = &traced {
        let x = PerLayerInputs {
            w: &w,
            p: &p,
            tr: &tr,
            first_traced,
            traced,
            plain_p50_ms: p50,
            run_stats,
            largest_arena,
            max_fallback_allocs,
            probes: cfg.probes,
        };
        per_layer(&x, &mut lines)
    } else {
        // The tail is printed, not a result metric: on gat-cora (73 ms
        // steps) the slowest ~2% follow the shared host's bursts, and its
        // ten-seed spread reached 0.25, the largest bound a metric may
        // have.
        match stats::tail(&plain_ms) {
            Some(t) => lines.push(format!(
                "step_ms.tail = {} ms: p{} of {} warmed steps ({} beyond it)",
                t.value, t.percentile, t.samples, t.beyond
            )),
            None => lines.push("step_ms.tail: too few successful steps".to_owned()),
        }
        vec![
            Metric::new("step_ms.p50", p50, "ms"),
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("peak_rss_mb", peak_rss.unwrap_or(f64::NAN), "MB"),
        ]
    };
    lines.push(memory_report(&run_stats, largest_arena));

    let report = gate::check(
        &spec,
        &p.graph,
        &p.compiled,
        &p.inputs,
        &first.logits,
        &first.grads,
    )?;
    lines.extend(report.lines.iter().cloned());
    let correct = report.passed() && metrics.iter().all(|m| m.value.is_finite());
    for m in &metrics {
        lines.push(format!("metric {} = {} {}", m.name, m.value, m.unit));
    }
    Ok(Outcome {
        result: RunResult {
            correct,
            attempted,
            failed,
            metrics,
        },
        lines,
        loss_digest: digest,
        tracer: tr,
    })
}

/// Planned-versus-measured memory of the last step.
fn memory_report(s: &gnnopt_exec::RunStats, largest_arena: u64) -> String {
    let flag = if s.peak_value_bytes > s.planned_peak_bytes {
        "MEASURED EXCEEDS PLANNED"
    } else {
        "within plan"
    };
    format!(
        "memory: exec.peak_value_mb {:.3} vs planned {:.3} (sum of shard arenas); exec.arena_mb {:.3} (largest shard) -- {flag}",
        s.peak_value_bytes as f64 / MB,
        s.planned_peak_bytes as f64 / MB,
        largest_arena as f64 / MB,
    )
}

/// The rowops build the process dispatches to.
fn rowops_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "scalar"
}

struct PerLayerInputs<'r> {
    w: &'r Workload,
    p: &'r Prepared,
    tr: &'r Tracer,
    first_traced: u32,
    traced: &'r LoopStats,
    plain_p50_ms: f64,
    run_stats: gnnopt_exec::RunStats,
    largest_arena: u64,
    max_fallback_allocs: u64,
    probes: bool,
}

/// The per-layer metrics of a traced run.
fn per_layer(x: &PerLayerInputs<'_>, lines: &mut Vec<String>) -> Vec<Metric> {
    let plan = &x.p.compiled.plan;
    let setup_median = |name: &str| median(&x.tr.seconds_of(name));
    let loop_ms = |name: &str| {
        let v: Vec<f64> =
            x.tr.spans()
                .iter()
                .filter(|s| s.name == name && s.step >= x.first_traced)
                .map(|s| s.seconds() * 1e3)
                .collect();
        median(&v)
    };

    // Analytic work of the plan on the real graph, by phase.
    let profiles = plan.profiles(&x.p.graph.stats());
    let (mut flops, mut bytes) = ([0u64; 2], [0u64; 2]);
    for (kid, prof) in profiles.iter().enumerate() {
        let i = usize::from(kernel_phase(plan, kid) == Phase::Backward);
        flops[i] += prof.flops;
        bytes[i] += prof.bytes_total();
    }
    lines.push(
        "core.fwd_gflop, core.bwd_gflop, core.fwd_io_mb, core.bwd_io_mb are computed by the cost model on this graph, not measured".to_owned(),
    );
    let fwd_ms = loop_ms("exec.forward");
    let bwd_ms = loop_ms("exec.backward");
    let traced_ms: Vec<f64> = x.traced.step_s.iter().map(|s| s * 1e3).collect();
    let s = &x.run_stats;
    let kernels = plan.kernels.len() as f64;

    let mut m = vec![
        Metric::new("graph.build_s", setup_median("graph.build"), "s"),
        Metric::new("core.compile_s", setup_median("core.compile"), "s"),
        Metric::new("core.kernels", kernels, "count"),
        Metric::new(
            "core.reorg_rewrites",
            x.p.compiled.reorg.rewrites as f64,
            "count",
        ),
        Metric::new("core.stash_values", plan.stash.len() as f64, "count"),
        Metric::new("core.fwd_gflop", flops[0] as f64 / 1e9, "GFLOP"),
        Metric::new("core.bwd_gflop", flops[1] as f64 / 1e9, "GFLOP"),
        Metric::new("core.fwd_io_mb", bytes[0] as f64 / MB, "MB"),
        Metric::new("core.bwd_io_mb", bytes[1] as f64 / MB, "MB"),
        Metric::new("exec.build_s", setup_median("exec.build"), "s"),
        Metric::new("exec.first_step_s", setup_median("bench.first_step"), "s"),
        Metric::new("exec.fwd_ms.p50", fwd_ms, "ms"),
        Metric::new("exec.bwd_ms.p50", bwd_ms, "ms"),
        Metric::new("exec.fwd_gbps", bytes[0] as f64 / fwd_ms / 1e6, "GB/s"),
        Metric::new("exec.bwd_gbps", bytes[1] as f64 / bwd_ms / 1e6, "GB/s"),
        Metric::new("exec.fwd_gflops", flops[0] as f64 / fwd_ms / 1e6, "GFLOP/s"),
        Metric::new("exec.bwd_gflops", flops[1] as f64 / bwd_ms / 1e6, "GFLOP/s"),
        Metric::new(
            "exec.allocs_per_step",
            median(
                &x.traced
                    .allocs
                    .iter()
                    .map(|&a| a as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        Metric::new(
            "exec.fallback_allocs",
            x.max_fallback_allocs as f64,
            "count",
        ),
        Metric::new(
            "exec.fused_share",
            s.fused_kernels as f64 / kernels,
            "ratio",
        ),
        Metric::new("exec.peak_value_mb", s.peak_value_bytes as f64 / MB, "MB"),
        Metric::new(
            "exec.planned_peak_mb",
            s.planned_peak_bytes as f64 / MB,
            "MB",
        ),
        Metric::new("exec.arena_mb", x.largest_arena as f64 / MB, "MB"),
        Metric::new("exec.boundary_mb", s.boundary_bytes as f64 / MB, "MB"),
        Metric::new("exec.comm_mb", s.comm_bytes as f64 / MB, "MB"),
        Metric::new("exec.exchanges", s.halo_exchanges as f64, "count"),
        Metric::new("exec.cut_edges", s.cut_edges as f64, "count"),
        Metric::new("exec.halo_vertices", s.halo_vertices as f64, "count"),
    ];
    if x.probes {
        let (mm, kk, nn) = x.w.first_linear(&x.p.graph);
        let gemm = probe::gemm_gflops(mm, kk, nn, x.run_stats.threads, 3, 0.3);
        lines.push(format!(
            "tensor.gemm_gflops: blocked GEMM {mm}x{kk}x{nn} on {} threads",
            x.run_stats.threads
        ));
        m.push(Metric::new("tensor.gemm_gflops", gemm, "GFLOP/s"));
    }
    m.push(Metric::new(
        "train.loss_ms.p50",
        loop_ms("train.loss"),
        "ms",
    ));
    m.push(Metric::new(
        "train.optim_ms.p50",
        loop_ms("train.optim"),
        "ms",
    ));
    if x.probes {
        let llc = probe::last_level_cache_bytes().unwrap_or(32 << 20);
        let t = probe::triad(4 * llc, x.run_stats.threads, 5);
        lines.push(format!(
            "bench.triad_gbps: last-level cache {:.1} MB, triad working set {:.1} MB (3 arrays of {:.1} MB), {} threads, best of 5",
            llc as f64 / MB,
            t.working_set_bytes as f64 / MB,
            t.working_set_bytes as f64 / 3.0 / MB,
            x.run_stats.threads
        ));
        m.push(Metric::new("bench.triad_gbps", t.gbps, "GB/s"));
    }
    m.push(Metric::new(
        "bench.trace_overhead",
        median(&traced_ms) / x.plain_p50_ms,
        "ratio",
    ));
    let by_layer = x.tr.self_seconds_by_layer();
    lines.push(format!(
        "self time by layer (s): {}",
        by_layer
            .iter()
            .map(|(l, s)| format!("{l} {s:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    m
}
