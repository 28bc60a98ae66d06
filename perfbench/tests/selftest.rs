//! Self-tests of the benchmark: its statistics, its result schema, its
//! span bookkeeping, its correctness gate, and a smoke-size run of every
//! workload whose counts must repeat exactly.

use gnnopt_core::{compile, CompileOptions};
use gnnopt_perfbench::gate;
use gnnopt_perfbench::report::{Metric, RunResult};
use gnnopt_perfbench::run::{run, RunConfig};
use gnnopt_perfbench::stats::{median, tail, Tail};
use gnnopt_perfbench::trace::{Tracer, NO_PARENT};
use gnnopt_perfbench::workload::{Executor, Inputs, Seeds, Workload, NAMES};
use gnnopt_train::softmax_cross_entropy_masked;
use std::process::Command;

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let samples = |n: usize| (1..=n).rev().map(|i| i as f64).collect::<Vec<_>>();
    let at = |percentile, value, beyond, samples| Tail {
        percentile,
        value,
        beyond,
        samples,
    };
    assert_eq!(tail(&samples(100)), Some(at(90, 90.0, 10, 100)));
    assert_eq!(tail(&samples(20)), Some(at(50, 10.0, 10, 20)));
    assert_eq!(tail(&samples(11)), Some(at(9, 1.0, 10, 11)));
    assert_eq!(tail(&samples(10)), None);
    // 1000 samples: p99 has exactly ten beyond it.
    assert_eq!(tail(&samples(1000)), Some(at(99, 990.0, 10, 1000)));
}

#[test]
fn result_schema_round_trips() {
    let r = RunResult {
        correct: true,
        attempted: 1234,
        failed: 3,
        metrics: vec![
            Metric::new("step_ms.p50", 576.436_472_000_000_1, "ms"),
            Metric::new("setup_s", 1.105_704_02e-3, "s"),
            Metric::new("exec.fwd_gbps", 1.0 / 3.0, "GB/s"),
        ],
    };
    let json = r.to_json();
    assert!(!json.contains('\n'));
    let back = RunResult::from_json(&json).expect("own output parses");
    assert_eq!(back, r);
    for (a, b) in back.metrics.iter().zip(&r.metrics) {
        assert_eq!(a.value.to_bits(), b.value.to_bits());
    }
}

#[test]
fn result_schema_rejects_other_shapes() {
    let ok =
        r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":1.5,"unit":"ms"}}}"#;
    assert!(RunResult::from_json(ok).is_ok());
    for bad in [
        r#"{"correct":true,"attempted":0,"failed":0,"metrics":{}}"#,
        r#"{"correct":true,"attempted":2,"failed":3,"metrics":{}}"#,
        r#"{"correct":1,"attempted":1,"failed":0,"metrics":{}}"#,
        r#"{"correct":true,"attempted":1,"failed":0,"metrics":{},"extra":1}"#,
        r#"{"correct":true,"attempted":1.5,"failed":0,"metrics":{}}"#,
        r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":1.5}}}"#,
        r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":"x","unit":"ms"}}}"#,
    ] {
        assert!(RunResult::from_json(bad).is_err(), "accepted {bad}");
    }
}

#[test]
fn spans_nest_and_self_time_excludes_children() {
    let mut tr = Tracer::on(8);
    tr.set_step(4);
    let root = tr.open("bench.step");
    let child = tr.open("exec.forward");
    std::thread::sleep(std::time::Duration::from_millis(2));
    tr.close(child);
    tr.close(root);
    let spans = tr.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[0].parent, NO_PARENT);
    assert_eq!(spans[1].parent, 0);
    assert!(spans.iter().all(|s| s.step == 4));
    let own = tr.self_seconds();
    assert!((own[0] + own[1] - spans[0].seconds()).abs() < 1e-12);
    assert!(own[1] >= 0.002);
    let by_layer = tr.self_seconds_by_layer();
    assert_eq!(
        by_layer.keys().copied().collect::<Vec<_>>(),
        ["bench", "exec"]
    );

    // A full buffer drops spans instead of growing; a disabled tracer
    // records nothing.
    let mut full = Tracer::on(1);
    let a = full.open("a.x");
    let b = full.open("b.y");
    full.close(b);
    full.close(a);
    assert_eq!((full.spans().len(), full.dropped()), (1, 1));
    let mut off = Tracer::off();
    let s = off.open("a.x");
    off.close(s);
    assert!(off.spans().is_empty());
}

#[test]
fn gate_flags_a_one_ulp_change() {
    let w = Workload::parse("gat-cora").expect("named workload").smoke();
    let spec = w.model();
    let seeds = Seeds::derive(3);
    let graph = w.build_graph(seeds.graph);
    let inputs = Inputs::generate(&spec, &graph, seeds);
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).expect("compiles");
    let mut sess = Executor::reference(&compiled.plan, &graph).expect("builds");
    let mut logits = sess
        .forward(&inputs.bindings())
        .expect("forward")
        .swap_remove(0);
    let (_, seed) = softmax_cross_entropy_masked(&logits, &inputs.labels, &inputs.mask);
    let grads = sess.backward(seed).expect("backward");

    let same = gate::check(&spec, &graph, &compiled, &inputs, &logits, &grads).expect("gate runs");
    assert!(same.passed(), "{:?}", same.mismatches);
    let x = &mut logits.as_mut_slice()[0];
    *x = f32::from_bits(x.to_bits() + 1);
    let nudged =
        gate::check(&spec, &graph, &compiled, &inputs, &logits, &grads).expect("gate runs");
    assert!(!nudged.passed());
    assert!(
        nudged.mismatches[0].contains("logits"),
        "{:?}",
        nudged.mismatches
    );
}

/// The counts of a traced smoke run that must repeat exactly.
fn counts(r: &RunResult) -> Vec<(String, u64)> {
    r.metrics
        .iter()
        .filter(|m| {
            (m.name.starts_with("core.") && !m.name.ends_with("_s"))
                || m.name == "exec.arena_mb"
                || m.name == "exec.comm_mb"
        })
        .map(|m| (m.name.clone(), m.value.to_bits()))
        .collect()
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let v: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let field = |v: &serde::Value, k: &str| {
        v.as_object()
            .and_then(|o| {
                o.iter()
                    .find_map(|(name, x)| (name == k).then(|| x.clone()))
            })
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{k}`"))
    };
    let serde::Value::Array(metrics) = field(&v, key) else {
        panic!("`{key}` is not a list");
    };
    metrics
        .iter()
        .map(|m| {
            let text = |k| field(m, k).as_str().expect("a string").to_owned();
            (text("name"), text("unit"))
        })
        .collect()
}

fn reported(r: &RunResult) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect()
}

#[test]
fn smoke_runs_pass_the_gate_and_repeat_their_counts() {
    // Probes are off in tests: the triad alone allocates four times the
    // last-level cache.
    let probes = ["tensor.gemm_gflops", "bench.triad_gbps"];
    let per_layer: Vec<_> = declared("per_layer")
        .into_iter()
        .filter(|(name, _)| !probes.contains(&name.as_str()))
        .collect();
    for name in NAMES {
        let cfg = RunConfig {
            workload: Workload::parse(name).expect("named workload").smoke(),
            seed: 11,
            seconds: 0.0,
            trace: true,
            probes: false,
        };
        let a = run(&cfg).expect("smoke run");
        let b = run(&cfg).expect("smoke run");
        for out in [&a, &b] {
            assert!(out.result.correct, "{name}: {:#?}", out.lines);
            assert_eq!(out.result.failed, 0, "{name}");
        }
        assert_eq!(counts(&a.result), counts(&b.result), "{name}");
        assert_eq!(counts(&a.result).len(), 9, "{name}");
        assert_eq!(a.loss_digest, b.loss_digest, "{name}");
        assert_eq!(reported(&a.result), per_layer, "{name}");
        let comm = a
            .result
            .metrics
            .iter()
            .find(|m| m.name == "exec.comm_mb")
            .expect("reported");
        assert_eq!(comm.value > 0.0, name == "gat-pubmed-2shard", "{name}");

        // The untraced run trains the same steps and reports the
        // end-to-end metrics.
        let plain = run(&RunConfig {
            trace: false,
            ..cfg
        })
        .expect("smoke run");
        assert!(plain.result.correct, "{name}: {:#?}", plain.lines);
        assert_eq!(plain.loss_digest, a.loss_digest, "{name}");
        assert_eq!(reported(&plain.result), declared("end_to_end"), "{name}");
    }
}

#[test]
fn the_command_refuses_retargeting_env_and_bad_arguments() {
    let exe = env!("CARGO_BIN_EXE_perfbench");
    let refused = Command::new(exe)
        .args(["--workload", "gat-cora", "--seconds", "0"])
        .env("GNNOPT_THREADS", "1")
        .output()
        .expect("spawns");
    assert_eq!(refused.status.code(), Some(2));
    assert!(refused.stdout.is_empty());
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "gat-cora", "--trace", "2"],
    ] {
        let out = Command::new(exe)
            .args(args)
            .env_remove("GNNOPT_THREADS")
            .output()
            .expect("spawns");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
