//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload as a closed training loop and prints the
//! configuration, every metric with its unit, the memory report and the
//! correctness gate's findings; the last line of standard output is the
//! JSON result. `--trace 1` reports per-layer metrics instead of
//! end-to-end ones and writes the span file under `perfbench/out/`.
//! Exits 2 on bad arguments or when a `GNNOPT_*` variable is set, 1 when
//! the run fails or the gate finds a mismatch.

use gnnopt_perfbench::alloc::CountingAlloc;
use gnnopt_perfbench::run::{run, RunConfig};
use gnnopt_perfbench::workload::{Workload, NAMES};
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 40.0;

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        workload: Workload::parse(NAMES[0]).expect("the first name is a workload"),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        probes: true,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| bad(&format!("expected one of {NAMES:?}")))?,
                )
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("expected a whole number"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

/// The checked-out commit, when the tree is a git checkout.
fn commit(repo: &Path) -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(&repo.join(".git/HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&repo.join(".git").join(r)).unwrap_or(head),
            None => head,
        },
        None => "none (not a git checkout)".to_owned(),
    }
}

/// FNV-1a over the paths and contents of the program's and the
/// benchmark's sources, so result files of one tree can be matched
/// without git.
fn source_digest(repo: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&repo.join("crates"), &mut files);
    walk(&repo.join("perfbench/src"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let rel = f
            .strip_prefix(repo)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(&f).unwrap_or_default();
        for &b in rel.as_bytes().iter().chain(&body) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn main() -> ExitCode {
    let env = gnnopt_perfbench::retargeting_env();
    if !env.is_empty() {
        eprintln!("perfbench: refusing to run with {env:?} set; unset every GNNOPT_* variable");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = bench_dir.parent().unwrap_or(bench_dir);
    let out = match run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "source: commit {}, digest {:016x}",
        commit(repo),
        source_digest(repo)
    );
    for line in &out.lines {
        println!("{line}");
    }
    if cfg.trace {
        let path = bench_dir.join(format!(
            "out/trace-{}-seed{}.json",
            cfg.workload.name, cfg.seed
        ));
        let written = std::fs::create_dir_all(bench_dir.join("out"))
            .and_then(|()| std::fs::write(&path, out.tracer.to_json()));
        match written {
            Ok(()) => println!(
                "trace: {} spans ({} dropped) written to {}",
                out.tracer.spans().len(),
                out.tracer.dropped(),
                path.strip_prefix(repo).unwrap_or(&path).display()
            ),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    println!("{}", out.result.to_json());
    if out.result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: the correctness gate failed");
        ExitCode::from(1)
    }
}
