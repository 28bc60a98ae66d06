//! Machine probes: process memory, cache size, a STREAM-style triad and
//! a GEMM at a workload's first-layer shape.

use gnnopt_tensor::gemm::{self, GemmKernel, Layout};
use std::hint::black_box;
use std::time::Instant;

/// Decimal megabyte, the unit of every `_mb` metric.
pub const MB: f64 = 1e6;

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / MB)
}

/// Size in bytes of the highest-level CPU cache the kernel reports for
/// CPU 0.
pub fn last_level_cache_bytes() -> Option<u64> {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let mut best: Option<(u32, u64)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let (digits, mult) = match size.as_bytes().last() {
            Some(b'K') => (&size[..size.len() - 1], 1 << 10),
            Some(b'M') => (&size[..size.len() - 1], 1 << 20),
            _ => (size, 1),
        };
        let Ok(n) = digits.parse::<u64>() else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, n * mult));
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// A triad measurement: the best of several passes.
#[derive(Debug, Clone, Copy)]
pub struct Triad {
    pub gbps: f64,
    /// Bytes of the three arrays together.
    pub working_set_bytes: u64,
}

/// STREAM triad `a = b + s·c` over three `f32` arrays totalling
/// `working_set_bytes`, split across `threads` workers; reports the best
/// of `passes` passes, counting 12 bytes moved per element.
pub fn triad(working_set_bytes: u64, threads: usize, passes: usize) -> Triad {
    let n = (working_set_bytes / 12) as usize;
    let threads = threads.max(1);
    let chunk = n.div_ceil(threads);
    let mut a = vec![0f32; n];
    let mut b = vec![0f32; n];
    let mut c = vec![0f32; n];
    // First touch in the workers, as the passes will.
    std::thread::scope(|s| {
        for ((a, b), c) in a
            .chunks_mut(chunk)
            .zip(b.chunks_mut(chunk))
            .zip(c.chunks_mut(chunk))
        {
            s.spawn(move || {
                a.fill(0.0);
                b.fill(1.0);
                c.fill(2.0);
            });
        }
    });
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let t = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    let scalar = black_box(3.0f32);
                    for ((x, &y), &z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + scalar * z;
                    }
                });
            }
        });
        best = best.min(t.elapsed().as_secs_f64());
        black_box(&a);
    }
    Triad {
        gbps: (12 * n) as f64 / best / 1e9,
        working_set_bytes: (12 * n) as u64,
    }
}

/// Median GFLOP/s of the blocked GEMM `[m,k]·[k,n]` on `threads`
/// workers, over at least `min_reps` products and `min_seconds`.
pub fn gemm_gflops(
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
    min_reps: usize,
    min_seconds: f64,
) -> f64 {
    let a: Vec<f32> = (0..m * k)
        .map(|i| ((i % 17) as f32 - 8.0) * 0.125)
        .collect();
    let b: Vec<f32> = (0..k * n).map(|i| ((i % 13) as f32 - 6.0) * 0.25).collect();
    let mut out = vec![0f32; m * n];
    let mut secs = Vec::new();
    let start = Instant::now();
    while secs.len() < min_reps || start.elapsed().as_secs_f64() < min_seconds {
        let t = Instant::now();
        gemm::gemm(
            GemmKernel::Blocked,
            Layout::Nn,
            black_box(&a),
            black_box(&b),
            &mut out,
            m,
            k,
            n,
            threads,
            false,
        );
        secs.push(t.elapsed().as_secs_f64());
        black_box(&out);
    }
    2.0 * (m * k * n) as f64 / crate::stats::median(&secs) / 1e9
}
