//! Order statistics of step-time samples: the median and the tail.

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The tail of a sample set: the highest whole percentile that still has
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (1–99) the value sits at.
    pub percentile: u32,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples ranked above it (at least [`TAIL_BEYOND`]).
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Fewest samples for which [`tail`] reports a percentile.
pub const TAIL_MIN_SAMPLES: usize = TAIL_BEYOND + 1;

/// The highest whole percentile `p` whose nearest-rank sample
/// (rank `⌈p·n/100⌉`) has at least [`TAIL_BEYOND`] samples ranked above
/// it; `None` with fewer than [`TAIL_MIN_SAMPLES`] samples.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    let s = sorted(xs);
    (1..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n - rank >= TAIL_BEYOND).then(|| Tail {
            percentile: p,
            value: s[rank - 1],
            beyond: n - rank,
            samples: n,
        })
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
