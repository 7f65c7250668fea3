//! Small statistics and the closure arithmetic of the per-layer budget.

/// Median of `values` (mean of the two middle values for an even
/// count).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a timing series"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The smallest of `seconds`: the least disturbed of repeats of one
/// deterministic piece of work, for work that cannot be cut into segments
/// (see [`SegmentFloor`]).
///
/// # Panics
///
/// Panics if `seconds` is empty.
pub fn fastest(seconds: &[f64]) -> f64 {
    seconds
        .iter()
        .copied()
        .reduce(f64::min)
        .expect("at least one rep")
}

/// The quiet-host time of a rep, assembled from the least disturbed
/// sample of each of its segments.
///
/// Every rep of a run does identical, deterministic work, cut into the
/// same segments at the same points of the simulation. On this host a
/// neighbour slows tens of milliseconds at a time, so within a few reps
/// every segment has run undisturbed at least once, though no whole rep
/// has: the sum of the per-segment minima is the time of a rep no
/// neighbour touched.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentFloor {
    min_s: Vec<f64>,
    reps: usize,
}

impl SegmentFloor {
    /// Folds the segment times of one more rep in. Returns `false`, and
    /// folds nothing, when the rep is not cut like the ones before it.
    pub fn fold(&mut self, segments_s: &[f64]) -> bool {
        if self.reps == 0 {
            self.min_s = segments_s.to_vec();
        } else if self.min_s.len() != segments_s.len() {
            return false;
        } else {
            for (min, s) in self.min_s.iter_mut().zip(segments_s) {
                *min = min.min(*s);
            }
        }
        self.reps += 1;
        true
    }

    /// Reps folded in. The more, the closer the sum comes to the quiet
    /// host's: two floors compare fairly only over as many reps each.
    pub fn reps(&self) -> usize {
        self.reps
    }

    /// Σ over segments of the fastest sample.
    pub fn total_s(&self) -> f64 {
        self.min_s.iter().sum()
    }

    /// The fastest sample of each segment.
    pub fn min_s(&self) -> &[f64] {
        &self.min_s
    }

    /// Segments per rep.
    pub fn segments(&self) -> usize {
        self.min_s.len()
    }
}

/// Nearest-rank percentile `q` (in `0..=100`) of an ascending-sorted
/// series: the smallest value with at least `q` % of the series at or
/// below it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile_sorted(sorted: &[u32], q: f64) -> u32 {
    assert!(!sorted.is_empty(), "percentile of an empty series");
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Distance between the first and third quartile as a share of the
/// median — the spread figure the driver computes over ten runs.
pub fn quartile_spread(values: &[f64]) -> f64 {
    // Python's `statistics.quantiles(values, n=4)` (exclusive method).
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a metric series"));
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(3) - at(1)) / median(values)
}

/// The per-layer wall-time budget of one traced engine pass, ns.
///
/// Every field is measured around a different call, so no nanosecond is
/// in two of them; `tail_latency_est` is the one estimate (LC
/// completions × the standalone cost of one measurement).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Budget {
    /// `TimedStream`: arrival generation.
    pub arrival: f64,
    /// `engine;heap;push`.
    pub heap_push: f64,
    /// `engine;heap;pop`.
    pub heap_pop: f64,
    /// Σ `engine;decide;<lane>`.
    pub decide_self: f64,
    /// `engine;decide;forward`.
    pub forward: f64,
    /// `engine;sample`.
    pub sample: f64,
    /// `TimedObserver` around the wrapped observer's hooks.
    pub obs_record: f64,
    /// Estimated LC tail-latency measurement.
    pub tail_latency_est: f64,
}

impl Budget {
    /// Sum of every attributed layer.
    pub fn attributed(&self) -> f64 {
        self.arrival
            + self.heap_push
            + self.heap_pop
            + self.decide_self
            + self.forward
            + self.sample
            + self.obs_record
            + self.tail_latency_est
    }

    /// The closure residual: `traced_wall_ns` minus every attributed
    /// layer. Attributed layers plus this equal the traced wall exactly.
    pub fn unattributed(&self, traced_wall_ns: f64) -> f64 {
        traced_wall_ns - self.attributed()
    }

    /// The residual as a share of the traced wall.
    pub fn unattributed_frac(&self, traced_wall_ns: f64) -> f64 {
        self.unattributed(traced_wall_ns) / traced_wall_ns
    }
}

/// A residual above this share prints a WARNING: the budget has a hole.
pub const UNATTRIBUTED_WARN_FRAC: f64 = 0.10;
/// A residual below this share means layers were double counted.
pub const UNATTRIBUTED_MIN_FRAC: f64 = -0.02;
