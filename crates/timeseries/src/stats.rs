//! Statistics used throughout the study: online moments, percentiles,
//! linear trends, and rank correlation.
//!
//! Six years of 300-second telemetry across 48 racks is too much to buffer,
//! so the aggregations are streaming: [`Welford`] for mean/variance,
//! [`P2Quantile`] for medians without storage. The batch helpers
//! ([`median`], [`percentile`], [`pearson`], [`spearman`], [`linear_fit`])
//! operate on the (much smaller) derived series.

use serde::{Deserialize, Serialize};

use mira_units::convert;

/// Online mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable for long streams; merging two accumulators is
/// supported so per-rack statistics can be combined into system totals.
///
/// ```
/// use mira_timeseries::Welford;
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// assert_eq!(w.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / convert::f64_from_u64(self.count);
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = convert::f64_from_u64(self.count);
        let n2 = convert::f64_from_u64(other.count);
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no observations have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (÷ n).
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / convert::f64_from_u64(self.count)
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn stddev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest observation (`+∞` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Relative spread `(max − min) / min`, the "up to X % difference
    /// across racks" statistic of Figs. 6, 7 and 9. Returns 0 when empty
    /// or when `min` is not positive.
    #[must_use]
    pub fn relative_spread(&self) -> f64 {
        if self.count == 0 || self.min <= 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.min
        }
    }
}

/// Structure-of-arrays staging for `W` independent [`Welford`]
/// accumulators fed one lane-aligned row at a time.
///
/// Each lane's update sequence is exactly [`Welford::push`] — same
/// expressions, same evaluation order, with the count carried as an
/// exact-integer `f64` (every `+1.0` below 2⁵³ is lossless) — so the
/// stored-back accumulators are bit-identical to pushing lane by lane.
/// The payoff is layout: the five state arrays are contiguous, so the
/// per-row loop autovectorizes across lanes instead of hopping between
/// interleaved accumulator structs, and the state stays register/L1
/// resident for the whole block.
///
/// ```
/// use mira_timeseries::{Welford, WelfordRows};
/// let mut a = [Welford::new(), Welford::new()];
/// let mut b = a;
/// let mut rows = WelfordRows::<2>::load(a.iter());
/// for row in [[1.0, 10.0], [3.0, 20.0]] {
///     rows.push_row(&row);
///     b[0].push(row[0]);
///     b[1].push(row[1]);
/// }
/// rows.store(a.iter_mut());
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct WelfordRows<const W: usize> {
    count: [f64; W],
    mean: [f64; W],
    m2: [f64; W],
    min: [f64; W],
    max: [f64; W],
}

impl<const W: usize> WelfordRows<W> {
    /// Stages exactly `W` accumulators into lane arrays.
    ///
    /// # Panics
    ///
    /// Panics unless the iterator yields exactly `W` accumulators.
    #[must_use]
    // Documented contract on a fixed-width staging buffer; every lane
    // write is at the asserted `l < W`. mira-lint: allow(panic-reachability)
    pub fn load<'a>(accs: impl IntoIterator<Item = &'a Welford>) -> Self {
        let mut rows = Self {
            count: [0.0; W],
            mean: [0.0; W],
            m2: [0.0; W],
            min: [0.0; W],
            max: [0.0; W],
        };
        let mut lanes = 0usize;
        for (l, acc) in accs.into_iter().enumerate() {
            assert!(l < W, "more than {W} accumulators");
            rows.count[l] = convert::f64_from_u64(acc.count);
            rows.mean[l] = acc.mean;
            rows.m2[l] = acc.m2;
            rows.min[l] = acc.min;
            rows.max[l] = acc.max;
            lanes = l + 1;
        }
        assert_eq!(lanes, W, "fewer than {W} accumulators");
        rows
    }

    /// Folds `row[l]` into lane `l`'s accumulator, for every lane.
    // All indexing is `l in 0..W` over `[f64; W]` lane arrays.
    // mira-lint: allow(panic-reachability)
    pub fn push_row(&mut self, row: &[f64; W]) {
        for (l, &x) in row.iter().enumerate() {
            self.count[l] += 1.0;
            let delta = x - self.mean[l];
            self.mean[l] += delta / self.count[l];
            let delta2 = x - self.mean[l];
            self.m2[l] += delta * delta2;
            self.min[l] = self.min[l].min(x);
            self.max[l] = self.max[l].max(x);
        }
    }

    /// Writes the staged lanes back into exactly `W` accumulators.
    ///
    /// # Panics
    ///
    /// Panics unless the iterator yields exactly `W` accumulators.
    // Documented contract on a fixed-width staging buffer.
    // mira-lint: allow(panic-reachability)
    pub fn store<'a>(&self, accs: impl IntoIterator<Item = &'a mut Welford>) {
        let mut lanes = 0usize;
        for (l, acc) in accs.into_iter().enumerate() {
            assert!(l < W, "more than {W} accumulators");
            acc.count = convert::u64_from_f64_exact(self.count[l]);
            acc.mean = self.mean[l];
            acc.m2 = self.m2[l];
            acc.min = self.min[l];
            acc.max = self.max[l];
            lanes = l + 1;
        }
        assert_eq!(lanes, W, "fewer than {W} accumulators");
    }
}

impl Extend<f64> for Welford {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Welford {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut w = Welford::new();
        w.extend(iter);
        w
    }
}

/// Streaming quantile estimator (Jain & Chlamtac's P² algorithm).
///
/// Estimates a single quantile with O(1) memory — the workhorse behind
/// per-calendar-bin medians. Exact for the first five observations, then
/// maintains five markers adjusted with piecewise-parabolic interpolation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights.
    q: [f64; 5],
    /// Marker positions (1-based counts).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Increments for desired positions.
    dn: [f64; 5],
    count: u64,
    /// Start-up buffer: while `count <= 5` its first `count` slots hold
    /// the observations so far, sorted; later it is unread.
    initial: [f64; 5],
}

impl P2Quantile {
    /// Creates an estimator for quantile `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1), got {p}");
        Self {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
            initial: [0.0; 5],
        }
    }

    /// A median estimator (`p = 0.5`).
    #[must_use]
    pub fn median() -> Self {
        Self::new(0.5)
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds one observation.
    // Marker arrays are fixed [f64; 5]; every index is a literal or a
    // loop variable in 0..5. mira-lint: allow(panic-reachability)
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if self.count <= 5 {
            let n = convert::usize_from_u64(self.count);
            self.initial[n - 1] = x;
            self.initial[..n].sort_by(f64::total_cmp);
            if n == 5 {
                self.q = self.initial;
            }
            return;
        }

        // Find cell k such that q[k] <= x < q[k+1], updating extremes.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            // The markers are sorted with q[0] <= x < q[4], so the
            // first cell with x < q[i+1] is exactly the number of
            // interior markers at or below x — the same k a first-match
            // scan finds, without its data-dependent branch (which
            // mispredicts on nearly every push: the landing cell is
            // close to uniform).
            usize::from(x >= self.q[1]) + usize::from(x >= self.q[2]) + usize::from(x >= self.q[3])
        };

        // Marker positions above the landing cell shift one to the
        // right. `i > k` contributes +1.0 or +0.0; the counts are
        // strictly positive, so adding 0.0 is the identity and the
        // fixed-trip loop stays branch-free.
        for i in 1..5 {
            self.n[i] += f64::from(i > k);
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }

        // Adjust the three interior markers.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let qp = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < qp && qp < self.q[i + 1] {
                    qp
                } else {
                    self.linear(i, d)
                };
                self.n[i] += d;
            }
        }
    }

    /// Merges another estimator for the *same* quantile into this one.
    ///
    /// P² is not exactly mergeable: each side keeps only five markers.
    /// While either side is still in its exact (≤ 5 observations)
    /// start-up phase the merge replays the buffered values and stays
    /// exact. Beyond that the interior markers are combined by
    /// count-weighted interpolation and the extremes by min/max, which
    /// keeps the estimate inside the observed range and is a close
    /// approximation when the two sides sample similar distributions
    /// (the calendar-sharded sweep case). The operation is
    /// deterministic: merging the same states always yields the same
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if the two estimators target different quantiles.
    // Marker arrays are fixed [f64; 5]; every index is a literal or a
    // loop variable in 0..5. mira-lint: allow(panic-reachability)
    pub fn merge(&mut self, other: &P2Quantile) {
        assert!(
            self.p.total_cmp(&other.p).is_eq(),
            "cannot merge estimators for different quantiles"
        );
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        if other.count <= 5 {
            // The right side still buffers raw values: replay them.
            for &x in other.buffered() {
                self.push(x);
            }
            return;
        }
        if self.count <= 5 {
            // Only the left side buffers raw values: adopt the larger
            // state, then replay our buffer into it.
            let mine = self.clone();
            *self = other.clone();
            for &x in mine.buffered() {
                self.push(x);
            }
            return;
        }

        // Both sides are past start-up: five markers each. Extremes
        // combine exactly; interior markers by count-weighted blend.
        let wa = convert::f64_from_u64(self.count);
        let wb = convert::f64_from_u64(other.count);
        let total = wa + wb;
        let mut q = [0.0; 5];
        q[0] = self.q[0].min(other.q[0]);
        q[4] = self.q[4].max(other.q[4]);
        for ((slot, &a), &b) in q[1..4].iter_mut().zip(&self.q[1..4]).zip(&other.q[1..4]) {
            *slot = (a * wa + b * wb) / total;
        }
        // Restore the monotone-marker invariant the adjustment step
        // relies on.
        for i in 1..5 {
            if q[i] < q[i - 1] {
                q[i] = q[i - 1];
            }
        }

        self.count += other.count;
        self.q = q;
        // Reset actual and desired positions to the closed-form desired
        // positions for the combined count, as if the markers had landed
        // exactly where the algorithm wants them.
        let nf = convert::f64_from_u64(self.count);
        for i in 0..5 {
            self.np[i] = 1.0 + (nf - 1.0) * self.dn[i];
        }
        self.n[0] = 1.0;
        self.n[4] = nf;
        for i in 1..4 {
            self.n[i] = self.np[i].round();
        }
        // Positions must stay strictly increasing (both counts were > 5,
        // so there is room).
        for i in 1..4 {
            if self.n[i] <= self.n[i - 1] {
                self.n[i] = self.n[i - 1] + 1.0;
            }
        }
        for i in (1..4).rev() {
            if self.n[i] >= self.n[i + 1] {
                self.n[i] = self.n[i + 1] - 1.0;
            }
        }
    }

    /// The buffered start-up observations, sorted (empty past start-up).
    // `count` is at most 5 on the slicing branch.
    // mira-lint: allow(panic-reachability)
    fn buffered(&self) -> &[f64] {
        if self.count <= 5 {
            &self.initial[..convert::usize_from_u64(self.count)]
        } else {
            &[]
        }
    }

    // Called with interior marker index i in 1..4 only; i±1 stay in
    // the fixed [f64; 5] arrays. mira-lint: allow(panic-reachability)
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let q = &self.q;
        let n = &self.n;
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    // Called with interior marker index i in 1..4 only; i±1 stay in
    // the fixed [f64; 5] arrays. mira-lint: allow(panic-reachability)
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// Current estimate of the quantile (exact below six observations;
    /// 0 when empty).
    #[must_use]
    // q[2] is a literal index into the fixed [f64; 5] marker array.
    // mira-lint: allow(panic-reachability)
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if self.count <= 5 {
            // The buffer is kept sorted by `push`, so the exact quantile
            // interpolates in place — no copy, no allocation.
            return percentile_sorted(self.buffered(), self.p * 100.0);
        }
        self.q[2]
    }
}

/// Result of an ordinary-least-squares line fit `y = slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    /// Slope of the fitted line, in y-units per x-unit.
    pub slope: f64,
    /// Intercept of the fitted line at `x = 0`.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r_squared: f64,
}

impl LinearFit {
    /// Evaluates the fitted line at `x`.
    #[must_use]
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Ordinary-least-squares fit of `y` against `x`.
///
/// Returns `None` when fewer than two points are given or when `x` has no
/// variance. This is the red trend line of the paper's Fig. 2.
#[must_use]
pub fn linear_fit(x: &[f64], y: &[f64]) -> Option<LinearFit> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = convert::f64_from_usize(x.len());
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxx: f64 = x.iter().map(|&xi| (xi - mx).powi(2)).sum();
    // Exact-zero divide guard.
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = x
        .iter()
        .zip(y)
        .map(|(&xi, &yi)| (xi - mx) * (yi - my))
        .sum();
    let syy: f64 = y.iter().map(|&yi| (yi - my).powi(2)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    // Exact-zero divide guard.
    let r_squared = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some(LinearFit {
        slope,
        intercept,
        r_squared,
    })
}

/// Arithmetic mean of a slice (0 when empty).
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / convert::f64_from_usize(xs.len())
    }
}

/// Population standard deviation of a slice (0 when empty).
#[must_use]
pub fn stddev(xs: &[f64]) -> f64 {
    let w: Welford = xs.iter().copied().collect();
    w.stddev()
}

/// The `p`-th percentile (0–100) of a slice, by linear interpolation
/// between closest ranks. Returns 0 for an empty slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or any value is NaN.
#[must_use]
// rank <= len - 1, so floor/ceil indices stay in bounds.
// mira-lint: allow(panic-reachability)
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// [`percentile`] over a slice the caller has already sorted — the
/// allocation-free core, used directly by hot-path estimators whose
/// buffers are kept sorted (e.g. [`P2Quantile`]'s start-up buffer).
#[must_use]
// rank <= len - 1, so floor/ceil indices stay in bounds.
// mira-lint: allow(panic-reachability)
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * convert::f64_from_usize(sorted.len() - 1);
    let lo = convert::usize_from_f64_floor(rank);
    let hi = convert::usize_from_f64_ceil(rank);
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - convert::f64_from_usize(lo);
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The median of a slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Pearson product-moment correlation coefficient of two equal-length
/// slices, in `[-1, 1]`. Returns `None` if lengths differ, fewer than two
/// points, or either side is constant.
#[must_use]
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let mx = mean(x);
    let my = mean(y);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        sxy += (xi - mx) * (yi - my);
        sxx += (xi - mx).powi(2);
        syy += (yi - my).powi(2);
    }
    // Exact-zero divide guards.
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Spearman rank correlation (Pearson over mid-ranks, ties averaged).
///
/// This is the correlation the paper cites for power-versus-utilization
/// (0.45) and the CMF-versus-marker correlations of Sec. VI-A.
#[must_use]
pub fn spearman(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let rx = midranks(x);
    let ry = midranks(y);
    pearson(&rx, &ry)
}

/// Lag-`k` autocorrelation of a series (Pearson between the series and
/// itself shifted by `k`). Returns `None` when fewer than `k + 2`
/// points are available or the overlap is constant.
///
/// Used to characterize telemetry memory: weather noise decorrelates
/// over days, sensor noise immediately — which is what determines how
/// much a six-hour feature window can average away.
#[must_use]
// The len < lag + 2 early return bounds both slice ranges.
// mira-lint: allow(panic-reachability)
pub fn autocorrelation(xs: &[f64], lag: usize) -> Option<f64> {
    if lag == 0 {
        return if xs.len() >= 2 { Some(1.0) } else { None };
    }
    if xs.len() < lag + 2 {
        return None;
    }
    pearson(&xs[..xs.len() - lag], &xs[lag..])
}

/// Two-sided permutation p-value for a Spearman correlation.
///
/// Shuffles `y` `rounds` times (deterministically, from `seed`) and
/// counts how often the shuffled |ρ| reaches the observed |ρ|. Small
/// p-values mean the observed correlation is unlikely under
/// independence — the right tool for the paper's "essentially
/// uncorrelated" claims about Fig. 11, where |ρ| ≈ 0.06–0.21 over only
/// 48 racks.
///
/// Returns `None` when the correlation itself is undefined.
#[must_use]
pub fn spearman_permutation_pvalue(x: &[f64], y: &[f64], rounds: u32, seed: u64) -> Option<f64> {
    let observed = spearman(x, y)?.abs();
    let mut shuffled: Vec<f64> = y.to_vec();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut hits = 0u32;
    for _ in 0..rounds {
        for i in (1..shuffled.len()).rev() {
            let j = convert::usize_from_u64(next() % (convert::u64_from_usize(i) + 1));
            shuffled.swap(i, j);
        }
        if let Some(r) = spearman(x, &shuffled) {
            if r.abs() >= observed {
                hits += 1;
            }
        }
    }
    // Add-one smoothing keeps the estimate conservative and non-zero.
    Some(f64::from(hits + 1) / f64::from(rounds + 1))
}

/// Assigns 1-based mid-ranks, averaging ties.
#[allow(
    clippy::float_cmp,
    reason = "ties must be exact `==`: -0.0 and +0.0 tie, NaN never ties"
)]
// Indexing goes through a permutation of 0..len and j < len checks.
// mira-lint: allow(panic-reachability)
fn midranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut ranks = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // Average of 1-based ranks i+1 ..= j+1.
        let avg = convert::f64_from_usize(i + j) / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [1.0, 2.5, 3.5, 9.0, -4.0, 0.5];
        let w: Welford = xs.iter().copied().collect();
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - m).abs() < 1e-12);
        assert!((w.population_variance() - var).abs() < 1e-12);
        assert_eq!(w.min(), -4.0);
        assert_eq!(w.max(), 9.0);
        assert_eq!(w.count(), 6);
    }

    #[test]
    fn welford_empty_is_safe() {
        let w = Welford::new();
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.stddev(), 0.0);
        assert_eq!(w.relative_spread(), 0.0);
    }

    #[test]
    fn welford_merge_equals_concat() {
        let a: Welford = (0..50).map(f64::from).collect();
        let b: Welford = (50..120).map(f64::from).collect();
        let mut merged = a;
        merged.merge(&b);
        let full: Welford = (0..120).map(f64::from).collect();
        assert_eq!(merged.count(), full.count());
        assert!((merged.mean() - full.mean()).abs() < 1e-9);
        assert!((merged.population_variance() - full.population_variance()).abs() < 1e-9);
    }

    #[test]
    fn relative_spread_matches_definition() {
        let w: Welford = [100.0, 105.0, 111.0].iter().copied().collect();
        assert!((w.relative_spread() - 0.11).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 25.0), 1.75);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_bad_p() {
        let _ = percentile(&[1.0], 101.0);
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let x: Vec<f64> = (0..10).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|&xi| 3.0 * xi - 2.0).collect();
        let fit = linear_fit(&x, &y).expect("fit");
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept + 2.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert!((fit.predict(20.0) - 58.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_degenerate_inputs() {
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        assert!(linear_fit(&[1.0, 1.0], &[2.0, 3.0]).is_none());
        assert!(linear_fit(&[1.0, 2.0], &[2.0]).is_none());
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let z = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &z).unwrap() + 1.0).abs() < 1e-12);
        assert!(pearson(&x, &[1.0, 1.0, 1.0, 1.0]).is_none());
    }

    #[test]
    fn spearman_is_rank_based() {
        // Monotone but nonlinear: Spearman 1, Pearson < 1.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [1.0, 8.0, 27.0, 64.0, 125.0];
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        assert!(pearson(&x, &y).unwrap() < 1.0);
    }

    #[test]
    fn spearman_handles_ties() {
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [1.0, 2.0, 2.0, 3.0];
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_of_smooth_vs_alternating() {
        // A slow ramp is highly autocorrelated at small lags.
        let ramp: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(autocorrelation(&ramp, 1).unwrap() > 0.99);
        assert_eq!(autocorrelation(&ramp, 0), Some(1.0));
        // An alternating series anticorrelates at lag 1, correlates at 2.
        let alt: Vec<f64> = (0..100).map(|i| f64::from(i % 2)).collect();
        assert!(autocorrelation(&alt, 1).unwrap() < -0.9);
        assert!(autocorrelation(&alt, 2).unwrap() > 0.9);
        // Degenerate inputs.
        assert!(autocorrelation(&[1.0, 2.0], 5).is_none());
        assert!(autocorrelation(&[3.0], 0).is_none());
    }

    #[test]
    fn permutation_pvalue_separates_signal_from_noise() {
        // Strong monotone relation: tiny p-value.
        let x: Vec<f64> = (0..40).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| v * 2.0 + 1.0).collect();
        let p = spearman_permutation_pvalue(&x, &y, 200, 1).unwrap();
        assert!(p < 0.02, "p = {p}");

        // Hash-scrambled y: no relation, large p-value.
        let noise: Vec<f64> = (0..40u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64)
            .collect();
        let p = spearman_permutation_pvalue(&x, &noise, 200, 1).unwrap();
        assert!(p > 0.05, "p = {p}");
    }

    #[test]
    fn permutation_pvalue_is_deterministic() {
        let x: Vec<f64> = (0..20).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| (v * 7.0) % 13.0).collect();
        let a = spearman_permutation_pvalue(&x, &y, 100, 9);
        let b = spearman_permutation_pvalue(&x, &y, 100, 9);
        assert_eq!(a, b);
        assert!(spearman_permutation_pvalue(&x, &[1.0; 20], 10, 0).is_none());
    }

    #[test]
    fn midranks_average_ties() {
        assert_eq!(
            midranks(&[10.0, 20.0, 20.0, 30.0]),
            vec![1.0, 2.5, 2.5, 4.0]
        );
    }

    #[test]
    fn p2_exact_for_small_samples() {
        let mut q = P2Quantile::median();
        for x in [5.0, 1.0, 3.0] {
            q.push(x);
        }
        assert_eq!(q.value(), 3.0);
        assert_eq!(q.count(), 3);
    }

    #[test]
    fn p2_median_converges_on_uniform() {
        let mut q = P2Quantile::median();
        // Deterministic low-discrepancy-ish stream over [0, 1).
        let mut x = 0.5f64;
        for _ in 0..20_000 {
            x = (x + 0.618_033_988_749_895) % 1.0;
            q.push(x);
        }
        assert!((q.value() - 0.5).abs() < 0.02, "median = {}", q.value());
    }

    #[test]
    fn p2_p90_converges() {
        let mut q = P2Quantile::new(0.9);
        let mut x = 0.5f64;
        for _ in 0..20_000 {
            x = (x + 0.618_033_988_749_895) % 1.0;
            q.push(x);
        }
        assert!((q.value() - 0.9).abs() < 0.03, "p90 = {}", q.value());
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0, 1)")]
    fn p2_rejects_bad_quantile() {
        let _ = P2Quantile::new(1.0);
    }

    proptest! {
        #[test]
        fn welford_mean_bounded_by_minmax(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let w: Welford = xs.iter().copied().collect();
            prop_assert!(w.min() <= w.mean() + 1e-9);
            prop_assert!(w.mean() <= w.max() + 1e-9);
        }

        #[test]
        fn pearson_in_unit_interval(
            xs in proptest::collection::vec(-1e3f64..1e3, 3..50),
            ys in proptest::collection::vec(-1e3f64..1e3, 3..50),
        ) {
            let n = xs.len().min(ys.len());
            if let Some(r) = pearson(&xs[..n], &ys[..n]) {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            }
        }

        #[test]
        fn p2_tracks_exact_median(xs in proptest::collection::vec(0.0f64..100.0, 100..400)) {
            let mut q = P2Quantile::median();
            for &x in &xs {
                q.push(x);
            }
            let exact = median(&xs);
            let spread = percentile(&xs, 90.0) - percentile(&xs, 10.0) + 1.0;
            prop_assert!((q.value() - exact).abs() <= spread * 0.35 + 1e-9,
                "p2 {} vs exact {}", q.value(), exact);
        }

        #[test]
        fn percentile_monotone_in_p(xs in proptest::collection::vec(-1e3f64..1e3, 2..100), a in 0.0f64..100.0, b in 0.0f64..100.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(percentile(&xs, lo) <= percentile(&xs, hi) + 1e-9);
        }
    }
}
