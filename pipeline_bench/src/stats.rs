//! Order statistics over in-run timing samples.
//!
//! An end-to-end timing is summarised in two steps: the median of each
//! round's samples (robust to a stray interrupt or page fault), then the
//! trimmed mean of those per-round medians over the run. The host's speed
//! moves in regimes that last seconds to a minute; a median across the
//! whole run jumps from one regime's level to the other's as their shares
//! cross one half, while a mean moves with the shares smoothly.

/// Percentiles a tail report may use, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Share of the per-round values dropped at each end by [`Rounds::value`].
pub const ROUND_TRIM: f64 = 0.1;

/// Mean of `xs` without the lowest and the highest `trim` share of them
/// (rounded down, so fewer than `1 / trim` values are all kept).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN, or `trim` is not below 0.5.
pub fn trimmed_mean(xs: &[f64], trim: f64) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    assert!((0.0..0.5).contains(&trim), "trim {trim} keeps nothing");
    let s = sorted(xs);
    let k = (s.len() as f64 * trim) as usize;
    let kept = &s[k..s.len() - k];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Timing samples taken round by round.
#[derive(Default)]
pub struct Rounds {
    all: Vec<f64>,
    medians: Vec<f64>,
    open: usize,
}

impl Rounds {
    pub fn push(&mut self, x: f64) {
        self.all.push(x);
    }

    /// Ends the current round; a round without samples leaves no median.
    pub fn close(&mut self) {
        if self.open < self.all.len() {
            self.medians.push(median(&self.all[self.open..]));
            self.open = self.all.len();
        }
    }

    /// Every sample, in the order taken.
    pub fn all(&self) -> &[f64] {
        &self.all
    }

    /// The trimmed mean of the closed rounds' medians.
    ///
    /// # Panics
    ///
    /// Panics if no round with samples was closed.
    pub fn value(&self) -> f64 {
        trimmed_mean(&self.medians, ROUND_TRIM)
    }
}

/// Nearest-rank percentile `p` (in percent) of an ascending slice.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // the epsilon keeps decimal percentiles such as 99.9 off the next rank
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile of the ladder that still has at least
/// [`TAIL_MIN_BEYOND`] samples above its nearest rank, with its value:
/// `(percentile, value)`. `None` when even the median lacks that many.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    TAIL_LADDER
        .iter()
        .find(|&&p| !s.is_empty() && s.len() - rank(s.len(), p) >= TAIL_MIN_BEYOND)
        .map(|&p| (p, nearest_rank(&s, p)))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "median of no samples")]
    fn median_of_nothing_panics() {
        median(&[]);
    }

    #[test]
    fn trimmed_mean_drops_both_ends() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(trimmed_mean(&xs, 0.0), 5.5);
        // one value off each end: the mean of 2..=9
        assert_eq!(trimmed_mean(&xs, 0.1), 5.5);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 3.0, 100.0, 4.0, 5.0, 6.0, 7.0, 8.0, 0.0], 0.1), 4.5);
        // under ten values a 10% trim keeps them all
        assert_eq!(trimmed_mean(&[1.0, 2.0, 9.0], 0.1), 4.0);
    }

    #[test]
    #[should_panic(expected = "keeps nothing")]
    fn trimmed_mean_rejects_a_half_trim() {
        trimmed_mean(&[1.0, 2.0], 0.5);
    }

    #[test]
    fn rounds_average_the_per_round_medians() {
        let mut r = Rounds::default();
        for x in [1.0, 9.0, 2.0] {
            r.push(x);
        }
        r.close();
        // an empty round leaves no median
        r.close();
        r.push(4.0);
        r.close();
        assert_eq!(r.all(), &[1.0, 9.0, 2.0, 4.0]);
        assert_eq!(r.value(), 3.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 leaves 1 sample beyond, p99 leaves exactly 10
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        // rank(999, 99) = 990 leaves 9 beyond: fall back to p90
        assert_eq!(tail(&xs), Some((90.0, 900.0)));
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50.0, 10.0)));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_median() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        assert_eq!(tail(&[]), None);
    }
}
