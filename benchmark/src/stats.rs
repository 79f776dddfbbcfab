//! Order statistics over per-repetition samples.
//!
//! Every host-time metric the benchmark reports is a median: one
//! repetition in ten of some workloads lands in a different host mode
//! (see NOISE.md), which a mean or a single sample cannot survive.

/// Five-number summary plus the tail percentile of one sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    /// `(percentile, value)` of the highest percentile that still has ten
    /// samples beyond it; `None` below [`TAIL_MIN_SAMPLES`] samples.
    pub tail: Option<(f64, f64)>,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;
/// Sample count from which a tail percentile is reported at all.
pub const TAIL_MIN_SAMPLES: usize = 20;

/// Quantile `q` in `[0, 1]` of an ascending slice, linearly interpolated
/// between the two closest ranks (`q * (n - 1)`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample set");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample set.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The highest percentile with [`TAIL_BEYOND`] samples beyond it, and its
/// value: with `n` ascending samples that is sample `n - 11`, which
/// `n - 10` samples do not exceed.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    (n >= TAIL_MIN_SAMPLES).then(|| {
        (
            100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
            sorted[n - TAIL_BEYOND - 1],
        )
    })
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        n: s.len(),
        min: s[0],
        q1: quantile(&s, 0.25),
        median: quantile(&s, 0.5),
        q3: quantile(&s, 0.75),
        max: s[s.len() - 1],
        tail: tail(&s),
    }
}

impl Summary {
    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    /// One line: `n=.. min .. q1 .. median .. q3 .. max .. iqr ..% [pNN ..]`.
    pub fn render(&self, unit: &str) -> String {
        let mut s = format!(
            "n={} min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6} {unit} iqr {:.2}%",
            self.n,
            self.min,
            self.q1,
            self.median,
            self.q3,
            self.max,
            100.0 * self.spread()
        );
        if let Some((p, v)) = self.tail {
            s.push_str(&format!(" p{p:.1} {v:.6}"));
        }
        s
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.q3), (1.75, 3.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 4.0, 4));
        assert!((s.spread() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_twenty_samples_and_leaves_ten_beyond() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        // p50 of 20 samples: sample index 9, samples 10..=19 lie beyond.
        assert_eq!(tail(&twenty), Some((50.0, 9.0)));
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        let (p, v) = tail(&hundred).unwrap();
        assert_eq!((p, v), (90.0, 89.0));
        assert_eq!(hundred.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
    }

    #[test]
    fn a_rare_fast_mode_does_not_move_the_median() {
        let mut reps = vec![2.2; 9];
        reps.push(0.7);
        assert_eq!(median(&reps), 2.2);
    }
}
