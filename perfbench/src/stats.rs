//! Order statistics over raw samples.
//!
//! Quantiles are read from the sorted samples themselves (nearest rank),
//! never from a bucketed histogram, so every reported value carries all
//! its measured digits.

/// Samples in arbitrary units (the caller's choice: µs, ms, s, counts).
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Nearest-rank quantile `q ∈ [0, 1]`; NaN when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let rank = (q * self.values.len() as f64).ceil() as usize;
        self.values[rank.clamp(1, self.values.len()) - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Samples strictly above the `q` quantile — a percentile is only
    /// reported when at least ten samples lie beyond it.
    pub fn beyond(&mut self, q: f64) -> usize {
        let cut = self.quantile(q);
        self.values.iter().filter(|&&v| v > cut).count()
    }
}

/// Median of a small list of values (e.g. per-repetition set-up times):
/// the middle value, or the mean of the two middle values of an even
/// count, so that two passes give their mean rather than the faster.
pub fn median_of(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::new();
        for v in (1..=100).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.beyond(0.9), 10);
    }

    #[test]
    fn median_of_odd_and_even_lists() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[3.0, 1.0]), 2.0);
        assert!(median_of(&[]).is_nan());
    }
}
