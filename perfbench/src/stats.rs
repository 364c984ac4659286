//! Exact statistics over raw samples, and the metric list a run reports.
//!
//! Percentiles are nearest-rank over the sorted samples — no histogram
//! buckets — and a percentile is only given when at least
//! [`MIN_BEYOND`] samples lie strictly beyond its rank.

/// Samples that must lie beyond a percentile's rank for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A sorted set of raw samples.
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile (`p` in `0..=1`), or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        // "Beyond" is the far side of the median: above a high percentile,
        // below a low one.
        let beyond = if p >= 0.5 { n - rank } else { rank - 1 };
        (beyond >= MIN_BEYOND).then(|| self.sorted[rank - 1])
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.sorted.is_empty()).then(|| self.sorted.iter().sum::<f64>() / self.len() as f64)
    }
}

/// Median of a small set (e.g. repeated set-up times); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let d = Dist::new(values.to_vec());
    let n = d.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(d.sorted[n / 2]),
        _ => Some((d.sorted[n / 2 - 1] + d.sorted[n / 2]) / 2.0),
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One reported number: name, value, unit, and the sample count behind it
/// (`None` for counters and single measurements).
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

/// The metrics of one run, in report order.  A percentile that lacks
/// [`MIN_BEYOND`] samples beyond it is withheld: its name goes to
/// `withheld` instead of the list.
#[derive(Default)]
pub struct Metrics {
    pub list: Vec<Metric>,
    pub withheld: Vec<String>,
}

impl Metrics {
    pub fn value(&mut self, name: &str, value: f64, unit: &'static str) {
        self.list.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
        });
    }

    /// Records percentile `p` of `dist`, scaled by `scale` (unit change).
    pub fn percentile(&mut self, name: &str, dist: &Dist, p: f64, scale: f64, unit: &'static str) {
        match dist.percentile(p) {
            Some(v) => self.list.push(Metric {
                name: name.to_string(),
                value: v * scale,
                unit,
                samples: Some(dist.len()),
            }),
            None => self.withheld.push(format!("{name} (n={})", dist.len())),
        }
    }

    /// Records the median over measurement windows of percentile `p` of
    /// each window's samples.  A window that lacks [`MIN_BEYOND`] samples
    /// beyond `p` withholds the metric; the sample count is the total.
    pub fn windowed(&mut self, name: &str, windows: &[Vec<f64>], p: f64, unit: &'static str) {
        let per_window: Option<Vec<f64>> = windows
            .iter()
            .map(|w| Dist::new(w.clone()).percentile(p))
            .collect();
        let total = windows.iter().map(Vec::len).sum();
        match per_window.as_deref().and_then(median) {
            Some(v) => self.list.push(Metric {
                name: name.to_string(),
                value: v,
                unit,
                samples: Some(total),
            }),
            None => self
                .withheld
                .push(format!("{name} (n={total} over {} windows)", windows.len())),
        }
    }

    /// Records the mean of `dist`, scaled by `scale`.
    pub fn mean(&mut self, name: &str, dist: &Dist, scale: f64, unit: &'static str) {
        match dist.mean() {
            Some(v) => self.list.push(Metric {
                name: name.to_string(),
                value: v * scale,
                unit,
                samples: Some(dist.len()),
            }),
            None => self.withheld.push(format!("{name} (n=0)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_needs_ten_beyond() {
        let d = Dist::new((1..=100).map(f64::from).collect());
        assert_eq!(d.percentile(0.5), Some(50.0));
        assert_eq!(d.percentile(0.9), Some(90.0));
        // p99 of 100 samples has one sample beyond it: withheld.
        assert_eq!(d.percentile(0.99), None);
        let d = Dist::new((1..=1000).map(f64::from).collect());
        assert_eq!(d.percentile(0.99), Some(990.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0]), Some(2.5));
    }
}
