//! The benchmark's own statistics: medians, the tail rule, and failure
//! accounting.

/// Samples a tail must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A median and a tail over one sample set, with the sample count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub p50: f64,
    pub tail: f64,
    /// The percentile the tail sits at: the share of samples at or below
    /// its rank.
    pub tail_percentile: f64,
    /// Samples beyond the tail's rank: [`TAIL_BEYOND`] when the set has
    /// more than that many samples, 0 otherwise.
    pub beyond: usize,
    pub samples: usize,
}

/// Summarises `samples`: the median, and the tail, the highest percentile
/// that still has [`TAIL_BEYOND`] samples beyond it (the rank of the 11th
/// largest sample). With [`TAIL_BEYOND`] or fewer samples no percentile has
/// that many beyond it; the tail is then the largest sample and `beyond`
/// is 0.
///
/// Both are Harrell–Davis estimates: a weighted mean of every order
/// statistic, with weights from the Beta distribution of the sample
/// quantile. A run's samples mix unlike rounds whose times form separate
/// bands; the plain order statistic jumps across the gap between two bands
/// when noise swaps two samples, where this estimate moves smoothly.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p50 = harrell_davis(&sorted, 0.5);
    let (tail, rank, beyond) = if n > TAIL_BEYOND {
        let rank = n - TAIL_BEYOND;
        // Centred on the rank-th order statistic: its expected quantile.
        let level = rank as f64 / (n + 1) as f64;
        (harrell_davis(&sorted, level), rank, TAIL_BEYOND)
    } else {
        (sorted[n - 1], n, 0)
    };
    Some(Summary {
        p50,
        tail,
        tail_percentile: 100.0 * rank as f64 / n as f64,
        beyond,
        samples: n,
    })
}

/// The Harrell–Davis estimate of the `level` quantile of `sorted`
/// (ascending). The weight of the i-th order statistic is the mass of
/// Beta((n+1)·level, (n+1)·(1−level)) on [(i−1)/n, i/n], integrated here
/// by the midpoint rule in log space so that large `n` cannot overflow.
pub fn harrell_davis(sorted: &[f64], level: f64) -> f64 {
    const STEPS: usize = 32;
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let a = (n + 1) as f64 * level;
    let b = (n + 1) as f64 * (1.0 - level);
    let log_pdf = |x: f64| (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln();
    let h = 1.0 / (n * STEPS) as f64;
    let logs: Vec<f64> = (0..n * STEPS)
        .map(|j| log_pdf((j as f64 + 0.5) * h))
        .collect();
    let top = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut total = 0.0;
    let mut weighted = 0.0;
    for (i, value) in sorted.iter().enumerate() {
        let w: f64 = logs[i * STEPS..(i + 1) * STEPS]
            .iter()
            .map(|l| (l - top).exp())
            .sum();
        total += w;
        weighted += w * value;
    }
    weighted / total
}

/// Operations attempted and failed in one run. An operation is one session:
/// it fails when any call errors or any output check rejects it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the log.
    pub errors: Vec<String>,
    /// Sessions that passed, but whose rounds were checked exactly only up
    /// to a round where the skyline stopped at δ and the values differed.
    pub cut_at_delta: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(message);
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Share of attempted operations that passed every check: the
    /// complement of `failed_frac`, reported because a metric must never
    /// read 0 on a healthy run.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed_frac()
    }
}

/// Current and peak resident set size of this process, in MB, from
/// `/proc/self/status` (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The plain sample median of `values` (unsorted input): the middle value,
/// or the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.samples, 100);
        assert_eq!(s.beyond, 10);
        assert_eq!(s.tail_percentile, 90.0);
        // Centred on 90, the 11th largest of 1..=100: 91..=100 lie beyond.
        assert!((s.tail - 90.0).abs() < 0.5, "tail {}", s.tail);
        // A symmetric set has its median at the centre.
        assert!((s.p50 - 50.5).abs() < 1e-9, "p50 {}", s.p50);
        assert_eq!(median(&samples), 50.5);
    }

    #[test]
    fn tail_is_independent_of_input_order_and_counts_every_sample() {
        let mut samples: Vec<f64> = (0..250).map(|i| f64::from((i * 37) % 250)).collect();
        let a = summarize(&samples).unwrap();
        samples.reverse();
        let b = summarize(&samples).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.samples, 250);
        assert_eq!(a.beyond, 10);
        assert!((a.tail_percentile - 96.0).abs() < 1e-9);
        assert!((a.tail - 239.0).abs() < 0.5, "tail {}", a.tail);
        assert!((a.p50 - 124.5).abs() < 1e-9, "p50 {}", a.p50);
    }

    #[test]
    fn small_sets_report_how_many_lie_beyond() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.samples, 3);
        // No percentile has ten samples beyond it: the tail is the largest.
        assert_eq!((s.tail, s.beyond, s.tail_percentile), (3.0, 0, 100.0));
        assert!((s.p50 - 2.0).abs() < 1e-9);
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        let s = summarize(&ten).unwrap();
        assert_eq!((s.tail, s.beyond), (9.0, 0));
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let s = summarize(&eleven).unwrap();
        assert_eq!(s.beyond, 10);
        assert!(
            s.tail < 1.0,
            "centred on the smallest of eleven: {}",
            s.tail
        );
        assert!(summarize(&[]).is_none());
        assert_eq!(summarize(&[4.0]).unwrap().p50, 4.0);
    }

    #[test]
    fn median_moves_smoothly_across_a_gap_between_bands() {
        // Two bands of unlike rounds, 50 at 10 ms and 51 at 50 ms; noise
        // moves one sample from the upper band to the lower one.
        let mut before = vec![10.0; 50];
        before.extend(vec![50.0; 51]);
        let mut after = vec![10.0; 51];
        after.extend(vec![50.0; 50]);
        // The plain median jumps across the whole gap.
        assert_eq!((median(&before), median(&after)), (50.0, 10.0));
        let (b, a) = (summarize(&before).unwrap(), summarize(&after).unwrap());
        assert!((b.p50 - a.p50).abs() < 8.0, "{} -> {}", b.p50, a.p50);
        assert!(a.p50 > 10.0 && b.p50 < 50.0);
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut tally = Tally::default();
        for i in 0..8 {
            tally.record(if i % 4 == 0 {
                Err(format!("session {i}"))
            } else {
                Ok(())
            });
        }
        assert_eq!((tally.attempted, tally.failed), (8, 2));
        assert_eq!(tally.failed_frac(), 0.25);
        assert_eq!(tally.ok_frac(), 0.75);
        assert_eq!(tally.errors, vec!["session 0", "session 4"]);
        // Nothing attempted is a failed run, not a perfect one.
        assert_eq!(Tally::default().failed_frac(), 1.0);
    }
}
