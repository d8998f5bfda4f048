//! Percentiles and the open-loop rate ladder.
//!
//! Every latency figure the benchmark prints comes from
//! [`Summary::of`]; every `ok_rate` verdict from [`highest_passing`].

/// Quantile `q` (in `[0, 1]`) of an ascending slice, interpolating
/// linearly between the two closest ranks (rank `q · (n − 1)`).
///
/// # Panics
///
/// Panics on an empty slice: a percentile of nothing is a bug upstream.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median, p99 and mean of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of values summarized.
    pub count: usize,
    /// 50th percentile.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarizes `values` (any order). An empty sample summarizes to
    /// zeros with `count == 0`.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                count: 0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                mean: 0.0,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            count: sorted.len(),
            p50: quantile_sorted(&sorted, 0.50),
            p90: quantile_sorted(&sorted, 0.90),
            p99: quantile_sorted(&sorted, 0.99),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).p50
}

/// Splits `(position, value)` samples into `windows` equal ranges of
/// position `0..n` and summarizes each non-empty one.
pub fn windows(samples: &[(usize, f64)], n: usize, windows: usize) -> Vec<Summary> {
    let windows = windows.max(1);
    let mut parts = vec![Vec::new(); windows];
    for &(i, v) in samples {
        parts[(i * windows / n.max(1)).min(windows - 1)].push(v);
    }
    parts
        .iter()
        .filter(|p| !p.is_empty())
        .map(|p| Summary::of(p))
        .collect()
}

/// The median over [`windows`] of each window's p50, p90 and p99. One
/// scheduler hiccup then moves one window, not the figure.
pub fn windowed(samples: &[(usize, f64)], n: usize, k: usize) -> Summary {
    let summaries = windows(samples, n, k);
    let med = |f: fn(&Summary) -> f64| median(&summaries.iter().map(f).collect::<Vec<_>>());
    Summary {
        count: samples.len(),
        p50: med(|s| s.p50),
        p90: med(|s| s.p90),
        p99: med(|s| s.p99),
        mean: med(|s| s.mean),
    }
}

/// What one rung of an open-loop rate ladder measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests the generator sent.
    pub sent: u64,
    /// Requests that failed: error, `overloaded`, timeout or wrong output.
    pub failed: u64,
    /// Latency of the replies from their due time, ms: per window, then
    /// the median over windows (see [`windowed`]).
    pub latency: Summary,
    /// Median latency of the rung's last window, ms: a backlog that keeps
    /// growing shows here.
    pub tail_p50_ms: f64,
    /// The generator gave up because it fell too far behind schedule.
    pub aborted: bool,
    /// Replies completed per second of the rung's wall time.
    pub completed_per_s: f64,
}

impl Rung {
    /// A rung passes when nothing failed, the generator kept up, the p90
    /// stays within `limit_ms` and the last window's median does too.
    pub fn passes(&self, limit_ms: f64) -> bool {
        !self.aborted
            && self.sent > 0
            && self.failed == 0
            && self.latency.p90 <= limit_ms
            && self.tail_p50_ms <= limit_ms
    }
}

/// Index of the highest rung that passes with every rung below it
/// passing too, or `None` when the lowest rung already fails. Rungs are
/// in ascending rate order.
pub fn highest_passing(rungs: &[Rung], limit_ms: f64) -> Option<usize> {
    rungs
        .iter()
        .take_while(|r| r.passes(limit_ms))
        .count()
        .checked_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert!((quantile_sorted(&v, 0.5) - 50.5).abs() < 1e-12);
        assert!((quantile_sorted(&v, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn summary_ignores_input_order() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.mean, 3.0);
        assert!((s.p99 - 4.96).abs() < 1e-12);
        assert_eq!(Summary::of(&[]).count, 0);
        assert_eq!(median(&[2.0, 9.0]), 5.5);
    }

    #[test]
    fn windowed_percentiles_take_the_median_window() {
        // Four windows of 100 samples; one window holds a 50 ms stall.
        let samples: Vec<(usize, f64)> = (0..400)
            .map(|i| {
                (
                    i,
                    if (100..200).contains(&i) {
                        50.0
                    } else {
                        (i % 100) as f64 / 100.0
                    },
                )
            })
            .collect();
        assert_eq!(windows(&samples, 400, 4).len(), 4);
        let w = windowed(&samples, 400, 4);
        assert_eq!(w.count, 400);
        assert!((w.p50 - 0.495).abs() < 1e-9, "{w:?}");
        assert!((w.p90 - 0.891).abs() < 1e-9, "{w:?}");
        assert!((w.p99 - 0.9801).abs() < 1e-9, "{w:?}");
        assert_eq!(
            Summary::of(&samples.iter().map(|s| s.1).collect::<Vec<_>>()).p99,
            50.0
        );
        assert_eq!(windowed(&[], 10, 4).p99, 0.0);
    }

    fn rung(rate: f64, p90_ms: f64, failed: u64) -> Rung {
        Rung {
            rate,
            sent: 100,
            failed,
            latency: Summary {
                count: 100,
                p50: p90_ms / 2.0,
                p90: p90_ms,
                p99: p90_ms * 2.0,
                mean: p90_ms / 2.0,
            },
            tail_p50_ms: p90_ms / 2.0,
            aborted: false,
            completed_per_s: rate,
        }
    }

    #[test]
    fn ladder_takes_the_highest_rung_of_the_passing_prefix() {
        let limit = 1.0;
        let rungs = [rung(1e3, 0.2, 0), rung(2e3, 0.5, 0), rung(4e3, 3.0, 0)];
        assert_eq!(highest_passing(&rungs, limit), Some(1));
        // A pass above a failed rung does not count: the backlog of the
        // failed rung makes it a fluke.
        let gap = [rung(1e3, 0.2, 0), rung(2e3, 1.5, 0), rung(4e3, 0.5, 0)];
        assert_eq!(highest_passing(&gap, limit), Some(0));
        assert_eq!(highest_passing(&[rung(1e3, 2.0, 0)], limit), None);
        assert_eq!(highest_passing(&[], limit), None);
    }

    #[test]
    fn a_rung_fails_on_errors_abort_or_a_growing_tail() {
        let limit = 1.0;
        assert!(rung(1e3, 1.0, 0).passes(limit), "the limit is inclusive");
        assert!(!rung(1e3, 1.01, 0).passes(limit));
        assert!(
            !rung(1e3, 0.2, 1).passes(limit),
            "one failure fails the rung"
        );
        let mut tail = rung(1e3, 0.5, 0);
        tail.tail_p50_ms = 1.5;
        assert!(!tail.passes(limit), "a growing backlog fails the rung");
        let mut aborted = rung(1e3, 0.5, 0);
        aborted.aborted = true;
        assert!(!aborted.passes(limit));
        let mut idle = rung(1e3, 0.0, 0);
        idle.sent = 0;
        assert!(
            !idle.passes(limit),
            "a rung that sent nothing proves nothing"
        );
    }
}
