//! Harness statistics: order statistics over timing samples, the
//! "highest percentile with at least ten samples beyond it" rule, and the
//! time-box loop every measured phase runs in.

use std::time::{Duration, Instant};

/// Sorts samples ascending (NaN-free by construction: all samples are
/// durations or ratios of positive numbers).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    samples
}

/// The `p`-quantile (0 ≤ p ≤ 1) of ascending `sorted` samples, linearly
/// interpolated between neighbouring ranks.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples.to_vec()), 0.5)
}

/// Median, quartiles and count of a sample set — how every timing is
/// reported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples.to_vec());
        Summary {
            n: s.len(),
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
        }
    }
}

/// The tail percentile a latency distribution of `n` samples supports: p99
/// (the tail the suite gates on) when at least ten samples lie beyond it,
/// else p90 by the same rule, else the upper quartile — with fewer than a
/// hundred samples nothing further out repeats from run to run.
pub fn tail_percentile(n: usize) -> f64 {
    match n {
        1000.. => 0.99,
        100.. => 0.90,
        _ => 0.75,
    }
}

/// What a time-boxed phase did: one latency sample per completed operation
/// and the wall up to the end of the last one.
#[derive(Clone, Debug, Default)]
pub struct BoxRun {
    pub latencies_us: Vec<f64>,
    pub wall: Duration,
}

impl BoxRun {
    pub fn ops(&self) -> u64 {
        self.latencies_us.len() as u64
    }
}

/// Runs `op` back to back until `length` has elapsed. The box is a length of
/// time, not a count, so a 100× faster system still yields a full sample.
/// `op` returns `false` to stop early (the workload ran out of work — a
/// failed check, never the normal case). The clock is read once per
/// operation: a sample is the time from the end of the previous operation
/// to the end of this one, and an operation that overruns the box is still
/// counted with its full duration.
pub fn time_box(length: Duration, mut op: impl FnMut() -> bool) -> BoxRun {
    let start = Instant::now();
    let mut latencies_us = Vec::with_capacity(1 << 16);
    let mut before = Duration::ZERO;
    while before < length && op() {
        let after = start.elapsed();
        latencies_us.push((after - before).as_secs_f64() * 1e6);
        before = after;
    }
    BoxRun {
        latencies_us,
        wall: before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 0.75);
        assert_eq!(tail_percentile(99), 0.75);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(999), 0.90);
        assert_eq!(tail_percentile(1000), 0.99);
        assert_eq!(tail_percentile(1_000_000), 0.99);
        assert_eq!(quantile(&[1.0, 2.0, 9.0], tail_percentile(3)), 5.5);
    }

    #[test]
    fn time_box_runs_for_its_length_and_samples_every_op() {
        let length = Duration::from_millis(60);
        let run = time_box(length, || {
            std::thread::sleep(Duration::from_millis(5));
            true
        });
        assert!(run.wall >= length, "box ended early: {:?}", run.wall);
        assert!(run.wall < length * 2, "box overran: {:?}", run.wall);
        assert!((6..=12).contains(&run.ops()), "ops {}", run.ops());
        assert!(run.latencies_us.iter().all(|&us| us >= 5000.0));
        let sum_us: f64 = run.latencies_us.iter().sum();
        assert!((sum_us - run.wall.as_secs_f64() * 1e6).abs() < 1.0);
        // An op that reports failure stops the box at once.
        assert_eq!(time_box(length, || false).ops(), 0);
    }
}
