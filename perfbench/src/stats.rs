//! Summary statistics shared by the workloads: medians, the tail-percentile
//! picker, the growing-backlog detector and the fresh/repeat classifier.

use std::collections::HashMap;

/// The median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The highest whole percentile, capped at 99, that leaves at least ten samples
/// above its nearest-rank position; `None` below 20 samples.
pub fn tail_percentile(samples: usize) -> Option<u32> {
    (50..=99u32).rev().find(|&p| samples - nearest_rank(samples, p).min(samples) >= 10)
}

/// 1-based nearest-rank index of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1)
}

/// The nearest-rank percentile `p` of `values` (NaN when empty).
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(nearest_rank(sorted.len(), p) - 1).copied().unwrap_or(f64::NAN)
}

/// A latency distribution summarised by its median, the tail
/// percentile picked by [`tail_percentile`], and the sample count behind both.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub median: f64,
    pub tail: f64,
    pub tail_percentile: u32,
    pub samples: usize,
}

impl Timing {
    pub fn of(values: &[f64]) -> Option<Timing> {
        let p = tail_percentile(values.len())?;
        Some(Timing {
            median: median(values),
            tail: percentile(values, p),
            tail_percentile: p,
            samples: values.len(),
        })
    }

    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.3} {unit}, p{} {:.3} {unit} ({} samples)",
            self.median, self.tail_percentile, self.tail, self.samples
        )
    }
}

/// Per-query service time as the client sees it, in milliseconds: from when
/// the server could start on a query (its send, or the previous answer if that
/// came later) to its answer.  Answers on one connection come in send order,
/// so this is the server's busy time spent on each query, without the time the
/// query queued behind earlier ones.
pub fn service_times(sent: &[f64], answered: &[f64]) -> Vec<f64> {
    let mut previous = f64::NEG_INFINITY;
    sent.iter()
        .zip(answered)
        .map(|(&s, &a)| {
            let own = (a - s.max(previous)) * 1e3;
            previous = a;
            own
        })
        .collect()
}

/// Whether the backlog grew across a rung: `backlog` holds the outstanding
/// query count sampled at even intervals, and the backlog grows when the mean
/// of its last quarter exceeds the mean of its first quarter by more than
/// `tolerance` queries.
pub fn backlog_grows(backlog: &[f64], tolerance: f64) -> bool {
    let quarter = backlog.len() / 4;
    if quarter == 0 {
        return false;
    }
    let mean = |part: &[f64]| part.iter().sum::<f64>() / part.len() as f64;
    mean(&backlog[backlog.len() - quarter..]) - mean(&backlog[..quarter]) > tolerance
}

/// Outstanding queries (sent, not yet answered) at each of `points` instants.
/// `sent` and `answered` are per-query times; an unanswered query is `INFINITY`.
pub fn backlog_at(sent: &[f64], answered: &[f64], points: &[f64]) -> Vec<f64> {
    let mut sent = sent.to_vec();
    let mut answered = answered.to_vec();
    sent.sort_by(f64::total_cmp);
    answered.sort_by(f64::total_cmp);
    points
        .iter()
        .map(|&t| {
            let out = sent.partition_point(|&s| s <= t) as f64;
            let back = answered.partition_point(|&a| a <= t) as f64;
            out - back
        })
        .collect()
}

/// Classifies each query as a repeat (`true`) when an identical line was
/// answered before this one was sent, else as fresh.  The client cannot see the
/// server's memo, so "answered earlier in this server's lifetime" is the
/// observable stand-in for a memo hit.
pub fn classify_repeats(lines: &[&str], sent: &[f64], answered: &[f64]) -> Vec<bool> {
    let mut first_answer: HashMap<&str, f64> = HashMap::new();
    let mut repeat = Vec::with_capacity(lines.len());
    // Responses on one connection arrive in send order, so every earlier answer
    // is known by the time a later query is classified.
    for ((&line, &s), &a) in lines.iter().zip(sent).zip(answered) {
        let seen = first_answer.get(line).is_some_and(|&t| t <= s);
        repeat.push(seen);
        let entry = first_answer.entry(line).or_insert(a);
        *entry = entry.min(a);
    }
    repeat
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_percentile_leaves_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(100_000), Some(99));
        for n in 20..3000 {
            let p = tail_percentile(n).expect("n >= 20");
            assert!(n - nearest_rank(n, p) >= 10, "n {n} p {p}");
            if p < 99 {
                assert!(n - nearest_rank(n, p + 1) < 10, "p{} also qualifies at n {n}", p + 1);
            }
        }
    }

    #[test]
    fn timings_report_the_picked_percentile() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Timing::of(&values).expect("enough samples");
        assert_eq!((t.tail_percentile, t.tail, t.samples), (99, 990.0, 1000));
        assert_eq!(t.median, 500.5);
        assert_eq!(percentile(&values, 90), 900.0);
        assert!(percentile(&[], 90).is_nan());
        assert!(Timing::of(&values[..10]).is_none());
    }

    #[test]
    fn service_time_excludes_queueing_behind_earlier_queries() {
        let sent = [0.0, 0.1, 0.2, 2.0];
        let answered = [1.0, 1.5, 1.5, 2.25];
        // The second query waits until 1.0 for the first; the third is answered
        // with the second; the fourth finds the server idle.
        assert_eq!(service_times(&sent, &answered), [1000.0, 500.0, 0.0, 250.0]);
    }

    #[test]
    fn a_steady_backlog_is_not_growing_and_a_ramp_is() {
        let steady: Vec<f64> = (0..40).map(|i| (i % 5) as f64).collect();
        assert!(!backlog_grows(&steady, 4.0));
        let ramp: Vec<f64> = (0..40).map(|i| i as f64).collect();
        assert!(backlog_grows(&ramp, 4.0));
        assert!(!backlog_grows(&ramp, 40.0));
        assert!(!backlog_grows(&[9.0, 9.0, 9.0], 0.0), "too few samples to judge");
    }

    #[test]
    fn backlog_counts_sent_minus_answered() {
        let sent = [0.0, 1.0, 2.0, 3.0];
        let answered = [0.5, 2.5, f64::INFINITY, 3.5];
        assert_eq!(backlog_at(&sent, &answered, &[0.25, 1.5, 2.75, 10.0]), [1.0, 1.0, 1.0, 1.0]);
        assert_eq!(backlog_at(&sent, &answered, &[0.75, 2.0]), [0.0, 2.0]);
    }

    #[test]
    fn a_repeat_is_a_line_answered_before_it_was_sent() {
        let lines = ["a", "b", "a", "a", "b"];
        let sent = [0.0, 1.0, 2.0, 2.5, 3.0];
        let answered = [2.2, 1.5, 2.6, 2.7, 3.1];
        // The second "a" is sent before the first one's answer: still fresh.
        assert_eq!(classify_repeats(&lines, &sent, &answered), [false, false, false, true, true]);
    }
}
