//! Order statistics and span arithmetic.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail rests on too few observations.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted`: the sample at rank
/// `ceil(p / 100 * n)`. Returns `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond that rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sorts `values` ascending (total order; NaN is not expected).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Plain median (mean of the two middle samples for an even count), for
/// the few-sample figures such as repeated set-up times. Zero when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One traced interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call or phase name.
    pub name: &'static str,
    /// Request the span belongs to.
    pub request: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let (s, e) = (span.start.max(parent.start), span.end.min(parent.end));
            if s < e {
                children[p].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start;
            for &(s, e) in kids.iter() {
                let s = s.max(cursor);
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
            span.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 0.5), Some(1.0));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(percentile(&v, 99.0), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Exactly ten beyond rank 990: allowed.
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        // Rank 990 of 999 leaves nine beyond: refused.
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_few_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            span("request", None, 0, 100),
            span("consult", Some(0), 10, 40),
            span("replay", Some(0), 50, 70),
            // Overlaps its sibling: the shared 60..70 counts once.
            span("replay", Some(0), 60, 80),
            span("inner", Some(1), 20, 30),
            // Sticks out of its parent: only 90..100 is covered.
            span("late", Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 20, 20, 10, 30]);
    }
}
