//! The benchmark's own statistics: medians, percentiles and counter
//! deltas. Kept free of I/O so the unit tests below pin them down.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Arithmetic mean of `xs`; `None` for an empty slice. Over the timed
/// passes of a run it repeats better than their median: the host's speed
/// drifts over minutes, so a run's passes form a trend rather than a
/// cluster with outliers, and the median picks one pass of that trend.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Zero-based index of the nearest-rank `q`-quantile (`0 < q <= 1`) of
/// `n` sorted samples: the smallest index `i` with `(i + 1) / n >= q`.
pub fn rank_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "rank_index of an empty sample");
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// How many samples lie strictly beyond the nearest-rank `q`-quantile
/// of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - 1 - rank_index(n, q)
}

/// Nearest-rank `q`-quantile of `xs`, or `None` unless at least
/// `min_beyond` samples lie beyond it — a tail percentile resting on
/// fewer samples repeats poorly from run to run.
pub fn percentile(xs: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    if xs.is_empty() || beyond(xs.len(), q) < min_beyond {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank_index(v.len(), q)])
}

/// Linearly interpolated `q`-quantile (`0 <= q <= 1`) of `xs`: a
/// continuous function of the samples, so two programs swapping ranks
/// does not make it jump. `None` for an empty slice.
pub fn interpolated(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Named monotone counters read from one process at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Which process the counters came from.
    pub source: String,
    /// `(counter, value)` pairs.
    pub values: Vec<(String, u64)>,
}

impl Snapshot {
    fn get(&self, name: &str) -> Option<u64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Sums `counter` over the processes of two snapshot sets, pairing each
/// `after` snapshot with the `before` snapshot of the same source.
///
/// # Errors
///
/// A source or counter present on one side only, or a counter that went
/// down (a restarted process): the phase's counts would be meaningless.
pub fn delta(before: &[Snapshot], after: &[Snapshot], counter: &str) -> Result<u64, String> {
    if before.len() != after.len() {
        return Err(format!(
            "{} snapshots before, {} after",
            before.len(),
            after.len()
        ));
    }
    let mut total = 0;
    for a in after {
        let b = before
            .iter()
            .find(|b| b.source == a.source)
            .ok_or_else(|| format!("no earlier snapshot of {}", a.source))?;
        let (Some(x), Some(y)) = (b.get(counter), a.get(counter)) else {
            return Err(format!("{} lacks counter {counter}", a.source));
        };
        total += y
            .checked_sub(x)
            .ok_or_else(|| format!("{counter} on {} went down: {x} -> {y}", a.source))?;
    }
    Ok(total)
}

/// Deterministic 64-bit generator (SplitMix64): the same seed gives the
/// same request sequence and pass orders on every machine.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`), by rejection so no value
    /// is favoured.
    pub fn below(&mut self, n: usize) -> usize {
        let n = n as u64;
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return (x % n) as usize;
            }
        }
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 4.0]), Some(4.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn mean_of_passes_weighs_every_pass() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[4.0]), Some(4.0));
        assert_eq!(mean(&[3.0, 4.0, 5.0, 6.0]), Some(4.5));
    }

    #[test]
    fn median_of_passes_ignores_one_slow_pass() {
        let passes = [4.41, 4.52, 9.80, 4.47, 4.39];
        assert_eq!(median(&passes), Some(4.47));
    }

    #[test]
    fn nearest_rank_index() {
        assert_eq!(rank_index(100, 0.5), 49);
        assert_eq!(rank_index(100, 0.99), 98);
        assert_eq!(rank_index(1000, 0.99), 989);
        assert_eq!(rank_index(28, 0.99), 27);
        assert_eq!(rank_index(1, 0.99), 0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples put exactly 10 beyond p99; 999 put only 9.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99, 10), Some(990.0));
        assert_eq!(percentile(&xs[..999], 0.99, 10), None);
        assert_eq!(percentile(&xs, 0.5, 10), Some(500.0));
    }

    #[test]
    fn interpolated_quantile_is_continuous() {
        assert_eq!(interpolated(&[], 0.5), None);
        assert_eq!(interpolated(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.5));
        assert_eq!(interpolated(&[7.0, 1.0], 1.0), Some(7.0));
        // Swapping which sample holds which value changes nothing.
        assert_eq!(
            interpolated(&[24.0, 22.0, 30.0], 0.5),
            interpolated(&[22.0, 24.0, 30.0], 0.5)
        );
    }

    fn snap(source: &str, values: &[(&str, u64)]) -> Snapshot {
        Snapshot {
            source: source.into(),
            values: values.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        }
    }

    #[test]
    fn delta_pairs_snapshots_by_source_not_position() {
        let before = [snap("a", &[("hits", 10)]), snap("b", &[("hits", 100)])];
        let after = [snap("b", &[("hits", 130)]), snap("a", &[("hits", 15)])];
        assert_eq!(delta(&before, &after, "hits"), Ok(35));
    }

    #[test]
    fn delta_rejects_unpaired_or_decreasing_counters() {
        let before = [snap("a", &[("hits", 10)])];
        assert!(delta(&before, &[snap("b", &[("hits", 11)])], "hits").is_err());
        assert!(delta(&before, &[snap("a", &[("hits", 9)])], "hits").is_err());
        assert!(delta(&before, &[snap("a", &[("misses", 11)])], "hits").is_err());
        assert!(delta(&before, &[], "hits").is_err());
    }

    #[test]
    fn seeded_draws_repeat_and_stay_in_range() {
        let a: Vec<usize> = {
            let mut r = SplitMix::new(7);
            (0..50).map(|_| r.below(28)).collect()
        };
        let b: Vec<usize> = {
            let mut r = SplitMix::new(7);
            (0..50).map(|_| r.below(28)).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x < 28));
        let mut p = SplitMix::new(3).permutation(28);
        p.sort_unstable();
        assert_eq!(p, (0..28).collect::<Vec<_>>());
    }
}
