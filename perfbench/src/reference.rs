//! The checked-in per-program reference results (`reference.tsv`) and
//! the comparison that turns a mismatch into a failed operation.

/// What one program's Table 1 row must read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Benchmark name, as `c4_suite::benchmarks()` spells it.
    pub name: String,
    /// Unfiltered (errors, harmless, false alarms).
    pub unfiltered: [usize; 3],
    /// Filtered (errors, harmless, false alarms).
    pub filtered: [usize; 3],
    /// Whether both runs generalized to unboundedly many sessions.
    pub generalized: bool,
    /// Largest `k` used.
    pub max_k: usize,
}

/// The reference file compiled into the benchmark.
pub const REFERENCE: &str = include_str!("../reference.tsv");

/// Parses reference rows: `#` lines are comments, every other line is
/// nine tab-separated fields.
///
/// # Errors
///
/// A line with the wrong field count or a malformed number or flag.
pub fn parse(text: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 9 {
            return Err(format!(
                "reference line {}: {} fields, want 9",
                i + 1,
                f.len()
            ));
        }
        let num = |s: &str| {
            s.parse::<usize>()
                .map_err(|_| format!("reference line {}: bad number {s:?}", i + 1))
        };
        let generalized = match f[7] {
            "true" => true,
            "false" => false,
            other => return Err(format!("reference line {}: bad flag {other:?}", i + 1)),
        };
        rows.push(Row {
            name: f[0].to_string(),
            unfiltered: [num(f[1])?, num(f[2])?, num(f[3])?],
            filtered: [num(f[4])?, num(f[5])?, num(f[6])?],
            generalized,
            max_k: num(f[8])?,
        });
    }
    Ok(rows)
}

/// Looks a program's reference row up by name.
pub fn find<'a>(rows: &'a [Row], name: &str) -> Option<&'a Row> {
    rows.iter().find(|r| r.name == name)
}

/// Compares an observed row with its reference; the error names every
/// field that differs.
pub fn compare(want: &Row, got: &Row) -> Result<(), String> {
    if want == got {
        return Ok(());
    }
    let mut diffs = Vec::new();
    if want.unfiltered != got.unfiltered {
        diffs.push(format!(
            "unfiltered {:?} != {:?}",
            got.unfiltered, want.unfiltered
        ));
    }
    if want.filtered != got.filtered {
        diffs.push(format!(
            "filtered {:?} != {:?}",
            got.filtered, want.filtered
        ));
    }
    if want.generalized != got.generalized {
        diffs.push(format!(
            "generalized {} != {}",
            got.generalized, want.generalized
        ));
    }
    if want.max_k != got.max_k {
        diffs.push(format!("max_k {} != {}", got.max_k, want.max_k));
    }
    if want.name != got.name {
        diffs.push(format!("name {:?} != {:?}", got.name, want.name));
    }
    Err(format!("{}: {}", want.name, diffs.join(", ")))
}

/// Operations attempted and failed, with the first few failure reasons
/// kept for the log.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
    /// The first failure reasons (at most [`Tally::KEEP`]).
    pub reasons: Vec<String>,
}

impl Tally {
    /// How many failure reasons are kept.
    pub const KEEP: usize = 8;

    /// Counts one checked operation.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.reasons.len() < Self::KEEP {
                self.reasons.push(reason);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_reference_totals_match_table1() {
        let rows = parse(REFERENCE).expect("reference parses");
        assert_eq!(rows.len(), 28);
        let unf: usize = rows
            .iter()
            .map(|r| r.unfiltered.iter().sum::<usize>())
            .sum();
        let fil: usize = rows.iter().map(|r| r.filtered.iter().sum::<usize>()).sum();
        assert_eq!((unf, fil), (122, 48));
        let names: Vec<&str> = c4_suite::benchmarks().iter().map(|b| b.name).collect();
        let listed: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(listed, names, "one row per benchmark, in Table 1 order");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse("Tetris\t3\t0\t0\t3\t0\t0\ttrue").is_err());
        assert!(parse("Tetris\t3\t0\tx\t3\t0\t0\ttrue\t2").is_err());
        assert!(parse("Tetris\t3\t0\t0\t3\t0\t0\tyes\t2").is_err());
        assert_eq!(parse("# only a comment\n\n").map(|r| r.len()), Ok(0));
    }

    #[test]
    fn a_mismatching_reference_counts_as_a_failed_operation() {
        let good = parse("Tetris\t3\t0\t0\t3\t0\t0\ttrue\t2")
            .unwrap()
            .remove(0);
        let mut wrong_reference = good.clone();
        wrong_reference.filtered = [2, 0, 0];
        let mut tally = Tally::default();
        tally.record(compare(&good, &good));
        tally.record(compare(&wrong_reference, &good));
        tally.record(compare(
            &good,
            &Row {
                max_k: 3,
                ..good.clone()
            },
        ));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!(tally.reasons[0].contains("filtered"), "{:?}", tally.reasons);
        assert!(tally.reasons[1].contains("max_k"), "{:?}", tally.reasons);
    }
}
