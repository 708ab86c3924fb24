//! The golden report corpus: absolute expected output, checked in under
//! `tests/golden/`, instead of one mode compared with another.
//!
//! * `reports.tsv` holds the `encode_report` bytes (hex) of every checker
//!   run of the Table 1 pipeline: each program unfiltered and each of its
//!   filtered atomic-set views, one line per `(program, view)`.
//! * `table1.jsonl` holds the `table1 --threads 1 --json` record of every
//!   program with its wall clocks stripped ([`c4_suite::strip_timings`]).
//!   The `"sched"` block stays: at one worker its assumption solves and
//!   retained learnt clauses pin the SAT search itself, so a change to the
//!   encoding or to the branching order shows up here even when every
//!   verdict survives it.
//!
//! The reports must match at 1 and 2 workers. Unoptimized builds check
//! the `t·e ≤ 60` subset, as `parallel_determinism` does; release builds
//! check all 28 programs.
//!
//! Regenerating the corpus (only for a change that is meant to alter
//! reports, and the reason goes with the change):
//! `cargo test --release -p c4-tests --test golden_reports -- --ignored`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use c4::{filter, AbstractHistory, AnalysisFeatures, Checker};
use c4_suite::{benchmarks, json_line, strip_timings, Benchmark};

const REPORTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/reports.tsv");
const TABLE1: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/table1.jsonl");

fn features(parallelism: usize) -> AnalysisFeatures {
    AnalysisFeatures { parallelism, ..AnalysisFeatures::default() }
}

fn selection() -> Vec<Benchmark> {
    let mut bs = benchmarks();
    if cfg!(debug_assertions) {
        bs.retain(|b| b.paper.t * b.paper.e <= 60);
    }
    bs
}

/// The checker runs of the Table 1 pipeline for one program, in the
/// order `c4_suite::analyze` makes them: unfiltered, then every
/// filtered view.
fn runs(b: &Benchmark) -> Vec<(String, AbstractHistory)> {
    let program = c4_lang::parse(b.source).expect("suite sources parse");
    let history = c4_lang::abstract_history(&program).expect("suite sources interpret");
    let views = filter::atomic_set_views(&filter::drop_display(&history));
    let mut out = vec![("unfiltered".to_string(), history)];
    out.extend(views.into_iter().enumerate().map(|(i, v)| (format!("filtered:{i}"), v)));
    out
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(2 * bytes.len());
    for b in bytes {
        write!(s, "{b:02x}").expect("writing to a String");
    }
    s
}

/// `program\tview\thex` lines of one program at the given worker count.
fn report_lines(b: &Benchmark, parallelism: usize) -> Vec<String> {
    runs(b)
        .into_iter()
        .map(|(view, h)| {
            let res = Checker::new(h, features(parallelism)).run();
            assert!(!res.stats.deadline_hit, "{} {view}: budget fired", b.name);
            format!("{}\t{view}\t{}", b.name, hex(&res.encode_report()))
        })
        .collect()
}

fn table1_line(b: &Benchmark) -> String {
    strip_timings(&json_line(b.domain, &c4_suite::analyze(b, &features(1))))
}

/// Golden lines grouped by program name (the first tab- or
/// `"name"`-delimited field).
fn golden(path: &str, name_of: impl Fn(&str) -> &str) -> BTreeMap<String, Vec<String>> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let mut by_name: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for line in text.lines() {
        by_name.entry(name_of(line).to_string()).or_default().push(line.to_string());
    }
    by_name
}

fn tsv_name(line: &str) -> &str {
    line.split('\t').next().expect("split yields one field")
}

fn json_name(line: &str) -> &str {
    let rest = line.split("\"name\":\"").nth(1).expect("json line has a name");
    &rest[..rest.find('"').expect("name is terminated")]
}

#[test]
fn reports_match_golden_at_1_and_2_workers() {
    let golden = golden(REPORTS, tsv_name);
    assert_eq!(golden.len(), benchmarks().len(), "the corpus covers every program");
    for b in selection() {
        let want = &golden[b.name];
        for parallelism in [1, 2] {
            let got = report_lines(&b, parallelism);
            assert_eq!(got.len(), want.len(), "{}: number of views", b.name);
            for (g, w) in got.iter().zip(want) {
                assert!(g == w, "{} at {parallelism} workers: report differs\n got {g}\nwant {w}", b.name);
            }
        }
    }
}

#[test]
fn table1_json_matches_golden() {
    let golden = golden(TABLE1, json_name);
    assert_eq!(golden.len(), benchmarks().len(), "the corpus covers every program");
    for b in selection() {
        let got = table1_line(&b);
        assert_eq!(got, golden[b.name][0], "{}: table1 --json record differs", b.name);
    }
}

/// Rewrites the corpus from the current code (all 28 programs).
#[test]
#[ignore = "writes tests/golden/; run by hand when reports are meant to change"]
fn regenerate_golden_corpus() {
    let mut reports = String::new();
    let mut table1 = String::new();
    for b in benchmarks() {
        for line in report_lines(&b, 1) {
            reports.push_str(&line);
            reports.push('\n');
        }
        table1.push_str(&table1_line(&b));
        table1.push('\n');
    }
    std::fs::write(REPORTS, reports).expect("writing reports.tsv");
    std::fs::write(TABLE1, table1).expect("writing table1.jsonl");
}
