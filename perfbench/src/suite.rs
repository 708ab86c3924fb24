//! The cold Table 1 suite, analyzed in-process along the path `table1`
//! takes (`c4_suite::analyze`: the unfiltered run plus every filtered
//! atomic-set view), at a fixed worker count.
//!
//! Every pass analyzes the programs in Table 1 order, as `table1` does, so
//! the suite has no seeded input. A program's verdict latency is the
//! time from the start of its pass until its verdict, which is what a
//! `table1` user waits for row by row.

use std::collections::BTreeSet;
use std::time::Instant;

use c4::ssg::PairTables;
use c4::unfold::arena_for;
use c4::{filter, AnalysisFeatures, AnalysisStats, Checker};
use c4_suite::{Benchmark, Class};

use crate::reference::{self, Row, Tally};
use crate::span::Tracer;
use crate::stats::{interpolated, mean, median};
use crate::{procfs, Measured};

/// Rounds per run. Each round sets up afresh and then runs its share of
/// the timed passes, so the timed passes spread over the whole run and
/// average over the host's slow phases; `setup_s` is the median set-up,
/// and every pass metric is a mean over the timed passes (see
/// [`mean`]).
const ROUNDS: usize = 3;
/// Fewest timed passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Everything a pass needs, built by each set-up.
struct Suite {
    benches: Vec<Benchmark>,
    rows: Vec<Row>,
    features: AnalysisFeatures,
}

/// Wall time, CPU time and verdict latencies of one pass.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    /// Milliseconds from the start of the pass to each program's verdict,
    /// in Table 1 order (so ascending).
    verdict_ms: Vec<f64>,
}

fn load(parallelism: usize) -> Result<Suite, String> {
    let rows = reference::parse(reference::REFERENCE)?;
    let benches = c4_suite::benchmarks();
    for b in &benches {
        reference::find(&rows, b.name).ok_or_else(|| format!("no reference row for {}", b.name))?;
    }
    let features = AnalysisFeatures {
        parallelism,
        ..AnalysisFeatures::default()
    };
    Ok(Suite {
        benches,
        rows,
        features,
    })
}

fn counts(vs: &[(BTreeSet<String>, Class)]) -> [usize; 3] {
    let mut c = [0; 3];
    for (_, class) in vs {
        c[match class {
            Class::Harmful => 0,
            Class::Harmless => 1,
            Class::FalseAlarm => 2,
        }] += 1;
    }
    c
}

impl Suite {
    fn check(&self, b: &Benchmark, got: Row) -> Result<(), String> {
        let want = reference::find(&self.rows, b.name).expect("rows checked at load");
        reference::compare(want, &got)
    }

    /// One untraced pass through `c4_suite::analyze`.
    fn pass(&self, tally: &mut Tally) -> Result<Pass, String> {
        let cpu0 = procfs::cpu_s("self")?;
        let t0 = Instant::now();
        let mut verdict_ms = Vec::with_capacity(self.benches.len());
        for b in &self.benches {
            let out = c4_suite::analyze(b, &self.features);
            verdict_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            tally.record(self.check(
                b,
                Row {
                    name: b.name.to_string(),
                    unfiltered: counts(&out.unfiltered),
                    filtered: counts(&out.filtered),
                    generalized: out.generalized,
                    max_k: out.max_k,
                },
            ));
        }
        let wall_s = t0.elapsed().as_secs_f64();
        Ok(Pass {
            wall_s,
            cpu_s: procfs::cpu_s("self")? - cpu0,
            verdict_ms,
        })
    }
}

/// Runs an untraced suite workload: [`ROUNDS`] rounds of one set-up,
/// ending with an untimed warm-up pass, followed by timed passes until
/// the round's share of `seconds` is used. Verdict percentiles are taken
/// per pass and averaged over the passes.
pub fn run(parallelism: usize, seed: u64, seconds: f64) -> Result<Measured, String> {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut timed_s = 0.0;
    let mut suite = None;
    for round in 1..=ROUNDS {
        let t0 = Instant::now();
        let s = load(parallelism)?;
        s.pass(&mut tally)?;
        setups.push(t0.elapsed().as_secs_f64());
        let share = seconds * round as f64 / ROUNDS as f64;
        let first = passes.len();
        while passes.len() == first
            || timed_s < share
            || (round == ROUNDS && passes.len() < MIN_PASSES)
        {
            let pass = s.pass(&mut tally)?;
            timed_s += pass.wall_s;
            passes.push(pass);
        }
        suite = Some(s);
    }
    let suite = suite.expect("at least one round");

    let n = suite.benches.len();
    let avg = |f: &dyn Fn(&Pass) -> f64| {
        mean(&passes.iter().map(f).collect::<Vec<_>>()).expect("passes ran")
    };
    let verdict_q = |q: f64| avg(&|p| interpolated(&p.verdict_ms, q).expect("programs ran"));
    let metrics = vec![
        ("setup_s", median(&setups).expect("set-ups ran")),
        ("peak_rss_mb", procfs::peak_rss_mb("self")?),
        ("pass_s", avg(&|p| p.wall_s)),
        ("cpu_s", avg(&|p| p.cpu_s)),
        ("req_p50_ms", verdict_q(0.50)),
        ("req_p99_ms", verdict_q(0.99)),
        ("req_per_s", (n * passes.len()) as f64 / timed_s),
    ];
    eprintln!(
        "suite parallelism={parallelism} seed={seed}: {ROUNDS} rounds, {} timed passes of {n} programs",
        passes.len()
    );
    Ok(Measured {
        tally,
        metrics,
        problems: Vec::new(),
    })
}

/// Per-program layer totals of one traced pass, for the reconciliation
/// lines.
#[derive(Default, Clone)]
struct ProgramLedger {
    check_ms: f64,
    stats: AnalysisStats,
}

/// The stage buckets `Checker::run` reports, summed: unfold, SSG filter,
/// SMT (which contains encoder build and query solve), validation and
/// merge.
fn stage_sum_ms(s: &AnalysisStats) -> f64 {
    let t = &s.timings;
    (t.unfold + t.ssg_filter + t.smt + t.validate + t.merge).as_secs_f64() * 1e3
}

impl Suite {
    /// One traced pass: the same analyses as [`Suite::pass`], made from
    /// the public calls `c4_suite::analyze` is built from, each inside a
    /// span. The `core.tables` probe repeats work `Checker::run` does
    /// internally, so callers subtract its spans from the pass time.
    /// Returns the pass span, per-program ledgers and the pass's stats.
    fn traced_pass(
        &self,
        tally: &mut Tally,
        tr: &mut Tracer,
        pass_no: u64,
    ) -> (usize, Vec<ProgramLedger>, AnalysisStats) {
        let root = tr.open("pass", pass_no);
        let mut ledgers = vec![ProgramLedger::default(); self.benches.len()];
        let mut pass_stats = AnalysisStats::default();
        for (i, b) in self.benches.iter().enumerate() {
            let owner = i as u64;
            let prog = tr.open("program", owner);
            let program = tr
                .time("lang.parse", owner, || c4_lang::parse(b.source))
                .expect("suite sources parse");
            let history = tr
                .time("lang.interp", owner, || c4_lang::abstract_history(&program))
                .expect("suite sources interpret");
            let views = tr.time("core.filter", owner, || {
                filter::atomic_set_views(&filter::drop_display(&history))
            });
            let name_of = |t: usize| history.txs[t].name.clone();
            let mut unfiltered: Vec<(BTreeSet<String>, Class)> = Vec::new();
            let mut filtered: Vec<(BTreeSet<String>, Class)> = Vec::new();
            let mut generalized = true;
            let mut max_k = 0;
            let runs = std::iter::once(history.clone()).chain(views);
            for (run_no, h) in runs.enumerate() {
                let checker = tr.time("algebra.far", owner, || {
                    Checker::new(h, self.features.clone())
                });
                tr.time("core.tables", owner, || {
                    let arena = arena_for(checker.history());
                    std::hint::black_box(PairTables::compute(arena.bodies(), checker.far()));
                });
                let check = tr.open("core.check", owner);
                let res = checker.run();
                tr.close(check);
                ledgers[i].check_ms += tr.spans()[check].ms();
                std::hint::black_box(tr.time("report.encode", owner, || res.encode_report()));
                ledgers[i].stats.absorb(&res.stats);
                generalized &= res.generalized;
                max_k = max_k.max(res.max_k);
                let into = if run_no == 0 {
                    &mut unfiltered
                } else {
                    &mut filtered
                };
                for v in &res.violations {
                    let sig: BTreeSet<String> = v.txs.iter().map(|&t| name_of(t)).collect();
                    if !into.iter().any(|(s, _)| *s == sig) {
                        let class = (b.classify)(&sig);
                        into.push((sig, class));
                    }
                }
            }
            tr.close(prog);
            pass_stats.absorb(&ledgers[i].stats);
            tally.record(self.check(
                b,
                Row {
                    name: b.name.to_string(),
                    unfiltered: counts(&unfiltered),
                    filtered: counts(&filtered),
                    generalized,
                    max_k,
                },
            ));
        }
        tr.close(root);
        (root, ledgers, pass_stats)
    }
}

/// The layer spans of a traced suite pass and the per-layer metric each
/// one's per-pass total becomes.
const LAYERS: [(&str, &str); 7] = [
    ("lang.parse", "lang.parse_ms"),
    ("lang.interp", "lang.interp_ms"),
    ("core.filter", "core.filter_ms"),
    ("algebra.far", "algebra.far_ms"),
    ("core.tables", "core.tables_ms"),
    ("core.check", "core.check_ms"),
    ("report.encode", "report.encode_ms"),
];

/// Runs a traced suite workload: one warm-up pass, then untraced and
/// traced passes alternately for `seconds`. Per-layer numbers are
/// medians over the traced passes of per-pass sums; the tracing
/// overhead is the traced median minus the untraced one.
pub fn run_traced(
    parallelism: usize,
    seed: u64,
    seconds: f64,
) -> Result<(Measured, Tracer), String> {
    let mut tally = Tally::default();
    let suite = load(parallelism)?;
    suite.pass(&mut tally)?;

    let mut tr = Tracer::default();
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut roots = Vec::new();
    let mut ledgers: Vec<Vec<ProgramLedger>> = Vec::new();
    let mut pass_stats = Vec::new();
    while traced.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        untraced.push(suite.pass(&mut tally)?.wall_s * 1e3);
        let (root, l, s) = suite.traced_pass(&mut tally, &mut tr, traced.len() as u64);
        let probe_ms = tr.sum_under(root, "core.tables");
        traced.push(tr.spans()[root].ms() - probe_ms);
        roots.push(root);
        ledgers.push(l);
        pass_stats.push(s);
    }

    let med = |xs: Vec<f64>| median(&xs).expect("traced passes ran");
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    for (layer, metric) in LAYERS {
        metrics.push((
            metric,
            med(roots.iter().map(|&r| tr.sum_under(r, layer)).collect()),
        ));
    }
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let stage = |f: &dyn Fn(&AnalysisStats) -> f64| med(pass_stats.iter().map(f).collect());
    metrics.extend([
        ("check.unfold_ms", stage(&|s| ms(s.timings.unfold))),
        ("check.ssg_filter_ms", stage(&|s| ms(s.timings.ssg_filter))),
        (
            "check.encoder_build_ms",
            stage(&|s| ms(s.timings.encoder_build)),
        ),
        (
            "check.query_solve_ms",
            stage(&|s| ms(s.timings.query_solve)),
        ),
        (
            "check.smt_other_ms",
            stage(&|s| ms(s.timings.smt) - ms(s.timings.encoder_build) - ms(s.timings.query_solve)),
        ),
        ("check.validate_ms", stage(&|s| ms(s.timings.validate))),
        ("check.merge_ms", stage(&|s| ms(s.timings.merge))),
    ]);
    let unattributed: Vec<f64> = roots
        .iter()
        .zip(&pass_stats)
        .map(|(&r, s)| tr.sum_under(r, "core.check") - stage_sum_ms(s))
        .collect();
    metrics.push(("check.unattributed_ms", med(unattributed)));
    metrics.push((
        "check.runs",
        med(roots
            .iter()
            .map(|&r| tr.count_under(r, "core.check") as f64)
            .collect()),
    ));
    let count = |f: &dyn Fn(&AnalysisStats) -> usize| stage(&|s| f(s) as f64);
    metrics.extend([
        ("unfold.unfoldings", count(&|s| s.unfoldings)),
        ("ssg.suspicious", count(&|s| s.suspicious_unfoldings)),
        ("check.subsumed", count(&|s| s.subsumed_candidates)),
        ("smt.solves", count(&|s| s.speculative_smt_queries)),
        ("smt.assumption_solves", count(&|s| s.assumption_solves)),
        ("smt.sat_resolves", count(&|s| s.sat_resolves)),
        ("smt.learnt_clauses", count(&|s| s.learnt_clauses)),
        ("sym.classes", count(&|s| s.classes)),
        ("sym.replayed", count(&|s| s.class_members_skipped)),
        (
            "smt.decided_per_solve",
            stage(&|s| {
                (s.smt_sat + s.smt_refuted) as f64 / s.speculative_smt_queries.max(1) as f64
            }),
        ),
        (
            "trace.overhead_ms",
            med(traced.clone()) - med(untraced.clone()),
        ),
    ]);

    // Reconciliation: the checker's own stage buckets against the time
    // `Checker::run` took, per program (medians over traced passes).
    println!(
        "reconciliation (ms, medians over {} traced passes):",
        traced.len()
    );
    println!(
        "{:<20} {:>12} {:>12} {:>14}",
        "program", "core.check", "stage sum", "unattributed"
    );
    for (i, b) in suite.benches.iter().enumerate() {
        let check = med(ledgers.iter().map(|l| l[i].check_ms).collect());
        let sum = med(ledgers.iter().map(|l| stage_sum_ms(&l[i].stats)).collect());
        let gap = med(ledgers
            .iter()
            .map(|l| l[i].check_ms - stage_sum_ms(&l[i].stats))
            .collect());
        println!("{:<20} {check:>12.3} {sum:>12.3} {gap:>14.3}", b.name);
    }
    eprintln!(
        "suite parallelism={parallelism} seed={seed} traced: {} untraced + {} traced passes",
        untraced.len(),
        traced.len()
    );
    Ok((
        Measured {
            tally,
            metrics,
            problems: Vec::new(),
        },
        tr,
    ))
}
