//! `c4-perfbench`: end-to-end and per-layer benchmark of the cold Table 1
//! suite and the warm `c4-gateway` serving path.
//!
//! ```text
//! c4-perfbench --workload suite_seq|suite_par|serve_warm --seed N
//!              --seconds S --trace 0|1 --bin-dir DIR --out-dir DIR
//! ```
//!
//! `perfbench/run.sh` builds the binaries and supplies `--bin-dir` (where
//! `c4d` and `c4-gateway` live) and `--out-dir` (where traced runs write
//! their spans). The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics`. An untraced run
//! reports every end-to-end metric, a traced run every per-layer one.
//! Set-up failures exit non-zero without a result.

mod affinity;
mod procfs;
mod reference;
mod serve;
mod span;
mod stats;
mod suite;

use std::path::PathBuf;

use reference::Tally;

/// What a workload run measured.
pub struct Measured {
    /// Checked operations.
    pub tally: Tally,
    /// `(metric, value)` pairs.
    pub metrics: Vec<(&'static str, f64)>,
    /// Reasons the run did not measure what its workload names.
    pub problems: Vec<String>,
}

/// End-to-end metrics and their units, as `BENCHMARK.json` declares them.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_s", "s"),
    ("cpu_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("req_per_s", "1/s"),
];

/// Per-layer metrics and their units, as `BENCHMARK.json` declares them.
/// A workload that bypasses a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 44] = [
    ("lang.parse_ms", "ms"),
    ("lang.interp_ms", "ms"),
    ("core.filter_ms", "ms"),
    ("algebra.far_ms", "ms"),
    ("core.tables_ms", "ms"),
    ("core.check_ms", "ms"),
    ("report.encode_ms", "ms"),
    ("check.unfold_ms", "ms"),
    ("check.ssg_filter_ms", "ms"),
    ("check.encoder_build_ms", "ms"),
    ("check.query_solve_ms", "ms"),
    ("check.smt_other_ms", "ms"),
    ("check.validate_ms", "ms"),
    ("check.merge_ms", "ms"),
    ("check.unattributed_ms", "ms"),
    ("check.runs", "count"),
    ("unfold.unfoldings", "count"),
    ("ssg.suspicious", "count"),
    ("check.subsumed", "count"),
    ("smt.solves", "count"),
    ("smt.assumption_solves", "count"),
    ("smt.sat_resolves", "count"),
    ("smt.learnt_clauses", "count"),
    ("sym.classes", "count"),
    ("sym.replayed", "count"),
    ("smt.decided_per_solve", "ratio"),
    ("client.connect_us", "us"),
    ("client.direct_us", "us"),
    ("gateway.hop_us", "us"),
    ("proto.req_encode_us", "us"),
    ("proto.req_decode_us", "us"),
    ("proto.resp_encode_us", "us"),
    ("proto.resp_decode_us", "us"),
    ("lang.canon_us", "us"),
    ("cache.key_us", "us"),
    ("cache.lookup_us", "us"),
    ("report.decode_us", "us"),
    ("server.residual_us", "us"),
    ("server.rss_growth_kib_per_req", "KiB"),
    ("cache.hit_ratio", "ratio"),
    ("service.rejected", "count"),
    ("gateway.retries", "count"),
    ("gateway.hedges", "count"),
    ("trace.overhead_ms", "ms"),
];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    out_dir: PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut bin_dir, mut out_dir) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("not a duration"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let need = |flag: &str| format!("{flag} is required");
    Ok(Args {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        trace: trace.ok_or_else(|| need("--trace"))?,
        bin_dir: bin_dir.ok_or_else(|| need("--bin-dir"))?,
        out_dir: out_dir.ok_or_else(|| need("--out-dir"))?,
    })
}

/// Runs the named workload; traced runs also return their spans.
fn run(a: &Args) -> Result<(Measured, Option<span::Tracer>), String> {
    let traced = |r: Result<(Measured, span::Tracer), String>| r.map(|(m, t)| (m, Some(t)));
    match (a.workload.as_str(), a.trace) {
        ("suite_seq", false) => suite::run(1, a.seed, a.seconds).map(|m| (m, None)),
        ("suite_par", false) => suite::run(2, a.seed, a.seconds).map(|m| (m, None)),
        ("serve_warm", false) => serve::run(&a.bin_dir, a.seed, a.seconds).map(|m| (m, None)),
        ("suite_seq", true) => traced(suite::run_traced(1, a.seed, a.seconds)),
        ("suite_par", true) => traced(suite::run_traced(2, a.seed, a.seconds)),
        ("serve_warm", true) => traced(serve::run_traced(&a.bin_dir, a.seed, a.seconds)),
        (other, _) => Err(format!("unknown workload {other:?}")),
    }
}

/// The result line: every declared metric of the run's kind, by name
/// with its unit.
fn result_line(m: &Measured, trace: bool) -> Result<String, String> {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in &m.metrics {
        if !declared.iter().any(|(d, _)| d == name) {
            return Err(format!("workload measured undeclared metric {name}"));
        }
    }
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let value = match m.metrics.iter().find(|(n, _)| n == name) {
            Some(&(_, v)) => v,
            None if trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is {value}"));
        }
        fields.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
    }
    let correct = m.tally.failed == 0 && m.problems.is_empty();
    Ok(format!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        m.tally.attempted,
        m.tally.failed,
        fields.join(",")
    ))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("c4-perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "c4-perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let (measured, tracer) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("c4-perfbench: {e}");
            std::process::exit(1);
        }
    };
    for reason in measured.tally.reasons.iter().chain(&measured.problems) {
        eprintln!("c4-perfbench: FAILED: {reason}");
    }
    if let Some(tr) = tracer {
        let path = args
            .out_dir
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("c4-perfbench: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "c4-perfbench: {} spans written to {}",
            tr.spans().len(),
            path.display()
        );
    }
    match result_line(&measured, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("c4-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(metrics: Vec<(&'static str, f64)>, failed: u64) -> Measured {
        let mut tally = Tally::default();
        tally.record(Ok(()));
        for _ in 0..failed {
            tally.record(Err("wrong".into()));
        }
        Measured {
            tally,
            metrics,
            problems: Vec::new(),
        }
    }

    #[test]
    fn untraced_result_needs_every_end_to_end_metric() {
        let all: Vec<(&'static str, f64)> = END_TO_END.iter().map(|&(n, _)| (n, 1.5)).collect();
        let line = result_line(&measured(all.clone(), 0), false).unwrap();
        assert!(line.starts_with(r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"#));
        assert!(
            line.contains(r#""req_per_s":{"value":1.5,"unit":"1/s"}"#),
            "{line}"
        );
        assert!(result_line(&measured(all[1..].to_vec(), 0), false).is_err());
        assert!(result_line(&measured(vec![("setup_s", f64::NAN)], 0), false).is_err());
    }

    #[test]
    fn failed_operations_make_the_result_incorrect() {
        let all: Vec<(&'static str, f64)> = END_TO_END.iter().map(|&(n, _)| (n, 1.0)).collect();
        let line = result_line(&measured(all, 2), false).unwrap();
        assert!(
            line.starts_with(r#"{"correct":false,"attempted":3,"failed":2,"#),
            "{line}"
        );
    }

    #[test]
    fn traced_result_reports_bypassed_layers_as_zero() {
        let line = result_line(&measured(vec![("client.direct_us", 120.25)], 0), true).unwrap();
        assert!(
            line.contains(r#""client.direct_us":{"value":120.25,"unit":"us"}"#),
            "{line}"
        );
        assert!(
            line.contains(r#""lang.parse_ms":{"value":0,"unit":"ms"}"#),
            "{line}"
        );
        assert!(result_line(&measured(vec![("setup_s", 1.0)], 0), true).is_err());
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end].to_string()
        };
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let s = section(key);
            let names: Vec<&str> = s
                .match_indices("\"name\": \"")
                .map(|(i, m)| {
                    let rest = &s[i + m.len()..];
                    &rest[..rest.find('"').expect("name closes")]
                })
                .collect();
            let code: Vec<&str> = table.iter().map(|&(n, _)| n).collect();
            assert_eq!(names, code, "{key} names");
            for (name, unit) in table {
                assert!(
                    s.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                    "{key}: {name} must have unit {unit}"
                );
            }
        }
        for w in ["suite_seq", "suite_par", "serve_warm"] {
            assert!(
                json.contains(&format!("\"name\": \"{w}\"")),
                "workload {w} declared"
            );
        }
    }

    #[test]
    fn args_are_checked() {
        let argv = |s: &str| {
            s.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter()
        };
        let ok = parse_args(argv(
            "--workload suite_seq --seed 7 --seconds 20 --trace 1 --bin-dir b --out-dir o",
        ))
        .unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 20.0, true));
        assert!(parse_args(argv(
            "--workload suite_seq --seed 7 --seconds 20 --trace 2 --bin-dir b --out-dir o"
        ))
        .is_err());
        assert!(parse_args(argv(
            "--workload suite_seq --seed x --seconds 20 --trace 0 --bin-dir b --out-dir o"
        ))
        .is_err());
        assert!(parse_args(argv(
            "--workload suite_seq --seconds 20 --trace 0 --bin-dir b --out-dir o"
        ))
        .is_err());
    }
}
