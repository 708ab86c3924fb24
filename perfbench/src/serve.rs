//! The warm serving path: the real `c4-gateway` binary in front of two
//! real `c4d` binaries, each with one worker, driven by one closed-loop
//! client that opens one connection per request, as `c4 submit` does.
//!
//! The client and the three servers share one CPU. With one closed-loop
//! client only one process of the request chain runs at a time, so one
//! CPU carries the load; sharing it keeps cross-CPU wake-ups, and the
//! other virtual CPU's stolen time, out of the latencies.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use c4::{AnalysisFeatures, AnalysisResult, CacheKey, CacheTier, VerdictCache};
use c4_service::client::{Client, Endpoint};
use c4_service::proto::{read_frame, write_frame, JobState, Request, Response};

use crate::reference::Tally;
use crate::span::Tracer;
use crate::stats::{self, mean, median, percentile, Snapshot, SplitMix};
use crate::{affinity, procfs, Measured};

/// Rounds per run. Each round starts a fresh cluster, fills it and runs
/// its share of the timed phase, so the timed requests spread over the
/// whole run and average over the host's slow phases; `setup_s` and
/// `peak_rss_mb` are medians over the rounds, `pass_s` and `cpu_s` means
/// (see [`stats::mean`]), and the request metrics cover the timed
/// requests of all rounds together.
const ROUNDS: usize = 3;
/// Fewest timed requests per round: enough that ten samples lie beyond
/// p99 however short `--seconds` is.
const MIN_REQUESTS: usize = 1000;
/// Ports the daemons try, in pairs. The gateway's consistent-hash ring
/// is built from the backend addresses, so fixed addresses give every
/// run the same split of programs between the two daemons; the next
/// pair is tried when a port is taken.
const DAEMON_PORTS: std::ops::Range<u16> = 47310..47350;
/// Most traced iterations per run; each records about a dozen spans.
const MAX_TRACED: usize = 5000;
/// How long a process may take to come up or to exit after shutdown.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(20);

/// One spawned server process.
struct Proc {
    name: String,
    child: Child,
    addr: String,
    /// Drains the rest of the process's stdout so it never blocks on a
    /// full pipe.
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// Spawns `bin` with `args` and waits for its `listening on tcp`
    /// line.
    fn spawn(bin: &Path, args: &[&str]) -> Result<Proc, String> {
        let name = bin
            .file_name()
            .map_or("server".into(), |n| n.to_string_lossy().into_owned());
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
        let marker = format!("{name} listening on tcp ");
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix(&marker) {
                        break addr.trim().to_string();
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("{name} exited before listening"));
                }
            }
        };
        let drain = std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
        Ok(Proc {
            name,
            child,
            addr,
            drain: Some(drain),
        })
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn client(&self) -> Client {
        Client::new(Endpoint::Tcp(self.addr.clone()))
    }

    /// Waits for the process to exit; kills it after [`PROCESS_TIMEOUT`].
    fn reap(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        let status = loop {
            match self
                .child
                .try_wait()
                .map_err(|e| format!("{}: {e}", self.name))?
            {
                Some(status) => break status,
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err(format!("{} did not exit after shutdown", self.name));
                }
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("{} exited with {status}", self.name))
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// A gateway and its two backends.
struct Cluster {
    gateway: Proc,
    daemons: Vec<Proc>,
}

impl Cluster {
    /// Spawns both daemons and the gateway and waits until the gateway
    /// holds live links to both.
    fn start(bin_dir: &Path) -> Result<Cluster, String> {
        let c4d = bin_dir.join("c4d");
        let spawn = |port: u16| {
            Proc::spawn(
                &c4d,
                &["--tcp", &format!("127.0.0.1:{port}"), "--jobs", "1"],
            )
        };
        let daemons = DAEMON_PORTS
            .step_by(2)
            .find_map(|port| match (spawn(port), spawn(port + 1)) {
                (Ok(a), Ok(b)) => Some(vec![a, b]),
                _ => None,
            })
            .ok_or("no free port pair for the daemons")?;
        // Hedging is off so that a slow cold job is never duplicated onto
        // the other backend, which would make the cold fill depend on
        // timing.
        let mut args = vec!["--tcp", "127.0.0.1:0", "--hedge-ms", "0"];
        for d in &daemons {
            args.extend(["--backend", d.addr.as_str()]);
        }
        let gateway = Proc::spawn(&bin_dir.join("c4-gateway"), &args)?;
        let cluster = Cluster { gateway, daemons };
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        let gw = cluster.gateway.client();
        while gw.health().map(|h| h.workers).unwrap_or(0) < 2 {
            if Instant::now() > deadline {
                return Err("gateway never reached both backends".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(cluster)
    }

    fn procs(&self) -> impl Iterator<Item = &Proc> {
        std::iter::once(&self.gateway).chain(&self.daemons)
    }

    /// User + system CPU seconds of all three processes.
    fn cpu_s(&self) -> Result<f64, String> {
        self.procs().map(|p| procfs::cpu_s(&p.pid())).sum()
    }

    /// Summed peak resident memory of all three processes.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        self.procs().map(|p| procfs::peak_rss_mb(&p.pid())).sum()
    }

    /// Summed current resident memory of all three processes.
    fn rss_mb(&self) -> Result<f64, String> {
        self.procs().map(|p| procfs::rss_mb(&p.pid())).sum()
    }

    /// The counters the timed phase is checked against, one snapshot per
    /// process.
    fn snapshots(&self) -> Result<Vec<Snapshot>, String> {
        let mut out = Vec::new();
        for d in &self.daemons {
            let s = d
                .client()
                .stats()
                .map_err(|e| format!("stats from {}: {e}", d.addr))?;
            out.push(Snapshot {
                source: d.addr.clone(),
                values: vec![
                    ("hits".into(), s.cache_mem_hits),
                    (
                        "lookups".into(),
                        s.cache_mem_hits + s.cache_disk_hits + s.cache_misses,
                    ),
                    ("rejected".into(), s.rejected),
                    ("retries".into(), 0),
                    ("hedges".into(), 0),
                ],
            });
        }
        let gw = self.gateway.client();
        let s = gw.stats().map_err(|e| format!("gateway stats: {e}"))?;
        let page = gw.metrics().map_err(|e| format!("gateway metrics: {e}"))?;
        out.push(Snapshot {
            source: self.gateway.addr.clone(),
            values: vec![
                ("hits".into(), 0),
                ("lookups".into(), 0),
                ("rejected".into(), s.rejected),
                ("retries".into(), prom_sum(&page, "c4gw_retries_total")),
                ("hedges".into(), prom_sum(&page, "c4gw_hedges_total")),
            ],
        });
        Ok(out)
    }

    /// Asks every process to shut down and waits for each to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut result = self
            .gateway
            .client()
            .shutdown()
            .map_err(|e| format!("gateway: {e}"));
        result = result.and(self.gateway.reap());
        for d in &mut self.daemons {
            let r = d
                .client()
                .shutdown()
                .map_err(|e| format!("{}: {e}", d.addr));
            result = result.and(r).and(d.reap());
        }
        result
    }
}

/// Sum of every series of a Prometheus counter family on a text page.
fn prom_sum(page: &str, family: &str) -> u64 {
    page.lines()
        .filter(|l| {
            l.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|l| l.split_whitespace().last()?.parse::<u64>().ok())
        .sum()
}

/// The programs, their reference reports and the submit features.
struct Programs {
    sources: Vec<&'static str>,
    reports: Vec<Vec<u8>>,
    features: AnalysisFeatures,
}

impl Programs {
    /// Computes every reference report in-process with
    /// `c4_service::run_analysis`, with the features the client submits.
    fn load() -> Result<Programs, String> {
        let features = AnalysisFeatures {
            parallelism: 1,
            ..AnalysisFeatures::default()
        };
        let benches = c4_suite::benchmarks();
        let sources: Vec<&'static str> = benches.iter().map(|b| b.source).collect();
        let reports = benches
            .iter()
            .map(|b| {
                c4_service::run_analysis(b.source, &features)
                    .map(|r| r.encode_report())
                    .map_err(|e| format!("{}: {e}", b.name))
            })
            .collect::<Result<_, _>>()?;
        Ok(Programs {
            sources,
            reports,
            features,
        })
    }

    /// Checks a terminal job state against program `i`'s reference.
    fn check(&self, i: usize, state: &JobState, tier: CacheTier) -> Result<(), String> {
        match state {
            JobState::Done {
                report, tier: t, ..
            } if *report == self.reports[i] && *t == tier => Ok(()),
            JobState::Done { tier: t, .. } if *t != tier => {
                Err(format!("program {i}: served from {t:?}, want {tier:?}"))
            }
            JobState::Done { .. } => Err(format!("program {i}: report differs from reference")),
            other => Err(format!("program {i}: {other:?}")),
        }
    }
}

fn submit(client: &Client, p: &Programs, i: usize) -> Result<JobState, String> {
    client
        .submit_wait(p.sources[i], &p.features)
        .map(|(_, s)| s)
        .map_err(|e| e.to_string())
}

/// A started cluster whose caches hold every program.
struct Warm {
    cluster: Cluster,
    /// Set-up time: spawn, readiness and cold fill, seconds.
    setup_s: f64,
    /// Cold fill wall time, seconds.
    fill_s: f64,
    /// Cold fill CPU time of the three processes, seconds.
    fill_cpu_s: f64,
    /// Summed peak resident memory of the three processes once filled.
    peak_rss_mb: f64,
    /// The backend that computed (and caches) each program.
    owners: Vec<String>,
}

/// Starts a cluster and submits every program once, cold, in seeded
/// order: the cache's write path.
fn warm_up(
    bin_dir: &Path,
    p: &Programs,
    rng: &mut SplitMix,
    tally: &mut Tally,
) -> Result<Warm, String> {
    let t0 = Instant::now();
    let cluster = Cluster::start(bin_dir)?;
    let gw = cluster.gateway.client();
    let cpu0 = cluster.cpu_s()?;
    let fill = Instant::now();
    let mut owners = vec![String::new(); p.sources.len()];
    for i in rng.permutation(p.sources.len()) {
        let state = submit(&gw, p, i);
        if let Ok(JobState::Done {
            timing: Some(t), ..
        }) = &state
        {
            owners[i] = t.backend.clone();
        }
        tally.record(state.and_then(|s| p.check(i, &s, CacheTier::Miss)));
    }
    let fill_s = fill.elapsed().as_secs_f64();
    let fill_cpu_s = cluster.cpu_s()? - cpu0;
    let setup_s = t0.elapsed().as_secs_f64();
    let peak_rss_mb = cluster.peak_rss_mb()?;
    Ok(Warm {
        cluster,
        setup_s,
        fill_s,
        fill_cpu_s,
        peak_rss_mb,
        owners,
    })
}

/// The phase counters that show the timed phase measured the warm path:
/// one memory hit per request, nothing rejected, retried or hedged.
struct PhaseCounters {
    requests: u64,
    lookups: u64,
    hits: u64,
    rejected: u64,
    retries: u64,
    hedges: u64,
}

impl PhaseCounters {
    fn between(before: &[Snapshot], after: &[Snapshot], requests: u64) -> Result<Self, String> {
        Ok(PhaseCounters {
            requests,
            lookups: stats::delta(before, after, "lookups")?,
            hits: stats::delta(before, after, "hits")?,
            rejected: stats::delta(before, after, "rejected")?,
            retries: stats::delta(before, after, "retries")?,
            hedges: stats::delta(before, after, "hedges")?,
        })
    }

    fn hit_ratio(&self) -> f64 {
        self.hits as f64 / self.lookups.max(1) as f64
    }

    fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.lookups != self.requests || self.hits != self.lookups {
            out.push(format!(
                "{} requests made {} cache lookups and {} memory hits in the timed phase",
                self.requests, self.lookups, self.hits
            ));
        }
        for (what, n) in [
            ("rejected", self.rejected),
            ("retries", self.retries),
            ("hedges", self.hedges),
        ] {
            if n != 0 {
                out.push(format!("{n} {what} in the timed phase, want 0"));
            }
        }
        out
    }
}

/// Runs the untraced warm workload: [`ROUNDS`] rounds of set-up (start
/// and cold fill), closed-loop warm requests through the gateway for the
/// round's share of `seconds`, and shutdown. Latency percentiles and
/// throughput are over the timed requests of all rounds.
pub fn run(bin_dir: &Path, seed: u64, seconds: f64) -> Result<Measured, String> {
    affinity::pin_to_one_cpu()?;
    let mut rng = SplitMix::new(seed);
    let mut tally = Tally::default();
    let p = Programs::load()?;
    let (mut setups, mut fills, mut fill_cpus, mut peaks) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut latency_ms = Vec::new();
    let mut timed_s = 0.0;
    let mut problems = Vec::new();
    for _ in 0..ROUNDS {
        let warm = warm_up(bin_dir, &p, &mut rng, &mut tally)?;
        setups.push(warm.setup_s);
        fills.push(warm.fill_s);
        fill_cpus.push(warm.fill_cpu_s);
        peaks.push(warm.peak_rss_mb);

        let gw = warm.cluster.gateway.client();
        let before = warm.cluster.snapshots()?;
        let first = latency_ms.len();
        let start = Instant::now();
        while latency_ms.len() - first < MIN_REQUESTS
            || start.elapsed().as_secs_f64() < seconds / ROUNDS as f64
        {
            let i = rng.below(p.sources.len());
            let t = Instant::now();
            let state = submit(&gw, &p, i);
            latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tally.record(state.and_then(|s| p.check(i, &s, CacheTier::Memory)));
        }
        timed_s += start.elapsed().as_secs_f64();
        let n = latency_ms.len() - first;
        problems.extend(
            PhaseCounters::between(&before, &warm.cluster.snapshots()?, n as u64)?.problems(),
        );
        warm.cluster.shutdown()?;
    }

    let requests = latency_ms.len();
    let med = |xs: &[f64]| median(xs).expect("rounds ran");
    let avg = |xs: &[f64]| mean(xs).expect("rounds ran");
    let pct = |q: f64| percentile(&latency_ms, q, 10).expect("enough requests");
    let metrics = vec![
        ("setup_s", med(&setups)),
        ("peak_rss_mb", med(&peaks)),
        ("pass_s", avg(&fills)),
        ("cpu_s", avg(&fill_cpus)),
        ("req_p50_ms", pct(0.50)),
        ("req_p99_ms", pct(0.99)),
        ("req_per_s", requests as f64 / timed_s),
    ];
    eprintln!("serve_warm seed={seed}: {ROUNDS} rounds, {requests} timed requests");
    Ok(Measured {
        tally,
        metrics,
        problems,
    })
}

/// One submit through the gateway made from the client's public parts,
/// each inside a span: connect, request encode, the network exchange and
/// response decode. Returns the request frame and the decoded response.
fn traced_submit(
    tr: &mut Tracer,
    k: u64,
    addr: &str,
    req: &Request,
) -> Result<(Vec<u8>, Response), String> {
    let mut stream = tr
        .time("client.connect", k, || {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok::<_, std::io::Error>(s)
        })
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let payload = tr.time("proto.req_encode", k, || req.encode());
    let frame = tr
        .time("net.exchange", k, || {
            write_frame(&mut stream, &payload)?;
            read_frame(&mut stream)
        })
        .map_err(|e| format!("exchange with {addr}: {e}"))?
        .ok_or_else(|| format!("{addr} closed the connection"))?;
    let resp = tr
        .time("proto.resp_decode", k, || Response::decode(&frame))
        .map_err(|e| e.0.to_string())?;
    Ok((payload, resp))
}

/// Times the warm path's in-process steps on request `k`'s own frames:
/// the server-side request decode and response encode, canonicalization,
/// cache key, memory-cache lookup and report decode.
fn probe_layers(
    tr: &mut Tracer,
    k: u64,
    p: &Programs,
    i: usize,
    cache: &VerdictCache,
    payload: &[u8],
    resp: &Response,
) -> Result<(), String> {
    tr.time("proto.req_decode", k, || Request::decode(payload))
        .map_err(|e| e.0.to_string())?;
    std::hint::black_box(tr.time("proto.resp_encode", k, || resp.encode()));
    let canon = tr
        .time("lang.canon", k, || {
            c4_service::canonical_source(p.sources[i])
        })
        .map_err(|e| e.to_string())?;
    let key = tr.time("cache.key", k, || {
        CacheKey::derive(&canon, "program", &p.features)
    });
    match tr.time("cache.lookup", k, || cache.lookup(&key)) {
        Some((bytes, CacheTier::Memory)) if bytes == p.reports[i] => {}
        other => {
            return Err(format!(
                "program {i}: in-process lookup gave {:?}",
                other.map(|o| o.1)
            ))
        }
    }
    tr.time("report.decode", k, || {
        AnalysisResult::decode_report(&p.reports[i])
    })
    .map(drop)
    .map_err(|e| format!("program {i}: {e:?}"))
}

/// Runs the traced warm workload: one set-up, then for `seconds` (at
/// least [`MIN_REQUESTS`], at most [`MAX_TRACED`] iterations) an
/// untraced gateway request, a traced gateway request with its layer
/// probes, and a direct request to the backend that holds the verdict.
pub fn run_traced(bin_dir: &Path, seed: u64, seconds: f64) -> Result<(Measured, Tracer), String> {
    affinity::pin_to_one_cpu()?;
    let mut rng = SplitMix::new(seed);
    let mut tally = Tally::default();
    let p = Programs::load()?;
    let warm = warm_up(bin_dir, &p, &mut rng, &mut tally)?;
    let cache = VerdictCache::in_memory(2 * p.sources.len());
    for (source, report) in p.sources.iter().zip(&p.reports) {
        let key = c4_service::cache_key(source, &p.features).map_err(|e| e.to_string())?;
        cache.store(&key, report);
    }
    let direct: Vec<Client> = warm
        .owners
        .iter()
        .map(|o| {
            (!o.is_empty())
                .then(|| Client::new(Endpoint::Tcp(o.clone())))
                .ok_or("a cold submit named no backend")
        })
        .collect::<Result<_, _>>()?;

    let gw = warm.cluster.gateway.client();
    let before = warm.cluster.snapshots()?;
    let rss_before = warm.cluster.rss_mb()?;
    let mut tr = Tracer::default();
    let mut untraced_ms = Vec::new();
    let mut traced_roots = Vec::new();
    let start = Instant::now();
    let mut k = 0u64;
    while (k as usize) < MIN_REQUESTS
        || (start.elapsed().as_secs_f64() < seconds && (k as usize) < MAX_TRACED)
    {
        let i = rng.below(p.sources.len());
        let req = Request::Submit {
            wait: true,
            features: p.features.clone(),
            source: p.sources[i].to_string(),
            ctx: None,
        };
        // The three requests take turns going first, so none of them is
        // always the one that wakes an idle server.
        for step in 0..3 {
            match (step + k) % 3 {
                0 => {
                    let t = Instant::now();
                    let state = submit(&gw, &p, i);
                    untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    tally.record(state.and_then(|s| p.check(i, &s, CacheTier::Memory)));
                }
                1 => {
                    let root = tr.open("request", k);
                    let reply = traced_submit(&mut tr, k, &warm.cluster.gateway.addr, &req);
                    tr.close(root);
                    traced_roots.push(root);
                    tally.record(reply.and_then(|(payload, resp)| {
                        match &resp {
                            Response::Status { state, .. } => {
                                p.check(i, state, CacheTier::Memory)?
                            }
                            other => return Err(format!("program {i}: {other:?}")),
                        }
                        probe_layers(&mut tr, k, &p, i, &cache, &payload, &resp)
                    }));
                }
                _ => {
                    let state = tr.time("client.direct", k, || submit(&direct[i], &p, i));
                    tally.record(state.and_then(|s| p.check(i, &s, CacheTier::Memory)));
                }
            }
        }
        k += 1;
    }
    let counters = PhaseCounters::between(&before, &warm.cluster.snapshots()?, 3 * k)?;
    let grown_kib = (warm.cluster.rss_mb()? - rss_before) * 1024.0;
    warm.cluster.shutdown()?;

    let med_us = |name: &str| median(&tr.ms_of(name)).map_or(0.0, |ms| ms * 1e3);
    let direct_us = med_us("client.direct");
    let gateway_us = median(&untraced_ms).expect("requests ran") * 1e3;
    let mut metrics: Vec<(&'static str, f64)> = vec![("client.direct_us", direct_us)];
    let mut covered = 0.0;
    for (span, metric) in [
        ("client.connect", "client.connect_us"),
        ("proto.req_encode", "proto.req_encode_us"),
        ("proto.req_decode", "proto.req_decode_us"),
        ("proto.resp_encode", "proto.resp_encode_us"),
        ("proto.resp_decode", "proto.resp_decode_us"),
        ("lang.canon", "lang.canon_us"),
        ("cache.key", "cache.key_us"),
        ("cache.lookup", "cache.lookup_us"),
        ("report.decode", "report.decode_us"),
    ] {
        let us = med_us(span);
        covered += us;
        metrics.push((metric, us));
    }
    let traced_ms: Vec<f64> = traced_roots.iter().map(|&r| tr.spans()[r].ms()).collect();
    metrics.extend([
        ("gateway.hop_us", gateway_us - direct_us),
        ("server.residual_us", direct_us - covered),
        ("server.rss_growth_kib_per_req", grown_kib / (3 * k) as f64),
        ("cache.hit_ratio", counters.hit_ratio()),
        ("service.rejected", counters.rejected as f64),
        ("gateway.retries", counters.retries as f64),
        ("gateway.hedges", counters.hedges as f64),
        (
            "trace.overhead_ms",
            median(&traced_ms).expect("requests ran") - gateway_us / 1e3,
        ),
    ]);
    eprintln!("serve_warm seed={seed} traced: {k} iterations of 3 requests");
    Ok((
        Measured {
            tally,
            metrics,
            problems: counters.problems(),
        },
        tr,
    ))
}
