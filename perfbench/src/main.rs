//! The serving benchmark.
//!
//! ```text
//! perfbench --tpn <path to tpn> --workload <warm_hit|cold_analyze|param_study>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Each round starts a fresh `tpn serve 127.0.0.1:0` child, primes it,
//! sends the workload's fixed number of timed requests from one
//! closed-loop client thread, scrapes `/metrics`, `/stats` and `/proc`
//! around the timed phase, and kills the child. Rounds repeat until
//! `--seconds` of rounds have run (at least enough for a p99 with ten
//! samples beyond it). Every response is checked byte for byte against
//! an in-process `Service` with the server's configuration.
//!
//! With `--trace 0` the last line is the end-to-end metrics; with
//! `--trace 1` it is the per-layer metrics, which add a traced
//! in-process replay of the same requests (spans written under
//! `--out`). Every metric is also printed as a table above it.

mod client;
mod procfs;
mod prom;
mod replay;
mod server;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpn_service::{Json, Service, ServiceConfig};

use client::{ClientReport, Expected};
use procfs::CpuSplit;
use prom::HistDelta;
use replay::{LayerTimes, Tracer};
use server::Server;
use workload::{Plan, Workload};

struct Args {
    tpn: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut tpn, mut workload, mut seed, mut seconds, mut trace) = (None, None, 1, 10.0, false);
    let mut out = PathBuf::from(".bench_out");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value {value:?}");
        match flag.as_str() {
            "--tpn" => tpn = Some(PathBuf::from(&value)),
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--out" => out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        tpn: tpn.ok_or("--tpn is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

/// The server's answers, computed in-process before any timing.
fn expected_answers(plan: &Plan) -> Vec<Expected> {
    let service = Service::new(ServiceConfig::default());
    plan.requests
        .iter()
        .map(|req| match req.route {
            workload::Route::Analyze => {
                service.respond(tpn_service::RequestKind::Analyze, &req.body)
            }
            workload::Route::Sweep => service.respond_sweep(&req.body),
            workload::Route::Whatif => service.respond_whatif(&req.body),
        })
        .collect()
}

/// `/stats` counters the layer metrics read, by path, and whether the
/// count must repeat exactly from round to round (cache and session
/// LRU churn depends on how the two connections interleave; work
/// counts do not).
const STAT_PATHS: [(&[&str], bool); 12] = [
    (&["hits"], true),
    (&["misses"], true),
    (&["evictions"], false),
    (&["sessions", "hits"], false),
    (&["sessions", "misses"], false),
    (&["sweep_points"], true),
    (&["whatif_retimes"], true),
    (&["artifacts", "trg", "artifact_builds"], true),
    (&["artifacts", "rates", "artifact_builds"], true),
    (&["artifacts", "lifted", "artifact_builds"], true),
    (&["artifacts", "compiled", "artifact_builds"], true),
    (&["artifacts", "retimed", "artifact_builds"], true),
];

fn stat_values(text: &str) -> Result<Vec<f64>, String> {
    let doc = Json::parse(text).map_err(|e| format!("/stats: {e:?}"))?;
    STAT_PATHS
        .iter()
        .map(|(path, _)| {
            let mut node = &doc;
            for key in *path {
                node = node
                    .get(key)
                    .ok_or_else(|| format!("/stats lacks {path:?}"))?;
            }
            match node {
                Json::Num(n) => n.parse().map_err(|_| format!("/stats {path:?}: {n}")),
                _ => Err(format!("/stats {path:?} is not a number")),
            }
        })
        .collect()
}

/// Stage histograms of `tpn_stage_build_seconds`, in report order.
const STAGES: [&str; 7] = [
    "trg",
    "decision_graph",
    "rates",
    "performance",
    "lifted",
    "compiled",
    "retimed",
];
/// Endpoints the workloads send to.
const ENDPOINTS: [&str; 3] = ["analyze", "sweep", "whatif"];

struct Round {
    setup_s: f64,
    client: ClientReport,
    cpu: CpuSplit,
    rss_bytes: u64,
    handler: HistDelta,
    stages: Vec<HistDelta>,
    /// `/stats` deltas over the timed phase, in `STAT_PATHS` order.
    counts: Vec<f64>,
}

struct Scrape {
    metrics: Vec<prom::Sample>,
    stats: Vec<f64>,
}

fn scrape(server: &Server) -> Result<Scrape, String> {
    let metrics = server.get("/metrics").map_err(|e| e.to_string())?;
    let stats = server.get("/stats").map_err(|e| e.to_string())?;
    Ok(Scrape {
        metrics: prom::parse(&metrics),
        stats: stat_values(&stats)?,
    })
}

fn round(
    args: &Args,
    plan: &Plan,
    wires: &[Arc<Vec<u8>>],
    expected: &[Expected],
) -> Result<Round, String> {
    let conns = args.workload.connections();
    let deadline = Duration::from_secs(120);
    let setup = Instant::now();
    let server = Server::spawn(&args.tpn).map_err(|e| format!("spawn tpn serve: {e}"))?;
    server
        .wait_ready(Duration::from_secs(10))
        .map_err(|e| e.to_string())?;
    let primed = client::run(server.addr, conns, wires, expected, &plan.priming, deadline)
        .map_err(|e| format!("priming: {e}"))?;
    if primed.failed() > 0 {
        return Err(format!("{} priming requests failed", primed.failed()));
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let before = scrape(&server)?;
    let pid = server.pid();
    let cpu_now = || -> Result<CpuSplit, String> {
        let ticks = procfs::process_ticks(pid).ok_or("no /proc stat for tpn serve")?;
        Ok(CpuSplit::of(&procfs::threads(pid), ticks))
    };
    let cpu_before = cpu_now()?;
    let report = client::run(server.addr, conns, wires, expected, &plan.timed, deadline)
        .map_err(|e| format!("timed phase: {e}"))?;
    let cpu = cpu_now()?.since(cpu_before);
    let after = scrape(&server)?;
    let rss_bytes = procfs::peak_rss_bytes(pid).ok_or("no VmHWM for tpn serve")?;
    drop(server);

    let hist = |family: &str, label: &str| {
        HistDelta::between(&before.metrics, &after.metrics, family, &[label])
    };
    Ok(Round {
        setup_s,
        client: report,
        cpu,
        rss_bytes,
        handler: ENDPOINTS
            .iter()
            .map(|e| hist("tpn_request_duration_seconds", &format!("endpoint=\"{e}\"")))
            .fold(HistDelta::default(), HistDelta::add),
        stages: STAGES
            .iter()
            .map(|s| hist("tpn_stage_build_seconds", &format!("stage=\"{s}\"")))
            .collect(),
        counts: after
            .stats
            .iter()
            .zip(&before.stats)
            .map(|(a, b)| a - b)
            .collect(),
    })
}

/// One reported figure.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn run(args: &Args) -> Result<(), String> {
    let plan = Plan::generate(args.workload, args.seed);
    let expected = expected_answers(&plan);
    if let Some((i, (status, body))) = expected.iter().enumerate().find(|(_, (s, _))| *s != 200) {
        return Err(format!(
            "generated request {i} is answered {status}: {body}"
        ));
    }
    let wires: Vec<Arc<Vec<u8>>> = plan.requests.iter().map(|r| Arc::new(r.wire())).collect();

    // Twice the 1000 samples a p99 needs, so a p99 over pooled rounds
    // rests on twenty tail samples rather than ten.
    let min_rounds = 2000usize.div_ceil(plan.timed.len()).max(3);
    let mut rounds = Vec::new();
    let started = Instant::now();
    while rounds.len() < min_rounds || started.elapsed().as_secs_f64() < args.seconds {
        rounds.push(round(args, &plan, &wires, &expected)?);
    }

    for r in &mut rounds {
        r.client.rtt_ms.sort_by(f64::total_cmp);
    }
    let med = |f: &dyn Fn(&Round) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    let mut rtt: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.client.rtt_ms.iter().copied())
        .collect();
    rtt.sort_by(f64::total_cmp);
    // A latency percentile is the median over rounds of each round's
    // percentile when every round holds enough samples for it, so one
    // disturbed round cannot move it; otherwise it is taken over the
    // pooled samples of all rounds.
    let latency = |q: f64| -> Result<f64, String> {
        let per_round: Result<Vec<f64>, String> = rounds
            .iter()
            .map(|r| stats::percentile(&r.client.rtt_ms, q))
            .collect();
        per_round
            .map(|v| stats::median(&v))
            .or_else(|_| stats::percentile(&rtt, q))
    };
    let attempted: u64 = rounds.iter().map(|r| r.client.attempted()).sum();
    let failed: u64 = rounds.iter().map(|r| r.client.failed()).sum();
    let per_req = |ns: u64, r: &Round| ns as f64 / 1e3 / r.client.attempted().max(1) as f64;

    let end_to_end = vec![
        m(
            "throughput_rps",
            "1/s",
            med(&|r| r.client.ok as f64 / r.client.elapsed.as_secs_f64()),
        ),
        m("latency_p50_ms", "ms", latency(0.5)?),
        m("latency_p99_ms", "ms", latency(0.99)?),
        m("setup_s", "s", med(&|r| r.setup_s)),
        m(
            "server_cpu_us_per_req",
            "us",
            med(&|r| per_req(r.cpu.total_ns, r)),
        ),
        m(
            "server_rss_peak_mib",
            "MiB",
            med(&|r| r.rss_bytes as f64 / (1024.0 * 1024.0)),
        ),
    ];
    let error_ratio = ratio(failed as f64, attempted as f64);

    let mut correct = failed == 0;
    let mut per_layer = Vec::new();
    if args.trace {
        let c = |i: usize| med(&|r| r.counts[i]);
        let stage_ms = |i: usize| med(&|r| r.stages[i].mean() * 1e3);
        let rtt_mean = med(&|r| stats::mean(&r.client.rtt_ms));
        let handler_ms = med(&|r| r.handler.mean() * 1e3);

        // The traced replay covers a bounded prefix of the timed
        // requests; the untraced pass over the same prefix gives the
        // tracing overhead.
        let replayed = &plan.timed[..plan.timed.len().min(args.workload.replay_requests())];
        // Untraced passes before and after the traced one, so warm-up
        // does not land on one side of the overhead.
        let before = replay::replay(&plan, &expected, replayed, &mut Tracer::new(false));
        let mut tracer = Tracer::new(true);
        let counts = replay::replay(&plan, &expected, replayed, &mut tracer);
        let after = replay::replay(&plan, &expected, replayed, &mut Tracer::new(false));
        let untraced = (before.elapsed + after.elapsed).as_secs_f64() / 2.0;
        let traced = counts.elapsed.as_secs_f64();
        if before.mismatches + counts.mismatches + after.mismatches > 0 {
            eprintln!("perfbench: the in-process replay disagreed with the expected answers");
            correct = false;
        }
        let layers = LayerTimes::from_spans(&tracer.spans, &counts);
        write_spans(args, &tracer)?;

        per_layer = vec![
            m(
                "aio.reactor_cpu_us_per_req",
                "us",
                med(&|r| per_req(r.cpu.reactor_ns, r)),
            ),
            m("aio.http1_parse_us", "us", layers.http1_parse_us),
            m("service.handler_ms_mean", "ms", handler_ms),
            m(
                "service.outside_handler_ms_mean",
                "ms",
                rtt_mean - handler_ms,
            ),
            m(
                "service.worker_cpu_us_per_req",
                "us",
                med(&|r| per_req(r.cpu.workers_ns, r)),
            ),
            m(
                "obs.sampler_cpu_us_per_req",
                "us",
                med(&|r| per_req(r.cpu.sampler_ns, r)),
            ),
            m("service.cache_hit_ratio", "1", ratio(c(0), c(0) + c(1))),
            m("service.cache_evictions", "count", c(2)),
            m("service.session_hit_ratio", "1", ratio(c(3), c(3) + c(4))),
            m("service.respond_hit_us", "us", layers.respond_hit_us),
            m("service.render_ms", "ms", layers.render_ms),
            m(
                "service.response_bytes_per_req",
                "B",
                med(&|r| ratio(r.client.body_bytes as f64, r.client.attempted() as f64)),
            ),
            m("net.parse_us", "us", layers.net_parse_us),
            m("net.digest_us", "us", layers.net_digest_us),
            m("reach.trg_ms", "ms", stage_ms(0)),
            m("reach.states_per_s", "1/s", layers.states_per_s),
            m("core.decision_graph_ms", "ms", stage_ms(1)),
            m("core.rates_ms", "ms", stage_ms(2)),
            m("core.performance_ms", "ms", stage_ms(3)),
            m("session.lifted_ms", "ms", stage_ms(4)),
            m("session.compiled_ms", "ms", stage_ms(5)),
            m("session.retimed_ms", "ms", stage_ms(6)),
            m("eval.points_per_s", "1/s", layers.points_per_s),
            m("service.sweep_points", "count", c(5)),
            m("service.whatif_retimes", "count", c(6)),
            m("session.trg_builds", "count", c(7)),
            m("session.rates_builds", "count", c(8)),
            m("session.lifted_builds", "count", c(9)),
            m("session.compiled_builds", "count", c(10)),
            m("session.retimed_builds", "count", c(11)),
            m("client.dials", "count", med(&|r| r.client.dials as f64)),
            m(
                "client.dial_failures",
                "count",
                rounds.iter().map(|r| r.client.dial_failures as f64).sum(),
            ),
            m("error_ratio", "1", error_ratio),
            m(
                "trace.overhead_us_per_req",
                "us",
                (traced - untraced) * 1e6 / counts.requests.max(1) as f64,
            ),
        ];
        // Exact counts must repeat from round to round.
        for (i, (path, exact)) in STAT_PATHS.iter().enumerate() {
            if *exact && rounds.iter().any(|r| r.counts[i] != rounds[0].counts[i]) {
                eprintln!("perfbench: /stats {path:?} differed between rounds");
            }
        }
    }

    println!(
        "# {} seed {} · {} rounds × {} timed requests · {} connections · {} p99 samples",
        args.workload.name(),
        args.seed,
        rounds.len(),
        plan.timed.len(),
        args.workload.connections(),
        rtt.len()
    );
    let error_row = m("error_ratio", "1", error_ratio);
    let mut table: Vec<&Metric> = end_to_end.iter().collect();
    if !args.trace {
        table.push(&error_row);
    }
    table.extend(&per_layer);
    for x in &table {
        println!("{:<34} {:>16.6} {}", x.name, x.value, x.unit);
    }
    let shown = if args.trace { &per_layer } else { &end_to_end };
    let metrics: Vec<String> = shown
        .iter()
        .map(|x| {
            format!(
                r#""{}":{{"value":{},"unit":"{}"}}"#,
                x.name,
                json_num(x.value),
                x.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        metrics.join(",")
    );
    Ok(())
}

/// A finite JSON number (NaN and infinities have no JSON form).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn write_spans(args: &Args, tracer: &Tracer) -> Result<(), String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join(format!(
        "spans-{}-{}.ndjson",
        args.workload.name(),
        args.seed
    ));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    tracer
        .write_ndjson(&mut out)
        .and_then(|_| std::io::Write::flush(&mut out))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
