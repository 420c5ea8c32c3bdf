//! The traced in-process replay.
//!
//! A workload's generated requests are replayed through the public
//! functions of each module, every call wrapped in a span recorded by
//! the benchmark itself (name, start, end, parent; spans of one
//! request share its id). Per request, under one root span:
//!
//! | span | public call |
//! |---|---|
//! | `aio.http1_parse` | `RequestParser::feed` + `poll` on the wire bytes |
//! | `net.parse`, `net.digest` | `parse_tpn`, `TimedPetriNet::digest` |
//! | `service.respond` | `Service::respond*` — what a server worker runs |
//! | `reach.trg`, `core.*` | `Session` stages of a cold analysis |
//! | `session.compiled`, `eval.sweep_f64` | a sweep's program and grid evaluation |
//! | `session.retimed` | `Session::retimed`, once per what-if perturbation |
//! | `service.respond_hit` | `Service::respond*` again: the now-primed answer |
//!
//! The stage calls run on sessions of their own, beside the service,
//! so `service.respond` minus parse, digest and stage time is the
//! service's own time: JSON rendering plus cache bookkeeping.

use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpn_aio::http1::{HttpLimits, RequestParser};
use tpn_eval::{sweep_f64, Axis, Grid, SweepOptions};
use tpn_net::parse_tpn;
use tpn_service::{RequestKind, Service, ServiceConfig};
use tpn_session::Session;
use tpn_symbolic::{Assignment, Symbol};

use crate::client::Expected;
use crate::workload::{Plan, Request, Route, Workload};

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. Off, every call is a no-op, so the same
/// replay runs untraced for the overhead comparison.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str, request: u32) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
    }

    fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit matches an enter") as usize;
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    fn span<T>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> T) -> T {
        self.enter(name, request);
        let out = f();
        self.exit();
        out
    }

    /// Write every span as one NDJSON line.
    pub fn write_ndjson(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","request":{},"parent":{},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.request, parent, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Work counts the replay made alongside its spans.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    pub requests: u64,
    pub states: u64,
    pub points: u64,
    /// Replayed answers that differed from the expected ones.
    pub mismatches: u64,
    /// Wall time of the replayed requests (the mirror's priming
    /// excluded).
    pub elapsed: Duration,
}

/// The replayed service, primed the same way as the server.
struct Mirror {
    service: Service,
    /// Base sessions of `param_study`, by net index.
    bases: HashMap<usize, Arc<Session>>,
}

fn respond(service: &Service, req: &Request) -> (u16, Arc<String>) {
    match req.route {
        Route::Analyze => service.respond(RequestKind::Analyze, &req.body),
        Route::Sweep => service.respond_sweep(&req.body),
        Route::Whatif => service.respond_whatif(&req.body),
    }
}

fn mirror(plan: &Plan) -> Mirror {
    let service = Service::new(ServiceConfig::default());
    let mut bases = HashMap::new();
    for &i in &plan.priming {
        let req = &plan.requests[i];
        respond(&service, req);
        if plan.workload == Workload::ParamStudy {
            bases.entry(req.net).or_insert_with(|| {
                let net = parse_tpn(&plan.nets[req.net]).expect("generated net parses");
                Arc::new(Session::new(net, service.config().session_options()))
            });
        }
    }
    // Prime the stage sessions exactly as the service's were primed:
    // the lifts behind every sweep and what-if shape.
    for &i in &plan.priming {
        let req = &plan.requests[i];
        if let Some(base) = bases.get(&req.net) {
            stage_pass(
                &mut Tracer::new(false),
                0,
                base,
                req,
                &mut ReplayCounts::default(),
            );
        }
    }
    Mirror { service, bases }
}

/// The stage calls behind one sweep or what-if request on `base`.
fn stage_pass(t: &mut Tracer, id: u32, base: &Session, req: &Request, counts: &mut ReplayCounts) {
    if let Some(shape) = &req.sweep {
        let swept: Vec<Symbol> = shape
            .axes
            .iter()
            .map(|a| Symbol::intern(&a.symbol))
            .collect();
        let artifact = t.span("session.compiled", id, || {
            base.compiled(&swept, &shape.targets, true)
                .expect("primed sweeps compile")
        });
        let grid = Grid::new(
            shape
                .axes
                .iter()
                .zip(&swept)
                .map(|(a, &s)| Axis::linear(s, a.from, a.to, a.steps))
                .collect(),
        )
        .expect("generated grids are valid");
        let opts = SweepOptions {
            threads: base.options().threads_or_default(),
            max_points: base.options().max_points_or_default(),
        };
        let rows = t.span("eval.sweep_f64", id, || {
            sweep_f64(&artifact.program, &grid, &Assignment::new(), &opts)
                .expect("generated grids evaluate")
        });
        counts.points += rows.len() as u64;
    }
    for timing in &req.perturbations {
        t.span("session.retimed", id, || {
            base.retimed(timing)
                .expect("generated perturbations stay in region")
        });
    }
}

/// Replay `requests` (indices into the plan) once. Returns the counts;
/// spans land in `t`.
pub fn replay(
    plan: &Plan,
    expected: &[Expected],
    requests: &[usize],
    t: &mut Tracer,
) -> ReplayCounts {
    let m = mirror(plan);
    let mut counts = ReplayCounts::default();
    let start = Instant::now();
    for (n, &i) in requests.iter().enumerate() {
        let id = n as u32;
        let req = &plan.requests[i];
        t.enter("request", id);
        let wire = req.wire();
        t.span("aio.http1_parse", id, || {
            let mut p = RequestParser::new(HttpLimits::default());
            p.feed(&wire);
            p.poll()
                .expect("generated requests parse")
                .expect("complete")
        });
        let net = t.span("net.parse", id, || {
            parse_tpn(&plan.nets[req.net]).expect("generated net parses")
        });
        t.span("net.digest", id, || net.digest());
        let answer = t.span("service.respond", id, || respond(&m.service, req));
        if answer.0 != expected[i].0 || answer.1 != expected[i].1 {
            counts.mismatches += 1;
        }
        match (plan.workload, m.bases.get(&req.net)) {
            (Workload::ColdAnalyze, _) => {
                let session = Session::new(net, m.service.config().session_options());
                let trg = t.span("reach.trg", id, || {
                    session.trg().expect("cold nets analyse")
                });
                counts.states += trg.num_states() as u64;
                t.span("core.decision_graph", id, || {
                    session.decision_graph().is_ok()
                });
                t.span("core.rates", id, || session.rates().is_ok());
                t.span("core.performance", id, || session.performance().is_ok());
            }
            (Workload::ParamStudy, Some(base)) => stage_pass(t, id, base, req, &mut counts),
            _ => {}
        }
        t.span("service.respond_hit", id, || respond(&m.service, req));
        t.exit();
        counts.requests += 1;
    }
    counts.elapsed = start.elapsed();
    counts
}

/// Per-layer figures derived from one traced replay.
#[derive(Debug, Default)]
pub struct LayerTimes {
    pub http1_parse_us: f64,
    pub net_parse_us: f64,
    pub net_digest_us: f64,
    pub respond_hit_us: f64,
    pub render_ms: f64,
    pub states_per_s: f64,
    pub points_per_s: f64,
}

const STAGES: [&str; 7] = [
    "reach.trg",
    "core.decision_graph",
    "core.rates",
    "core.performance",
    "session.compiled",
    "eval.sweep_f64",
    "session.retimed",
];

impl LayerTimes {
    pub fn from_spans(spans: &[Span], counts: &ReplayCounts) -> LayerTimes {
        let mut total: HashMap<&str, u64> = HashMap::new();
        let mut seen: HashMap<&str, u64> = HashMap::new();
        for s in spans {
            *total.entry(s.name).or_default() += s.end_ns - s.start_ns;
            *seen.entry(s.name).or_default() += 1;
        }
        let sum = |n: &str| total.get(n).copied().unwrap_or(0) as f64;
        let mean = |n: &str| match seen.get(n) {
            Some(&c) if c > 0 => sum(n) / c as f64,
            _ => 0.0,
        };
        let reqs = counts.requests.max(1) as f64;
        let stage_ns: f64 = STAGES.iter().map(|s| sum(s)).sum();
        // The service's own time: its answer minus the parse, digest
        // and pipeline stages it ran inside.
        let own_ns = sum("service.respond") - sum("net.parse") - sum("net.digest") - stage_ns;
        let per_s = |work: u64, span: &str| {
            if sum(span) > 0.0 {
                work as f64 / (sum(span) / 1e9)
            } else {
                0.0
            }
        };
        LayerTimes {
            http1_parse_us: mean("aio.http1_parse") / 1e3,
            net_parse_us: mean("net.parse") / 1e3,
            net_digest_us: mean("net.digest") / 1e3,
            respond_hit_us: mean("service.respond_hit") / 1e3,
            render_ms: own_ns.max(0.0) / reqs / 1e6,
            states_per_s: per_s(counts.states, "reach.trg"),
            points_per_s: per_s(counts.points, "eval.sweep_f64"),
        }
    }
}
