//! Seeded request generation over `tpn_protocols::families`.
//!
//! A workload is a list of distinct requests plus two index lists into
//! it: the priming requests sent during set-up and the timed requests.
//! The same seed always yields the same bodies, byte for byte; the
//! server only ever sees those bodies.

use std::collections::HashSet;

use tpn_core::ExprTarget;
use tpn_net::{TimedPetriNet, TimingAssignment};
use tpn_protocols::families::{cycle, lossy_chain, producer_consumer};
use tpn_rational::Rational;

/// The three request shapes the benchmark drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `POST /analyze` over 64 nets primed during set-up: body-cache hits.
    WarmHit,
    /// `POST /analyze` of nets the server has never seen.
    ColdAnalyze,
    /// `POST /sweep` and `POST /whatif` alternating over primed base nets.
    ParamStudy,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WarmHit,
        Workload::ColdAnalyze,
        Workload::ParamStudy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmHit => "warm_hit",
            Workload::ColdAnalyze => "cold_analyze",
            Workload::ParamStudy => "param_study",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed requests per round. Fixed, not time-boxed: with the
    /// reactor's event replay a request's cost grows with the number
    /// of requests the server has handled, so only a fixed count keeps
    /// rounds comparable across builds.
    pub fn timed_requests(self) -> usize {
        match self {
            Workload::WarmHit => 2000,
            Workload::ColdAnalyze => 400,
            Workload::ParamStudy => 200,
        }
    }

    /// Client connections: one per CPU, at most the server's four
    /// workers. `param_study` uses one: its requests fan out over four
    /// sweep threads, and two at once saturate a two-CPU host, so the
    /// round trip would measure CPU queueing rather than the request.
    pub fn connections(self) -> usize {
        match self {
            Workload::ParamStudy => 1,
            _ => std::thread::available_parallelism().map_or(2, |n| n.get().min(4)),
        }
    }

    /// Timed requests the traced replay re-runs in-process (a prefix of
    /// the timed list, kept short where each request is expensive).
    pub fn replay_requests(self) -> usize {
        match self {
            Workload::WarmHit => 2000,
            Workload::ColdAnalyze => 50,
            Workload::ParamStudy => 20,
        }
    }
}

/// Working-set size of `warm_hit`.
pub const WARM_NETS: usize = 64;
/// Base nets of `param_study`.
pub const STUDY_BASES: usize = 4;
/// Grid points per `/sweep` request.
pub const SWEEP_POINTS: usize = 2000;
/// Perturbations per `/whatif` request.
pub const WHATIF_BATCH: usize = 64;
/// The hop whose hop/drop pair every what-if perturbation re-times.
const WHATIF_HOP: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    Analyze,
    Sweep,
    Whatif,
}

impl Route {
    pub fn path(self) -> &'static str {
        match self {
            Route::Analyze => "/analyze",
            Route::Sweep => "/sweep",
            Route::Whatif => "/whatif",
        }
    }
}

/// One sweep axis as the benchmark generated it.
#[derive(Clone, Debug)]
pub struct AxisShape {
    pub symbol: String,
    pub from: Rational,
    pub to: Rational,
    pub steps: usize,
}

/// What the traced replay needs to re-run a sweep's evaluation alone.
#[derive(Clone, Debug)]
pub struct SweepShape {
    pub axes: Vec<AxisShape>,
    pub targets: Vec<ExprTarget>,
}

#[derive(Clone, Debug)]
pub struct Request {
    pub route: Route,
    /// Index of the request's net in [`Plan::nets`].
    pub net: usize,
    /// The HTTP body, exactly as sent.
    pub body: String,
    pub sweep: Option<SweepShape>,
    pub perturbations: Vec<TimingAssignment>,
}

impl Request {
    /// The full request as written to the socket.
    pub fn wire(&self) -> Vec<u8> {
        let mut out = format!(
            "POST {} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            self.route.path(),
            self.body.len()
        )
        .into_bytes();
        out.extend_from_slice(self.body.as_bytes());
        out
    }
}

pub struct Plan {
    pub workload: Workload,
    /// The `.tpn` text of every net the plan refers to.
    pub nets: Vec<String>,
    /// Every distinct request.
    pub requests: Vec<Request>,
    /// Set-up requests, in order (indices into `requests`).
    pub priming: Vec<usize>,
    /// Timed requests, in order (indices into `requests`).
    pub timed: Vec<usize>,
}

/// SplitMix64: tiny, seedable and stable across platforms.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i128, hi: i128) -> i128 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i128
    }
}

fn rat(n: i128, d: i128) -> Rational {
    Rational::new(n, d)
}

/// Seeded stage times: tenths between 1 and 50.
fn times(rng: &mut Rng, n: usize) -> Vec<Rational> {
    (0..n).map(|_| rat(rng.range(10, 500), 10)).collect()
}

/// The `j`-th of `count` sizes spread evenly over `lo..=hi`. Sizes are
/// stratified rather than drawn, so every seed asks for the same
/// amount of work and only timings and order vary with the seed.
fn stratum(lo: i128, hi: i128, j: usize, count: usize) -> usize {
    let count = count.max(1);
    (lo + (j % count) as i128 * (hi - lo + 1) / count as i128) as usize
}

/// Producer/consumer times: a fixed ratio per stratum, scaled by a
/// seeded unit. Scaling every time of a net by one factor leaves its
/// TRG's shape unchanged, so the seed moves values, not work.
fn pc_times(rng: &mut Rng, j: usize) -> (Rational, Rational) {
    const RATIOS: [(i128, i128); 4] = [(1, 2), (2, 3), (3, 2), (2, 1)];
    let (p, c) = RATIOS[j % RATIOS.len()];
    let unit = rat(rng.range(10, 50), 10);
    (unit * rat(p, 1), unit * rat(c, 1))
}

/// Lossy-chain loss rate per stratum (denominators of at most 10).
fn loss(j: usize) -> Rational {
    rat(1 + (j % 3) as i128, 10)
}

fn warm_net(rng: &mut Rng, i: usize) -> TimedPetriNet {
    let (j, per_kind) = (i / 3, WARM_NETS.div_ceil(3));
    match i % 3 {
        0 => cycle(&times(rng, stratum(8, 24, j, per_kind))),
        1 => {
            let (p, c) = pc_times(rng, j);
            producer_consumer(stratum(2, 12, j, per_kind) as u32, p, c)
        }
        _ => {
            lossy_chain(
                stratum(2, 8, j, per_kind),
                loss(j),
                rat(rng.range(1, 20), 1),
            )
            .0
        }
    }
}

/// Cold nets: half rate-solve bound (lossy chains), half TRG bound
/// (long cycles and wide producer/consumer buffers).
fn cold_net(rng: &mut Rng, i: usize, count: usize) -> TimedPetriNet {
    let quarter = count.div_ceil(4);
    let j = i / 4;
    match i % 4 {
        k @ (0 | 1) => {
            let hops = stratum(16, 32, 2 * j + k, 2 * quarter);
            lossy_chain(hops, loss(j), rat(rng.range(1, 20), 1)).0
        }
        2 => cycle(&times(rng, stratum(64, 192, j, quarter))),
        _ => {
            let (p, c) = pc_times(rng, j);
            producer_consumer(stratum(32, 64, j, quarter) as u32, p, c)
        }
    }
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Draw `count` nets with pairwise distinct digests.
fn distinct_nets(
    rng: &mut Rng,
    count: usize,
    mut draw: impl FnMut(&mut Rng, usize) -> TimedPetriNet,
) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut nets = Vec::with_capacity(count);
    while nets.len() < count {
        let net = draw(rng, nets.len());
        if seen.insert(net.digest()) {
            nets.push(net.to_tpn());
        }
    }
    nets
}

fn analyze(net: usize, text: &str) -> Request {
    Request {
        route: Route::Analyze,
        net,
        body: text.to_string(),
        sweep: None,
        perturbations: Vec::new(),
    }
}

fn json_str(s: &str) -> String {
    tpn_service::json::escape(s)
}

/// A sweep of `F(arrive)` over [`SWEEP_POINTS`] values with
/// elasticities. `shift` moves the grid, so each request has a spec
/// hash of its own.
fn sweep(net: usize, text: &str, hop_time: Rational, shift: i128) -> Request {
    let from = hop_time + rat(shift, 1000);
    let axes = vec![AxisShape {
        symbol: "F(arrive)".to_string(),
        from,
        to: from * rat(3, 1),
        steps: SWEEP_POINTS,
    }];
    let parsed = tpn_net::parse_tpn(text).expect("generated net parses");
    let arrive = parsed
        .transition_by_name("arrive")
        .expect("lossy chains have an arrive transition");
    let axes_json: Vec<String> = axes
        .iter()
        .map(|a| {
            format!(
                r#"{{"symbol":"{}","from":"{}","to":"{}","steps":{}}}"#,
                a.symbol, a.from, a.to, a.steps
            )
        })
        .collect();
    let body = format!(
        r#"{{"net":{},"targets":["throughput:arrive","cycle_time"],"sweep":[{}],"backend":"f64","elasticity":true}}"#,
        json_str(text),
        axes_json.join(",")
    );
    Request {
        route: Route::Sweep,
        net,
        body,
        sweep: Some(SweepShape {
            axes,
            targets: vec![ExprTarget::Throughput(arrive), ExprTarget::CycleTime],
        }),
        perturbations: Vec::new(),
    }
}

/// A what-if batch re-timing the hop/drop pair of one hop together
/// (which keeps their tie, so every point stays in the lift's region)
/// to [`WHATIF_BATCH`] values never sent before.
fn whatif(net: usize, text: &str, hop_time: Rational, first: &mut i128) -> Request {
    let hop = format!("F(hop{WHATIF_HOP})");
    let drop = format!("F(drop{WHATIF_HOP})");
    let mut perturbations = Vec::with_capacity(WHATIF_BATCH);
    let mut items = Vec::with_capacity(WHATIF_BATCH);
    for _ in 0..WHATIF_BATCH {
        *first += 1;
        let t = hop_time + rat(*first, 64);
        perturbations.push(TimingAssignment::new().with(&hop, t).with(&drop, t));
        items.push(format!(r#"{{"{hop}":"{t}","{drop}":"{t}"}}"#));
    }
    let body = format!(
        r#"{{"net":{},"requests":["analyze"],"perturbations":[{}]}}"#,
        json_str(text),
        items.join(",")
    );
    Request {
        route: Route::Whatif,
        net,
        body,
        sweep: None,
        perturbations,
    }
}

impl Plan {
    pub fn generate(workload: Workload, seed: u64) -> Plan {
        let mut rng = Rng::new(seed);
        let n = workload.timed_requests();
        match workload {
            Workload::WarmHit => {
                let nets = distinct_nets(&mut rng, WARM_NETS, warm_net);
                let requests: Vec<Request> = nets
                    .iter()
                    .enumerate()
                    .map(|(i, t)| analyze(i, t))
                    .collect();
                let timed = (0..n)
                    .map(|_| (rng.next_u64() % WARM_NETS as u64) as usize)
                    .collect();
                Plan {
                    workload,
                    nets,
                    requests,
                    priming: (0..WARM_NETS).collect(),
                    timed,
                }
            }
            Workload::ColdAnalyze => {
                // One extra net primes the worker pool's code paths; it
                // is never part of the timed set.
                let nets = distinct_nets(&mut rng, n + 1, |rng, i| cold_net(rng, i, n));
                let requests: Vec<Request> = nets
                    .iter()
                    .enumerate()
                    .map(|(i, t)| analyze(i, t))
                    .collect();
                let mut timed: Vec<usize> = (0..n).collect();
                shuffle(&mut rng, &mut timed);
                Plan {
                    workload,
                    nets,
                    requests,
                    priming: vec![n],
                    timed,
                }
            }
            Workload::ParamStudy => {
                let nets = distinct_nets(&mut rng, STUDY_BASES, |rng, b| {
                    let hops = 8 + b;
                    lossy_chain(hops, rat(1, 2 + (b % 3) as i128), rat(rng.range(1, 20), 1)).0
                });
                let hop_times: Vec<Rational> = nets
                    .iter()
                    .map(|t| {
                        let net = tpn_net::parse_tpn(t).expect("generated net parses");
                        let arrive = net.transition_by_name("arrive").expect("arrive");
                        *net.transition(arrive)
                            .firing()
                            .known()
                            .expect("generated times are known")
                    })
                    .collect();
                let mut requests = Vec::new();
                let mut next_point = 0i128;
                let mut priming = Vec::new();
                for (b, text) in nets.iter().enumerate() {
                    priming.push(requests.len());
                    requests.push(sweep(b, text, hop_times[b], 0));
                    priming.push(requests.len());
                    requests.push(whatif(b, text, hop_times[b], &mut next_point));
                }
                let mut timed = Vec::with_capacity(n);
                // Two sweeps, then one what-if batch, per base net in turn.
                // The two kinds cost about the same, so a 1:1 mix would
                // put the median on the edge between them.
                for i in 0..n {
                    let b = (i / 3) % nets.len();
                    timed.push(requests.len());
                    requests.push(if i % 3 != 2 {
                        sweep(b, &nets[b], hop_times[b], i as i128 + 1)
                    } else {
                        whatif(b, &nets[b], hop_times[b], &mut next_point)
                    });
                }
                Plan {
                    workload,
                    nets,
                    requests,
                    priming,
                    timed,
                }
            }
        }
    }
}
