//! Cross-crate property tests: the three engines (numeric reachability,
//! symbolic reachability, discrete-event simulation) must agree with
//! each other on randomly generated models.

use proptest::prelude::*;
use timed_petri::core::CoreError;
use timed_petri::linalg::Matrix;
use timed_petri::prelude::*;
use timed_petri::protocols::{families, simple};
use tpn_reach::EdgeKind;

/// Random stage times for a ring of 1..6 stages.
fn cycle_times() -> impl Strategy<Value = Vec<Rational>> {
    proptest::collection::vec((1i128..=50, 1i128..=4), 1..6)
        .prop_map(|v| v.into_iter().map(|(n, d)| Rational::new(n, d)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cycle_total_time_is_the_sum_of_stages(times in cycle_times()) {
        let net = families::cycle(&times);
        let domain = NumericDomain::new();
        let trg = build_trg(&net, &domain, &TrgOptions::default()).unwrap();
        let dg = DecisionGraph::from_trg(&trg, &domain).unwrap();
        prop_assert_eq!(dg.num_edges(), 1);
        let total: Rational = times.iter().copied().sum();
        prop_assert_eq!(&dg.edges()[0].delay, &total);
        // throughput of stage 0 is 1/total
        let rates = solve_rates(&dg, 0).unwrap();
        let perf = Performance::new(&dg, rates, &domain).unwrap();
        let t0 = net.transition_by_name("advance0").unwrap();
        prop_assert_eq!(perf.throughput(&dg, t0), total.recip());
    }

    #[test]
    fn simulator_matches_analysis_exactly_on_deterministic_rings(times in cycle_times()) {
        let net = families::cycle(&times);
        let total: Rational = times.iter().copied().sum();
        let horizon = total * Rational::from_int(25);
        let stats = simulate(
            &net,
            &SimOptions { max_time: Some(horizon), max_events: 0, ..SimOptions::default() },
        ).unwrap();
        let t0 = net.transition_by_name("advance0").unwrap();
        prop_assert_eq!(stats.completions(t0), 25);
    }

    #[test]
    fn symbolic_instantiation_reproduces_numeric_trg(times in cycle_times()) {
        // Build the same ring with unknown times + equality constraints
        // pinning them to the sampled values; the symbolic TRG must have
        // the same shape and instantiate to the same delays.
        let numeric_net = families::cycle(&times);
        let mut b = NetBuilder::new("symring");
        let places: Vec<_> = (0..times.len())
            .map(|i| b.place(&format!("s{i}"), u32::from(i == 0)))
            .collect();
        for i in 0..times.len() {
            let next = (i + 1) % times.len();
            b.transition(&format!("advance{i}"))
                .input(places[i])
                .output(places[next])
                .firing_unknown()
                .add();
        }
        let sym_net = b.build().unwrap();
        let mut cs = ConstraintSet::new();
        let mut at = Assignment::new();
        for (i, t) in times.iter().enumerate() {
            let s = tpn_net::symbols::firing(&format!("advance{i}"));
            cs.assume_eq(LinExpr::symbol(s), LinExpr::constant(*t));
            at.set(s, *t);
        }
        let sdomain = SymbolicDomain::new(&sym_net, cs);
        let strg = build_trg(&sym_net, &sdomain, &TrgOptions::default()).unwrap();
        let ntrg = build_trg(&numeric_net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        prop_assert_eq!(strg.num_states(), ntrg.num_states());
        prop_assert_eq!(strg.num_edges(), ntrg.num_edges());
        let mut sdelays: Vec<Rational> = strg
            .all_edges()
            .map(|e| e.delay.eval(&at).unwrap())
            .collect();
        let mut ndelays: Vec<Rational> = ntrg.all_edges().map(|e| e.delay).collect();
        sdelays.sort();
        ndelays.sort();
        prop_assert_eq!(sdelays, ndelays);
    }

    #[test]
    fn lossy_chain_rates_are_a_probability_flow(
        hops in 1usize..5,
        loss_num in 1i128..=9,
    ) {
        let loss = Rational::new(loss_num, 10);
        let (net, arrive) = families::lossy_chain(hops, loss, Rational::from_int(2));
        let domain = NumericDomain::new();
        let trg = build_trg(&net, &domain, &TrgOptions::default()).unwrap();
        let dg = DecisionGraph::from_trg(&trg, &domain).unwrap();
        let rates = solve_rates(&dg, 0).unwrap();
        // the defining fixed point holds everywhere
        for (ei, e) in dg.edges().iter().enumerate() {
            let inflow: Rational = dg.edges_into(e.from).iter().map(|&i| *rates.rate(i)).sum();
            prop_assert_eq!(*rates.rate(ei), e.prob * inflow);
        }
        // analytic success probability per attempt: (1-loss)^hops; the
        // arrive edge's rate relative to the hop-0 inflow must match.
        let perf = Performance::new(&dg, rates, &domain).unwrap();
        let hop0 = net.transition_by_name("hop0").unwrap();
        let drop0 = net.transition_by_name("drop0").unwrap();
        let arrive_rate = perf.throughput(&dg, arrive);
        let attempt_rate = perf.throughput(&dg, hop0) + perf.throughput(&dg, drop0);
        let success = (Rational::ONE - loss).pow(hops as i32);
        prop_assert_eq!(arrive_rate / attempt_rate, success);
    }

    #[test]
    fn fork_join_cycle_time_is_max_branch(n in 1usize..6) {
        // fork (1) + max branch (n) + join (1)
        let net = families::fork_join(n);
        let domain = NumericDomain::new();
        let trg = build_trg(&net, &domain, &TrgOptions::default()).unwrap();
        let dg = DecisionGraph::from_trg(&trg, &domain).unwrap();
        prop_assert_eq!(dg.num_edges(), 1);
        let expect = Rational::from_int(1 + n as i128 + 1);
        prop_assert_eq!(&dg.edges()[0].delay, &expect);
        // all elapse steps in the TRG are positive
        for e in trg.all_edges() {
            if e.kind == EdgeKind::Elapse {
                prop_assert!(e.delay.is_positive());
            }
        }
    }

    #[test]
    fn protocol_throughput_expression_is_valid_across_parameters(
        timeout in 230i128..3000,
        packet in 1i128..=100,
        ack in 1i128..=100,
        handling in 1i128..=20,
        loss_pct in 0i128..=60,
    ) {
        // Instantiate the *symbolically derived* throughput at random
        // parameters satisfying constraint (1) and compare with a fresh
        // numeric analysis at the same parameters: the expression is
        // valid for every admissible assignment, not just Figure 1b.
        let params = simple::Params {
            timeout: Rational::from_int(timeout.max(packet + ack + handling + 1)),
            sender_step: Rational::ONE,
            packet_time: Rational::from_int(packet),
            ack_handling: Rational::from_int(handling),
            ack_time: Rational::from_int(ack),
            packet_loss: Rational::new(loss_pct, 100),
            ack_loss: Rational::new(loss_pct, 100),
        };
        prop_assume!(params.satisfies_timeout_constraint());

        // numeric analysis
        let proto = simple::numeric(&params);
        let domain = NumericDomain::new();
        let trg = build_trg(&proto.net, &domain, &TrgOptions::default()).unwrap();
        let dg = DecisionGraph::from_trg(&trg, &domain).unwrap();
        let rates = solve_rates(&dg, 0).unwrap();
        let perf = Performance::new(&dg, rates, &domain).unwrap();
        let numeric_t = perf.throughput(&dg, proto.t[6]);

        // symbolic expression, derived once, instantiated here
        let (sproto, cs) = simple::symbolic();
        let sdomain = SymbolicDomain::new(&sproto.net, cs);
        let strg = build_trg(&sproto.net, &sdomain, &TrgOptions::default()).unwrap();
        let sdg = DecisionGraph::from_trg(&strg, &sdomain).unwrap();
        let srates = solve_rates(&sdg, 0).unwrap();
        let sperf = Performance::new(&sdg, srates, &sdomain).unwrap();
        let expr = sperf.throughput(&sdg, sproto.t[6]);

        let sym = tpn_net::symbols::enabling;
        let symf = tpn_net::symbols::firing;
        let symq = tpn_net::symbols::frequency;
        let mut at = Assignment::new();
        at.set(sym("t3"), params.timeout);
        at.set(symf("t1"), params.sender_step);
        at.set(symf("t2"), params.sender_step);
        at.set(symf("t3"), params.sender_step);
        at.set(symf("t4"), params.packet_time);
        at.set(symf("t5"), params.packet_time);
        at.set(symf("t6"), params.ack_handling);
        at.set(symf("t7"), params.ack_handling);
        at.set(symf("t8"), params.ack_time);
        at.set(symf("t9"), params.ack_time);
        at.set(symq("t4"), Rational::ONE - params.packet_loss);
        at.set(symq("t5"), params.packet_loss);
        at.set(symq("t8"), Rational::ONE - params.ack_loss);
        at.set(symq("t9"), params.ack_loss);
        prop_assert_eq!(expr.eval(&at), Some(numeric_t));
    }
}

/// The dense null-space rate solve, kept as a test oracle for
/// `solve_rates`: the full homogeneous system, its kernel computed by
/// dense elimination, normalised so the reference edge's rate is one.
fn dense_kernel_rates(
    dg: &DecisionGraph<NumericDomain>,
    reference: usize,
) -> Result<Vec<Rational>, CoreError> {
    let m = dg.num_edges();
    if reference >= m {
        return Err(CoreError::NoSuchEdge { edge: reference });
    }
    let mut a = Matrix::<Rational>::zeros(m, m);
    for (ei, e) in dg.edges().iter().enumerate() {
        a.set(ei, ei, Rational::ONE);
        for into in dg.edges_into(e.from) {
            a.set(ei, into, *a.get(ei, into) - e.prob);
        }
    }
    let kernel = a.null_space();
    if kernel.len() != 1 {
        return Err(CoreError::NotErgodic {
            kernel_dim: kernel.len(),
        });
    }
    let scale = kernel[0][reference];
    if scale.is_zero() {
        return Err(CoreError::ZeroReferenceRate { edge: reference });
    }
    Ok(kernel[0].iter().map(|r| *r / scale).collect())
}

/// Oracle nets: `0` a ring, `1` a producer/consumer buffer, `2` a lossy
/// chain, `3` two recurrent classes (`p0` chooses `p1` or `p2`, each
/// then loops on two self-loops), `4` a transient start (both of `p0`'s
/// choices lead to `p1`).
fn oracle_net(kind: u8, times: &[Rational], small: u32, loss_num: i128) -> TimedPetriNet {
    let t = |i: usize| times[i % times.len()];
    match kind {
        0 => families::cycle(times),
        1 => families::producer_consumer(small, t(0), t(1)),
        2 => families::lossy_chain(small as usize, Rational::new(loss_num, 10), t(0)).0,
        _ => {
            let two_classes = kind == 3;
            let mut b = NetBuilder::new("split");
            let p0 = b.place("p0", 1);
            let p1 = b.place("p1", 0);
            let p2 = if two_classes { b.place("p2", 0) } else { p1 };
            b.transition("a").input(p0).output(p1).firing(t(0)).add();
            b.transition("b")
                .input(p0)
                .output(p2)
                .firing(t(1))
                .weight(Rational::from_int(loss_num))
                .add();
            let loops: &[_] = if two_classes {
                &[p1, p1, p2, p2]
            } else {
                &[p1, p1]
            };
            for (i, &p) in loops.iter().enumerate() {
                b.transition(&format!("loop{i}"))
                    .input(p)
                    .output(p)
                    .firing(t(i + 2))
                    .add();
            }
            b.build().unwrap()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn solve_rates_agrees_with_the_dense_kernel_oracle(
        kind in 0u8..5,
        times in cycle_times(),
        small in 1u32..5,
        loss_num in 1i128..=9,
    ) {
        let net = oracle_net(kind, &times, small, loss_num);
        let domain = NumericDomain::new();
        let trg = build_trg(&net, &domain, &TrgOptions::default()).unwrap();
        let dg = DecisionGraph::from_trg(&trg, &domain).unwrap();
        for reference in 0..=dg.num_edges() {
            let fast = solve_rates(&dg, reference).map(|r| r.as_slice().to_vec());
            prop_assert_eq!(fast, dense_kernel_rates(&dg, reference));
        }
    }
}

/// One shared base session over the paper's Figure-1 protocol. The
/// full symbolic lift is memoized inside the session, so every
/// re-timing case below substitutes through the same skeleton — which
/// is exactly the code path `POST /whatif` exercises.
fn fig1_base() -> &'static Session {
    static BASE: std::sync::OnceLock<Session> = std::sync::OnceLock::new();
    BASE.get_or_init(|| Session::new(simple::paper().net, SessionOptions::new()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn retimed_ring_sessions_are_byte_identical_to_cold_ones(
        pairs in proptest::collection::vec(
            ((1i128..=50, 1i128..=4), (1i128..=50, 1i128..=4)), 1..6)
    ) {
        use timed_petri::service::run_with_session;
        let times: Vec<Rational> =
            pairs.iter().map(|((n, d), _)| Rational::new(*n, *d)).collect();
        let retimes: Vec<Rational> =
            pairs.iter().map(|(_, (n, d))| Rational::new(*n, *d)).collect();
        let base = Session::new(families::cycle(&times), SessionOptions::new());
        let mut delta = TimingAssignment::new();
        for (i, t) in retimes.iter().enumerate() {
            delta.set(format!("F(advance{i})"), *t);
        }
        // A 1-token ring has no timing races, so every positive
        // retiming stays inside the lift's validity region.
        let retimed = base.retimed(&delta).unwrap();
        let cold = Session::new(
            base.net().with_timing(&delta).unwrap(),
            SessionOptions::new(),
        );
        prop_assert_eq!(retimed.net().digest(), cold.net().digest());
        for kind in [
            RequestKind::Analyze,
            RequestKind::Graph,
            RequestKind::Correctness,
            RequestKind::Invariants,
        ] {
            prop_assert_eq!(
                run_with_session(&retimed, kind).unwrap(),
                run_with_session(&cold, kind).unwrap(),
                "kind {}",
                kind.name()
            );
        }
    }

    #[test]
    fn retimed_protocol_timeouts_match_cold_sessions(timeout in 250i128..=5000) {
        use timed_petri::service::run_with_session;
        let base = fig1_base();
        let delta = TimingAssignment::new().with("E(t3)", Rational::from_int(timeout));
        let retimed = base.retimed(&delta).unwrap();
        let cold = Session::new(
            base.net().with_timing(&delta).unwrap(),
            SessionOptions::new(),
        );
        prop_assert_eq!(retimed.net().digest(), cold.net().digest());
        prop_assert_eq!(
            run_with_session(&retimed, RequestKind::Analyze).unwrap(),
            run_with_session(&cold, RequestKind::Analyze).unwrap()
        );
    }

    #[test]
    fn out_of_region_retimings_are_rejected_with_a_structured_error(
        timeout in 1i128..=200
    ) {
        // Below the ACK round trip the timeout/ACK race resolves the
        // other way: the memoized lift's validity region excludes the
        // point and the rejection must say so (not a parse or pipeline
        // failure — the distinction drives the 400-vs-422 mapping).
        let delta = TimingAssignment::new().with("E(t3)", Rational::from_int(timeout));
        match fig1_base().retimed(&delta) {
            Err(RetimeError::OutOfRegion(m)) => prop_assert!(!m.is_empty()),
            other => prop_assert!(
                false,
                "expected OutOfRegion, got {:?}",
                other.map(|_| "a session")
            ),
        }
    }
}
