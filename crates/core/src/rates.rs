//! Traversal-rate equations over the decision graph (paper §4).
//!
//! *"The rate at which an outgoing edge is traversed is a function of
//! the branching probability for that edge and of the rate at which the
//! incoming edges are traversed"*:
//!
//! ```text
//! rₑ = pₑ · Σ { rₑ′ : e′ enters src(e) }
//! ```
//!
//! The system is homogeneous; for an ergodic cycle its solution space is
//! one-dimensional, and the paper fixes the scale by "assuming rⱼ = 1"
//! for a chosen reference edge. [`solve_rates`] reproduces exactly that
//! in two steps:
//!
//! 1. a structural ergodicity check: the decision graph, restricted to
//!    edges of non-zero probability, must have exactly one closed
//!    strongly-connected class, and the reference edge must leave a
//!    node of it (otherwise its steady-state rate is zero);
//! 2. the paper's fixed-reference system — the reference edge's
//!    equation replaced by `r_ref = 1` — solved exactly over the
//!    probability field (rationals or rational functions) by sparse
//!    elimination.
//!
//! Because every node's out-probabilities sum to one, the number of
//! closed classes is the dimension of the homogeneous system's solution
//! space, and once it is one the fixed-reference system is non-singular.

use tpn_linalg::{Field, SparseMatrix};
use tpn_reach::AnalysisDomain;

use crate::{CoreError, DecisionGraph};

/// Normalised traversal rates, one per decision-graph edge.
#[derive(Debug, Clone)]
pub struct Rates<P> {
    rates: Vec<P>,
    reference: usize,
}

impl<P: Clone> Rates<P> {
    /// The rate of edge `e` (same indexing as
    /// [`DecisionGraph::edges`]).
    pub fn rate(&self, e: usize) -> &P {
        &self.rates[e]
    }

    /// All rates in edge order.
    pub fn as_slice(&self) -> &[P] {
        &self.rates
    }

    /// The edge whose rate was normalised to one.
    pub fn reference_edge(&self) -> usize {
        self.reference
    }

    /// Re-label every rate through `f`, keeping the reference edge.
    /// This is how symbolic rates are instantiated at a concrete
    /// parameter point: because the solved system is linear and the
    /// solution unique, evaluating each closed form yields exactly the
    /// rates a fresh numeric solve would produce. Returns `None` if
    /// any rate fails to map (an unbound symbol).
    pub fn map<Q, F>(&self, f: F) -> Option<Rates<Q>>
    where
        F: FnMut(&P) -> Option<Q>,
    {
        Some(Rates {
            rates: self.rates.iter().map(f).collect::<Option<Vec<_>>>()?,
            reference: self.reference,
        })
    }
}

/// Solve the traversal-rate equations of `dg`, normalising the rate of
/// `reference_edge` to one.
///
/// Errors: [`CoreError::NoSuchEdge`] for a bad index,
/// [`CoreError::NotErgodic`] unless the graph has exactly one closed
/// class, [`CoreError::ZeroReferenceRate`] if the reference edge has
/// probability zero or leaves a transient node.
pub fn solve_rates<D>(
    dg: &DecisionGraph<D>,
    reference_edge: usize,
) -> Result<Rates<D::Prob>, CoreError>
where
    D: AnalysisDomain,
    D::Prob: Field,
{
    let m = dg.num_edges();
    let Some(reference) = dg.edges().get(reference_edge) else {
        return Err(CoreError::NoSuchEdge {
            edge: reference_edge,
        });
    };
    let (class, closed) = closed_classes(dg);
    let num_closed = closed.iter().filter(|&&c| c).count();
    if num_closed != 1 {
        return Err(CoreError::NotErgodic {
            kernel_dim: num_closed,
        });
    }
    if reference.prob.is_zero() || !closed[class[reference.from]] {
        return Err(CoreError::ZeroReferenceRate {
            edge: reference_edge,
        });
    }
    // Rows r_e − p_e·Σ_{e′→src(e)} r_{e′} = 0, except the reference
    // row, which reads r_ref = 1.
    let mut into: Vec<Vec<usize>> = vec![Vec::new(); dg.num_nodes()];
    for (ei, e) in dg.edges().iter().enumerate() {
        into[e.to].push(ei);
    }
    let mut a = SparseMatrix::<D::Prob>::zeros(m, m);
    for (ei, e) in dg.edges().iter().enumerate() {
        a.set(ei, ei, D::Prob::one());
        if ei == reference_edge {
            continue;
        }
        for &c in &into[e.from] {
            // may coincide with `ei` (a self-loop)
            a.set(ei, c, a.get(ei, c).sub(&e.prob));
        }
    }
    let mut b = vec![D::Prob::zero(); m];
    b[reference_edge] = D::Prob::one();
    Ok(Rates {
        rates: a.solve(&b)?,
        reference: reference_edge,
    })
}

/// The strongly-connected classes of `dg`'s decision nodes under the
/// edges of non-zero probability (iterative Tarjan): each node's class
/// id, and per class whether it is closed — no such edge leaves it.
fn closed_classes<D: AnalysisDomain>(dg: &DecisionGraph<D>) -> (Vec<usize>, Vec<bool>)
where
    D::Prob: Field,
{
    const UNSEEN: usize = usize::MAX;
    let n = dg.num_nodes();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0; n];
    let mut class = vec![UNSEEN; n];
    let mut stack = Vec::new();
    let mut next = 0;
    let mut num_classes = 0;
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        // (node, position in its out-edge list)
        let mut calls = vec![(root, 0)];
        index[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root);
        while let Some(&(v, pos)) = calls.last() {
            if let Some(&ei) = dg.edges_from(v).get(pos) {
                calls.last_mut().expect("non-empty").1 += 1;
                let e = &dg.edges()[ei];
                if e.prob.is_zero() {
                    continue;
                }
                let w = e.to;
                if index[w] == UNSEEN {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    calls.push((w, 0));
                } else if class[w] == UNSEEN {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            calls.pop();
            if let Some(&(u, _)) = calls.last() {
                low[u] = low[u].min(low[v]);
            }
            if low[v] == index[v] {
                loop {
                    let w = stack.pop().expect("v is on the stack");
                    class[w] = num_classes;
                    if w == v {
                        break;
                    }
                }
                num_classes += 1;
            }
        }
    }
    let mut closed = vec![true; num_classes];
    for e in dg.edges().iter().filter(|e| !e.prob.is_zero()) {
        if class[e.from] != class[e.to] {
            closed[class[e.from]] = false;
        }
    }
    (class, closed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_net::NetBuilder;
    use tpn_rational::Rational;
    use tpn_reach::{build_trg, NumericDomain, TrgOptions};

    use crate::DecisionGraph;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    /// retry loop: succeed with p=3/4 (delay 1) or retry with p=1/4
    /// (delay 2); expected rates relative to "succeed": retry = 1/3.
    fn retry_dg() -> (tpn_net::TimedPetriNet, DecisionGraph<NumericDomain>) {
        let mut b = NetBuilder::new("retry");
        let p = b.place("p", 1);
        b.transition("succeed")
            .input(p)
            .output(p)
            .firing_const(1)
            .weight_const(3)
            .add();
        b.transition("retry")
            .input(p)
            .output(p)
            .firing_const(2)
            .weight_const(1)
            .add();
        let net = b.build().unwrap();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        let dg = DecisionGraph::from_trg(&trg, &NumericDomain::new()).unwrap();
        (net, dg)
    }

    #[test]
    fn rates_of_retry_loop() {
        let (net, dg) = retry_dg();
        let succeed = net.transition_by_name("succeed").unwrap();
        let anchor = dg.nodes()[0];
        let is_ = dg.edge_firing_first(anchor, succeed).unwrap();
        let rates = solve_rates(&dg, is_).unwrap();
        assert_eq!(rates.reference_edge(), is_);
        assert_eq!(*rates.rate(is_), Rational::ONE);
        let other = 1 - is_;
        assert_eq!(*rates.rate(other), r(1, 3));
        // the rates satisfy the defining equations: r_e = p_e · inflow
        for (ei, e) in dg.edges().iter().enumerate() {
            let inflow: Rational = dg.edges_into(e.from).iter().map(|&i| *rates.rate(i)).sum();
            assert_eq!(*rates.rate(ei), e.prob * inflow);
        }
    }

    #[test]
    fn deterministic_cycle_rate_is_one() {
        let mut b = NetBuilder::new("det");
        let p = b.place("p", 1);
        b.transition("go").input(p).output(p).firing_const(5).add();
        let net = b.build().unwrap();
        let trg = build_trg(&net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        let dg = DecisionGraph::from_trg(&trg, &NumericDomain::new()).unwrap();
        let rates = solve_rates(&dg, 0).unwrap();
        assert_eq!(rates.as_slice(), &[Rational::ONE]);
    }

    #[test]
    fn bad_reference_rejected() {
        let (_, dg) = retry_dg();
        assert_eq!(
            solve_rates(&dg, 99).unwrap_err(),
            CoreError::NoSuchEdge { edge: 99 }
        );
    }

    #[test]
    fn every_reference_edge_gives_the_same_flow() {
        let (_, dg) = retry_dg();
        let base = solve_rates(&dg, 0).unwrap();
        for reference in 0..dg.num_edges() {
            let rates = solve_rates(&dg, reference).unwrap();
            let scale = *base.rate(reference);
            for (ei, r) in rates.as_slice().iter().enumerate() {
                assert_eq!(*r, *base.rate(ei) / scale);
            }
        }
    }
}
