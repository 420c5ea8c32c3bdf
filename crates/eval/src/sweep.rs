//! The parameter-sweep engine: evaluate a compiled expression set over
//! a cartesian grid of symbol assignments, chunked across threads.
//!
//! A sweep is specified as a list of [`Axis`]es (each binding one
//! symbol to a list of exact rational values — evenly spaced via
//! [`Axis::linear`] or explicit via [`Axis::list`]) plus a fixed
//! [`Assignment`] for the remaining symbols. The grid is the cartesian
//! product of the axes in *row-major order with the last axis fastest*,
//! so row `i` of the output corresponds to [`Grid::point`]`(i)` — the
//! ordering is part of the output contract and identical no matter how
//! many threads evaluate it.
//!
//! Parallelism follows the workspace's standard-library threading
//! pattern (no runtime, no work stealing): the index range is split
//! into one contiguous chunk per thread, each thread evaluates its
//! chunk with a thread-local scratch buffer, and the chunks are
//! reassembled in order. Rows are independent, so the result is
//! deterministic — and for the `f64` backend *bit*-identical — at every
//! thread count.

use tpn_rational::Rational;
use tpn_symbolic::{Assignment, Symbol};

use crate::{Compiled, EvalError};

/// One sweep dimension: a symbol and the exact values it takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    symbol: Symbol,
    values: Vec<Rational>,
}

impl Axis {
    /// An axis over an explicit list of values.
    pub fn list(symbol: Symbol, values: Vec<Rational>) -> Axis {
        Axis { symbol, values }
    }

    /// An axis of `steps` evenly spaced values from `from` to `to`
    /// inclusive (`steps == 1` yields just `from`). All spacing is
    /// exact rational arithmetic — no float drift across the range.
    ///
    /// # Panics
    /// Panics if the spacing arithmetic overflows `i128`; use
    /// [`Axis::try_linear`] where the endpoints are untrusted.
    pub fn linear(symbol: Symbol, from: Rational, to: Rational, steps: usize) -> Axis {
        Axis::try_linear(symbol, from, to, steps).expect("axis spacing overflows i128")
    }

    /// [`Axis::linear`] with overflow-checked spacing arithmetic — the
    /// constructor for endpoints that arrive over the wire (a hostile
    /// `from`/`to` pair near `i128::MAX` must surface as an error, not
    /// panic a server worker).
    ///
    /// With `from = a/b`, `to − from = p/q` and `n = steps − 1`, value
    /// `i` is `(a·q·n + p·b·i) / (b·q·n)`, normalised once. When those
    /// products would overflow, the values come from the step-by-step
    /// chain `from + (to − from)·i / n` instead. Every intermediate of
    /// that chain is bounded by a product of the closed form, so an
    /// axis is accepted exactly when the chain alone would accept it,
    /// and exact arithmetic makes the values equal.
    pub fn try_linear(
        symbol: Symbol,
        from: Rational,
        to: Rational,
        steps: usize,
    ) -> Result<Axis, EvalError> {
        let overflow = |_| EvalError::AxisOverflow { symbol };
        let values = match steps {
            0 => Vec::new(),
            1 => vec![from],
            _ => {
                let span = to.checked_sub(&from).map_err(overflow)?;
                match closed_form(from, span, steps) {
                    Some(values) => values,
                    None => step_chain(from, span, steps).map_err(overflow)?,
                }
            }
        };
        Ok(Axis { symbol, values })
    }

    /// The swept symbol.
    pub fn symbol(&self) -> Symbol {
        self.symbol
    }

    /// The values this axis takes, in sweep order.
    pub fn values(&self) -> &[Rational] {
        &self.values
    }
}

/// The `steps ≥ 2` values of [`Axis::try_linear`] in closed form, or
/// `None` if a product would overflow `i128`. The numerator is
/// monotone in `i`, so checking it at both ends covers every point.
fn closed_form(from: Rational, span: Rational, steps: usize) -> Option<Vec<Rational>> {
    let (a, b) = (from.numer(), from.denom());
    let (p, q) = (span.numer(), span.denom());
    let n = i128::try_from(steps - 1).ok()?;
    let base = a.checked_mul(q)?.checked_mul(n)?;
    let den = b.checked_mul(q)?.checked_mul(n)?;
    let step = p.checked_mul(b)?;
    base.checked_add(step.checked_mul(n)?)?;
    Some(
        (0..=n)
            .map(|i| Rational::new(base + step * i, den))
            .collect(),
    )
}

/// The `steps ≥ 2` values of [`Axis::try_linear`] one checked operation
/// at a time — the fallback where [`closed_form`] would overflow.
fn step_chain(
    from: Rational,
    span: Rational,
    steps: usize,
) -> Result<Vec<Rational>, tpn_rational::ArithmeticError> {
    let denom = Rational::from_int((steps - 1) as i128);
    (0..steps)
        .map(|i| {
            span.checked_mul(&Rational::from_int(i as i128))
                .and_then(|x| x.checked_div(&denom))
                .and_then(|x| from.checked_add(&x))
        })
        .collect()
}

/// A validated cartesian grid of sweep axes.
#[derive(Debug, Clone)]
pub struct Grid {
    axes: Vec<Axis>,
    points: u64,
}

impl Grid {
    /// Validate and build a grid. Axes must be non-empty and bind
    /// pairwise distinct symbols. A grid with no axes has exactly one
    /// point (the fixed assignment alone).
    pub fn new(axes: Vec<Axis>) -> Result<Grid, EvalError> {
        let mut points: u64 = 1;
        for (i, a) in axes.iter().enumerate() {
            if a.values.is_empty() {
                return Err(EvalError::EmptyAxis { symbol: a.symbol });
            }
            if axes[..i].iter().any(|b| b.symbol == a.symbol) {
                return Err(EvalError::DuplicateSymbol { symbol: a.symbol });
            }
            points = points.saturating_mul(a.values.len() as u64);
        }
        Ok(Grid { axes, points })
    }

    /// The axes, in specification order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Total number of grid points (product of the axis lengths,
    /// saturating at `u64::MAX`).
    pub fn num_points(&self) -> u64 {
        self.points
    }

    /// Decode point `idx` into per-axis coordinate values, appended to
    /// `out` (cleared first) in axis order.
    pub fn point(&self, idx: u64, out: &mut Vec<Rational>) {
        out.clear();
        out.resize(self.axes.len(), Rational::ZERO);
        let mut rest = idx;
        for (k, a) in self.axes.iter().enumerate().rev() {
            let len = a.values.len() as u64;
            out[k] = a.values[(rest % len) as usize];
            rest /= len;
        }
    }
}

/// Sweep execution knobs.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads (clamped to at least 1). The output is identical
    /// at every thread count.
    pub threads: usize,
    /// Upper bound on the number of grid points; larger grids are
    /// rejected with [`EvalError::TooManyPoints`] before any work runs.
    pub max_points: u64,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            threads: 4,
            max_points: 1_000_000,
        }
    }
}

/// Where each compiled input variable gets its value from.
enum VarSource {
    Fixed(Rational),
    AxisIndex(usize),
}

/// Resolve every compiled variable to an axis or a fixed binding.
fn bind(c: &Compiled, grid: &Grid, fixed: &Assignment) -> Result<Vec<VarSource>, EvalError> {
    for a in grid.axes() {
        if fixed.contains(a.symbol()) {
            return Err(EvalError::DuplicateSymbol { symbol: a.symbol() });
        }
    }
    c.vars()
        .iter()
        .map(|&v| {
            if let Some(k) = grid.axes().iter().position(|a| a.symbol() == v) {
                Ok(VarSource::AxisIndex(k))
            } else if let Some(x) = fixed.get(v) {
                Ok(VarSource::Fixed(*x))
            } else {
                Err(EvalError::UnboundSymbol { symbol: v })
            }
        })
        .collect()
}

/// Split `0..total` into at most `threads` contiguous chunks.
fn chunks(total: u64, threads: usize) -> Vec<(u64, u64)> {
    let threads = (threads.max(1) as u64).min(total.max(1));
    let base = total / threads;
    let extra = total % threads;
    let mut out = Vec::with_capacity(threads as usize);
    let mut start = 0;
    for i in 0..threads {
        let len = base + u64::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Evaluate `c` over the grid in the `f64` backend. Row `i` holds one
/// `Option<f64>` per compiled output (`None` where undefined) for
/// [`Grid::point`]`(i)`.
pub fn sweep_f64(
    c: &Compiled,
    grid: &Grid,
    fixed: &Assignment,
    opts: &SweepOptions,
) -> Result<Vec<Vec<Option<f64>>>, EvalError> {
    let sources = bind(c, grid, fixed)?;
    let total = checked_total(grid, opts)?;
    // Per-axis value tables in f64, decoded once.
    let tables: Vec<Vec<f64>> = grid
        .axes()
        .iter()
        .map(|a| a.values().iter().map(Rational::to_f64).collect())
        .collect();
    let eval_chunk = |start: u64, end: u64| -> Vec<Vec<Option<f64>>> {
        let mut rows = Vec::with_capacity((end - start) as usize);
        let mut scratch: Vec<f64> = Vec::new();
        let mut point = vec![0.0f64; c.vars().len()];
        let mut coords: Vec<usize> = vec![0; grid.axes().len()];
        for idx in start..end {
            decode(grid, idx, &mut coords);
            for (slot, src) in point.iter_mut().zip(&sources) {
                *slot = match src {
                    VarSource::Fixed(x) => x.to_f64(),
                    VarSource::AxisIndex(k) => tables[*k][coords[*k]],
                };
            }
            let mut out = vec![None; c.num_outputs()];
            c.eval_f64(&point, &mut scratch, &mut out);
            rows.push(out);
        }
        rows
    };
    Ok(run_chunked(total, opts.threads, eval_chunk))
}

/// Evaluate `c` over the grid in the exact backend. Row `i` holds one
/// `Option<Rational>` per output (`None` where the value is undefined
/// or an intermediate overflowed).
pub fn sweep_exact(
    c: &Compiled,
    grid: &Grid,
    fixed: &Assignment,
    opts: &SweepOptions,
) -> Result<Vec<Vec<Option<Rational>>>, EvalError> {
    let sources = bind(c, grid, fixed)?;
    let total = checked_total(grid, opts)?;
    let eval_chunk = |start: u64, end: u64| -> Vec<Vec<Option<Rational>>> {
        let mut rows = Vec::with_capacity((end - start) as usize);
        let mut scratch: Vec<Option<Rational>> = Vec::new();
        let mut point = vec![Rational::ZERO; c.vars().len()];
        let mut coords: Vec<usize> = vec![0; grid.axes().len()];
        for idx in start..end {
            decode(grid, idx, &mut coords);
            for (slot, src) in point.iter_mut().zip(&sources) {
                *slot = match src {
                    VarSource::Fixed(x) => *x,
                    VarSource::AxisIndex(k) => grid.axes()[*k].values()[coords[*k]],
                };
            }
            let mut out = vec![None; c.num_outputs()];
            c.eval_exact(&point, &mut scratch, &mut out);
            rows.push(out);
        }
        rows
    };
    Ok(run_chunked(total, opts.threads, eval_chunk))
}

/// The seed-grid hook of the optimizer: evaluate `c` over the grid in
/// the `f64` backend and return only the **best** feasible row — its
/// index and its value of output `score` — instead of materialising
/// every row. A row is a candidate when output `score` is defined and
/// `feasible` accepts the full output row (the optimizer passes the
/// validity-region membership test here). `maximize` picks the
/// direction; ties resolve to the lowest grid index, and chunks are
/// reduced in index order, so the result is identical at every thread
/// count. Returns `Ok(None)` when no row is feasible.
///
/// # Panics
/// Panics if `score` is not an output index of `c`.
pub fn argbest_f64(
    c: &Compiled,
    grid: &Grid,
    fixed: &Assignment,
    opts: &SweepOptions,
    score: usize,
    maximize: bool,
    feasible: impl Fn(&[Option<f64>]) -> bool + Sync,
) -> Result<Option<(u64, f64)>, EvalError> {
    assert!(score < c.num_outputs(), "score output out of range");
    let sources = bind(c, grid, fixed)?;
    let total = checked_total(grid, opts)?;
    let tables: Vec<Vec<f64>> = grid
        .axes()
        .iter()
        .map(|a| a.values().iter().map(Rational::to_f64).collect())
        .collect();
    let eval_chunk = |start: u64, end: u64| -> Vec<Option<(u64, f64)>> {
        let mut best: Option<(u64, f64)> = None;
        let mut scratch: Vec<f64> = Vec::new();
        let mut point = vec![0.0f64; c.vars().len()];
        let mut coords: Vec<usize> = vec![0; grid.axes().len()];
        let mut out = vec![None; c.num_outputs()];
        for idx in start..end {
            decode(grid, idx, &mut coords);
            for (slot, src) in point.iter_mut().zip(&sources) {
                *slot = match src {
                    VarSource::Fixed(x) => x.to_f64(),
                    VarSource::AxisIndex(k) => tables[*k][coords[*k]],
                };
            }
            c.eval_f64(&point, &mut scratch, &mut out);
            let Some(v) = out[score] else { continue };
            if !feasible(&out) {
                continue;
            }
            // Strict comparison: an equal later value never displaces
            // an earlier index, which is what makes the fold
            // associative across chunk boundaries.
            let better = match best {
                None => true,
                Some((_, b)) => {
                    if maximize {
                        v > b
                    } else {
                        v < b
                    }
                }
            };
            if better {
                best = Some((idx, v));
            }
        }
        vec![best]
    };
    let per_chunk = run_chunked(total, opts.threads, eval_chunk);
    let mut best: Option<(u64, f64)> = None;
    for candidate in per_chunk.into_iter().flatten() {
        let better = match best {
            None => true,
            Some((_, b)) => {
                if maximize {
                    candidate.1 > b
                } else {
                    candidate.1 < b
                }
            }
        };
        if better {
            best = Some(candidate);
        }
    }
    Ok(best)
}

fn checked_total(grid: &Grid, opts: &SweepOptions) -> Result<u64, EvalError> {
    let total = grid.num_points();
    if total > opts.max_points {
        return Err(EvalError::TooManyPoints {
            points: total,
            max: opts.max_points,
        });
    }
    Ok(total)
}

/// Decode point `idx` into per-axis value *indices* (cheaper than
/// materialising the rational coordinates per point).
fn decode(grid: &Grid, idx: u64, coords: &mut [usize]) {
    let mut rest = idx;
    for (k, a) in grid.axes().iter().enumerate().rev() {
        let len = a.values().len() as u64;
        coords[k] = (rest % len) as usize;
        rest /= len;
    }
}

/// Run `eval_chunk` over `0..total` split across `threads`, preserving
/// row order.
fn run_chunked<T: Send>(
    total: u64,
    threads: usize,
    eval_chunk: impl Fn(u64, u64) -> Vec<T> + Sync,
) -> Vec<T> {
    let ranges = chunks(total, threads);
    if ranges.len() <= 1 {
        return eval_chunk(0, total);
    }
    let mut parts: Vec<Vec<T>> = Vec::new();
    let eval_chunk = &eval_chunk;
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(s, e)| scope.spawn(move || eval_chunk(s, e)))
            .collect();
        parts = handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker"))
            .collect();
    });
    let mut rows = Vec::with_capacity(total as usize);
    for p in parts {
        rows.extend(p);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tpn_symbolic::{Poly, RatFn};

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn linear_axis_is_exact_and_inclusive() {
        let s = Symbol::intern("sw_lin");
        let a = Axis::linear(s, r(1, 1), r(2, 1), 5);
        let vals: Vec<Rational> = a.values().to_vec();
        assert_eq!(vals, vec![r(1, 1), r(5, 4), r(3, 2), r(7, 4), r(2, 1)]);
        assert_eq!(Axis::linear(s, r(9, 1), r(99, 1), 1).values(), &[r(9, 1)]);
    }

    /// The step-by-step chain alone, as the oracle for
    /// `Axis::try_linear`: `from + (to − from)·i / (steps − 1)`.
    fn chain_oracle(s: Symbol, from: Rational, to: Rational, steps: usize) -> Option<Axis> {
        if steps < 2 {
            return Some(Axis::list(s, vec![from; steps]));
        }
        let span = to.checked_sub(&from).ok()?;
        step_chain(from, span, steps).ok().map(|v| Axis::list(s, v))
    }

    #[test]
    fn closed_form_falls_back_where_only_the_reduced_values_fit() {
        let s = Symbol::intern("sw_fallback");
        let from = Rational::from_int(1 << 120);
        let to = Rational::from_int((1 << 120) + 1024);
        // a·q·n = 2^130 overflows, yet every value is the integer 2^120 + i.
        assert!(closed_form(from, to - from, 1025).is_none());
        let axis = Axis::try_linear(s, from, to, 1025).unwrap();
        assert_eq!(axis.values()[7], Rational::from_int((1 << 120) + 7));
        assert_eq!(Some(axis), chain_oracle(s, from, to, 1025));
        // Far apart, both forms overflow.
        let err = Axis::try_linear(s, Rational::from_int(i128::MIN + 1), from, 3);
        assert!(matches!(err, Err(EvalError::AxisOverflow { .. })));
    }

    /// An `i128` of any magnitude: within 1000 of either limit, a
    /// random power-of-two scale with either sign, or (one time in
    /// three) small.
    fn wide() -> impl Strategy<Value = i128> {
        (0u8..6, 0u32..127, any::<u64>(), any::<u64>()).prop_map(|(kind, shift, hi, lo)| {
            let x = ((((hi as u128) << 64) | lo as u128) >> 1 >> shift) as i128;
            match kind {
                0 => i128::MAX - x % 1000,
                1 => i128::MIN + x % 1000,
                2 if lo & 1 == 0 => x,
                2 => -x,
                _ => x % 2001 - 1000,
            }
        })
    }

    /// A rational with a [`wide`] numerator; the denominator is small
    /// three times in four, else [`wide`] too.
    fn rational() -> impl Strategy<Value = Rational> {
        (wide(), wide(), 0u8..4, 1i128..1000).prop_map(|(n, d, kind, small)| {
            let d = if kind == 0 { d % i128::MAX } else { small };
            Rational::new(n, d.abs().max(1))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn closed_form_axis_equals_the_step_chain(
            from in rational(),
            other in rational(),
            near in (any::<bool>(), -1000i128..1000, 1i128..1000),
            steps in 0usize..130,
        ) {
            // Half the cases end a small step past `from`.
            let to = match near {
                (true, n, d) => from.checked_add(&Rational::new(n, d)).unwrap_or(other),
                _ => other,
            };
            let s = Symbol::intern("sw_prop");
            let oracle = chain_oracle(s, from, to, steps);
            let axis = Axis::try_linear(s, from, to, steps).ok();
            prop_assert_eq!(&axis, &oracle);
            // Wherever the closed form fits, the chain fits too and
            // agrees value for value.
            if let (Ok(span), true) = (to.checked_sub(&from), steps >= 2) {
                if let Some(values) = closed_form(from, span, steps) {
                    prop_assert_eq!(Some(values), oracle.map(|a| a.values));
                }
            }
        }
    }

    #[test]
    fn grid_order_is_row_major_last_axis_fastest() {
        let a = Symbol::intern("sw_ga");
        let b = Symbol::intern("sw_gb");
        let grid = Grid::new(vec![
            Axis::list(a, vec![r(1, 1), r(2, 1)]),
            Axis::list(b, vec![r(10, 1), r(20, 1), r(30, 1)]),
        ])
        .unwrap();
        assert_eq!(grid.num_points(), 6);
        let mut p = Vec::new();
        grid.point(0, &mut p);
        assert_eq!(p, vec![r(1, 1), r(10, 1)]);
        grid.point(1, &mut p);
        assert_eq!(p, vec![r(1, 1), r(20, 1)]);
        grid.point(3, &mut p);
        assert_eq!(p, vec![r(2, 1), r(10, 1)]);
        grid.point(5, &mut p);
        assert_eq!(p, vec![r(2, 1), r(30, 1)]);
    }

    #[test]
    fn grid_rejects_duplicates_and_empty_axes() {
        let s = Symbol::intern("sw_dup");
        let err = Grid::new(vec![
            Axis::list(s, vec![r(1, 1)]),
            Axis::list(s, vec![r(2, 1)]),
        ])
        .unwrap_err();
        assert!(matches!(err, EvalError::DuplicateSymbol { .. }));
        let err = Grid::new(vec![Axis::list(s, Vec::new())]).unwrap_err();
        assert!(matches!(err, EvalError::EmptyAxis { .. }));
    }

    #[test]
    fn sweep_matches_single_point_eval_and_is_thread_invariant() {
        let x = Symbol::intern("sw_x");
        let y = Symbol::intern("sw_y");
        // f = x / (x + y)
        let f = RatFn::new(Poly::symbol(x), &Poly::symbol(x) + &Poly::symbol(y));
        let c = Compiled::compile(std::slice::from_ref(&f));
        let grid = Grid::new(vec![Axis::linear(x, r(1, 1), r(10, 1), 19)]).unwrap();
        let fixed = Assignment::new().with(y, r(3, 1));
        let opts1 = SweepOptions {
            threads: 1,
            ..SweepOptions::default()
        };
        let opts4 = SweepOptions {
            threads: 4,
            ..SweepOptions::default()
        };
        let rows1 = sweep_f64(&c, &grid, &fixed, &opts1).unwrap();
        let rows4 = sweep_f64(&c, &grid, &fixed, &opts4).unwrap();
        assert_eq!(rows1, rows4, "bit-identical at any thread count");
        let exact = sweep_exact(&c, &grid, &fixed, &opts4).unwrap();
        assert_eq!(rows1.len(), 19);
        let mut p = Vec::new();
        for (i, row) in exact.iter().enumerate() {
            grid.point(i as u64, &mut p);
            let a = Assignment::new().with(x, p[0]).with(y, r(3, 1));
            assert_eq!(row[0], f.eval(&a));
            let approx = rows1[i][0].unwrap();
            let want = row[0].unwrap().to_f64();
            assert!((approx - want).abs() <= 1e-12 * want.abs());
        }
    }

    #[test]
    fn unbound_and_duplicate_bindings_are_rejected() {
        let x = Symbol::intern("sw_ub_x");
        let y = Symbol::intern("sw_ub_y");
        let f = RatFn::from_poly(&Poly::symbol(x) + &Poly::symbol(y));
        let c = Compiled::compile(&[f]);
        let grid = Grid::new(vec![Axis::list(x, vec![r(1, 1)])]).unwrap();
        let opts = SweepOptions::default();
        let err = sweep_f64(&c, &grid, &Assignment::new(), &opts).unwrap_err();
        assert_eq!(err, EvalError::UnboundSymbol { symbol: y });
        let dup = Assignment::new().with(x, r(1, 1)).with(y, r(1, 1));
        let err = sweep_f64(&c, &grid, &dup, &opts).unwrap_err();
        assert_eq!(err, EvalError::DuplicateSymbol { symbol: x });
    }

    #[test]
    fn point_cap_is_enforced() {
        let x = Symbol::intern("sw_cap");
        let f = RatFn::symbol(x);
        let c = Compiled::compile(&[f]);
        let grid = Grid::new(vec![Axis::linear(x, r(0, 1), r(1, 1), 100)]).unwrap();
        let opts = SweepOptions {
            threads: 1,
            max_points: 99,
        };
        let err = sweep_f64(&c, &grid, &Assignment::new(), &opts).unwrap_err();
        assert_eq!(
            err,
            EvalError::TooManyPoints {
                points: 100,
                max: 99
            }
        );
    }

    #[test]
    fn argbest_finds_the_peak_and_is_thread_invariant() {
        let x = Symbol::intern("sw_ab_x");
        // f = x·(4−x) has its maximum at x = 2 (value 4); also expose x
        // itself so the feasibility predicate can be exercised.
        let p = &Poly::symbol(x) * &(Poly::constant(r(4, 1)) - Poly::symbol(x));
        let f = RatFn::from_poly(p);
        let id = RatFn::symbol(x);
        let c = Compiled::compile(&[f, id]);
        let grid = Grid::new(vec![Axis::linear(x, r(0, 1), r(4, 1), 41)]).unwrap();
        let fixed = Assignment::new();
        let one = SweepOptions {
            threads: 1,
            ..SweepOptions::default()
        };
        let four = SweepOptions {
            threads: 4,
            ..SweepOptions::default()
        };
        let best1 = argbest_f64(&c, &grid, &fixed, &one, 0, true, |_| true).unwrap();
        let best4 = argbest_f64(&c, &grid, &fixed, &four, 0, true, |_| true).unwrap();
        assert_eq!(best1, best4, "identical at any thread count");
        let (idx, v) = best1.unwrap();
        assert_eq!(idx, 20, "x = 2 is grid point 20");
        assert_eq!(v, 4.0);
        // minimisation picks an endpoint; ties (f(0) = f(4) = 0) go to
        // the lowest index
        let (idx, v) = argbest_f64(&c, &grid, &fixed, &four, 0, false, |_| true)
            .unwrap()
            .unwrap();
        assert_eq!((idx, v), (0, 0.0));
        // the feasibility predicate excludes the peak: best moves to
        // the closest feasible point
        let best = argbest_f64(&c, &grid, &fixed, &four, 0, true, |row| {
            row[1].is_some_and(|xv| xv > 2.05)
        })
        .unwrap()
        .unwrap();
        assert_eq!(best.0, 21, "first point right of the excluded peak");
        // nothing feasible → None
        let none = argbest_f64(&c, &grid, &fixed, &four, 0, true, |_| false).unwrap();
        assert_eq!(none, None);
    }

    #[test]
    fn empty_grid_is_one_fixed_point() {
        let x = Symbol::intern("sw_empty");
        let f = RatFn::symbol(x);
        let c = Compiled::compile(&[f]);
        let grid = Grid::new(Vec::new()).unwrap();
        assert_eq!(grid.num_points(), 1);
        let fixed = Assignment::new().with(x, r(7, 2));
        let rows = sweep_exact(&c, &grid, &fixed, &SweepOptions::default()).unwrap();
        assert_eq!(rows, vec![vec![Some(r(7, 2))]]);
    }
}
