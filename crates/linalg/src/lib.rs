//! Exact linear algebra over generic fields.
//!
//! The decision-graph traversal-rate equations (paper §4) form a linear
//! system whose coefficients are branching probabilities. In the numeric
//! analysis those are exact rationals; in the *symbolic* analysis they
//! are rational functions of the frequency symbols. Solving the system
//! exactly in either case requires Gaussian elimination over a generic
//! [`Field`] — floating-point libraries are useless here because the
//! whole point is to obtain closed-form expressions.
//!
//! Provided:
//!
//! * [`Field`] — the algebraic interface, implemented for
//!   [`tpn_rational::Rational`] and [`tpn_symbolic::RatFn`];
//! * [`Matrix`] — dense row-major matrices with reduced row-echelon
//!   form, rank, determinant, inverse, [`Matrix::solve`] and
//!   [`Matrix::null_space`];
//! * [`SparseMatrix`] — a map-per-row sparse variant with the same
//!   elimination-based solver: the production traversal-rate solver
//!   (each rate equation touches only the edges entering one node, so
//!   the systems stay sparse as decision graphs grow).

#![allow(clippy::needless_range_loop)] // index-based loops mirror the matrix algebra

mod dense;
mod error;
mod field;
mod sparse;

pub use dense::Matrix;
pub use error::LinalgError;
pub use field::Field;
pub use sparse::SparseMatrix;
