//! Resident batched solve service.
//!
//! Production solvers rarely face one right-hand side against a fresh
//! matrix: the same operator is solved against many right-hand sides —
//! time steps, load cases, columns of a block system — often concurrently.
//! This crate turns the workspace's solvers into a *service* shaped for
//! that workload:
//!
//! * [`fingerprint()`] — content hashes over matrix structure + values +
//!   preconditioner recipe + method/options, keying everything below;
//! * [`SolverHandle`] — one operator's cached setup: preconditioner
//!   factorization, SELL conversion, warmed schedules, and the optional
//!   one-time Ritz pass that retunes Chebyshev/Newton bases;
//! * [`SolveService`] — the resident front door: an LRU of handles plus a
//!   batch admission queue coalescing concurrent same-fingerprint
//!   submissions into blocked multi-RHS solves
//!   ([`spcg_solvers::solve_batch`]).
//!
//! The performance story is amortization twice over: setup is paid once
//! per operator instead of once per solve, and a width-k batch streams the
//! matrix once per iteration instead of k times. The correctness story is
//! unchanged from the rest of the workspace: every column of every batch
//! is **bitwise identical** to the standalone solve of that right-hand
//! side, so putting the service in front of a solver changes throughput
//! and nothing else.
//!
//! ```
//! use spcg_precond::{Jacobi, Preconditioner};
//! use spcg_service::{SolveService, SolveSpec};
//! use spcg_solvers::Method;
//! use spcg_sparse::generators::{paper_rhs, poisson::poisson_2d};
//! use std::sync::Arc;
//!
//! let a = Arc::new(poisson_2d(16));
//! let spec = SolveSpec::new(Method::Pcg, Jacobi::new(&a).spec().unwrap());
//! let service = SolveService::default();
//!
//! let b = paper_rhs(&a);
//! let first = service.submit(&a, &spec, &b, None);   // builds the handle
//! let second = service.submit(&a, &spec, &b, None);  // cache hit
//! assert!(first.converged() && second.converged());
//! assert_eq!(first.x, second.x);
//! assert_eq!(service.stats().misses, 1);
//! assert_eq!(service.stats().hits, 1);
//! ```

pub mod fingerprint;
pub mod handle;
pub mod service;

pub use fingerprint::{fingerprint, Fingerprint, Fnv};
pub use handle::{SetupCost, SolveSpec, SolverHandle};
pub use service::{ServiceConfig, ServiceStats, SolveService};
