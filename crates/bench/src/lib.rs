//! Reproduction harness for every table and figure in the Ocelot paper.
//!
//! Each `experiments::*` module regenerates one evaluation artifact: it runs
//! the workload with the same parameters (scaled to laptop size where the
//! original used a supercomputer), returns typed rows, and can print them in
//! the paper's layout. The `repro` binary dispatches them; the real kernels'
//! speed is measured by the standalone `benchmark/` package.
//!
//! Paper-vs-measured correspondence is recorded in `EXPERIMENTS.md`; shape
//! criteria (who wins, where the crossovers fall) are asserted in
//! `tests/shape_checks.rs`.

pub mod experiments;
pub mod pool;
pub mod support;
