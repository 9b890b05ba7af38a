//! Experiment harness: regenerates every table and figure of the SIMD²
//! paper.
//!
//! [`experiments::EXPERIMENTS`] is the table of experiments and the
//! `reproduce` binary its front end (`reproduce <name>… | all | list`);
//! the `fault_campaign`, `soak` and `serve_soak` binaries are the seeded
//! robustness harnesses. This library holds the experiments and the
//! helpers the four binaries share: table rendering ([`report`]) and
//! strict flag parsing ([`cli`]). Timing lives in `benchmark/`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod fig11;
pub mod report;

pub use report::Table;
