//! The SIMD² matrix unit: functional tile datapath and hardware cost
//! models.
//!
//! A SIMD² unit (paper Figure 4(c)/Figure 5) is a conventional
//! matrix-multiply-accumulate (MMA) unit whose `⊗` ALU array and `⊕`
//! reduction tree are configurable by the instruction opcode. This crate
//! models that unit at two levels:
//!
//! * [`mod@unit`] — a bit-accurate *functional* model: executes any of the nine
//!   operations on operand tiles with the fp16-in / fp32-accumulate data
//!   path, including a baseline [`unit::MmaUnit`] that (like a real Tensor
//!   Core) only supports plus-mul, and the [`MmoUnit`] seam whole-matrix
//!   engines are generic over (the pristine unit here, fault-injecting
//!   wrappers in `simd2-fault`),
//! * [`area`] — the synthesis-calibrated area/power model regenerating
//!   Table 5 (combined unit, standalone accelerators, precision and shape
//!   scaling, die-level overhead),
//! * [`timing`] — instruction latency/throughput: SIMD² instructions are
//!   provisioned to match MMA latency (paper §3.2/§6.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod timing;
pub mod unit;

pub use area::{AreaModel, DieModel, PowerModel};
pub use unit::{MmaUnit, MmoUnit, PrecisionMode, Simd2Unit, TileCoord, UnsupportedOpError};
