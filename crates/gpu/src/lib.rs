//! GPU substrate: the performance model behind every timing figure.
//!
//! The paper evaluates SIMD² by *emulation* on an RTX 3080: SIMD²-ized
//! kernels run their matrix operations through Tensor-Core `wmma::mma`
//! calls of identical shape (§5.1), so reported numbers are the timing of
//! real tile-granular instruction streams. This crate replaces the physical
//! GPU with an analytical machine model that reproduces the same
//! first-order effects:
//!
//! * the CUDA-core issue model with per-class ALU-port throughput —
//!   including the structural hazard the paper identifies (min and max
//!   share an ALU port, as do or/and), which is why fused SIMD²
//!   instructions win by *more* than the raw throughput ratio (§6.2),
//! * the SIMD²/Tensor tile pipes with their lane throughput,
//! * fused multiply-add on CUDA cores, which is why plus-mul and plus-norm
//!   gain the least (§6.2),
//! * kernel-launch overhead and size-dependent utilisation, which produce
//!   the speedup ramp that saturates beyond 4096² inputs (Fig 9),
//! * memory bandwidth and device-memory capacity (the Fig 14 OOM wall).
//!
//! [`config::GpuConfig`] describes the machine (RTX 3080-class by default,
//! plus the previous-generation part used in the §6.3 discussion);
//! [`kernel`] prices whole kernels from instruction-mix profiles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod kernel;
pub mod replay;
pub mod sim;

pub use config::GpuConfig;
pub use kernel::{geomean, Gpu, KernelProfile, Seconds};
pub use replay::{simulate_trace, MmoTrace};
pub use sim::{GridSim, PipelineStats, SmPipeline};
