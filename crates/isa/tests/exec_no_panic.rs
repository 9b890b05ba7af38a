//! Property tests: the warp executor is panic-free.
//!
//! Any instruction stream that *decodes* successfully must execute
//! without panicking — out-of-bounds transfers, absurd leading
//! dimensions, and undersized shared memories all surface as
//! `Err(ExecError)`, never as a crash. The same holds with an active
//! fault injector and per-instruction ABFT verification enabled.

use proptest::collection;
use proptest::prelude::*;
use simd2_fault::{AbftConfig, FaultPlan, FaultPlanConfig, PlannedInjector};
use simd2_isa::{ExecStats, Executor, Instruction, SharedMemory};

const MAX_PROG: usize = 48;

/// Turns arbitrary 64-bit words into the decoded-valid instructions
/// among them. The top nibble is remapped onto the four valid classes
/// so all forms appear; everything else — registers, addresses, leading
/// dimensions up to the 23-bit field, fill bit patterns (including
/// NaN/Inf), opcodes — is whatever the raw bits say, kept only if the
/// decoder accepts it.
fn decode_stream(words: &[u64]) -> Vec<Instruction> {
    words
        .iter()
        .filter_map(|&w| Instruction::decode((w & !(0xF << 60)) | ((w >> 60) % 4) << 60).ok())
        .collect()
}

proptest! {
    /// `Executor::run` returns `Ok` or `Err` — it never panics — for any
    /// decoded-valid program on any shared-memory size.
    #[test]
    fn run_never_panics(
        words in collection::vec(any::<u64>(), MAX_PROG),
        len in 0usize..=MAX_PROG,
        mem_elems in 0usize..4096,
    ) {
        let prog = decode_stream(&words[..len]);
        let mut exec = Executor::new(SharedMemory::new(mem_elems));
        if let Ok(stats) = exec.run(&prog) {
            prop_assert_eq!(stats.total_instructions(), prog.len() as u64);
        } // a typed Err is the contract for invalid accesses
    }

    /// The same holds with a faulty datapath and ABFT verification: any
    /// corruption becomes `ExecError::SilentCorruption`, not a panic.
    #[test]
    fn run_never_panics_under_fault_injection(
        words in collection::vec(any::<u64>(), MAX_PROG),
        mem_elems in 0usize..2048,
        seed in any::<u64>(),
        ppm in 0u32..200_000,
    ) {
        let prog = decode_stream(&words);
        let mut exec = Executor::new(SharedMemory::new(mem_elems));
        exec.set_injector(PlannedInjector::new(FaultPlan::new(
            FaultPlanConfig::new(seed)
                .with_bit_flip_ppm(ppm)
                .with_stuck_lane_ppm(ppm)
                .with_transient_nan_ppm(ppm)
                .with_mem_ppm(ppm),
        )));
        exec.enable_verification(AbftConfig::default());
        let _ = exec.run(&prog);
    }

    /// Stepping instruction by instruction is equally panic-free, and an
    /// error on one instruction leaves the executor usable for the next.
    #[test]
    fn step_never_panics_and_errors_are_recoverable(
        words in collection::vec(any::<u64>(), MAX_PROG),
        mem_elems in 0usize..1024,
    ) {
        let mut exec = Executor::new(SharedMemory::new(mem_elems));
        let mut stats = ExecStats::default();
        for instr in decode_stream(&words) {
            let _ = exec.step(instr, &mut stats);
        }
    }
}
