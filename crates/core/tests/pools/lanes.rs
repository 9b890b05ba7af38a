//! What the two lane suites share (`half_lanes.rs`, `fma_lanes.rs`,
//! which include this file by path): the hash their operands are marked
//! by, a traced backend, the bit comparison and the counter deltas of
//! one step. Each suite keeps its own operands, model and assertions.

use std::sync::Arc;

use simd2::{Backend, MmoArgs, Schedule, TiledBackend};
use simd2_mxu::Simd2Unit;
use simd2_trace::{NullSink, Tracer};

#[allow(dead_code)]
#[path = "hostile.rs"]
mod hostile;
pub(crate) use hostile::bits;

pub(crate) fn hash(x: usize, y: usize, salt: u64) -> u64 {
    let mut h = (x as u64) << 32 ^ y as u64 ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ h >> 32
}

/// Asserts two outputs are the same bits, element by element as `same`
/// says, naming the first element that is not.
pub(crate) fn assert_same(got: &[u32], want: &[u32], ctx: &str, same: fn(f32, f32) -> bool) {
    let same = |i: usize| same(f32::from_bits(got[i]), f32::from_bits(want[i]));
    if let Some(i) = (0..want.len()).find(|&i| !same(i)) {
        let (g, w) = (f32::from_bits(got[i]), f32::from_bits(want[i]));
        panic!("{ctx}: element {i} is {g:e}, not {w:e}");
    }
    assert_eq!(got.len(), want.len(), "{ctx}");
}

pub(crate) fn traced(unit: Simd2Unit) -> TiledBackend {
    TiledBackend::with_unit(unit).with_tracer(Tracer::to(Arc::new(NullSink)))
}

/// The process-global counters `names`, in that order (0 for one not
/// yet registered).
fn counters<const N: usize>(names: &[&str; N]) -> [u64; N] {
    let snap = simd2_trace::snapshot();
    names.map(|name| {
        snap.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    })
}

/// Runs one traced step on `be` and returns its bits and how far it
/// moved the counters `names`.
pub(crate) fn step<const N: usize>(
    be: &mut impl Backend,
    names: &[&str; N],
    args: &MmoArgs<'_>,
) -> (Vec<u32>, [u64; N]) {
    let before = counters(names);
    let d = be.execute(args, Schedule::Configured).unwrap();
    let after = counters(names);
    (bits(&d), std::array::from_fn(|i| after[i] - before[i]))
}
