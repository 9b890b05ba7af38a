//! The engine's worker pool seen from the operating system: which
//! threads `TiledBackend` runs (`/proc/self/task`), when it starts them
//! and when it joins them. One test, alone in its binary, so that no
//! other test's threads move the count.

#![cfg(target_os = "linux")]

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use simd2::{Backend, BackendError, Degrade, MmoArgs, Parallelism, Schedule, TiledBackend};
use simd2_fault::PanicProbeUnit;
use simd2_matrix::{gen, Matrix};
use simd2_mxu::Simd2Unit;
use simd2_semiring::OpKind;

/// The ids of this process's threads.
fn threads() -> BTreeSet<u32> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .map(|entry| {
            let name = entry.expect("a task entry").file_name();
            name.to_str()
                .and_then(|id| id.parse().ok())
                .expect("a thread id")
        })
        .collect()
}

/// Whether the threads come down to `want` within a few seconds: a
/// joined thread leaves `/proc/self/task` a moment after `join` returns.
fn settles_at(want: &BTreeSet<u32>) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while &threads() != want {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

fn operands(m: usize) -> (Matrix, Matrix, Matrix) {
    let op = OpKind::PlusMul;
    let a = gen::random_operands_for(op, m, 37, 42);
    let b = gen::random_operands_for(op, 37, 23, 43);
    (a, b, Matrix::zeros(m, 23))
}

#[test]
fn a_backend_starts_its_workers_once_and_joins_them() {
    let op = OpKind::PlusMul;
    let (a, b, c) = operands(70); // 5 tile rows
    let want = TiledBackend::new().mmo(op, &a, &b, &c).unwrap();
    let base = threads();

    // Lazily, once: fifty MMOs at four workers run on the same three
    // threads beside the caller; a sequential step starts none.
    let mut be = TiledBackend::with_parallelism(Parallelism::Threads(4));
    be.execute(&MmoArgs::new(op, &a, &b, &c), Schedule::Sequential)
        .unwrap();
    assert_eq!(threads(), base, "no pool before a multi-worker MMO");
    assert_eq!(be.mmo(op, &a, &b, &c).unwrap(), want);
    let pooled = threads();
    assert_eq!(pooled.len(), base.len() + 3);
    assert!(pooled.is_superset(&base));
    for _ in 1..50 {
        assert_eq!(be.mmo(op, &a, &b, &c).unwrap(), want);
    }
    assert_eq!(threads(), pooled, "the same three workers served all 50");

    // A clone starts with no pool, starts its own, and joins it on drop.
    let mut twin = be.clone();
    assert_eq!(threads(), pooled);
    assert_eq!(twin.mmo(op, &a, &b, &c).unwrap(), want);
    assert_eq!(threads().len(), pooled.len() + 3);
    drop(twin);
    assert!(settles_at(&pooled), "dropping a backend joins its workers");

    // A panicking panel leaves the workers running and usable.
    let mut probe = TiledBackend::with_unit(PanicProbeUnit::new(Simd2Unit::new(), 2));
    probe.set_parallelism(Parallelism::Threads(4));
    let err = probe.mmo(op, &a, &b, &c).unwrap_err();
    assert!(
        matches!(err, BackendError::WorkerPanic { panel: 1, .. }),
        "{err:?}"
    );
    let probed = threads();
    assert_eq!(probed.len(), pooled.len() + 3);
    let (a2, b2, c2) = operands(32); // 2 tile rows: short of the probe's
    let want2 = TiledBackend::new().mmo(op, &a2, &b2, &c2).unwrap();
    assert_eq!(probe.mmo(op, &a2, &b2, &c2).unwrap(), want2);
    assert_eq!(threads(), probed, "no worker died or was replaced");

    // The sequential rung joins the pool; so does dropping the backend.
    assert!(be.degrade(Degrade::ForceSequential));
    let without_be: BTreeSet<u32> = probed.difference(&pooled).chain(&base).copied().collect();
    assert!(settles_at(&without_be), "ForceSequential joins the workers");
    assert_eq!(be.mmo(op, &a, &b, &c).unwrap(), want);
    drop(probe);
    assert!(settles_at(&base));
}
