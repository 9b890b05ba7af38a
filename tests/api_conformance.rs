//! API-guideline conformance checks (Rust API Guidelines): common traits,
//! thread-safety markers, and error-type behaviour that downstream users
//! rely on.

use std::error::Error;

use simd2_repro::core::solve::ClosureAlgorithm;
use simd2_repro::isa;
use simd2_repro::matrix::{Graph, Matrix, Tile};
use simd2_repro::semiring::OpKind;

fn assert_send_sync<T: Send + Sync>() {}
fn assert_clone_debug<T: Clone + std::fmt::Debug>() {}

#[test]
fn core_types_are_send_and_sync() {
    // C-SEND-SYNC: everything a user would share across threads.
    assert_send_sync::<Matrix>();
    assert_send_sync::<Tile<16>>();
    assert_send_sync::<Graph>();
    assert_send_sync::<OpKind>();
    assert_send_sync::<isa::Instruction>();
    assert_send_sync::<isa::Executor>();
    assert_send_sync::<simd2_repro::mxu::Simd2Unit>();
    assert_send_sync::<simd2_repro::gpu::Gpu>();
    assert_send_sync::<simd2_repro::matrix::Csr>();
    assert_send_sync::<simd2_repro::core::TiledBackend>();
    assert_send_sync::<simd2_repro::apps::AppKind>();
}

#[test]
fn error_types_are_well_behaved() {
    // C-GOOD-ERR: Error + Send + Sync + 'static, lowercase messages.
    fn assert_error<T: Error + Send + Sync + 'static>() {}
    assert_error::<simd2_repro::matrix::ShapeError>();
    assert_error::<isa::ExecError>();
    assert_error::<isa::DecodeError>();
    assert_error::<isa::ImageError>();
    assert_error::<simd2_repro::semiring::ParseOpKindError>();
    assert_error::<simd2_repro::mxu::UnsupportedOpError>();

    let e = "mul-div".parse::<OpKind>().unwrap_err();
    let msg = e.to_string();
    assert!(!msg.is_empty());
    assert!(!msg.ends_with('.'), "no trailing punctuation: {msg}");
    // Boxable into the common error-handling shape.
    let _boxed: Box<dyn Error + Send + Sync> = Box::new(e);
}

#[test]
fn common_types_implement_the_usual_traits() {
    assert_clone_debug::<Matrix>();
    assert_clone_debug::<Graph>();
    assert_clone_debug::<Tile<4>>();
    assert_clone_debug::<isa::ExecStats>();
    assert_clone_debug::<simd2_repro::gpu::GpuConfig>();
    assert_clone_debug::<ClosureAlgorithm>();
    // Default where a no-argument constructor makes sense.
    assert_eq!(Tile::<4>::default(), Tile::<4>::splat(0.0));
    let _ = simd2_repro::mxu::Simd2Unit::default();
    let _ = simd2_repro::gpu::Gpu::default();
    let _ = simd2_repro::core::TiledBackend::default();
}

#[test]
fn debug_representations_are_never_empty() {
    // C-DEBUG-NONEMPTY.
    assert!(!format!("{:?}", Matrix::zeros(0, 0)).is_empty());
    assert!(!format!("{:?}", Graph::new(0)).is_empty());
    assert!(!format!("{:?}", OpKind::MinPlus).is_empty());
    assert!(!format!("{:?}", isa::ExecStats::default()).is_empty());
}

#[test]
fn conversions_follow_naming_conventions() {
    // as_/to_/into_ tri-split on Matrix (C-CONV).
    let m = Matrix::filled(2, 2, 1.0);
    let _view: &[f32] = m.as_slice(); // free, borrowed
    let t = m.transposed(); // expensive, new value
    let _owned: Vec<f32> = t.into_vec(); // consuming, free
                                         // Tile conversions live on the more specific type (C-CONV-SPECIFIC).
    let tile = Tile::<4>::splat(2.0);
    let as_matrix = tile.to_matrix();
    assert_eq!(Tile::<4>::try_from_matrix(&as_matrix).unwrap(), tile);
}

#[test]
fn serde_round_trips_the_data_structures() {
    // C-SERDE on the plain data types (via the JSON-ish serde test
    // double: serde's derives are exercised through bincode-free
    // serialization into serde_json-like tokens isn't available, so use
    // the `serde` "value" of a round-trip through the `Debug`-stable
    // generators instead: here we just assert the traits exist).
    fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
    assert_serde::<Matrix>();
    assert_serde::<Graph>();
    assert_serde::<OpKind>();
    assert_serde::<simd2_repro::gpu::GpuConfig>();
    assert_serde::<simd2_repro::gpu::Seconds>();
}

#[test]
fn iterators_are_usable_in_for_loops() {
    let g = {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g
    };
    let mut total = 0.0;
    for (_, _, w) in g.edges() {
        total += w;
    }
    assert_eq!(total, 3.0);
    let t = Tile::<4>::splat(1.0);
    assert_eq!(t.iter().count(), 16);
}
