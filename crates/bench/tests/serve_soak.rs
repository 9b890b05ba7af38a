//! The serve soak's reference model and coverage floor on every `cargo
//! test`, not only on `scripts/verify.sh --full`: a fixed count of
//! seeded episodes, so the slice does not depend on host speed.

use std::process::Command;

#[test]
fn sixty_seeded_episodes_match_the_model_and_reach_every_stage() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve_soak"))
        .args(["--seed", "7", "--iters", "60", "--seconds", "600"])
        // The SLO export lands under the working directory.
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}{stderr}");
    assert!(stdout.contains(": 60 episodes "), "{stdout}");
    assert!(stdout.contains("every lifecycle stage reached"), "{stdout}");
}
