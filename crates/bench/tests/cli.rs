//! The four binaries refuse a command line they do not fully understand:
//! a mistyped gate line must fail, not run the defaults and pass.

use std::process::Command;

#[test]
fn a_bad_command_line_prints_usage_and_exits_2() {
    let cases: [(&str, &[&str]); 7] = [
        (env!("CARGO_BIN_EXE_soak"), &["--seed", "x7"]),
        (env!("CARGO_BIN_EXE_soak"), &["--seconds", "5s"]),
        (
            env!("CARGO_BIN_EXE_serve_soak"),
            &["--sparse", "--sede", "7"],
        ),
        (env!("CARGO_BIN_EXE_fault_campaign"), &["--trials"]),
        (env!("CARGO_BIN_EXE_reproduce"), &[]),
        (env!("CARGO_BIN_EXE_reproduce"), &["fig99_missing"]),
        (
            env!("CARGO_BIN_EXE_reproduce"),
            &["table4_apps", "--validate"],
        ),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran anyway");
    }
}
