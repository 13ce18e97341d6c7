//! The usage banner goes where the user looks for it.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_socflow-cli"))
        .args(args)
        .output()
        .expect("socflow-cli runs")
}

/// Asked-for help is the program's output: stdout, exit 0, so
/// `socflow-cli --help | less` shows it.
#[test]
fn asked_for_help_goes_to_stdout() {
    for args in [&["--help"][..], &["-h"], &["help"], &["train", "--help"]] {
        let out = cli(args);
        assert!(out.status.success(), "{args:?}: {:?}", out.status);
        let stdout = String::from_utf8(out.stdout).expect("UTF-8 banner");
        assert!(stdout.starts_with("socflow-cli — "), "{args:?}: {stdout}");
        assert!(stdout.contains("USAGE:"), "{args:?}: {stdout}");
        assert!(out.stderr.is_empty(), "{args:?}: stderr not empty");
    }
}

/// A usage error keeps the banner on stderr and exits 2.
#[test]
fn usage_errors_go_to_stderr() {
    for args in [&[][..], &["train", "--epochs"]] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: stdout not empty");
        let stderr = String::from_utf8(out.stderr).expect("UTF-8 banner");
        assert!(stderr.contains("USAGE:"), "{args:?}: {stderr}");
    }
}
