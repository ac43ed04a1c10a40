//! The `repro` command line fails loudly: bad requests exit non-zero with
//! a message instead of running nothing (or panicking) and exiting 0.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_experiment_exits_2_before_running_anything() {
    // `fig1` is valid and listed first: it must not run either.
    let out = repro(&["--quick", "--out", "unused-out-dir", "fig1", "fig99"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("unknown experiment: fig99"), "stderr: {}", stderr(&out));
    assert!(out.stdout.is_empty(), "nothing may run: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn bench_compare_with_missing_inputs_exits_2_without_panicking() {
    let fresh = std::env::temp_dir().join(format!("repro-cli-fresh-{}.json", std::process::id()));
    std::fs::write(
        &fresh,
        r#"{"build":"release","name":"x","median_ns":1.0,"lo_ns":1.0,"hi_ns":1.0}"#,
    )
    .expect("temp file writable");
    let fresh = fresh.to_str().expect("utf-8 temp path");
    for args in [
        vec!["--bench-compare", "/nonexistent/fresh.json"],
        vec!["--bench-compare", fresh, "/nonexistent/BENCH_baseline.json"],
    ] {
        let out = repro(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("bench-compare: cannot read /nonexistent/"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    let _ = std::fs::remove_file(fresh);
}

#[test]
fn telemetry_status_exits_0() {
    let out = repro(&["--telemetry-status"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.lines().any(|l| l.starts_with("telemetry: compiled ")), "{text}");
    assert!(text.lines().any(|l| l.starts_with("flight recorder: compiled ")), "{text}");
}
