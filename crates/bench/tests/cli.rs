//! The paper binaries reject malformed arguments with their usage line and
//! exit status 2 instead of running with a default in their place.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary starts")
}

fn assert_usage_exit(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?} must exit 2; stderr: {stderr}");
    assert!(stderr.contains("usage: "), "{bin} {args:?} must print its usage; stderr: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} must print no table");
}

#[test]
fn table1_rejects_malformed_scale_and_extra_args() {
    let bin = env!("CARGO_BIN_EXE_table1");
    assert_usage_exit(bin, &["s2", "0.2x"]);
    assert_usage_exit(bin, &["s2", "0"]);
    assert_usage_exit(bin, &["s2", "-1"]);
    assert_usage_exit(bin, &["s2", "0.25", "extra"]);
    assert_usage_exit(bin, &["nosuch"]);
}

#[test]
fn table2_rejects_unknown_dataset_and_malformed_scale() {
    let bin = env!("CARGO_BIN_EXE_table2");
    assert_usage_exit(bin, &["reall"]);
    assert_usage_exit(bin, &["real", "--generate", "1.0x"]);
    assert_usage_exit(bin, &["real", "--bogus"]);
}

#[test]
fn figures_rejects_malformed_scale_and_flags() {
    let bin = env!("CARGO_BIN_EXE_figures");
    assert_usage_exit(bin, &[]);
    assert_usage_exit(bin, &["bluesky", "0.2x"]);
    assert_usage_exit(bin, &["bluesky", "0.02", "--simulat"]);
    assert_usage_exit(bin, &["nosuch"]);
}

#[test]
fn observations_rejects_malformed_scale() {
    let bin = env!("CARGO_BIN_EXE_observations");
    assert_usage_exit(bin, &["quarter"]);
    assert_usage_exit(bin, &["0"]);
}

#[test]
fn ert_rejects_malformed_threads_and_size() {
    let bin = env!("CARGO_BIN_EXE_ert");
    assert_usage_exit(bin, &["two", "1"]);
    assert_usage_exit(bin, &["1", "1MB"]);
    assert_usage_exit(bin, &["0", "1"]);
}

#[test]
fn well_formed_arguments_still_run() {
    let out = run(env!("CARGO_BIN_EXE_table1"), &["s1", "0.01"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table I"));
    let out = run(env!("CARGO_BIN_EXE_table2"), &["real"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("Table II(a)"));
}
