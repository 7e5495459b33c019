//! CLI contract tests for `lsvconv`. The one flag parser: a malformed
//! value, a flag the subcommand does not take and an unknown experiment are
//! usage errors (exit 2), and so is an invalid problem geometry or vector
//! width. `serve`: the backend guard and the store flags
//! behave exactly like the other store-backed subcommands, and a zero batch
//! cap or request count is a usage error, not a panic. `run`: a failing
//! experiment exits non-zero and leaves neither its artifact nor a
//! temporary file.

use std::process::{Command, Output};

fn lsvconv(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lsvconv-cli"))
        .args(args)
        .env_remove("LSV_STORE_DIR")
        .env_remove("LSV_STORE")
        .output()
        .expect("lsvconv runs")
}

#[test]
fn serve_rejects_native_backend_with_the_standard_error() {
    let out = lsvconv(&["serve", "--backend", "native", "--smoke"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--backend native is not valid for `serve`"),
        "stderr: {err}"
    );
    assert!(
        err.contains("only the simulator models time"),
        "stderr: {err}"
    );
}

#[test]
fn serve_rejects_no_store_combined_with_store_dir() {
    let out = lsvconv(&["serve", "--no-store", "--store-dir", "/tmp/x", "--smoke"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--no-store and --store-dir are mutually exclusive"),
        "stderr: {err}"
    );
}

#[test]
fn serve_rejects_store_dir_without_a_path() {
    // `--store-dir --smoke`: a following `--flag` is never a value.
    let out = lsvconv(&["serve", "--store-dir", "--smoke"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--store-dir requires a path"), "stderr: {err}");
}

#[test]
fn serve_rejects_a_value_on_no_store() {
    let out = lsvconv(&["serve", "--no-store", "yes", "--smoke"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--no-store takes no value"), "stderr: {err}");
}

#[test]
fn serve_accepts_no_store_and_emits_the_sweep() {
    // Smallest real run: one engine, batch 1, few requests. `--no-store`
    // must be accepted (and simply skips persistence).
    let out = lsvconv(&[
        "serve",
        "--no-store",
        "--smoke",
        "--max-batch",
        "1",
        "--requests",
        "40",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("arrival,policy,engine,offered_rps"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("poisson,adaptive1,BDC,"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("best @ poisson"), "stdout: {stdout}");
}

#[test]
fn serve_rejects_trace_without_a_path() {
    let out = lsvconv(&["serve", "--trace", "--smoke"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--trace requires a path"), "stderr: {err}");
}

#[test]
fn serve_rejects_a_value_on_metrics() {
    let out = lsvconv(&["serve", "--metrics", "yes", "--smoke"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--metrics takes no value"), "stderr: {err}");
}

#[test]
fn serve_trace_writes_reconciled_schema_valid_artifacts() {
    let dir = std::env::temp_dir().join(format!("lsv-trace-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = lsvconv(&[
        "serve",
        "--no-store",
        "--smoke",
        "--max-batch",
        "2",
        "--requests",
        "40",
        "--metrics",
        "--trace",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("trace reconciliation: exact"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("metrics:"), "stdout: {stdout}");
    assert!(stdout.contains("queue.requests"), "stdout: {stdout}");

    // Every artifact landed and revalidates from disk.
    let trace = std::fs::read_to_string(dir.join("serving_trace.json")).expect("trace written");
    lsv_obs::validate_serving_trace_json(&trace).expect("schema-valid trace");
    let metrics = std::fs::read_to_string(dir.join("metrics.json")).expect("metrics written");
    lsv_obs::validate_metrics_json(&metrics).expect("schema-valid metrics");
    let perfetto =
        std::fs::read_to_string(dir.join("serving_trace.perfetto.json")).expect("perfetto written");
    lsv_obs::parse_json(&perfetto).expect("perfetto is valid JSON");
    let ts = std::fs::read_to_string(dir.join("serving_timeseries.csv")).expect("csv written");
    assert!(
        ts.starts_with("arrival,policy,engine,utilization,sample,t_ms,"),
        "csv header: {}",
        ts.lines().next().unwrap_or("")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = lsvconv(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {err}");
    assert!(err.contains(needle), "{args:?}: stderr {err}");
    assert!(err.contains("usage: lsvconv"), "{args:?}: stderr {err}");
}

#[test]
fn malformed_minibatch_is_rejected() {
    assert_usage_error(
        &["bench", "--layer", "17", "--minibatch", "8x", "--no-store"],
        "--minibatch: '8x' is not a valid number",
    );
}

#[test]
fn malformed_fuzz_case_count_is_rejected() {
    assert_usage_error(
        &["fuzz", "--cases", "abc"],
        "--cases: 'abc' is not a valid number",
    );
}

#[test]
fn an_invalid_problem_is_a_usage_error_not_a_panic() {
    assert_usage_error(
        &["bench", "--ic", "0", "--no-store"],
        "sizes must be positive",
    );
    assert_usage_error(&["verify", "--minibatch", "0"], "sizes must be positive");
    assert_usage_error(
        &["bench", "--stride", "0", "--no-store"],
        "stride must be positive",
    );
    assert_usage_error(
        &["bench", "--hw", "2", "--k", "5", "--no-store"],
        "kernel larger than padded input",
    );
}

#[test]
fn an_uncreatable_store_dir_is_a_usage_error_not_a_panic() {
    // No directory can be created under a regular file.
    let dir = std::env::temp_dir().join(format!("lsv-store-dir-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("regular-file");
    std::fs::write(&file, b"").expect("regular file");
    let bad = file.join("sub");
    let bad = bad.to_str().expect("utf-8 temp path");
    let needle = format!("cannot create {bad}");
    assert_usage_error(&["bench", "--layer", "0", "--store-dir", bad], &needle);
    for cmd in ["bench", "verify"] {
        let out = Command::new(env!("CARGO_BIN_EXE_lsvconv-cli"))
            .args([cmd, "--layer", "0"])
            .env("LSV_STORE_DIR", bad)
            .env_remove("LSV_STORE")
            .output()
            .expect("lsvconv runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "LSV_STORE_DIR {cmd}: {err}");
        assert!(err.contains(&needle), "LSV_STORE_DIR {cmd}: {err}");
        assert!(err.contains("usage: lsvconv"), "LSV_STORE_DIR {cmd}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_vector_width_off_the_32_bit_grid_is_a_usage_error() {
    assert_usage_error(
        &["bench", "--arch", "aurora-vl3", "--no-store"],
        "positive multiple of 32 bits",
    );
    assert_usage_error(
        &["bench", "--arch", "aurora-vl0", "--no-store"],
        "positive multiple of 32 bits",
    );
}

#[test]
fn fuzz_no_longer_takes_agreement() {
    assert_usage_error(
        &["fuzz", "--smoke", "--agreement"],
        "`fuzz` takes no flag --agreement",
    );
}

#[test]
fn a_flag_the_subcommand_does_not_take_is_rejected() {
    assert_usage_error(
        &["info", "--minibtach", "3"],
        "`info` takes no flag --minibtach",
    );
}

#[test]
fn serve_rejects_a_zero_max_batch_or_request_count() {
    assert_usage_error(
        &["serve", "--smoke", "--no-store", "--max-batch", "0"],
        "--max-batch and --requests must be at least 1",
    );
    assert_usage_error(
        &["serve", "--smoke", "--no-store", "--requests", "0"],
        "--max-batch and --requests must be at least 1",
    );
}

#[test]
fn an_unknown_experiment_is_rejected() {
    assert_usage_error(&["run", "nosuch"], "unknown experiment 'nosuch'");
}

#[test]
fn a_failing_experiment_writes_nothing() {
    // `report` needs figure4.csv in --out; an empty directory fails it.
    let dir = std::env::temp_dir().join(format!("lsv-run-empty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = lsvconv(&[
        "run",
        "report",
        "--no-store",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("figure4.csv"), "stderr: {err}");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(left.is_empty(), "left behind: {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
