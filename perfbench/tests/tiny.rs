//! A tiny-scale run of every workload passes the correctness gate and
//! emits exactly the metrics `BENCHMARK.json` names, each with its unit.

use std::path::PathBuf;
use std::process::{Command, Output};
use support::json::{parse, Json};

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match j.get(key) {
        Some(Json::Arr(v)) => v,
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn field<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing {key} in {j:?}"))
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run perfbench")
}

fn run_tiny(workload: &str, trace: &str) -> Json {
    let spans: PathBuf = [
        env!("CARGO_TARGET_TMPDIR"),
        &format!("spans-{workload}.jsonl"),
    ]
    .iter()
    .collect();
    let out = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "11",
        "--seconds",
        "0.5",
        "--trace",
        trace,
        "--scale",
        "tiny",
        "--spans-out",
        spans.to_str().expect("utf-8 path"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    parse(last).unwrap_or_else(|e| panic!("result is not JSON ({e:?}): {last}"))
}

fn check_run(result: &Json, expected: &[Json]) {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{result:?}");
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{result:?}"
    );
    assert!(result
        .get("attempted")
        .and_then(Json::as_u64)
        .is_some_and(|a| a >= 1));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object in {result:?}");
    };
    let names: Vec<&str> = expected.iter().map(|m| field(m, "name")).collect();
    let emitted: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(
        emitted, sorted,
        "emitted metrics differ from BENCHMARK.json"
    );
    for m in expected {
        let got = &metrics[field(m, "name")];
        assert_eq!(
            field(got, "unit"),
            field(m, "unit"),
            "unit of {}",
            field(m, "name")
        );
        let value = got.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{}: {got:?}",
            field(m, "name")
        );
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let c = contract();
    for w in list(&c, "workloads") {
        check_run(&run_tiny(field(w, "name"), "0"), list(&c, "end_to_end"));
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    let c = contract();
    for w in list(&c, "workloads") {
        check_run(&run_tiny(field(w, "name"), "1"), list(&c, "per_layer"));
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "mouse_flood",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &["--workload", "mouse_flood", "--seed", "1", "--seconds", "1"],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
