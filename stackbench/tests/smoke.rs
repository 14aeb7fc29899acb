//! Self-tests of the benchmark: a tiny-n run of every workload through
//! the benchmark binary must emit every metric `BENCHMARK.json` names,
//! with its unit, and a deliberately corrupted answer must trip the
//! oracle gate.

use planar_serve::json::Json;
use std::path::PathBuf;
use std::process::Command;

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run the benchmark in its own scratch directory; returns the exit code
/// and the parsed last stdout line.
fn run(workload: &str, trace: u8, extra: &[&str]) -> (i32, Json) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{trace}-{}", extra.len()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_stackbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string(), "--n", "3000"])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).unwrap_or_else(|e| {
        panic!(
            "last line is not JSON ({e}): {last}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.code().unwrap_or(-1), result)
}

fn check_workload(workload: &str) {
    for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
        let (code, result) = run(workload, trace, &[]);
        assert_eq!(code, 0, "{workload} trace {trace} exit code");
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
        let metrics = result.get("metrics").expect("metrics");
        let declared = declared(list);
        for (name, unit) in &declared {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: {name} missing"));
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{name}"
            );
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
        }
        if let Json::Obj(all) = metrics {
            assert_eq!(all.len(), declared.len(), "{workload}: undeclared metrics");
        }
    }
}

#[test]
fn ineq_t1_emits_every_metric() {
    check_workload("ineq_t1");
}

#[test]
fn topk_t3_emits_every_metric() {
    check_workload("topk_t3");
}

#[test]
fn mixed_rw_emits_every_metric() {
    check_workload("mixed_rw");
}

#[test]
fn corrupted_answer_trips_the_gate() {
    for workload in ["ineq_t1", "topk_t3"] {
        let (code, result) = run(workload, 0, &["--corrupt-gate"]);
        assert_ne!(code, 0, "{workload}: a corrupted answer must fail the run");
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    }
}
