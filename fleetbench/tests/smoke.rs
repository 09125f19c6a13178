//! Smoke test: tiny instances of every workload print every metric that
//! `BENCHMARK.json` names and pass the digest and cross checks.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["mixed", "steady", "storm"];

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fleetbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn run_tiny(workload: &str, seed: &str, trace: &str) -> String {
    let (ok, stdout) = run(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0",
        "--trace",
        trace,
        "--devices",
        "24",
    ]);
    assert!(ok, "{workload} --trace {trace} exited non-zero:\n{stdout}");
    stdout
}

/// The metric names `BENCHMARK.json` lists under `section`.
fn benchmark_names(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

/// The metric names in the result line, in order.
fn printed_names(result: &str) -> Vec<String> {
    let metrics = &result[result.find("\"metrics\"").expect("metrics key")..];
    let chunks: Vec<&str> = metrics.split("{\"value\"").collect();
    // Each chunk but the last ends with the next metric's `"name": `.
    chunks[..chunks.len() - 1]
        .iter()
        .filter_map(|chunk| {
            let end = chunk.rfind("\": ")?;
            let start = chunk[..end].rfind('"')? + 1;
            Some(chunk[start..end].to_string())
        })
        .collect()
}

fn assert_clean(stdout: &str) -> &str {
    let result = stdout.lines().last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": 24, \"failed\": 0, "),
        "{stdout}"
    );
    assert!(stdout.contains("# cross check: 24 of 24"), "{stdout}");
    result
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let mut expected = benchmark_names(section);
        expected.sort();
        assert!(!expected.is_empty());
        for workload in WORKLOADS {
            let stdout = run_tiny(workload, "2011", trace);
            let result = assert_clean(&stdout);
            assert!(stdout.contains(": matches the pin"), "{stdout}");
            let mut printed = printed_names(result);
            printed.sort();
            assert_eq!(printed, expected, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn a_held_out_seed_skips_the_pin_and_keeps_the_cross_check() {
    for workload in WORKLOADS {
        let stdout = run_tiny(workload, "77", "0");
        assert_clean(&stdout);
        assert!(stdout.contains("not pinned"), "{stdout}");
    }
}

#[test]
fn the_simulated_counts_repeat_exactly() {
    let sim = |stdout: String| -> Vec<String> {
        stdout
            .lines()
            .filter(|l| l.starts_with("sim."))
            .map(str::to_string)
            .collect()
    };
    let a = sim(run_tiny("storm", "5", "1"));
    assert_eq!(a.len(), 9);
    assert_eq!(a, sim(run_tiny("storm", "5", "1")));
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "1"][..],
        &["--workload", "mixed", "--trace", "2"][..],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok, "{args:?}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
    }
}
