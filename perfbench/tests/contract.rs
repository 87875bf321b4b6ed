//! Runs the built benchmark binary: count metrics repeat exactly at a fixed
//! seed, and each mode prints exactly the metrics `BENCHMARK.json` lists.

use std::process::Command;

/// Runs one short benchmark and returns its metrics as (name, value).
fn run(workload: &str, seed: u64, trace: bool) -> Vec<(String, f64)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    assert!(line.starts_with("{\"correct\": true,"), "{line}");
    let metrics = &line[line.find("\"metrics\": {").expect("metrics") + 12..];
    metrics
        .split("}, \"")
        .map(|entry| {
            let entry = entry.trim_start_matches('"');
            let (name, rest) = entry
                .split_once("\": {\"value\": ")
                .expect("name and value");
            let value = rest
                .split(',')
                .next()
                .expect("value")
                .parse()
                .expect("a number");
            (name.to_string(), value)
        })
        .collect()
}

fn value(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no {name}"))
        .1
}

#[test]
fn counts_repeat_at_a_fixed_seed() {
    let cases: [(&str, &[&str]); 3] = [
        (
            "backbone",
            &["msgs_per_op", "kb_per_op", "push_coverage", "ok_ratio"],
        ),
        ("session", &["msgs_per_op", "kb_per_op"]),
        ("federation", &["msgs_per_op", "kb_per_op"]),
    ];
    for (workload, counts) in cases {
        let (first, second) = (run(workload, 7, false), run(workload, 7, false));
        for name in counts {
            assert_eq!(
                value(&first, name),
                value(&second, name),
                "{workload} {name}"
            );
        }
    }
}

/// The metric names listed under `key` in BENCHMARK.json.
fn listed(key: &str) -> Vec<String> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let section = &json[start..];
    let section = &section[..section.find(']').expect("section ends")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn modes_print_exactly_the_listed_metrics() {
    let names =
        |metrics: Vec<(String, f64)>| metrics.into_iter().map(|(n, _)| n).collect::<Vec<_>>();
    assert_eq!(names(run("session", 1, false)), listed("end_to_end"));
    assert_eq!(names(run("session", 1, true)), listed("per_layer"));
}
