//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <session|federation|backbone> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON object as the last line of standard output and exits 0
//! only when every operation of the run was correct.  `--trace 0` reports
//! the end-to-end metrics, `--trace 1` runs the same workload again with
//! spans on and reports the per-layer metrics (see README.md).

#![allow(clippy::disallowed_methods)] // a benchmark reads the wall clock and uses std locks

mod backbone;
mod federation;
mod layers;
mod report;
mod session;
mod timing;
mod trace;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use timing::{median, percentile, Phase, SetupTime};
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload <session|federation|backbone> --seed <n> --seconds <s> --trace <0|1>";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "session" => session::run(&args),
        "federation" => federation::run(&args),
        "backbone" => backbone::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let line = report.render(if args.trace { PER_LAYER } else { END_TO_END });
    for problem in &report.broken {
        eprintln!("perfbench: {problem}");
    }
    if report.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed",
            report.failed, report.attempted
        );
    }
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Fills the end-to-end timing metrics from `phase` (normalized by the
/// host probe when `normalized`).
pub fn end_to_end(report: &mut Report, setup: SetupTime, phase: &Phase, normalized: bool) {
    report.set(
        "setup_s",
        if normalized {
            setup.normalized_s
        } else {
            setup.raw_s
        },
    );
    report.set("ops_per_s", phase.ops_per_s(normalized));
    report.set("step1_ms_p50", median(&phase.step(0, normalized)));
    report.set("step2_ms_p50", median(&phase.step(1, normalized)));
    report.set("step3_ms_p50", median(&phase.step(2, normalized)));
    let other = !normalized;
    eprintln!(
        "perfbench: {} samples; host.probe_us_p50 {:.2}, host.slow_share {:.2}; {} ops_per_s {:.3}, steps p50 {:.4} {:.4} {:.4}; setup_s {:.4}",
        phase.samples.len(),
        phase.probe.median_us(),
        phase.probe.slow_share(),
        if other { "normalized" } else { "raw" },
        phase.ops_per_s(other),
        median(&phase.step(0, other)),
        median(&phase.step(1, other)),
        median(&phase.step(2, other)),
        if other { setup.normalized_s } else { setup.raw_s },
    );
}

/// Per-layer metrics read from spans: (metric, span name, parent span name
/// or "" for any, whether to sum the spans of one iteration).
const SPAN_METRICS: &[(&str, &str, &str, bool)] = &[
    ("secure_client.connect_ms", "secure_connection", "", true),
    ("secure_client.login_ms", "secure_login", "", true),
    ("secure_client.send_ms", "secure_msg_peer", "", true),
    (
        "secure_client.receive_ms",
        "receive_secure_messages",
        "",
        true,
    ),
    ("client.publish_ms", "publish_advertisement", "", true),
    ("client.push_wait_ms", "wait_for_event", "", true),
    ("client.lookup_ms", "resolve_pipe_xml", "", true),
    ("plumtree.pump_ms_p50", "pump", "publish", false),
    ("broker.repair_tick_ms_p50", "tick", "", false),
];

/// The traced run: half of `--seconds` untraced (raw and host metrics, and
/// the baseline of `trace.overhead_pct`), then half with spans on.  Returns
/// the untraced phase and the outcomes of both halves.
pub fn traced<O>(
    args: &Args,
    report: &mut Report,
    setup: SetupTime,
    mut measure: impl FnMut(f64, &mut Tracer) -> (Phase, O),
) -> Result<(Phase, O, O), String> {
    let half = args.seconds / 2.0;
    let (untraced, first) = measure(half, &mut Tracer::new(false));
    let mut tracer = Tracer::new(true);
    let (traced, second) = measure(half, &mut tracer);

    report.set("raw.setup_s", setup.raw_s);
    report.set("raw.ops_per_s", untraced.ops_per_s(false));
    report.set("raw.step1_ms_p50", median(&untraced.step(0, false)));
    report.set(
        "raw.step1_ms_p90",
        percentile(&untraced.step(0, false), 0.9),
    );
    report.set("raw.step2_ms_p50", median(&untraced.step(1, false)));
    report.set(
        "raw.step2_ms_p90",
        percentile(&untraced.step(1, false), 0.9),
    );
    report.set("raw.step3_ms_p50", median(&untraced.step(2, false)));
    report.set(
        "tail.step1_ms_p90",
        percentile(&untraced.step(0, true), 0.9),
    );
    report.set(
        "tail.step2_ms_p90",
        percentile(&untraced.step(1, true), 0.9),
    );
    report.set("host.peak_rss_mb", timing::peak_rss_mb());
    report.set("host.probe_us_p50", untraced.probe.median_us());
    report.set("host.slow_share", untraced.probe.slow_share());
    let overhead = median(&traced.walls(true)) / median(&untraced.walls(true)) - 1.0;
    report.set("trace.overhead_pct", overhead * 100.0);
    report.set("trace.spans", tracer.len() as f64);
    for &(metric, name, parent, per_op) in SPAN_METRICS {
        let values = tracer.durations_ms(name, parent, per_op);
        if !values.is_empty() {
            report.set(metric, median(&values));
        }
    }

    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    let path = dir
        .join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tracer.len(),
        path.display()
    );
    Ok((untraced, first, second))
}
