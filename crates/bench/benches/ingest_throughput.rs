//! E6 — broker ingest throughput: the ingress verify pool and the
//! verified-signature cache against the classic single-thread loop, on a
//! verification-heavy signed-publish workload (broker_fanout-style sweep:
//! clients × verify workers × cache on/off).
//!
//! Before the Criterion timings, the bench runs the full sweep once and
//! emits the machine-readable `BENCH_6.json` at the workspace root — the
//! second point of the repo's recorded performance trajectory.  The
//! headline acceptance numbers live there, next to the host's core count:
//! pipelined+cached throughput vs the inline cached row, vs the
//! single-thread uncached baseline (≥ 2×), and the gossip/repair-phase
//! cache hit rate (> 50%).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jxta_bench::{
    format_ingest_report, measure_ingest_throughput, summarize_ingest, write_bench6_json,
    ExperimentConfig,
};

fn run_sweep() {
    let config = ExperimentConfig::default();
    let mut rows = Vec::new();
    for clients in [8usize, 16] {
        for verify_workers in [0usize, 4] {
            for cache in [false, true] {
                rows.push(measure_ingest_throughput(
                    &config,
                    clients,
                    verify_workers,
                    cache,
                    160,
                ));
            }
        }
    }
    let result = summarize_ingest(rows);
    eprintln!("{}", format_ingest_report(&result));
    match write_bench6_json(&result) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(error) => eprintln!("could not write BENCH_6.json: {error}"),
    }
}

fn bench_ingest_throughput(c: &mut Criterion) {
    run_sweep();

    // Criterion timings over a smaller configuration (each iteration builds
    // a fresh 2-broker deployment, so the samples are deliberately few).
    let config = ExperimentConfig::quick();
    let mut group = c.benchmark_group("ingest_throughput");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for (verify_workers, cache, label) in [
        (0usize, false, "single-thread"),
        (0, true, "cached"),
        (4, true, "pipelined-cached"),
    ] {
        group.bench_with_input(BenchmarkId::new(label, 4), &(), |b, ()| {
            b.iter(|| measure_ingest_throughput(&config, 4, verify_workers, cache, 4).msgs_per_sec)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ingest_throughput);
criterion_main!(benches);
