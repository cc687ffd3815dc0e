//! Criterion benches for the trace-driven pipeline: baseline simulation
//! throughput, and the overhead added by each Penelope mechanism's hooks.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use penelope::obs::with_recording;
use penelope::processor::{build, PenelopeConfig};
use penelope::regfile_aware::RegfileIsvHooks;
use penelope::sched_aware::SchedulerHooks;
use penelope_telemetry::recorder::{self, Settings};
use tracegen::suite::Suite;
use tracegen::trace::TraceSpec;
use uarch::pipeline::{NoHooks, Pipeline, PipelineConfig};

const UOPS: usize = 10_000;

fn bench_pipeline(c: &mut Criterion) {
    let spec = TraceSpec::new(Suite::Multimedia, 0);

    let mut group = c.benchmark_group("pipeline/run_10k_uops");
    group.throughput(Throughput::Elements(UOPS as u64));

    group.bench_function("baseline", |b| {
        b.iter(|| {
            let mut pipe = Pipeline::new(PipelineConfig::default());
            black_box(pipe.run(spec.generate(UOPS), &mut NoHooks))
        })
    });
    group.bench_function("regfile_isv", |b| {
        b.iter(|| {
            let mut pipe = Pipeline::new(PipelineConfig::default());
            let mut hooks = RegfileIsvHooks::new(1024);
            black_box(pipe.run(spec.generate(UOPS), &mut hooks))
        })
    });
    group.bench_function("scheduler_balancer", |b| {
        b.iter(|| {
            let mut pipe = Pipeline::new(PipelineConfig::default());
            let mut hooks = SchedulerHooks::paper_default(1024);
            black_box(pipe.run(spec.generate(UOPS), &mut hooks))
        })
    });
    group.bench_function("penelope_full", |b| {
        b.iter(|| {
            let config = PenelopeConfig::default();
            let (mut pipe, mut hooks) = build(&config).expect("valid config");
            black_box(pipe.run(spec.generate(UOPS), &mut hooks))
        })
    });
    // The zero-cost-when-disabled contract: with no recorder installed,
    // `with_recording` must run the same code as `penelope_full` above.
    group.bench_function("telemetry_disabled", |b| {
        let _ = recorder::finish();
        b.iter(|| {
            let config = PenelopeConfig::default();
            let (mut pipe, mut hooks) = build(&config).expect("valid config");
            black_box(with_recording(&mut hooks, |mut h| {
                pipe.run(spec.generate(UOPS), &mut h)
            }))
        })
    });
    // Same contract for the tracing layer: with no recorder installed a
    // `span!` site is one thread-local is-some check, and a dynamic-name
    // site must not even format its arguments.
    group.bench_function("spans_disabled", |b| {
        let _ = recorder::finish();
        b.iter(|| {
            let _run = penelope_telemetry::span!("bench: run {}", UOPS);
            let config = PenelopeConfig::default();
            let (mut pipe, mut hooks) = build(&config).expect("valid config");
            black_box(with_recording(&mut hooks, |mut h| {
                let _inner = penelope_telemetry::span!("bench: pipeline");
                pipe.run(spec.generate(UOPS), &mut h)
            }))
        })
    });
    // And the price when it is on, at the default sampling period.
    group.bench_function("telemetry_sampling", |b| {
        b.iter(|| {
            recorder::install(Settings::default());
            let config = PenelopeConfig::default();
            let (mut pipe, mut hooks) = build(&config).expect("valid config");
            let result = black_box(with_recording(&mut hooks, |mut h| {
                pipe.run(spec.generate(UOPS), &mut h)
            }));
            let _ = black_box(recorder::finish());
            result
        })
    });
    group.finish();
}

/// The bare pipeline core: one `Pipeline::run` with no hooks.
fn bench_core(c: &mut Criterion) {
    let spec = TraceSpec::new(Suite::Multimedia, 0);

    let mut group = c.benchmark_group("pipeline/core_10k_uops");
    group.throughput(Throughput::Elements(UOPS as u64));
    group.bench_function("run", |b| {
        b.iter(|| {
            let mut pipe = Pipeline::new(PipelineConfig::default());
            black_box(pipe.run(spec.generate(UOPS), &mut NoHooks))
        })
    });
    group.finish();
}

fn bench_tracegen(c: &mut Criterion) {
    let spec = TraceSpec::new(Suite::Server, 0);
    let mut group = c.benchmark_group("tracegen/generate_10k_uops");
    group.throughput(Throughput::Elements(UOPS as u64));
    group.bench_function("server", |b| {
        b.iter(|| black_box(spec.generate(UOPS).count()))
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_core, bench_tracegen);
criterion_main!(benches);
