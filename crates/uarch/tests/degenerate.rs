//! Degenerate-input regression tests: empty, single-uop and maximally
//! stalled traces must produce finite statistics, and zero-span residency
//! windows must report duty 0.0 instead of NaN.
//!
//! These pin the `total_time == 0` / `span == 0` guards in
//! `uarch::bitstats` — a fleet profiling pass over a trivial workload must
//! never leak NaN into the aging model.

use tracegen::suite::Suite;
use tracegen::trace::TraceSpec;
use tracegen::uop::{Uop, UopClass};
use uarch::pipeline::{NoHooks, Pipeline, PipelineConfig, RunResult};

fn pipeline() -> Pipeline {
    Pipeline::try_new(PipelineConfig::default()).expect("default configuration is valid")
}

/// Every duty readout a driver consumes after a run, asserted finite and
/// in range.
fn assert_finite_duties(pipe: &mut Pipeline, result: &RunResult) {
    assert!(result.cpi().is_finite(), "cpi must be finite: {result:?}");
    let now = pipe.now();
    pipe.parts.int_rf.sync(now);
    pipe.parts.fp_rf.sync(now);
    pipe.parts.sched.sync(now);
    for (name, bias) in [
        ("int_rf", pipe.parts.int_rf.residency().biases()),
        ("fp_rf", pipe.parts.fp_rf.residency().biases()),
    ] {
        for (bit, duty) in bias.iter().enumerate() {
            let f = duty.fraction();
            assert!(
                f.is_finite() && (0.0..=1.0).contains(&f),
                "{name} bit {bit}: bias {f} out of range"
            );
        }
    }
    for rf in [&pipe.parts.int_rf, &pipe.parts.fp_rf] {
        let worst = rf.residency().worst_cell_duty().fraction();
        assert!(
            worst.is_finite() && (0.0..=1.0).contains(&worst),
            "worst cell duty {worst} out of range"
        );
    }
    let occupancy = pipe.parts.sched.occupancy_at(now);
    assert!(
        occupancy.is_finite() && (0.0..=1.0).contains(&occupancy),
        "scheduler occupancy {occupancy} out of range"
    );
}

#[test]
fn a_fresh_pipeline_reports_zero_duty_not_nan() {
    // Zero observed span: no run at all. Every bias must be exactly 0.0
    // (the documented degenerate-window answer), never NaN from 0/0.
    let mut pipe = pipeline();
    let now = pipe.now();
    pipe.parts.int_rf.sync(now);
    assert_eq!(pipe.parts.int_rf.residency().total_time(), 0);
    for duty in pipe.parts.int_rf.residency().biases() {
        assert_eq!(duty.fraction(), 0.0, "zero-span bias must be 0.0");
    }
    assert_eq!(pipe.parts.sched.occupancy_at(now), 0.0);
}

#[test]
fn an_empty_trace_runs_cleanly_through_the_event_driven_loop() {
    let mut pipe = pipeline();
    let result = pipe.run(std::iter::empty(), &mut NoHooks);
    assert_eq!(result.uops, 0);
    assert_eq!(result.cpi(), 0.0, "cpi of an empty run is defined as 0.0");
    assert_finite_duties(&mut pipe, &result);
}

#[test]
fn a_single_uop_trace_runs_cleanly() {
    // All drain, no steady state.
    let mut pipe = pipeline();
    let result = pipe.run(TraceSpec::new(Suite::Office, 0).generate(1), &mut NoHooks);
    assert_eq!(result.uops, 1);
    assert_finite_duties(&mut pipe, &result);
}

#[test]
fn a_maximal_stall_chain_retires_every_uop() {
    // A serial dependency chain at the longest execution latency (FpMul):
    // every uop waits on the previous one's result, so the run is mostly
    // idle cycles between writebacks.
    const LEN: u64 = 64;
    let trace = (0..LEN).map(|i| {
        let mut u = Uop::int_alu(1, 1, 2);
        u.class = UopClass::FpMul;
        u.port = UopClass::FpMul.port();
        u.latency = UopClass::FpMul.latency();
        u.pc = i * 4;
        u
    });
    let mut pipe = pipeline();
    let result = pipe.run(trace, &mut NoHooks);
    assert_eq!(result.uops, LEN);
    let latency = u64::from(UopClass::FpMul.latency());
    assert!(
        result.cycles >= LEN * latency,
        "{} cycles for a {LEN}-uop chain at latency {latency}",
        result.cycles
    );
    assert_finite_duties(&mut pipe, &result);
}
