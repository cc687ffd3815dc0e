//! In-process per-layer probe of the host-time benchmark.
//!
//! The benchmark drives the shipped `penelope-bench` binaries through
//! their command line; this probe complements it by timing calls into
//! each layer's narrowest public entry points on a workload's own inputs:
//!
//! - `tracegen`: `TraceSpec::generate(..).count()`;
//! - `uarch`: `Pipeline::new` + `Pipeline::run` with `NoHooks` over
//!   pre-generated uops, with the simulated counts read from `parts`;
//! - `hooks`: the same uops through `processor::build(..)`'s pipeline and
//!   Penelope hook chain;
//! - `telemetry`: the `NoHooks` run under an installed recorder
//!   (`recorder::install` + `obs::with_recording`), and the time to turn
//!   the collector into a validated, encoded report (`build_report`);
//! - `gatesim`: `blif::parse` and `passes::compile` of a bundled fixture.
//!
//! Every measurement repeats until its share of `--budget` seconds is
//! spent (at least three rounds) and reports the median round. The
//! simulated counts come out with the timings so the caller can check them
//! against the program's own report before trusting a number.
//!
//! Usage:
//!
//! ```text
//! perfbench-probe pipeline --scale <quick|standard> [--fleet-profile] [--budget <s>]
//! perfbench-probe gatesim --fixture <name> --seed <n> [--budget <s>]
//! ```
//!
//! `--fleet-profile` probes the fleet experiment's profile phase instead of a
//! scale's workload: one pass per suite, each through a fresh pipeline
//! behind the fleet's shared 256KB 8-way L2. Output is one JSON object on
//! stdout; failures print on stderr and exit 1.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use gatesim::{blif, passes};
use penelope::experiments::Scale;
use penelope::netlist_study::NetlistSource;
use penelope::obs::with_recording;
use penelope::processor::{self, PenelopeConfig};
use penelope_telemetry::recorder::{self, Settings};
use penelope_telemetry::{build_report, validate_report, Json};
use tracegen::suite::Suite;
use tracegen::trace::{TraceSpec, Workload};
use tracegen::uop::Uop;
use uarch::cache::{CacheConfig, CacheStats};
use uarch::pipeline::{NoHooks, Pipeline, PipelineConfig, RunResult};

/// One fresh-pipeline run over a list of traces, as the experiments run it:
/// the pipeline (and so every modelled cache) starts empty, and the
/// traces run back to back through it.
struct Pass {
    config: PipelineConfig,
    specs: Vec<TraceSpec>,
    uops_per_trace: usize,
}

/// What one pass simulated: exact, and identical on every round.
#[derive(Debug, Clone, PartialEq, Default)]
struct Counts {
    cycles: u64,
    uops: u64,
    dl0_accesses: u64,
    dl0_hits: u64,
    dtlb_accesses: u64,
    dtlb_hits: u64,
}

impl Counts {
    fn read(result: &RunResult, pipe: &Pipeline) -> Self {
        let dl0: &CacheStats = pipe.parts.dl0.stats();
        let dtlb: &CacheStats = pipe.parts.dtlb.stats();
        Counts {
            cycles: result.cycles,
            uops: result.uops,
            dl0_accesses: dl0.accesses,
            dl0_hits: dl0.hits,
            dtlb_accesses: dtlb.accesses,
            dtlb_hits: dtlb.hits,
        }
    }

    fn add(&mut self, other: &Counts) {
        self.cycles += other.cycles;
        self.uops += other.uops;
        self.dl0_accesses += other.dl0_accesses;
        self.dl0_hits += other.dl0_hits;
        self.dtlb_accesses += other.dtlb_accesses;
        self.dtlb_hits += other.dtlb_hits;
    }
}

/// Runs pre-generated traces back to back through `pipe`, merging the
/// per-trace results like the experiments do.
fn run_traces(
    pipe: &mut Pipeline,
    traces: &[Vec<Uop>],
    hooks: &mut impl uarch::pipeline::Hooks,
) -> Counts {
    let mut total: Option<RunResult> = None;
    for uops in traces {
        let r = pipe.run(uops.iter().copied(), hooks);
        match &mut total {
            Some(t) => t.merge(&r),
            None => total = Some(r),
        }
    }
    let total = total.expect("every pass holds at least one trace");
    Counts::read(&total, pipe)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Repeats `round` (which returns its own measured seconds) for at least
/// three rounds and until `budget` seconds have gone by; returns the
/// median round.
fn timed_rounds(budget: f64, mut round: impl FnMut() -> f64) -> (f64, usize) {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed().as_secs_f64() < budget {
        samples.push(round());
    }
    let n = samples.len();
    (median(&mut samples), n)
}

fn seconds(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

fn pipeline_probe(passes: &[Pass], budget: f64) -> Result<Json, String> {
    let total_uops: usize = passes
        .iter()
        .map(|p| p.specs.len() * p.uops_per_trace)
        .sum();
    let per_uop_ns = |s: f64| s * 1e9 / total_uops as f64;

    // tracegen: generation alone, consumed without storing.
    let (tracegen_s, tracegen_rounds) = timed_rounds(budget * 0.1, || {
        seconds(|| {
            for pass in passes {
                for spec in &pass.specs {
                    black_box(spec.generate(pass.uops_per_trace).count());
                }
            }
        })
    });

    let traces: Vec<Vec<Vec<Uop>>> = passes
        .iter()
        .map(|p| {
            p.specs
                .iter()
                .map(|s| s.generate(p.uops_per_trace).collect())
                .collect()
        })
        .collect();

    // The reference counts: one untimed NoHooks run per pass.
    let reference: Vec<Counts> = passes
        .iter()
        .zip(&traces)
        .map(|(p, t)| run_traces(&mut Pipeline::new(p.config), t, &mut NoHooks))
        .collect();
    let check = |what: &str, counts: &[Counts]| -> Result<(), String> {
        if counts
            .iter()
            .map(|c| (c.cycles, c.uops))
            .eq(reference.iter().map(|c| (c.cycles, c.uops)))
        {
            Ok(())
        } else {
            Err(format!(
                "{what} run simulated different cycles/uops than the NoHooks reference"
            ))
        }
    };
    let protected_configs: Vec<PenelopeConfig> = passes
        .iter()
        .map(|p| PenelopeConfig {
            pipeline: p.config,
            ..PenelopeConfig::default()
        })
        .collect();

    // The three pipeline variants interleave round by round, so a slow
    // stretch of the host hits all of them alike and the differences
    // (hooks, telemetry) stay meaningful.
    let mut bare = Vec::new();
    let mut recorded = Vec::new();
    let mut protected = Vec::new();
    let mut collector = None;
    let mut failure: Option<String> = None;
    let started = Instant::now();
    while bare.len() < 3 || started.elapsed().as_secs_f64() < budget * 0.8 {
        let mut counts = Vec::new();
        bare.push(seconds(|| {
            for (p, t) in passes.iter().zip(&traces) {
                counts.push(run_traces(&mut Pipeline::new(p.config), t, &mut NoHooks));
            }
        }));
        if counts != reference {
            failure.get_or_insert_with(|| "NoHooks counts changed between rounds".into());
        }

        let mut counts = Vec::new();
        recorded.push(seconds(|| {
            recorder::install(Settings::default());
            for (p, t) in passes.iter().zip(&traces) {
                let mut pipe = Pipeline::new(p.config);
                let c = with_recording(&mut NoHooks, |mut h| run_traces(&mut pipe, t, &mut h));
                recorder::record_run(c.cycles, c.uops);
                counts.push(c);
            }
            collector = recorder::finish();
        }));
        if let Err(e) = check("recorded", &counts) {
            failure.get_or_insert(e);
        }

        let mut counts = Vec::new();
        let mut built = Ok(());
        protected.push(seconds(|| {
            for (config, t) in protected_configs.iter().zip(&traces) {
                match processor::build(config) {
                    Ok((mut pipe, mut hooks)) => counts.push(run_traces(&mut pipe, t, &mut hooks)),
                    Err(e) => built = Err(format!("processor::build failed: {e}")),
                }
            }
        }));
        built?;
        if counts
            .iter()
            .map(|c| c.uops)
            .ne(reference.iter().map(|c| c.uops))
        {
            failure.get_or_insert_with(|| "protected run retired a different uop count".into());
        }
    }
    if let Some(failure) = failure {
        return Err(failure);
    }
    let rounds = bare.len();
    let bare_s = median(&mut bare);
    let recorded_s = median(&mut recorded);
    let protected_s = median(&mut protected);

    // telemetry: collector -> validated, encoded report.
    let collector = collector.ok_or("the recorder returned no collector")?;
    let mut report_bytes = 0usize;
    let mut invalid = None;
    let (report_s, _) = timed_rounds(budget * 0.1, || {
        seconds(|| {
            let report = build_report(&collector);
            if let Err(e) = validate_report(&report) {
                invalid = Some(e);
            }
            report_bytes = black_box(report.encode()).len();
        })
    });
    if let Some(e) = invalid {
        return Err(format!("probe report failed validation: {e}"));
    }

    let mut total = Counts::default();
    for c in &reference {
        total.add(c);
    }
    let mut out = Json::object();
    out.set("uops", Json::UInt(total.uops));
    out.set("cycles", Json::UInt(total.cycles));
    out.set(
        "pass_cycles",
        Json::Array(reference.iter().map(|c| Json::UInt(c.cycles)).collect()),
    );
    out.set(
        "pass_uops",
        Json::Array(reference.iter().map(|c| Json::UInt(c.uops)).collect()),
    );
    out.set("dl0_accesses", Json::UInt(total.dl0_accesses));
    out.set("dl0_hits", Json::UInt(total.dl0_hits));
    out.set("dtlb_accesses", Json::UInt(total.dtlb_accesses));
    out.set("dtlb_hits", Json::UInt(total.dtlb_hits));
    out.set("distinct_uops", Json::UInt(total_uops as u64));
    out.set("tracegen_ns_per_uop", Json::Float(per_uop_ns(tracegen_s)));
    out.set("tracegen_rounds", Json::UInt(tracegen_rounds as u64));
    out.set("bare_ns_per_uop", Json::Float(per_uop_ns(bare_s)));
    out.set(
        "bare_ns_per_cycle",
        Json::Float(bare_s * 1e9 / total.cycles as f64),
    );
    out.set("protected_ns_per_uop", Json::Float(per_uop_ns(protected_s)));
    out.set("recorded_ns_per_uop", Json::Float(per_uop_ns(recorded_s)));
    out.set("pipeline_rounds", Json::UInt(rounds as u64));
    out.set("report_s", Json::Float(report_s));
    out.set("report_bytes", Json::UInt(report_bytes as u64));
    Ok(out)
}

fn gatesim_probe(fixture: &str, seed: u64, budget: f64) -> Result<Json, String> {
    let text = NetlistSource::from_fixture_name(fixture)
        .map_err(|e| e.to_string())?
        .blif();
    // The netlist binary's `--seed` reseeds the partitioner too.
    let config = passes::PassConfig {
        seed,
        ..passes::PassConfig::default()
    };
    let mut failure = None;
    let (parse_s, rounds) = timed_rounds(budget / 2.0, || {
        seconds(|| {
            if let Err(e) = black_box(blif::parse(&text)) {
                failure = Some(e.to_string());
            }
        })
    });
    let model = blif::parse(&text).map_err(|e| e.to_string())?;
    let mut compiled = None;
    let (compile_s, _) = timed_rounds(budget / 2.0, || {
        let netlist = model.clone().into_netlist();
        seconds(|| match passes::compile(netlist, &config) {
            Ok(c) => compiled = Some(c),
            Err(e) => failure = Some(e.to_string()),
        })
    });
    if let Some(failure) = failure {
        return Err(failure);
    }
    let compiled = compiled.ok_or("compile never ran")?;
    let mut out = Json::object();
    out.set("gates", Json::UInt(compiled.netlist.gates().len() as u64));
    out.set("transistors", Json::UInt(compiled.table.len() as u64));
    out.set("parse_ms", Json::Float(parse_s * 1e3));
    out.set("compile_ms", Json::Float(compile_s * 1e3));
    out.set("rounds", Json::UInt(rounds as u64));
    Ok(out)
}

/// The fleet experiment's profile pipeline: the default core behind the
/// shared 256KB 8-way L2 (`penelope::fleet`).
fn fleet_profile_config() -> PipelineConfig {
    PipelineConfig {
        l2: Some(CacheConfig {
            size_bytes: 256 * 1024,
            ways: 8,
            line_bytes: 64,
        }),
        ..PipelineConfig::default()
    }
}

fn run(args: &[String]) -> Result<Json, String> {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let budget: f64 = flag("--budget")
        .unwrap_or("4")
        .parse()
        .map_err(|_| "--budget takes seconds")?;
    match args.first().map(String::as_str) {
        Some("pipeline") => {
            let scale = match flag("--scale") {
                Some("quick") => Scale::quick(),
                Some("standard") => Scale::standard(),
                other => return Err(format!("unknown --scale {other:?}")),
            };
            let passes: Vec<Pass> = if args.iter().any(|a| a == "--fleet-profile") {
                Suite::ALL
                    .iter()
                    .map(|&suite| Pass {
                        config: fleet_profile_config(),
                        specs: Workload::suite_sample(suite, scale.traces_per_suite.max(1))
                            .specs()
                            .to_vec(),
                        uops_per_trace: scale.uops_per_trace,
                    })
                    .collect()
            } else {
                vec![Pass {
                    config: PipelineConfig::default(),
                    specs: scale.workload().specs().to_vec(),
                    uops_per_trace: scale.uops_per_trace,
                }]
            };
            pipeline_probe(&passes, budget)
        }
        Some("gatesim") => {
            let fixture = flag("--fixture").ok_or("gatesim needs --fixture")?;
            let seed = flag("--seed")
                .ok_or("gatesim needs --seed")?
                .parse()
                .map_err(|_| "--seed takes an integer")?;
            gatesim_probe(fixture, seed, budget)
        }
        _ => Err("usage: perfbench-probe <pipeline|gatesim> [options]".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(json) => {
            println!("{}", json.encode());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            ExitCode::FAILURE
        }
    }
}
