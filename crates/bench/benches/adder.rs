//! Criterion benches for the gate-level substrate: adder netlist
//! evaluation throughput, the Figure 4 pair search, and the netlist
//! study's partitioned stress accumulation.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use gatesim::adder::{LadnerFischerAdder, RippleCarryAdder};
use gatesim::blif::{self, fixtures};
use gatesim::passes::{self, accumulate_partition, PassConfig};
use gatesim::stress::StressTracker;
use gatesim::vectors::{evaluate_all_pairs, SyntheticVector};
use penelope::netlist_study::stimulus;

fn bench_adders(c: &mut Criterion) {
    let lf = LadnerFischerAdder::new(32);
    let rca = RippleCarryAdder::new(32);

    let mut group = c.benchmark_group("adder/add32");
    group.bench_function("ladner_fischer", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(0x9E37_79B9);
            let (s, _) = lf.add(
                black_box(x & 0xFFFF_FFFF),
                black_box(!x & 0xFFFF_FFFF),
                false,
            );
            black_box(s)
        })
    });
    group.bench_function("ripple_carry", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(0x9E37_79B9);
            let (s, _) = rca.add(
                black_box(x & 0xFFFF_FFFF),
                black_box(!x & 0xFFFF_FFFF),
                false,
            );
            black_box(s)
        })
    });
    group.finish();
}

fn bench_stress(c: &mut Criterion) {
    let lf = LadnerFischerAdder::new(32);
    c.bench_function("adder/stress_apply", |b| {
        let mut tracker = StressTracker::new(lf.netlist());
        let (a, bb, cin) = SyntheticVector::V8.operands(32);
        let assignment = lf.input_assignment(a, bb, cin);
        b.iter(|| tracker.apply(lf.netlist(), black_box(&assignment), 1))
    });
    // The whole Figure 4 search (28 pairs).
    c.bench_function("adder/fig4_pair_search", |b| {
        b.iter(|| black_box(evaluate_all_pairs(&lf)))
    });
}

/// Every partition cell of the multiplier fixture over one 4,096-vector
/// stimulus campaign, at 1 and 4 partitions (the study's default).
fn bench_accumulate_partition(c: &mut Criterion) {
    const VECTORS: usize = 4096;
    let model = blif::parse(fixtures::MULTIPLIER).expect("bundled fixture parses");
    let mut group = c.benchmark_group("netlist/accumulate_partition");
    group.throughput(Throughput::Elements(VECTORS as u64));
    for partitions in [1usize, 4] {
        let config = PassConfig {
            partitions,
            ..PassConfig::default()
        };
        let compiled = passes::compile(model.clone().into_netlist(), &config).expect("compiles");
        let campaign = stimulus(compiled.netlist.inputs().len(), VECTORS, 7);
        group.bench_function(&format!("partitions/{partitions}"), |b| {
            b.iter(|| {
                for part in 0..partitions {
                    let cell = accumulate_partition(
                        &compiled.netlist,
                        &compiled.table,
                        &compiled.partition,
                        part,
                        black_box(&campaign),
                    )
                    .expect("stimulus matches the netlist's inputs");
                    black_box(cell);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_adders,
    bench_stress,
    bench_accumulate_partition
);
criterion_main!(benches);
