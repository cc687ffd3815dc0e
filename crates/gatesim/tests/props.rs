//! Property-based tests: adder correctness over the full operand space,
//! stress-tracking invariants, and word-parallel partitioned stress
//! against a per-vector oracle.

use gatesim::adder::{LadnerFischerAdder, RippleCarryAdder};
use gatesim::blif::{self, fixtures};
use gatesim::error::Error;
use gatesim::netlist::{Netlist, NetlistBuilder};
use gatesim::passes::{self, accumulate_partition, PassConfig};
use gatesim::stress::StressTracker;
use gatesim::vectors::{evaluate_pair, SyntheticVector, VectorPair};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ladner_fischer_32_matches_u32_addition(a in any::<u32>(), b in any::<u32>(), cin in any::<bool>()) {
        let adder = LadnerFischerAdder::new(32);
        let (sum, cout) = adder.add(u64::from(a), u64::from(b), cin);
        let wide = u64::from(a) + u64::from(b) + u64::from(cin);
        prop_assert_eq!(sum, wide & 0xFFFF_FFFF);
        prop_assert_eq!(cout, wide >> 32 != 0);
    }

    #[test]
    fn ladner_fischer_64_matches_u64_addition(a in any::<u64>(), b in any::<u64>(), cin in any::<bool>()) {
        let adder = LadnerFischerAdder::new(64);
        let (sum, cout) = adder.add(a, b, cin);
        let (s1, c1) = a.overflowing_add(b);
        let (s2, c2) = s1.overflowing_add(u64::from(cin));
        prop_assert_eq!(sum, s2);
        prop_assert_eq!(cout, c1 || c2);
    }

    #[test]
    fn both_adders_agree(width in 1usize..=16, a in any::<u64>(), b in any::<u64>(), cin in any::<bool>()) {
        let mask = (1u64 << width) - 1;
        let (a, b) = (a & mask, b & mask);
        let lf = LadnerFischerAdder::new(width);
        let rca = RippleCarryAdder::new(width);
        prop_assert_eq!(lf.add(a, b, cin), rca.add(a, b, cin));
    }

    #[test]
    fn netlist_evaluation_is_pure(a in any::<bool>(), b in any::<bool>(), c in any::<bool>()) {
        let mut builder = NetlistBuilder::new();
        let x = builder.input();
        let y = builder.input();
        let z = builder.input();
        let g1 = builder.aoi21(x, y, z);
        let g2 = builder.xor2(g1, x);
        builder.mark_output(g2);
        let netlist = builder.finish();
        let v1 = netlist.evaluate(&[a, b, c]);
        let v2 = netlist.evaluate(&[a, b, c]);
        prop_assert_eq!(v1.get(g2), v2.get(g2));
        // And it matches the boolean formula.
        let expected = !((a && b) || c) ^ a;
        prop_assert_eq!(v1.get(g2), expected);
    }

    #[test]
    fn pair_stress_duties_are_quantized(i in 0usize..8, j in 0usize..8) {
        prop_assume!(i < j);
        let adder = LadnerFischerAdder::new(8);
        let pair = VectorPair {
            first: SyntheticVector::ALL[i],
            second: SyntheticVector::ALL[j],
        };
        let stress = evaluate_pair(&adder, pair);
        // Alternating two vectors can only give 0, 1/2 or 1.
        let f = stress.worst_narrow_duty.fraction();
        prop_assert!(
            (f - 0.0).abs() < 1e-12 || (f - 0.5).abs() < 1e-12 || (f - 1.0).abs() < 1e-12
        );
        prop_assert!((0.0..=1.0).contains(&stress.narrow_fully_stressed));
    }

    #[test]
    fn stress_tracker_observes_all_time(durations in prop::collection::vec(1u64..50, 1..20)) {
        let adder = LadnerFischerAdder::new(4);
        let mut tracker = StressTracker::new(adder.netlist());
        let mut total = 0;
        for (i, d) in durations.iter().enumerate() {
            let v = SyntheticVector::ALL[i % 8];
            let (a, b, cin) = v.operands(4);
            tracker.apply(adder.netlist(), &adder.input_assignment(a, b, cin), *d);
            total += d;
        }
        prop_assert_eq!(tracker.observed_time(), total);
        for (_, duty) in tracker.duties() {
            prop_assert!((0.0..=1.0).contains(&duty.fraction()));
        }
    }
}

/// The bundled multiplier and decoder plus a 16-bit adder exported to
/// BLIF and read back: the three sources the netlist study ages.
fn study_fixtures() -> Vec<Netlist> {
    let adder = blif::export(LadnerFischerAdder::new(16).netlist(), "lf16");
    [fixtures::MULTIPLIER, fixtures::DECODER, adder.as_str()]
        .iter()
        .map(|text| blif::parse(text).expect("fixture parses").into_netlist())
        .collect()
}

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Durations exercised per campaign: all-equal at each edge value (0, the
/// unit, the stimulus's maximum 7, a 41-bit span), then blocks mixing
/// those values, then arbitrary 41-bit durations.
const EDGE_DURATIONS: [u64; 4] = [0, 1, 7, 1 << 40];
const DURATION_MODES: usize = EDGE_DURATIONS.len() + 2;

fn duration(mode: usize, seed: u64, j: usize) -> u64 {
    let r = mix(seed ^ 0xD0A7 ^ (j as u64) << 20);
    match mode {
        m if m < EDGE_DURATIONS.len() => EDGE_DURATIONS[m],
        m if m == EDGE_DURATIONS.len() => EDGE_DURATIONS[r as usize % EDGE_DURATIONS.len()],
        _ => r & ((1 << 41) - 1),
    }
}

fn campaign(inputs: usize, len: usize, mode: usize, seed: u64) -> Vec<(Vec<bool>, u64)> {
    (0..len)
        .map(|j| {
            let bits = (0..inputs)
                .map(|i| mix(seed ^ (j as u64) << 32 ^ i as u64) & 1 == 1)
                .collect();
            (bits, duration(mode, seed, j))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every partition cell's counters equal the plain per-vector sum:
    /// one `evaluate` per vector, `+= duration` for each owned transistor
    /// whose driving net is at "0". Campaign lengths straddle the 64-lane
    /// blocks; durations cover zero, one plane, three planes and 41.
    #[test]
    fn accumulate_partition_matches_a_per_vector_oracle(seed in any::<u64>()) {
        for netlist in study_fixtures() {
            for len in [0usize, 1, 63, 64, 65, 130] {
                for mode in 0..DURATION_MODES {
                    let vectors = campaign(netlist.inputs().len(), len, mode, seed);
                    let compiled_for = |partitions| {
                        let config = PassConfig { partitions, seed, ..PassConfig::default() };
                        passes::compile(netlist.clone(), &config).expect("compiles")
                    };
                    let base = compiled_for(1);
                    let mut oracle = vec![0u64; base.table.len()];
                    let mut total = 0u64;
                    for (assignment, duration) in &vectors {
                        let values = base.netlist.evaluate(assignment);
                        for (flat, pmos) in base.table.transistors().iter().enumerate() {
                            if !values.get(pmos.driven_by) {
                                oracle[flat] += duration;
                            }
                        }
                        total += duration;
                    }
                    for parts in 1..=5 {
                        let compiled = compiled_for(parts);
                        for part in 0..parts {
                            let cell = accumulate_partition(
                                &compiled.netlist, &compiled.table, &compiled.partition,
                                part, &vectors,
                            ).expect("arity matches");
                            let expected: Vec<u64> = compiled.table.transistors().iter()
                                .zip(&oracle)
                                .filter(|(t, _)| compiled.partition.part_of(t.gate) == part)
                                .map(|(_, &z)| z)
                                .collect();
                            prop_assert_eq!(cell.part, part);
                            prop_assert_eq!(cell.total_time, total);
                            prop_assert_eq!(
                                &cell.zero_time, &expected,
                                "len {} mode {} parts {} part {}", len, mode, parts, part
                            );
                        }
                    }
                }
            }
        }
    }

    /// A wrong-arity vector anywhere in the campaign (mid-block included)
    /// fails the cell with the error `try_evaluate` gives for the first
    /// such vector, even when a later one is wrong in another way.
    #[test]
    fn accumulate_partition_rejects_the_first_bad_vector(
        bad in 0usize..129,
        short in any::<bool>(),
        seed in any::<u64>(),
    ) {
        for netlist in study_fixtures() {
            let inputs = netlist.inputs().len();
            let mut vectors = campaign(inputs, 130, 4, seed);
            vectors[bad].0 = vec![false; if short { inputs - 1 } else { inputs + 1 }];
            vectors[129].0 = vec![true; inputs + 2];
            let expected = netlist.try_evaluate(&vectors[bad].0).expect_err("bad arity");
            prop_assert!(matches!(expected, Error::InputArity { .. }), "{expected}");
            let compiled = passes::compile(netlist, &PassConfig::default()).expect("compiles");
            for part in 0..compiled.partition.count() {
                let err = accumulate_partition(
                    &compiled.netlist, &compiled.table, &compiled.partition, part, &vectors,
                ).expect_err("bad vector is rejected");
                prop_assert_eq!(&err, &expected);
            }
        }
    }
}
