//! Differential property suite for the word-parallel residency kernel.
//!
//! `BitResidency` (16-bit SWAR lanes) and `ScalarResidency` (the original
//! per-bit loop, kept as a reference oracle) are driven with identical
//! event streams — random `(value, duration)` records, interleaved merges
//! and `TrackedWord` write/flush traffic, durations straddling the
//! 0xFFFF lane capacity and the 2^32 edge — and must agree on every exact
//! integer count, at every width the simulator uses and at the word-size
//! edges (1, 63, 64, 65, 127, 128), plus the nibble and scheduler-group
//! widths (4, 49, 92).

use proptest::prelude::*;
use uarch::bitstats::{BitResidency, ScalarResidency, TrackedWord};

/// Boundary widths: 1 (degenerate), 63/64/65 (u64 edges), 127/128 (u128
/// edges).
const WIDTHS: [usize; 6] = [1, 63, 64, 65, 127, 128];

/// Widths for the lane-capacity cases: 1 and 4 (one lane word, partly and
/// fully used), 49 and 92 (the scheduler's two group words, which end
/// mid-nibble and cross the u64 half) and 128.
const LANE_WIDTHS: [usize; 5] = [1, 4, 49, 92, 128];

/// The 2^32 − 1 edge of 32-bit duration counts; events at and past it take
/// the kernel's per-bit path.
const PLANE_CAPACITY: u64 = (1 << 32) - 1;

/// Largest duration the u16 lanes accumulate before flushing (mirrored
/// from the kernel).
const LANE_CAPACITY: u64 = 0xFFFF;

fn any_u128() -> impl Strategy<Value = u128> {
    (any::<u64>(), any::<u64>()).prop_map(|(hi, lo)| (u128::from(hi) << 64) | u128::from(lo))
}

/// Durations biased across the interesting magnitudes: zero, small dense
/// values, sparse large values, and the 2^32 edge.
fn any_duration() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1u64..64,
        1u64..100_000,
        (0u64..=3).prop_map(|d| PLANE_CAPACITY - 1 + d),
        (any::<u32>(), 0u64..=1).prop_map(|(lo, hi)| u64::from(lo) | (hi << 33)),
    ]
}

/// Durations around the lane capacity: small ones whose running sum
/// crosses 0xFFFF mid-stream, ones straddling 0xFFFF, and single events
/// longer than it.
fn lane_duration() -> impl Strategy<Value = u64> {
    prop_oneof![
        1u64..64,
        1u64..20_000,
        (0u64..=4).prop_map(|d| LANE_CAPACITY - 2 + d),
        LANE_CAPACITY + 1..4 * LANE_CAPACITY,
    ]
}

fn check_exact_agreement(
    swar: &BitResidency,
    scalar: &ScalarResidency,
    width: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(swar.width(), width);
    prop_assert_eq!(swar.total_time(), scalar.total_time());
    for bit in 0..width {
        prop_assert_eq!(
            swar.zero_cycles(bit),
            scalar.zero_cycles(bit),
            "zero count of bit {} diverged",
            bit
        );
        prop_assert_eq!(swar.bias(bit), scalar.bias(bit), "bias of bit {}", bit);
    }
    prop_assert_eq!(swar.worst_cell_duty(), scalar.worst_cell_duty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_streams_agree_exactly(
        width_index in 0usize..WIDTHS.len(),
        events in prop::collection::vec((any_u128(), any_duration()), 0..200),
    ) {
        let width = WIDTHS[width_index];
        let mut swar = BitResidency::new(width);
        let mut scalar = ScalarResidency::new(width);
        for &(value, duration) in &events {
            swar.record(value, duration);
            scalar.record(value, duration);
        }
        check_exact_agreement(&swar, &scalar, width)?;
    }

    #[test]
    fn interleaved_merges_agree_exactly(
        width_index in 0usize..WIDTHS.len(),
        // Each chunk records into a fresh accumulator pair which is then
        // merged into the running aggregate — the parallel sweep engine's
        // cell-merge pattern.
        chunks in prop::collection::vec(
            prop::collection::vec((any_u128(), any_duration()), 0..24),
            0..12,
        ),
    ) {
        let width = WIDTHS[width_index];
        let mut swar_total = BitResidency::new(width);
        let mut scalar_total = ScalarResidency::new(width);
        for chunk in &chunks {
            let mut swar = BitResidency::new(width);
            let mut scalar = ScalarResidency::new(width);
            for &(value, duration) in chunk {
                swar.record(value, duration);
                scalar.record(value, duration);
            }
            // Merge while both sides still hold pending lane state.
            swar_total.merge(&swar);
            scalar_total.merge(&scalar);
        }
        check_exact_agreement(&swar_total, &scalar_total, width)?;
    }

    #[test]
    fn tracked_word_flush_traffic_agrees_exactly(
        width_index in 0usize..WIDTHS.len(),
        steps in prop::collection::vec((any_u128(), 0u64..10_000, any::<bool>()), 0..150),
    ) {
        // Event-driven accounting as the pipeline produces it: a word is
        // written (or flushed for a measurement) at monotonically
        // increasing times; the residency charge is (now − since) per
        // event. The oracle replays the same charges through the scalar
        // loop.
        let width = WIDTHS[width_index];
        let mask = if width == 128 { u128::MAX } else { (1u128 << width) - 1 };
        let mut swar = BitResidency::new(width);
        let mut scalar = ScalarResidency::new(width);
        let mut word = TrackedWord::new(0, 0);
        let mut now = 0u64;
        for &(value, advance, is_write) in &steps {
            now += advance;
            let held = word.value();
            let duration = now - word.since();
            if is_write {
                word.write(value, now, &mut swar);
            } else {
                word.flush(now, &mut swar);
            }
            scalar.record(held, duration);
            // Only the in-range bits matter for either implementation.
            let _ = held & mask;
        }
        check_exact_agreement(&swar, &scalar, width)?;
    }

    #[test]
    fn equality_is_representation_independent(
        width_index in 0usize..WIDTHS.len(),
        events in prop::collection::vec((any_u128(), 1u64..1000), 1..40),
    ) {
        // The same stream charged in different event granularity (one
        // record per event vs duration split into two records) leaves
        // different pending lane states but must compare equal.
        let width = WIDTHS[width_index];
        let mut whole = BitResidency::new(width);
        let mut split = BitResidency::new(width);
        for &(value, duration) in &events {
            whole.record(value, duration);
            let half = duration / 2;
            split.record(value, half);
            split.record(value, duration - half);
        }
        prop_assert_eq!(&whole, &split);
        prop_assert_eq!(&split, &whole);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lane_capacity_streams_agree_exactly(
        width_index in 0usize..LANE_WIDTHS.len(),
        events in prop::collection::vec((any_u128(), lane_duration()), 0..120),
    ) {
        let width = LANE_WIDTHS[width_index];
        let mut swar = BitResidency::new(width);
        let mut scalar = ScalarResidency::new(width);
        for &(value, duration) in &events {
            swar.record(value, duration);
            scalar.record(value, duration);
            // Reads mid-stream see pending lanes plus flushed counts.
            prop_assert_eq!(swar.zero_cycles(width - 1), scalar.zero_cycles(width - 1));
        }
        check_exact_agreement(&swar, &scalar, width)?;
    }

    #[test]
    fn merges_with_pending_lanes_agree_exactly(
        width_index in 0usize..LANE_WIDTHS.len(),
        chunks in prop::collection::vec(
            (
                prop::collection::vec((any_u128(), lane_duration()), 0..16),
                (any_u128(), 1u64..LANE_CAPACITY),
            ),
            0..10,
        ),
    ) {
        // Both sides of every merge may hold pending lanes: the chunk's
        // accumulator, and the aggregate, which records one event of its
        // own before each merge.
        let width = LANE_WIDTHS[width_index];
        let mut swar_total = BitResidency::new(width);
        let mut scalar_total = ScalarResidency::new(width);
        for (chunk, (value, duration)) in &chunks {
            swar_total.record(*value, *duration);
            scalar_total.record(*value, *duration);
            let mut swar = BitResidency::new(width);
            let mut scalar = ScalarResidency::new(width);
            for &(value, duration) in chunk {
                swar.record(value, duration);
                scalar.record(value, duration);
            }
            swar_total.merge(&swar);
            scalar_total.merge(&scalar);
            check_exact_agreement(&swar, &scalar, width)?;
        }
        check_exact_agreement(&swar_total, &scalar_total, width)?;
    }
}

#[test]
fn lane_capacity_boundary_is_exact_at_every_lane_width() {
    // Deterministic sweep of the lane flush edge at each lane width: fill
    // to just below capacity, then cross it with an exact fit, a one-cycle
    // overshoot, a full-capacity event and oversized events, then run a
    // stream of small events whose pending sum crosses 0xFFFF many times.
    let values = [
        0x5555_5555_5555_5555_5555_5555_5555_5555u128,
        !0x5555_5555_5555_5555_5555_5555_5555_5555u128,
        0,
        0x0123_4567_89AB_CDEF_0F1E_2D3C_4B5A_6978,
    ];
    for width in LANE_WIDTHS {
        for &extra in &[
            1u64,
            2,
            LANE_CAPACITY - 1,
            LANE_CAPACITY,
            LANE_CAPACITY + 1,
            LANE_CAPACITY + 5,
        ] {
            let mut swar = BitResidency::new(width);
            let mut scalar = ScalarResidency::new(width);
            let mut events = vec![
                (values[0], LANE_CAPACITY - 1),
                (values[1], extra),
                (values[2], 1),
                (values[3], LANE_CAPACITY),
                (values[0], LANE_CAPACITY + 1),
            ];
            events.extend(
                (0..3_000u64)
                    .map(|i| (values[(i % 4) as usize].rotate_left(i as u32), 37 + i % 50)),
            );
            for (value, duration) in events {
                swar.record(value, duration);
                scalar.record(value, duration);
            }
            assert_eq!(
                swar.total_time(),
                scalar.total_time(),
                "width {width}, extra={extra}"
            );
            for bit in 0..width {
                assert_eq!(
                    swar.zero_cycles(bit),
                    scalar.zero_cycles(bit),
                    "width {width}, bit {bit}, extra={extra}"
                );
            }
        }
    }
}

#[test]
fn plane_capacity_boundary_is_exact_on_both_paths() {
    // Deterministic sweep of the flush/overflow edge: accumulate to just
    // below capacity, then cross it with single-cycle, exact-fit and
    // oversized events.
    for &extra in &[1u64, 2, 17, PLANE_CAPACITY, PLANE_CAPACITY + 5] {
        let mut swar = BitResidency::new(65);
        let mut scalar = ScalarResidency::new(65);
        for (value, duration) in [
            (0x5555_5555_5555_5555u128, PLANE_CAPACITY - 1),
            (!0x5555_5555_5555_5555u128, extra),
            (0u128, 3),
        ] {
            swar.record(value, duration);
            scalar.record(value, duration);
        }
        assert_eq!(swar.total_time(), scalar.total_time(), "extra={extra}");
        for bit in 0..65 {
            assert_eq!(
                swar.zero_cycles(bit),
                scalar.zero_cycles(bit),
                "bit {bit}, extra={extra}"
            );
        }
    }
}

#[test]
#[ignore = "wall-clock benchmark; run with: cargo test --release --test bitstats_prop -- --ignored"]
fn swar_kernel_is_at_least_3x_faster_at_width_64() {
    use std::hint::black_box;
    use std::time::Instant;

    // The acceptance microbench, runnable without Criterion: identical
    // pseudo-random event streams through both kernels at width 64.
    // Durations are 1..=64 cycles — the regime pipeline events live in,
    // where popcount(duration) stays small.
    const EVENTS: usize = 200_000;
    const ROUNDS: usize = 5;
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let stream: Vec<(u128, u64)> = (0..EVENTS)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let value = u128::from(state) << 64 | u128::from(state.rotate_left(17));
            let duration = (state >> 58) + 1;
            (value, duration)
        })
        .collect();

    let time_scalar = |stream: &[(u128, u64)]| {
        let start = Instant::now();
        let mut acc = ScalarResidency::new(64);
        for &(value, duration) in stream {
            acc.record(value, duration);
        }
        black_box(acc.zero_cycles(0));
        start.elapsed()
    };
    let time_swar = |stream: &[(u128, u64)]| {
        let start = Instant::now();
        let mut acc = BitResidency::new(64);
        for &(value, duration) in stream {
            acc.record(value, duration);
        }
        black_box(acc.zero_cycles(0));
        start.elapsed()
    };

    // Warm up, then take the best of several rounds for each kernel.
    let _ = (time_scalar(&stream), time_swar(&stream));
    let scalar = (0..ROUNDS).map(|_| time_scalar(&stream)).min().unwrap();
    let swar = (0..ROUNDS).map(|_| time_swar(&stream)).min().unwrap();
    assert!(
        swar.as_secs_f64() * 3.0 <= scalar.as_secs_f64(),
        "expected >=3x: scalar {scalar:?}, swar {swar:?}"
    );
}
