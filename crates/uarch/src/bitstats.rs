//! Event-driven per-bit zero-residency accounting.
//!
//! Storage structures age per *bit cell*: a cell storing "0" stresses one
//! PMOS of the cross-coupled pair, storing "1" stresses the other. What
//! matters is the fraction of time each bit position holds "0" (the bias of
//! Figures 6 and 8). Tracking this per cycle would be prohibitive, so
//! accounting is event-driven: a [`TrackedWord`] remembers the value and the
//! time it was written, and charges `(now − since) × zero-mask` into a
//! [`BitResidency`] when the value changes.
//!
//! # The word-parallel kernel
//!
//! Charging an event used to walk every bit position — up to 128 scalar
//! iterations per write — which made `record` the hottest loop in the
//! simulator. [`BitResidency`] now accumulates events in *16-bit SWAR
//! lanes*: `lanes[j]` is a `u64` holding four u16 counters, one per bit
//! of nibble `j` of the word (lane `k` counts bit `4j + k`). Adding
//! `(zeros, duration)` spreads `duration` into all four lanes with one
//! multiply and, for each nibble of the zero-mask, masks it with a
//! 16-entry table and adds it — a fixed handful of word operations per
//! four bit positions, with no carries and no data-dependent loop. Lanes
//! drain into the exact `zero_time` counts with integer adds before any
//! lane can pass `0xFFFF`, and readers add the pending lanes on the fly,
//! so `bias()`/`merge()`/reports see the same integers the scalar loop
//! produced — byte-identical, not approximately equal.
//!
//! [`ScalarResidency`] keeps the original per-bit loop alive as a reference
//! oracle; the differential property suite (`tests/bitstats_prop.rs`) and
//! the `bitstats_record` microbench compare the two implementations
//! event-for-event.

use nbti_model::duty::Duty;

/// Largest count a u16 lane holds: the lanes accept events until their
/// accumulated duration would pass it, then flush.
const LANE_CAPACITY: u64 = 0xFFFF;

/// Bit positions per lane word (four u16 lanes in a `u64`).
const LANES_PER_WORD: usize = 4;

/// Lane words covering a 128-bit word.
const LANE_WORDS: usize = 128 / LANES_PER_WORD;

/// Duration broadcast factor: `d * SPREAD` puts `d` into all four lanes.
const SPREAD: u64 = 0x0001_0001_0001_0001;

/// `NIBBLE_LANES[n]` has lane `k` all-ones exactly when bit `k` of `n` is
/// set, so `NIBBLE_LANES[n] & (d * SPREAD)` is `d` in the lanes of `n`'s
/// set bits and 0 elsewhere.
const NIBBLE_LANES: [u64; 16] = nibble_lanes();

const fn nibble_lanes() -> [u64; 16] {
    let mut table = [0u64; 16];
    let mut n = 0;
    while n < 16 {
        let mut k = 0;
        while k < LANES_PER_WORD {
            if (n >> k) & 1 == 1 {
                table[n] |= LANE_CAPACITY << (16 * k);
            }
            k += 1;
        }
        n += 1;
    }
    table
}

/// Aggregated per-bit zero-time for words of a fixed width.
///
/// Residency from many entries of a structure can be merged into one
/// `BitResidency` (bias is reported per bit *position*, as in the paper's
/// figures).
#[derive(Debug, Clone)]
pub struct BitResidency {
    /// Exact zero-cycles per bit position, LSB first (flushed state).
    zero_time: Vec<u64>,
    /// Pending zero-cycles in u16 lanes: lane `k` of `lanes[j]` adds to
    /// position `4j + k`.
    lanes: [u64; LANE_WORDS],
    /// Total duration absorbed into `lanes` since the last flush; bounded
    /// by [`LANE_CAPACITY`], so no lane can overflow.
    pending: u64,
    /// Mask selecting the low `width` bits.
    mask: u128,
    total_time: u64,
}

/// Mask with the low `width` bits set (`width` in 1..=128).
fn width_mask(width: usize) -> u128 {
    if width == 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}

impl BitResidency {
    /// Creates an accumulator for `width`-bit words (at most 128).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 128.
    pub fn new(width: usize) -> Self {
        assert!((1..=128).contains(&width), "width must be in 1..=128");
        BitResidency {
            zero_time: vec![0; width],
            lanes: [0; LANE_WORDS],
            pending: 0,
            mask: width_mask(width),
            total_time: 0,
        }
    }

    /// Word width in bits.
    pub fn width(&self) -> usize {
        self.zero_time.len()
    }

    /// Records that `value` was held for `duration` cycles.
    pub fn record(&mut self, value: u128, duration: u64) {
        self.total_time += duration;
        self.add_zeros(!value & self.mask, duration);
    }

    /// Charges `duration` zero-cycles to every bit set in `zeros`, without
    /// touching `total_time`.
    ///
    /// This is the carrier half of the *grouped charge* protocol: several
    /// fields whose values changed at the same instant concatenate their
    /// zero-masks into one word and pay a single lane add here instead of
    /// one `record` each. The owner later moves the accumulated counts into
    /// the real per-field accumulators with
    /// [`drain_zero_counts`](Self::drain_zero_counts) /
    /// [`credit_zero_cycles`](Self::credit_zero_cycles) and accounts
    /// `total_time` separately via
    /// [`credit_total_time`](Self::credit_total_time) — the resulting
    /// integers are identical to per-field `record` calls.
    pub(crate) fn record_zeros(&mut self, zeros: u128, duration: u64) {
        debug_assert_eq!(zeros & !self.mask, 0, "zeros outside the word");
        self.add_zeros(zeros, duration);
    }

    /// The kernel shared by [`record`](Self::record) and
    /// [`record_zeros`](Self::record_zeros).
    fn add_zeros(&mut self, zeros: u128, duration: u64) {
        if duration == 0 || zeros == 0 {
            // All-ones values charge nothing. Balancing schemes hold most
            // protected fields at all-ones, so this is the common case on
            // the release path.
            return;
        }
        if duration > LANE_CAPACITY {
            // A single event too long for the lanes (a span of more than
            // 65,535 cycles) goes straight to the exact counts.
            let mut z = zeros;
            while z != 0 {
                self.zero_time[z.trailing_zeros() as usize] += duration;
                z &= z - 1;
            }
            return;
        }
        if self.pending + duration > LANE_CAPACITY {
            self.flush_lanes();
        }
        self.pending += duration;
        let spread = duration * SPREAD;
        // One table-masked add per nibble of the word, over two u64 halves
        // so no step shifts a u128. The count depends only on the width,
        // so the loop branches the same way on every event.
        let nibbles = self.width().div_ceil(LANES_PER_WORD);
        let (low, high) = self.lanes.split_at_mut(LANE_WORDS / 2);
        add_nibbles(
            &mut low[..nibbles.min(LANE_WORDS / 2)],
            zeros as u64,
            spread,
        );
        if nibbles > LANE_WORDS / 2 {
            add_nibbles(
                &mut high[..nibbles - LANE_WORDS / 2],
                (zeros >> 64) as u64,
                spread,
            );
        }
    }

    /// Moves every accumulated zero-count out of this accumulator, calling
    /// `f(bit, count)` for each nonzero lane and leaving the accumulator
    /// empty. Part of the grouped-charge protocol (see
    /// [`record_zeros`](Self::record_zeros)).
    pub(crate) fn drain_zero_counts(&mut self, mut f: impl FnMut(usize, u64)) {
        self.flush_lanes();
        for (i, zt) in self.zero_time.iter_mut().enumerate() {
            if *zt != 0 {
                f(i, *zt);
                *zt = 0;
            }
        }
    }

    /// Adds externally accumulated zero-cycles to one bit position (the
    /// receiving half of the grouped-charge protocol).
    pub(crate) fn credit_zero_cycles(&mut self, bit: usize, count: u64) {
        self.zero_time[bit] += count;
    }

    /// Adds observed time without charging any bit (the grouped charge
    /// accounts zero-time and total-time separately).
    pub(crate) fn credit_total_time(&mut self, duration: u64) {
        self.total_time += duration;
    }

    /// Takes the accumulated total time, leaving zero. A group-charge
    /// accumulator's span time covers every member field, so the owner
    /// credits it to each of them at drain and resets the staging count.
    pub(crate) fn take_total_time(&mut self) -> u64 {
        std::mem::take(&mut self.total_time)
    }

    /// Drains the lanes into the exact `zero_time` counts.
    ///
    /// Integer-only, so the counts are identical to what the scalar per-bit
    /// loop would have produced. O(width), run once per 65,535 accumulated
    /// cycles (or on merge and drain).
    fn flush_lanes(&mut self) {
        if self.pending == 0 {
            return;
        }
        for (i, zt) in self.zero_time.iter_mut().enumerate() {
            *zt += lane_count(&self.lanes, i);
        }
        self.lanes = [0; LANE_WORDS];
        self.pending = 0;
    }

    /// Exact zero-cycles of one bit position, including pending lane state.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    pub fn zero_cycles(&self, bit: usize) -> u64 {
        self.zero_time[bit] + lane_count(&self.lanes, bit)
    }

    /// Total observed time (per bit position).
    pub fn total_time(&self) -> u64 {
        self.total_time
    }

    /// Bias towards "0" of one bit position.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    pub fn bias(&self, bit: usize) -> Duty {
        if self.total_time == 0 {
            return Duty::ZERO;
        }
        Duty::saturating(self.zero_cycles(bit) as f64 / self.total_time as f64)
    }

    /// Biases of all bit positions, LSB first.
    pub fn biases(&self) -> Vec<Duty> {
        (0..self.width()).map(|i| self.bias(i)).collect()
    }

    /// The worst *cell* duty over all bit positions: each cell ages at
    /// `max(bias, 1 − bias)` because of the complementary PMOS pair.
    /// Allocation-free: telemetry samples this for every structure.
    pub fn worst_cell_duty(&self) -> Duty {
        (0..self.width())
            .map(|i| self.bias(i).cell_worst())
            .fold(Duty::ZERO, |w, d| if d > w { d } else { w })
    }

    /// Merges another accumulator of the same width into this one.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn merge(&mut self, other: &BitResidency) {
        assert_eq!(self.width(), other.width(), "width mismatch");
        self.flush_lanes();
        for (i, zt) in self.zero_time.iter_mut().enumerate() {
            *zt += other.zero_cycles(i);
        }
        self.total_time += other.total_time;
    }
}

/// Equality is over *effective* counts — two accumulators that charged the
/// same cycles compare equal regardless of how much is still pending in
/// their lanes.
impl PartialEq for BitResidency {
    fn eq(&self, other: &Self) -> bool {
        self.width() == other.width()
            && self.total_time == other.total_time
            && (0..self.width()).all(|i| self.zero_cycles(i) == other.zero_cycles(i))
    }
}

impl Eq for BitResidency {}

/// Adds `spread` (a duration in all four lanes) to the lanes of the zero
/// bits of `zeros`, one lane word per nibble.
fn add_nibbles(lanes: &mut [u64], mut zeros: u64, spread: u64) {
    for lane in lanes {
        *lane += NIBBLE_LANES[(zeros & 0xF) as usize] & spread;
        zeros >>= 4;
    }
}

/// Pending count of bit position `bit` in a lane array.
fn lane_count(lanes: &[u64; LANE_WORDS], bit: usize) -> u64 {
    (lanes[bit / LANES_PER_WORD] >> (16 * (bit % LANES_PER_WORD))) & LANE_CAPACITY
}

/// The original per-bit scalar accounting loop, kept as a reference oracle.
///
/// This is the implementation [`BitResidency`] replaced: O(width) scalar
/// operations per event, trivially auditable. The differential property
/// suite drives both implementations with identical event streams and
/// demands exact integer agreement; the `bitstats_record` bench measures
/// the speedup against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalarResidency {
    zero_time: Vec<u64>,
    total_time: u64,
}

impl ScalarResidency {
    /// Creates an accumulator for `width`-bit words (at most 128).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 128.
    pub fn new(width: usize) -> Self {
        assert!((1..=128).contains(&width), "width must be in 1..=128");
        ScalarResidency {
            zero_time: vec![0; width],
            total_time: 0,
        }
    }

    /// Word width in bits.
    pub fn width(&self) -> usize {
        self.zero_time.len()
    }

    /// Records that `value` was held for `duration` cycles (per-bit loop).
    pub fn record(&mut self, value: u128, duration: u64) {
        if duration == 0 {
            return;
        }
        for (i, zt) in self.zero_time.iter_mut().enumerate() {
            if (value >> i) & 1 == 0 {
                *zt += duration;
            }
        }
        self.total_time += duration;
    }

    /// Exact zero-cycles of one bit position.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    pub fn zero_cycles(&self, bit: usize) -> u64 {
        self.zero_time[bit]
    }

    /// Total observed time (per bit position).
    pub fn total_time(&self) -> u64 {
        self.total_time
    }

    /// Bias towards "0" of one bit position.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    pub fn bias(&self, bit: usize) -> Duty {
        if self.total_time == 0 {
            return Duty::ZERO;
        }
        Duty::saturating(self.zero_time[bit] as f64 / self.total_time as f64)
    }

    /// Biases of all bit positions, LSB first.
    pub fn biases(&self) -> Vec<Duty> {
        (0..self.width()).map(|i| self.bias(i)).collect()
    }

    /// The worst *cell* duty over all bit positions.
    pub fn worst_cell_duty(&self) -> Duty {
        self.biases()
            .into_iter()
            .map(Duty::cell_worst)
            .fold(Duty::ZERO, |w, d| if d > w { d } else { w })
    }

    /// Merges another accumulator of the same width into this one.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn merge(&mut self, other: &ScalarResidency) {
        assert_eq!(self.width(), other.width(), "width mismatch");
        for (a, b) in self.zero_time.iter_mut().zip(&other.zero_time) {
            *a += b;
        }
        self.total_time += other.total_time;
    }
}

/// One stored word plus the time it was last written; the unit of
/// event-driven accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrackedWord {
    value: u128,
    since: u64,
}

impl TrackedWord {
    /// Creates a word holding `value` from time `now` on.
    pub fn new(value: u128, now: u64) -> Self {
        TrackedWord { value, since: now }
    }

    /// The currently stored value.
    pub fn value(&self) -> u128 {
        self.value
    }

    /// Time of the last write.
    pub fn since(&self) -> u64 {
        self.since
    }

    /// Writes a new value at time `now`, charging the elapsed residency of
    /// the old value into `residency`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if time runs backwards.
    pub fn write(&mut self, value: u128, now: u64, residency: &mut BitResidency) {
        debug_assert!(now >= self.since, "time ran backwards");
        residency.record(self.value, now - self.since);
        self.value = value;
        self.since = now;
    }

    /// Charges residency up to `now` without changing the value (used when
    /// taking a measurement).
    pub fn flush(&mut self, now: u64, residency: &mut BitResidency) {
        debug_assert!(now >= self.since, "time ran backwards");
        residency.record(self.value, now - self.since);
        self.since = now;
    }
}

/// Event-driven occupancy accounting for a structure with a fixed number of
/// entries.
///
/// Tracks the time-integral of the busy-entry count; the paper's
/// occupancy/free-time statistics (integer registers free 54% of the time,
/// scheduler occupancy 63%, ...) are read from this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyTracker {
    capacity: u64,
    busy: u64,
    last: u64,
    busy_time: u128,
    started: u64,
}

impl OccupancyTracker {
    /// Creates a tracker for a structure with `capacity` entries, starting
    /// at time `now` with everything free.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn new(capacity: u64, now: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        OccupancyTracker {
            capacity,
            busy: 0,
            last: now,
            busy_time: 0,
            started: now,
        }
    }

    fn advance(&mut self, now: u64) {
        debug_assert!(now >= self.last, "time ran backwards");
        self.busy_time += u128::from(self.busy) * u128::from(now - self.last);
        self.last = now;
    }

    /// Busy-entry time integral as of `now`, without mutating the tracker.
    fn busy_time_at(&self, now: u64) -> u128 {
        debug_assert!(now >= self.last, "time ran backwards");
        self.busy_time + u128::from(self.busy) * u128::from(now - self.last)
    }

    /// Notes that one entry became busy at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if all entries are already busy.
    pub fn acquire(&mut self, now: u64) {
        self.advance(now);
        assert!(self.busy < self.capacity, "occupancy overflow");
        self.busy += 1;
    }

    /// Notes that one entry became free at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if no entry is busy.
    pub fn release(&mut self, now: u64) {
        self.advance(now);
        assert!(self.busy > 0, "occupancy underflow");
        self.busy -= 1;
    }

    /// Notes that `n` entries became busy at time `now` in one step: one
    /// integral advance instead of `n`, identical accounting (the integral
    /// only changes when time moves).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` entries are free.
    pub fn acquire_n(&mut self, n: u64, now: u64) {
        self.advance(now);
        assert!(self.busy + n <= self.capacity, "occupancy overflow");
        self.busy += n;
    }

    /// Notes that `n` entries became free at time `now` in one step.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` entries are busy.
    pub fn release_n(&mut self, n: u64, now: u64) {
        self.advance(now);
        assert!(self.busy >= n, "occupancy underflow");
        self.busy -= n;
    }

    /// Entries currently busy.
    pub fn busy_now(&self) -> u64 {
        self.busy
    }

    /// Average fraction of entries busy up to time `now`.
    pub fn occupancy(&mut self, now: u64) -> Duty {
        self.advance(now);
        self.occupancy_at(now)
    }

    /// Average fraction of entries busy up to time `now`, without mutating
    /// the tracker — the measurement peek for telemetry sampling, which
    /// must not perturb `last`.
    pub fn occupancy_at(&self, now: u64) -> Duty {
        let span = u128::from(now - self.started) * u128::from(self.capacity);
        if span == 0 {
            return Duty::ZERO;
        }
        Duty::saturating(self.busy_time_at(now) as f64 / span as f64)
    }

    /// Average fraction of entries free up to time `now`.
    pub fn free_fraction(&mut self, now: u64) -> Duty {
        self.occupancy(now).complement()
    }

    /// Non-mutating counterpart of [`free_fraction`](Self::free_fraction).
    pub fn free_fraction_at(&self, now: u64) -> Duty {
        self.occupancy_at(now).complement()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accounts_zero_bits() {
        let mut r = BitResidency::new(4);
        r.record(0b0101, 10);
        assert!((r.bias(0).fraction() - 0.0).abs() < 1e-12);
        assert!((r.bias(1).fraction() - 1.0).abs() < 1e-12);
        assert_eq!(r.total_time(), 10);
    }

    #[test]
    fn bias_mixes_over_time() {
        let mut r = BitResidency::new(1);
        r.record(0, 3);
        r.record(1, 1);
        assert!((r.bias(0).fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn worst_cell_duty_is_symmetric() {
        let mut r = BitResidency::new(2);
        // bit0: always 1 (bias 0) → cell duty 1. bit1: balanced.
        r.record(0b01, 1);
        r.record(0b11, 1);
        assert!((r.bias(0).fraction() - 0.0).abs() < 1e-12);
        assert!((r.worst_cell_duty().fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracked_word_event_driven_accounting() {
        let mut r = BitResidency::new(8);
        let mut w = TrackedWord::new(0xFF, 0);
        w.write(0x00, 40, &mut r); // held 0xFF for 40 cycles
        w.write(0x0F, 60, &mut r); // held 0x00 for 20 cycles
        w.flush(100, &mut r); // held 0x0F for 40 cycles
        assert_eq!(r.total_time(), 100);
        // bit 0: one for 40 + 40, zero for 20 → bias 0.2.
        assert!((r.bias(0).fraction() - 0.2).abs() < 1e-12);
        // bit 7: one for 40, zero for 60 → bias 0.6.
        assert!((r.bias(7).fraction() - 0.6).abs() < 1e-12);
        assert_eq!(w.value(), 0x0F);
        assert_eq!(w.since(), 100);
    }

    #[test]
    fn merge_adds_observations() {
        let mut a = BitResidency::new(2);
        a.record(0b00, 10);
        let mut b = BitResidency::new(2);
        b.record(0b11, 10);
        a.merge(&b);
        assert!((a.bias(0).fraction() - 0.5).abs() < 1e-12);
        assert_eq!(a.total_time(), 20);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn merge_rejects_width_mismatch() {
        let mut a = BitResidency::new(2);
        let b = BitResidency::new(3);
        a.merge(&b);
    }

    #[test]
    fn zero_duration_is_a_noop() {
        let mut r = BitResidency::new(1);
        r.record(0, 0);
        assert_eq!(r.total_time(), 0);
        assert_eq!(r.bias(0), Duty::ZERO);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn rejects_zero_width() {
        let _ = BitResidency::new(0);
    }

    #[test]
    fn biases_returns_all_positions() {
        let mut r = BitResidency::new(3);
        r.record(0b010, 1);
        let biases = r.biases();
        assert_eq!(biases.len(), 3);
        assert!((biases[1].fraction() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn swar_matches_scalar_on_a_mixed_stream() {
        let mut swar = BitResidency::new(128);
        let mut scalar = ScalarResidency::new(128);
        let mut value = 0x0123_4567_89AB_CDEF_u128;
        for step in 0..200u64 {
            value = value.rotate_left(7) ^ u128::from(step).wrapping_mul(0x9E37_79B9);
            let duration = (step * step + 1) % 1009;
            swar.record(value, duration);
            scalar.record(value, duration);
        }
        assert_eq!(swar.total_time(), scalar.total_time());
        for bit in 0..128 {
            assert_eq!(swar.zero_cycles(bit), scalar.zero_cycles(bit), "bit {bit}");
        }
    }

    #[test]
    fn equality_ignores_plane_representation() {
        // Same effective counts via one large event vs many small ones:
        // the pending lane state differs, the accumulators must not.
        let mut one = BitResidency::new(8);
        one.record(0xA5, 1000);
        let mut many = BitResidency::new(8);
        for _ in 0..1000 {
            many.record(0xA5, 1);
        }
        assert_eq!(one, many);
    }

    #[test]
    fn plane_capacity_boundary_flushes_exactly() {
        // Crossing the 0xFFFF lane capacity forces a flush; counts must
        // remain exact on both sides. Bit 0 is charged by both events, so
        // without the flush its lane would carry into bit 1's.
        let mut r = BitResidency::new(2);
        r.record(0b10, LANE_CAPACITY - 1);
        r.record(0b00, 3); // forces flush_lanes, then re-accumulates
        assert_eq!(r.zero_cycles(0), LANE_CAPACITY + 2);
        assert_eq!(r.zero_cycles(1), 3);
        assert_eq!(r.total_time(), LANE_CAPACITY + 2);
    }

    #[test]
    fn oversized_single_event_takes_the_lane_path() {
        // A single event longer than the lane capacity is charged straight
        // into the exact per-bit counts.
        let mut r = BitResidency::new(2);
        let huge = LANE_CAPACITY + 17;
        r.record(0b01, huge);
        assert_eq!(r.zero_cycles(0), 0);
        assert_eq!(r.zero_cycles(1), huge);
        assert_eq!(r.total_time(), huge);
        // And the lanes still work afterwards.
        r.record(0b10, 5);
        assert_eq!(r.zero_cycles(0), 5);
        assert_eq!(r.zero_cycles(1), huge);
    }

    #[test]
    fn nibble_table_selects_one_lane_per_set_bit() {
        for (n, &lanes) in NIBBLE_LANES.iter().enumerate() {
            for k in 0..LANES_PER_WORD {
                let lane = (lanes >> (16 * k)) & LANE_CAPACITY;
                let want = if (n >> k) & 1 == 1 { LANE_CAPACITY } else { 0 };
                assert_eq!(lane, want, "nibble {n:#x} lane {k}");
            }
        }
    }

    #[test]
    fn merge_absorbs_pending_planes_from_both_sides() {
        let mut a = BitResidency::new(4);
        a.record(0b0011, 7);
        let mut b = BitResidency::new(4);
        b.record(0b1100, 9);
        a.merge(&b);
        let mut oracle = ScalarResidency::new(4);
        oracle.record(0b0011, 7);
        oracle.record(0b1100, 9);
        for bit in 0..4 {
            assert_eq!(a.zero_cycles(bit), oracle.zero_cycles(bit));
        }
    }

    #[test]
    fn occupancy_integrates_busy_time() {
        let mut occ = OccupancyTracker::new(4, 0);
        occ.acquire(0); // 1 busy over [0, 10)
        occ.acquire(10); // 2 busy over [10, 20)
        occ.release(20); // 1 busy over [20, 40)
                         // busy integral = 10 + 20 + 20 = 50 entry-cycles of 160 possible.
        assert!((occ.occupancy(40).fraction() - 50.0 / 160.0).abs() < 1e-12);
        assert!((occ.free_fraction(40).fraction() - 110.0 / 160.0).abs() < 1e-12);
        assert_eq!(occ.busy_now(), 1);
    }

    #[test]
    fn occupancy_peek_matches_the_advancing_read() {
        let mut occ = OccupancyTracker::new(4, 0);
        occ.acquire(0);
        occ.acquire(10);
        occ.release(20);
        let snapshot = occ;
        let peeked = occ.occupancy_at(40);
        assert_eq!(occ, snapshot, "occupancy_at must not mutate");
        let advanced = occ.occupancy(40);
        assert_eq!(peeked, advanced);
        assert_eq!(occ.free_fraction_at(40), peeked.complement());
        // Peeking between events does not disturb later accounting.
        let mut a = OccupancyTracker::new(2, 0);
        let mut b = OccupancyTracker::new(2, 0);
        a.acquire(0);
        b.acquire(0);
        let _ = a.occupancy_at(5);
        a.release(10);
        b.release(10);
        assert_eq!(a.occupancy(20), b.occupancy(20));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn occupancy_release_underflow_panics() {
        let mut occ = OccupancyTracker::new(1, 0);
        occ.release(1);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn occupancy_acquire_overflow_panics() {
        let mut occ = OccupancyTracker::new(1, 0);
        occ.acquire(0);
        occ.acquire(1);
    }
}
