//! Per-PMOS duty-cycle accumulation over input streams.
//!
//! A [`StressTracker`] packs the transistors of a netlist 128 to a
//! [`BitResidency`] block: applying an input vector evaluates the netlist
//! once, gathers each block's net values into a `u128` mask, and charges
//! the whole block with one word-parallel `record` instead of one
//! [`DutyAccumulator`](nbti_model::duty::DutyAccumulator) update per
//! transistor. The integer zero-time counts (and hence every duty, float
//! for float) are identical to the per-transistor loop's. Feeding the
//! tracker input vectors (each held for some number of cycles) yields the
//! zero-signal probability of every transistor, from which the worst-case
//! guardband of the block follows.

use nbti_model::duty::Duty;
use nbti_model::guardband::{Guardband, GuardbandModel};
use uarch::bitstats::BitResidency;

use crate::netlist::Netlist;
use crate::pmos::{PmosTable, WidthClass};

/// Transistors per residency block (one `u128` mask each).
const BLOCK_BITS: usize = 128;

/// Accumulates NBTI stress per PMOS across an input stream.
///
/// # Example
///
/// ```
/// use gatesim::netlist::NetlistBuilder;
/// use gatesim::stress::StressTracker;
///
/// let mut b = NetlistBuilder::new();
/// let a = b.input();
/// let x = b.inv(a);
/// b.mark_output(x);
/// let n = b.finish();
///
/// let mut t = StressTracker::new(&n);
/// t.apply(&n, &[false], 3); // input low: the inverter PMOS is stressed
/// t.apply(&n, &[true], 1);
/// assert!((t.duty_of(0).fraction() - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct StressTracker {
    table: PmosTable,
    /// One residency accumulator per 128 transistors; the last block is
    /// narrower when the table size is not a multiple of 128.
    blocks: Vec<BitResidency>,
}

/// Residency blocks covering `count` bit positions, 128 per block.
fn blocks_for(count: usize) -> Vec<BitResidency> {
    (0..count.div_ceil(BLOCK_BITS))
        .map(|b| BitResidency::new((count - b * BLOCK_BITS).min(BLOCK_BITS)))
        .collect()
}

impl StressTracker {
    /// Creates a tracker for `netlist` with the default wide-fanout
    /// threshold.
    pub fn new(netlist: &Netlist) -> Self {
        StressTracker::with_table(PmosTable::with_default_threshold(netlist))
    }

    /// Creates a tracker over a custom transistor table.
    pub fn with_table(table: PmosTable) -> Self {
        let blocks = blocks_for(table.len());
        StressTracker { table, blocks }
    }

    /// The transistor table the tracker accounts for.
    pub fn table(&self) -> &PmosTable {
        &self.table
    }

    /// Applies one primary-input assignment for `duration` cycles,
    /// evaluating the netlist and charging stress to every PMOS whose
    /// driving net is at "0" — one word-parallel record per 128
    /// transistors.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` length mismatches the netlist inputs, or if
    /// the tracker was built for a different netlist.
    pub fn apply(&mut self, netlist: &Netlist, assignment: &[bool], duration: u64) {
        let values = netlist.evaluate(assignment);
        self.charge(&values, duration);
    }

    /// Fallible twin of [`apply`](Self::apply): a wrong-arity assignment
    /// surfaces as a typed [`Error`](crate::error::Error) instead of a
    /// panic, so externally supplied stimulus cannot silently misapply.
    pub fn try_apply(
        &mut self,
        netlist: &Netlist,
        assignment: &[bool],
        duration: u64,
    ) -> Result<(), crate::error::Error> {
        let values = netlist.try_evaluate(assignment)?;
        self.charge(&values, duration);
        Ok(())
    }

    fn charge(&mut self, values: &crate::netlist::NetValues, duration: u64) {
        let transistors = self.table.transistors();
        for (b, block) in self.blocks.iter_mut().enumerate() {
            let base = b * BLOCK_BITS;
            let mut mask = 0u128;
            for (bit, pmos) in transistors[base..base + block.width()].iter().enumerate() {
                mask |= u128::from(values.get(pmos.driven_by)) << bit;
            }
            block.record(mask, duration);
        }
    }

    /// Duty cycle of the PMOS with the given flat index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn duty_of(&self, index: usize) -> Duty {
        assert!(index < self.table.len(), "transistor index out of range");
        self.blocks[index / BLOCK_BITS].bias(index % BLOCK_BITS)
    }

    /// Iterator over `(transistor, duty)` pairs.
    pub fn duties(&self) -> impl Iterator<Item = (&crate::pmos::Pmos, Duty)> + '_ {
        self.table
            .transistors()
            .iter()
            .enumerate()
            .map(|(i, p)| (p, self.duty_of(i)))
    }

    /// Worst (largest) duty among all transistors, or [`Duty::ZERO`] if the
    /// netlist has none.
    pub fn worst_duty(&self) -> Duty {
        (0..self.table.len())
            .map(|i| self.duty_of(i))
            .fold(Duty::ZERO, |w, d| if d > w { d } else { w })
    }

    /// Worst duty among *narrow* transistors only — wide PMOS "do not suffer
    /// from NBTI significantly" (§4.3), so the guardband of a block is set
    /// by its narrow devices.
    pub fn worst_narrow_duty(&self) -> Duty {
        self.duties()
            .filter(|(p, _)| p.width == WidthClass::Narrow)
            .map(|(_, d)| d)
            .fold(Duty::ZERO, |w, d| if d > w { d } else { w })
    }

    /// Fraction of narrow transistors whose duty reaches `threshold`
    /// (e.g. `1.0` for the "100% zero-signal probability" metric of
    /// Figure 4), relative to the **total** transistor count as in the
    /// figure's caption.
    pub fn narrow_fraction_at_or_above(&self, threshold: f64) -> f64 {
        if self.table.is_empty() {
            return 0.0;
        }
        let hits = self
            .duties()
            .filter(|(p, d)| p.width == WidthClass::Narrow && d.fraction() >= threshold - 1e-12)
            .count();
        hits as f64 / self.table.len() as f64
    }

    /// Guardband this block requires under `model`, judged on narrow
    /// transistors.
    pub fn guardband(&self, model: &GuardbandModel) -> Guardband {
        model.guardband(self.worst_narrow_duty())
    }

    /// Resets all accumulated stress (a fresh part).
    pub fn reset(&mut self) {
        self.blocks = blocks_for(self.table.len());
    }

    /// Total observed time in cycles (same for every transistor).
    pub fn observed_time(&self) -> u64 {
        self.blocks.first().map_or(0, BitResidency::total_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    fn inv_pair() -> Netlist {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let x = b.inv(a);
        let y = b.inv(x);
        b.mark_output(y);
        b.finish()
    }

    #[test]
    fn stress_follows_net_values() {
        let n = inv_pair();
        let mut t = StressTracker::new(&n);
        // a=0: first PMOS stressed (gate sees 0), second sees x=1 → relaxed.
        t.apply(&n, &[false], 10);
        assert!((t.duty_of(0).fraction() - 1.0).abs() < 1e-12);
        assert!((t.duty_of(1).fraction() - 0.0).abs() < 1e-12);
        // a=1: roles swap.
        t.apply(&n, &[true], 10);
        assert!((t.duty_of(0).fraction() - 0.5).abs() < 1e-12);
        assert!((t.duty_of(1).fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn worst_duty_tracks_maximum() {
        let n = inv_pair();
        let mut t = StressTracker::new(&n);
        t.apply(&n, &[false], 3);
        t.apply(&n, &[true], 1);
        // First PMOS: 0.75; second: 0.25.
        assert!((t.worst_duty().fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn narrow_fraction_counts_against_total() {
        // Hub inverter (wide) driving 3 loads + the loads (narrow).
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let hub = b.inv(a);
        for _ in 0..3 {
            let x = b.inv(hub);
            b.mark_output(x);
        }
        let n = b.finish();
        let mut t = StressTracker::new(&n);
        // a=1 forever → hub=0 forever → narrow loads 100% stressed,
        // hub PMOS (wide) relaxed.
        t.apply(&n, &[true], 5);
        assert_eq!(t.table().wide_count(), 1);
        // 3 narrow at 100% out of 4 transistors total.
        assert!((t.narrow_fraction_at_or_above(1.0) - 0.75).abs() < 1e-12);
        assert!((t.worst_narrow_duty().fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn block_sliced_duties_match_a_per_transistor_oracle() {
        use nbti_model::duty::DutyAccumulator;
        // An inverter tree with well over 128 PMOS → multiple blocks,
        // including a narrow trailing one.
        let mut b = NetlistBuilder::new();
        let a0 = b.input();
        let a1 = b.input();
        let mut nets = vec![a0, a1];
        for i in 0..300 {
            let x = b.inv(nets[(i * 7) % nets.len()]);
            nets.push(x);
        }
        let last = *nets.last().unwrap();
        b.mark_output(last);
        let n = b.finish();
        let table = PmosTable::with_default_threshold(&n);
        assert!(table.len() > 128, "need more than one block");

        let mut t = StressTracker::new(&n);
        let mut oracle = vec![DutyAccumulator::new(); table.len()];
        for step in 0..17u64 {
            let assignment = [step % 2 == 0, step % 3 == 0];
            let duration = step * 5 + 1;
            t.apply(&n, &assignment, duration);
            let values = n.evaluate(&assignment);
            for (pmos, acc) in table.transistors().iter().zip(&mut oracle) {
                acc.record(values.get(pmos.driven_by), duration);
            }
        }
        for (i, acc) in oracle.iter().enumerate() {
            assert_eq!(t.duty_of(i), acc.duty(), "transistor {i}");
        }
        assert_eq!(t.observed_time(), oracle[0].total_time());
    }

    #[test]
    fn reset_clears_history() {
        let n = inv_pair();
        let mut t = StressTracker::new(&n);
        t.apply(&n, &[false], 10);
        t.reset();
        assert_eq!(t.observed_time(), 0);
        assert_eq!(t.worst_duty(), Duty::ZERO);
    }

    #[test]
    fn guardband_uses_narrow_worst() {
        let n = inv_pair();
        let mut t = StressTracker::new(&n);
        t.apply(&n, &[false], 1);
        t.apply(&n, &[true], 1);
        let model = GuardbandModel::paper_calibrated();
        // Both PMOS at 50% → minimum guardband.
        assert_eq!(t.guardband(&model), model.best_case());
    }
}
