//! Deterministic trace construction.
//!
//! A [`TraceSpec`] names one trace (suite + index, like "SpecINT2000 trace
//! #7"); [`TraceSpec::generate`] returns a lazy, reproducible uop stream.
//! [`Workload`] enumerates the full 531-trace population of Table 1 or
//! deterministic subsamples of it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::TraceError;
use crate::memgen::AddressStream;
use crate::suite::{Suite, SuiteProfile};
use crate::uop::{Uop, UopClass, Value80};

/// Identity of one trace: a suite and an index within the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceSpec {
    suite: Suite,
    index: usize,
}

impl TraceSpec {
    /// Names trace `index` of `suite`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the suite's trace count (Table 1); use
    /// [`TraceSpec::try_new`] for a panic-free construction path.
    pub fn new(suite: Suite, index: usize) -> Self {
        match TraceSpec::try_new(suite, index) {
            Ok(spec) => spec,
            Err(err) => panic!("{err}"),
        }
    }

    /// Names trace `index` of `suite`, rejecting indices outside the
    /// suite's Table 1 population with a typed error.
    pub fn try_new(suite: Suite, index: usize) -> Result<Self, TraceError> {
        if index >= suite.trace_count() {
            return Err(TraceError::IndexOutOfRange {
                suite,
                index,
                count: suite.trace_count(),
            });
        }
        Ok(TraceSpec { suite, index })
    }

    /// The suite.
    pub fn suite(&self) -> Suite {
        self.suite
    }

    /// The index within the suite.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Deterministic seed for this trace.
    fn seed(&self) -> u64 {
        // A simple FNV-style mix of the suite ordinal and index.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in self
            .suite
            .name()
            .bytes()
            .chain((self.index as u32).to_le_bytes())
        {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// Returns a reproducible iterator over the first `len` uops of the
    /// trace.
    pub fn generate(&self, len: usize) -> TraceIter {
        let profile = self.suite.profile();
        TraceIter {
            rng: StdRng::seed_from_u64(self.seed()),
            profile,
            mem: AddressStream::new(profile.mem),
            remaining: len,
            tos: 0,
            pc: 0x0040_0000,
            branch_sites: profile.branch_sites,
            opcode_map: OpcodeMap::new(self.seed()),
        }
    }
}

impl std::fmt::Display for TraceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.suite, self.index)
    }
}

/// Balanced uop opcode encoding.
///
/// §4.5: "by smartly encoding the opcodes of the uops, large imbalances can
/// be avoided". We emulate that by assigning each class a small set of
/// 12-bit codes whose bit patterns are complementary, so the opcode field
/// self-balances in the long run.
#[derive(Debug, Clone)]
struct OpcodeMap {
    codes: [[u16; 2]; 7],
}

impl OpcodeMap {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut codes = [[0u16; 2]; 7];
        for pair in &mut codes {
            let c: u16 = rng.gen_range(0..0x1000);
            // The second encoding is the 12-bit complement: alternating
            // them keeps every opcode bit near 50%.
            *pair = [c, !c & 0x0FFF];
        }
        OpcodeMap { codes }
    }

    #[allow(clippy::expect_used)]
    fn code<R: Rng + ?Sized>(&self, class: UopClass, rng: &mut R) -> u16 {
        let idx = UopClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("UopClass::ALL lists every class");
        self.codes[idx][usize::from(rng.gen::<bool>())]
    }
}

/// Lazy uop stream for one trace.
#[derive(Debug, Clone)]
pub struct TraceIter {
    rng: StdRng,
    profile: SuiteProfile,
    mem: AddressStream,
    remaining: usize,
    tos: u8,
    pc: u64,
    /// Number of static branch sites in the synthetic code.
    branch_sites: usize,
    opcode_map: OpcodeMap,
}

impl TraceIter {
    fn gen_uop(&mut self) -> Uop {
        let rng = &mut self.rng;
        let class = self.profile.pick_class(rng.gen());
        let fp = class.is_fp();
        let pc = self.pc;

        // Architectural registers: 16 integer, 8 FP-stack.
        let reg_space = if fp { 8 } else { 16 };
        let dst = match class {
            UopClass::Store | UopClass::Branch => None,
            _ => Some(rng.gen_range(0..reg_space)),
        };
        let src1 = Some(rng.gen_range(0..reg_space));
        let src2 = match class {
            UopClass::Load => None,
            _ => Some(rng.gen_range(0..reg_space)),
        };

        let result = if fp {
            self.profile.fp_values.sample(rng)
        } else {
            Value80::from_bits(u128::from(self.profile.int_values.sample(rng)))
        };
        let src1_val = self.profile.int_values.sample(rng);
        let src2_val = self.profile.int_values.sample(rng);

        let immediate = if !fp && rng.gen::<f64>() < self.profile.p_immediate {
            // Immediates are small constants with the same skew as data.
            Some((self.profile.int_values.sample(rng) & 0xFFFF) as u16)
        } else {
            None
        };

        let mut flags = 0u8;
        if matches!(class, UopClass::IntAlu | UopClass::IntMul) {
            for (i, &p) in self.profile.flag_set_prob.iter().enumerate() {
                if rng.gen::<f64>() < p {
                    flags |= 1 << i;
                }
            }
        }

        if fp {
            // FP stack pointer random-walks slowly.
            if rng.gen::<f64>() < 0.3 {
                self.tos = (self.tos + if rng.gen() { 1 } else { 7 }) % 8;
            }
        }

        let mem_addr = if class.is_memory() {
            Some(self.mem.next_address(rng))
        } else {
            None
        };

        let taken = class == UopClass::Branch && rng.gen::<f64>() < self.profile.p_branch_taken;
        // Branch PCs recur heavily (loop branches dominate dynamic branch
        // counts), so they are drawn from a fixed pool of branch sites with
        // a skew towards the hottest ones; other uops fetch sequentially.
        let pc = if class == UopClass::Branch {
            // Cubic skew: a few loop branches dominate the dynamic count.
            // The 20-byte site stride avoids power-of-two aliasing in the
            // BTB index.
            let u: f64 = rng.gen();
            let idx = ((u * u * u) * self.branch_sites as f64) as u64;
            0x0040_0000 + idx * 20
        } else {
            self.pc += 4;
            if self.pc >= 0x0042_0000 {
                self.pc = 0x0040_0000;
            }
            pc
        };

        Uop {
            pc,
            class,
            dst,
            src1,
            src2,
            result,
            src1_val,
            src2_val,
            immediate,
            latency: class.latency(),
            port: class.port(),
            flags,
            taken,
            mispredict: class == UopClass::Branch && rng.gen::<f64>() < self.profile.p_mispredict,
            tos: if fp { self.tos } else { 0 },
            shift1: !fp && rng.gen::<f64>() < self.profile.p_shift,
            shift2: !fp && rng.gen::<f64>() < self.profile.p_shift,
            opcode: self.opcode_map.code(class, rng),
            mem_addr,
            carry_in: class == UopClass::IntAlu && rng.gen::<f64>() < self.profile.p_carry_in,
        }
    }
}

impl Iterator for TraceIter {
    type Item = Uop;

    fn next(&mut self) -> Option<Uop> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.gen_uop())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for TraceIter {}

/// The trace population used for an experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    specs: Vec<TraceSpec>,
}

impl Workload {
    /// A workload with no traces (useful for fault injection; every
    /// experiment driver rejects it with [`TraceError::EmptyWorkload`]).
    pub fn empty() -> Self {
        Workload { specs: Vec::new() }
    }

    /// The full 531-trace population of Table 1.
    pub fn full() -> Self {
        let specs = Suite::ALL
            .iter()
            .flat_map(|&s| (0..s.trace_count()).map(move |i| TraceSpec::new(s, i)))
            .collect();
        Workload { specs }
    }

    /// A deterministic subsample of ~`per_suite` traces per suite (all
    /// suites represented), for faster experiments.
    pub fn sample(per_suite: usize) -> Self {
        let specs = Suite::ALL
            .iter()
            .flat_map(|&s| {
                let n = per_suite.min(s.trace_count());
                // Spread indices across the suite.
                (0..n).map(move |i| TraceSpec::new(s, i * s.trace_count() / n.max(1)))
            })
            .collect();
        Workload { specs }
    }

    /// A deterministic subsample of ~`count` traces of a *single* suite,
    /// spread across the suite's Table 1 population. Fleet-scale studies
    /// (`penelope::fleet`) use one of these per workload mix: every core
    /// instance assigned the mix replays the same trace population.
    pub fn suite_sample(suite: Suite, count: usize) -> Self {
        let n = count.min(suite.trace_count());
        let specs = (0..n)
            .map(|i| TraceSpec::new(suite, i * suite.trace_count() / n.max(1)))
            .collect();
        Workload { specs }
    }

    /// The trace specs.
    pub fn specs(&self) -> &[TraceSpec] {
        &self.specs
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Splits into profiling and evaluation populations, as §4.5 does
    /// ("selection of K ... based on ... 100 random traces out of the 531
    /// ones available; then ... used for the remaining 431").
    pub fn split_profiling(&self, profiling: usize) -> (Workload, Workload) {
        // Deterministic interleave: every len/profiling-th trace profiles.
        let n = self.specs.len();
        let take = profiling.min(n);
        let mut prof = Vec::with_capacity(take);
        let mut eval = Vec::with_capacity(n - take);
        let stride = n.max(1) as f64 / take.max(1) as f64;
        let mut next_mark = 0.0;
        let mut picked = 0;
        for (i, &spec) in self.specs.iter().enumerate() {
            if picked < take && i as f64 >= next_mark {
                prof.push(spec);
                picked += 1;
                next_mark += stride;
            } else {
                eval.push(spec);
            }
        }
        (Workload { specs: prof }, Workload { specs: eval })
    }
}

impl FromIterator<TraceSpec> for Workload {
    fn from_iter<I: IntoIterator<Item = TraceSpec>>(iter: I) -> Self {
        Workload {
            specs: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = TraceSpec::new(Suite::Office, 3);
        let a: Vec<Uop> = spec.generate(500).collect();
        let b: Vec<Uop> = spec.generate(500).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_traces_differ() {
        let a: Vec<Uop> = TraceSpec::new(Suite::Office, 0).generate(100).collect();
        let b: Vec<Uop> = TraceSpec::new(Suite::Office, 1).generate(100).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn class_mix_roughly_matches_profile() {
        let spec = TraceSpec::new(Suite::SpecInt2000, 0);
        let uops: Vec<Uop> = spec.generate(20_000).collect();
        let loads =
            uops.iter().filter(|u| u.class == UopClass::Load).count() as f64 / uops.len() as f64;
        let expected = Suite::SpecInt2000.profile().class_mix[4];
        assert!((loads - expected).abs() < 0.02, "load frac {loads}");
        assert!(uops.iter().all(|u| !u.class.is_fp()), "no FP in SpecINT");
    }

    #[test]
    fn carry_in_is_zero_more_than_90_percent() {
        let spec = TraceSpec::new(Suite::Kernels, 0);
        let adds: Vec<Uop> = spec
            .generate(50_000)
            .filter(|u| u.class == UopClass::IntAlu)
            .collect();
        let carry = adds.iter().filter(|u| u.carry_in).count() as f64 / adds.len() as f64;
        assert!(carry < 0.10, "carry-in set {carry} of the time");
    }

    #[test]
    fn memory_uops_have_addresses_and_others_do_not() {
        let spec = TraceSpec::new(Suite::Server, 0);
        for u in spec.generate(5_000) {
            assert_eq!(u.mem_addr.is_some(), u.class.is_memory());
        }
    }

    #[test]
    fn opcode_bits_self_balance() {
        let spec = TraceSpec::new(Suite::Multimedia, 2);
        let uops: Vec<Uop> = spec.generate(30_000).collect();
        for bit in 0..12 {
            let ones = uops.iter().filter(|u| (u.opcode >> bit) & 1 == 1).count() as f64
                / uops.len() as f64;
            assert!(
                (0.3..=0.7).contains(&ones),
                "opcode bit {bit} imbalanced: {ones}"
            );
        }
    }

    #[test]
    fn workload_full_is_531() {
        assert_eq!(Workload::full().len(), 531);
    }

    #[test]
    fn workload_sample_covers_all_suites() {
        let w = Workload::sample(2);
        assert_eq!(w.len(), 20);
        for s in Suite::ALL {
            assert!(w.specs().iter().any(|t| t.suite() == s));
        }
    }

    #[test]
    fn suite_sample_stays_inside_one_suite() {
        let w = Workload::suite_sample(Suite::SpecInt2000, 3);
        assert_eq!(w.len(), 3);
        assert!(w.specs().iter().all(|t| t.suite() == Suite::SpecInt2000));
        // Oversampling clamps to the suite population, indices all valid.
        let w = Workload::suite_sample(Suite::Spec2006, 10_000);
        assert_eq!(w.len(), Suite::Spec2006.trace_count());
        let mut indices: Vec<usize> = w.specs().iter().map(|t| t.index()).collect();
        indices.dedup();
        assert_eq!(indices.len(), w.len(), "indices are distinct");
        assert!(Workload::suite_sample(Suite::Office, 0).is_empty());
    }

    #[test]
    fn split_profiling_partitions() {
        let w = Workload::full();
        let (prof, eval) = w.split_profiling(100);
        assert_eq!(prof.len(), 100);
        assert_eq!(eval.len(), 431);
        for p in prof.specs() {
            assert!(!eval.specs().contains(p));
        }
    }

    #[test]
    #[should_panic(expected = "traces")]
    fn out_of_range_index_panics() {
        let _ = TraceSpec::new(Suite::Spec2006, 33);
    }

    #[test]
    fn try_new_reports_out_of_range_as_error() {
        assert!(TraceSpec::try_new(Suite::Spec2006, 0).is_ok());
        assert_eq!(
            TraceSpec::try_new(Suite::Spec2006, 33),
            Err(TraceError::IndexOutOfRange {
                suite: Suite::Spec2006,
                index: 33,
                count: Suite::Spec2006.trace_count(),
            })
        );
    }

    #[test]
    fn empty_workload_is_empty() {
        let w = Workload::empty();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TraceSpec::new(Suite::Office, 7).to_string(), "Office#7");
    }
}
