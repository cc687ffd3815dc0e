//! The NBTI-aware scheduler (§4.5): per-field balancing techniques.
//!
//! Each field of a released slot is rewritten with balancing contents
//! through a spare allocation port. The technique per field (in the paper's
//! default, per *bit* for the latency field) follows the Figure 3 casuistic:
//!
//! - `ALL1`: latency bits 4–5, port, flags, shift1, shift2;
//! - `ALL1-K%`: latency bits 1–3 (K = 95/75/95%), taken (50%), tos (50%),
//!   ready1/ready2 (60%);
//! - `ISV`: SRC1 data, SRC2 data, immediate (sampled from register
//!   reads/bypasses and from the instruction);
//! - nothing: register tags and MOB id (self-balanced), the valid bit
//!   (always live), and the opcode (balanced by smart encoding).
//!
//! K values may also be *profiled*: [`SchedulerPolicy::from_scheduler`]
//! derives per-bit techniques from a measurement run, the way the paper
//! derives its Ks from 100 profiling traces.

use nbti_model::duty::Duty;
use nbti_model::guardband::GuardbandModel;
use nbti_model::metric::BlockCost;
use uarch::pipeline::Hooks;
use uarch::scheduler::{EntryValues, Field, Scheduler, SlotId};

use crate::rinv::Rinv;
use crate::technique::{choose_technique, KCounter, Technique, TechniqueError};

/// Inverted/non-inverted residency timestamps for one sampled entry — the
/// §3.2.2 gate deciding whether ISV writes should happen right now. The
/// paper uses "2 timestamps of 10 bits each" for the scheduler: one shared
/// by the SRC data fields, one for the immediate.
#[derive(Debug, Clone, Copy, Default)]
struct IsvGate {
    inverted: bool,
    since: u64,
    time_inverted: u64,
    time_normal: u64,
}

impl IsvGate {
    fn flip(&mut self, inverted: bool, now: u64) {
        let elapsed = now.saturating_sub(self.since);
        if self.inverted {
            self.time_inverted += elapsed;
        } else {
            self.time_normal += elapsed;
        }
        self.inverted = inverted;
        self.since = now;
    }

    fn should_invert(&self, now: u64) -> bool {
        let open = now.saturating_sub(self.since);
        let (inv, norm) = if self.inverted {
            (self.time_inverted + open, self.time_normal)
        } else {
            (self.time_inverted, self.time_normal + open)
        };
        norm >= inv
    }
}

/// Per-bit technique assignment for every scheduler field.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerPolicy {
    bits: [Vec<Technique>; 18],
}

impl SchedulerPolicy {
    /// The paper's classification (§4.5).
    pub fn paper_default() -> Self {
        let mut bits: [Vec<Technique>; 18] =
            std::array::from_fn(|i| vec![Technique::None; Field::ALL[i].width()]);
        let set = |bits: &mut [Vec<Technique>; 18], f: Field, t: Technique| {
            bits[f.index()] = vec![t; f.width()];
        };
        // ALL1 fields.
        set(&mut bits, Field::Port, Technique::All1);
        set(&mut bits, Field::Flags, Technique::All1);
        set(&mut bits, Field::Shift1, Technique::All1);
        set(&mut bits, Field::Shift2, Technique::All1);
        // Latency: bits 1–3 are ALL1-K%, bits 4–5 ALL1 (paper numbering is
        // 1-based).
        bits[Field::Latency.index()] = vec![
            Technique::All1K(0.95),
            Technique::All1K(0.75),
            Technique::All1K(0.95),
            Technique::All1,
            Technique::All1,
        ];
        set(&mut bits, Field::Taken, Technique::All1K(0.50));
        set(&mut bits, Field::Tos, Technique::All1K(0.50));
        set(&mut bits, Field::Ready1, Technique::All1K(0.60));
        set(&mut bits, Field::Ready2, Technique::All1K(0.60));
        // ISV fields.
        set(&mut bits, Field::Src1Data, Technique::Isv);
        set(&mut bits, Field::Src2Data, Technique::Isv);
        set(&mut bits, Field::Immediate, Technique::Isv);
        // Tags, MOB id: self-balanced. Valid: unprotectable. Opcode:
        // balanced by encoding. All remain Technique::None.
        SchedulerPolicy { bits }
    }

    /// Derives a policy from a profiling run: for each bit, applies the
    /// Figure 3 casuistic to its measured occupancy and bias (the paper
    /// computes its K values from 100 random traces the same way).
    ///
    /// Self-balanced fields, the valid bit and the opcode keep
    /// [`Technique::None`]; fields free most of the time get ISV.
    ///
    /// # Errors
    ///
    /// Returns a [`TechniqueError`] if a measured occupancy or bias is
    /// outside `[0, 1]` (a corrupted measurement chain).
    pub fn from_scheduler(sched: &mut Scheduler, now: u64) -> Result<Self, TechniqueError> {
        sched.sync(now);
        let occupancy = sched.occupancy(now);
        let data_occupancy = sched.data_occupancy(now);
        let mut bits: [Vec<Technique>; 18] =
            std::array::from_fn(|i| vec![Technique::None; Field::ALL[i].width()]);
        for field in Field::ALL {
            if field.is_self_balanced() || field == Field::Valid || field == Field::Opcode {
                continue;
            }
            let occ = if field.is_data() {
                data_occupancy
            } else {
                occupancy
            };
            let residency = sched.field_residency(field);
            for (bit, slot) in bits[field.index()].iter_mut().enumerate() {
                // Total-time bias approximates busy-time bias because idle
                // cells keep their last (busy-distribution) contents.
                let b0 = residency.bias(bit).fraction();
                *slot = choose_technique(occ, b0, 1.0 - b0)?;
            }
        }
        Ok(SchedulerPolicy { bits })
    }

    /// The technique protecting one bit of a field.
    pub fn technique(&self, field: Field, bit: usize) -> Technique {
        self.bits[field.index()][bit]
    }

    /// Checks every K fraction in the policy against its `[0, 1]` budget.
    /// `ALL1-K%`/`ALL0-K%` entries are constructed in range by the
    /// casuistic, but policies can also be assembled by hand.
    pub fn validate_k_budgets(&self) -> Result<(), TechniqueError> {
        for field_bits in &self.bits {
            for t in field_bits {
                if let Technique::All1K(k) | Technique::All0K(k) = t {
                    if !(0.0..=1.0).contains(k) {
                        return Err(TechniqueError::BiasOutOfRange(*k));
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether any bit of the field receives balancing writes.
    pub fn protects(&self, field: Field) -> bool {
        self.bits[field.index()]
            .iter()
            .any(|t| !matches!(t, Technique::None))
    }

    /// Encodes the policy for the sweep engine's checkpoint journal: one
    /// array per field in [`Field::ALL`] order, one entry per bit —
    /// `"all1"`, `"all0"`, `"isv"`, `"none"`, or `["all1k", k]` /
    /// `["all0k", k]`.
    pub fn to_json(&self) -> penelope_telemetry::Json {
        use penelope_telemetry::Json;
        Json::Array(
            self.bits
                .iter()
                .map(|field_bits| {
                    Json::Array(
                        field_bits
                            .iter()
                            .map(|t| match t {
                                Technique::All1 => Json::Str("all1".into()),
                                Technique::All0 => Json::Str("all0".into()),
                                Technique::Isv => Json::Str("isv".into()),
                                Technique::None => Json::Str("none".into()),
                                Technique::All1K(k) => {
                                    Json::Array(vec![Json::Str("all1k".into()), Json::Float(*k)])
                                }
                                Technique::All0K(k) => {
                                    Json::Array(vec![Json::Str("all0k".into()), Json::Float(*k)])
                                }
                            })
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    /// Decodes a [`SchedulerPolicy::to_json`] encoding.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field or technique.
    pub fn from_json(json: &penelope_telemetry::Json) -> Result<Self, String> {
        use penelope_telemetry::Json;
        let fields = json
            .as_array()
            .ok_or("scheduler policy must be an array of per-field arrays")?;
        if fields.len() != Field::ALL.len() {
            return Err(format!(
                "scheduler policy has {} fields, expected {}",
                fields.len(),
                Field::ALL.len()
            ));
        }
        let mut bits: [Vec<Technique>; 18] = std::array::from_fn(|_| Vec::new());
        for (i, field_bits) in fields.iter().enumerate() {
            let field_bits = field_bits
                .as_array()
                .ok_or_else(|| format!("policy field {i} must be an array"))?;
            bits[i] = field_bits
                .iter()
                .map(|t| match t {
                    Json::Str(name) => match name.as_str() {
                        "all1" => Ok(Technique::All1),
                        "all0" => Ok(Technique::All0),
                        "isv" => Ok(Technique::Isv),
                        "none" => Ok(Technique::None),
                        other => Err(format!("unknown technique {other:?}")),
                    },
                    Json::Array(pair) if pair.len() == 2 => {
                        let k = pair[1].as_f64().ok_or("technique K must be a number")?;
                        match pair[0].as_str() {
                            Some("all1k") => Ok(Technique::All1K(k)),
                            Some("all0k") => Ok(Technique::All0K(k)),
                            _ => Err("K-technique tag must be \"all1k\" or \"all0k\"".into()),
                        }
                    }
                    other => Err(format!(
                        "technique must be a string or [tag, k] pair, got {}",
                        other.type_name()
                    )),
                })
                .collect::<Result<Vec<_>, String>>()
                .map_err(|e| format!("policy field {i}: {e}"))?;
        }
        Ok(SchedulerPolicy { bits })
    }
}

/// Precomputed write plan for one field, derived from the policy once at
/// construction. The release path runs once per retired uop, so the per-bit
/// technique match is folded into per-field words ahead of time: `ALL1`
/// bits collapse into a constant, ISV bits into a mask over the RINV image,
/// and the `ALL1-K%`/`ALL0-K%` bits into one table of K-bit values per
/// counter phase. Every K-counter of a field ticks exactly once per
/// rewrite of that field, so one phase per field reproduces each
/// `KCounter::tick` sequence.
#[derive(Debug, Clone)]
struct FieldPlan {
    /// Mirrors [`SchedulerPolicy::protects`].
    protected: bool,
    /// Whether any bit is ISV (the field honors a timestamp gate).
    gated: bool,
    /// The `ALL1` bits, pre-assembled.
    constant: u128,
    /// The ISV bits; they copy the RINV image.
    isv_mask: u128,
    /// The K bits' values at each counter phase; empty without K bits.
    k_values: Vec<u128>,
}

impl FieldPlan {
    fn build(bits: &[Technique]) -> Self {
        let mut plan = FieldPlan {
            protected: false,
            gated: false,
            constant: 0,
            isv_mask: 0,
            k_values: Vec::new(),
        };
        let mut counters = Vec::new();
        for (bit, t) in bits.iter().enumerate() {
            match t {
                Technique::None => continue,
                Technique::All1 => plan.constant |= 1 << bit,
                Technique::All0 => {}
                Technique::Isv => {
                    plan.gated = true;
                    plan.isv_mask |= 1 << bit;
                }
                Technique::All1K(k) => counters.push((bit, true, KCounter::new(*k))),
                Technique::All0K(k) => counters.push((bit, false, KCounter::new(*k))),
            }
            plan.protected = true;
        }
        if !counters.is_empty() {
            for _ in 0..K_PERIOD {
                let mut value = 0;
                for (bit, all1, counter) in &mut counters {
                    if counter.tick() == *all1 {
                        value |= 1 << *bit;
                    }
                }
                plan.k_values.push(value);
            }
        }
        plan
    }

    /// The field's value at K phase `phase`, with ISV bits from `image`
    /// (the phase is ignored without K bits).
    fn value(&self, phase: u8, image: u128) -> u128 {
        let k = self.k_values.get(usize::from(phase)).copied().unwrap_or(0);
        self.constant | (image & self.isv_mask) | k
    }
}

/// Ticks after which every [`KCounter`] repeats its sequence.
const K_PERIOD: u8 = 32;

/// The balancing mechanism: slot-release rewrites driven by a policy.
///
/// The fields without ISV bits are rewritten on every release that finds a
/// port, so their K-counters all share one phase, and their part of the
/// rewrite is one precomputed image per phase. Only the gated (ISV) fields
/// are assembled per release.
#[derive(Debug, Clone)]
pub struct SchedulerBalancer {
    policy: SchedulerPolicy,
    /// Per-field write plans precomputed from the policy.
    plans: [FieldPlan; 18],
    /// The rewrite of every protected, ungated field at each K phase.
    ungated: Vec<EntryValues>,
    /// K phase of the ungated fields: an index into `ungated`.
    phase: u8,
    /// Bit `i` set for each gated field `Field::ALL[i]`.
    gated: u32,
    /// K phase of each gated field (it advances only when its gate opens).
    gated_phases: [u8; 18],
    /// RINV images for the ISV fields.
    rinv_src1: Rinv,
    rinv_src2: Rinv,
    rinv_imm: Rinv,
    /// ISV timestamp gates: one shared by the SRC data fields, one for the
    /// immediate, sampled on slot 0.
    gate_data: IsvGate,
    gate_imm: IsvGate,
    attempts: u64,
    successes: u64,
}

/// The slot whose residency the ISV gates sample (fixed, like the paper's
/// fixed sampled entry).
const SAMPLED_SLOT: SlotId = 0;

impl SchedulerBalancer {
    /// Creates the mechanism with the given policy; ISV fields sample every
    /// `sample_period` cycles.
    pub fn new(policy: SchedulerPolicy, sample_period: u64) -> Self {
        let plans: [FieldPlan; 18] = std::array::from_fn(|i| FieldPlan::build(&policy.bits[i]));
        let ungated = (0..K_PERIOD)
            .map(|phase| {
                let mut image = EntryValues::default();
                for (field, plan) in Field::ALL.into_iter().zip(&plans) {
                    if plan.protected && !plan.gated {
                        image.set(field, plan.value(phase, 0));
                    }
                }
                image
            })
            .collect();
        let gated = (0..18)
            .filter(|&i| plans[i].gated)
            .fold(0, |m, i| m | 1 << i);
        SchedulerBalancer {
            policy,
            plans,
            ungated,
            phase: 0,
            gated,
            gated_phases: [0; 18],
            rinv_src1: Rinv::new(32, sample_period),
            rinv_src2: Rinv::new(32, sample_period),
            rinv_imm: Rinv::new(16, sample_period),
            gate_data: IsvGate::default(),
            gate_imm: IsvGate::default(),
            attempts: 0,
            successes: 0,
        }
    }

    /// With the paper's default classification.
    pub fn paper_default(sample_period: u64) -> Self {
        SchedulerBalancer::new(SchedulerPolicy::paper_default(), sample_period)
    }

    /// The policy in use.
    pub fn policy(&self) -> &SchedulerPolicy {
        &self.policy
    }

    /// Samples the ISV RINVs from a newly captured slot (values come from
    /// the register file read/bypass network and the instruction itself),
    /// and updates the sampled-slot gates.
    pub fn on_allocated(&mut self, slot: SlotId, values: &EntryValues, now: u64) {
        if values.is_driven(Field::Src1Data) {
            self.rinv_src1.offer(values.get(Field::Src1Data), now);
        }
        if values.is_driven(Field::Src2Data) {
            self.rinv_src2.offer(values.get(Field::Src2Data), now);
        }
        if values.is_driven(Field::Immediate) {
            self.rinv_imm.offer(values.get(Field::Immediate), now);
        }
        if slot == SAMPLED_SLOT {
            if values.is_driven(Field::Src1Data) || values.is_driven(Field::Src2Data) {
                self.gate_data.flip(false, now);
            }
            if values.is_driven(Field::Immediate) {
                self.gate_imm.flip(false, now);
            }
        }
    }

    /// Handles a slot release: rewrites the slot's protectable fields with
    /// balancing contents through a spare allocation port (one port per
    /// slot rewrite; updates that find no port are dropped). The rewrite is
    /// assembled into one image and captured in a single write.
    pub fn on_released(&mut self, sched: &mut Scheduler, slot: SlotId, now: u64) {
        self.attempts += 1;
        if sched.is_busy(slot) || !sched.consume_port(now) {
            return;
        }
        self.successes += 1;
        let image = self.rewrite(slot, now);
        sched.capture(slot, &image, now);
    }

    /// The balancing image of one released slot: the ungated fields at the
    /// current K phase, plus each gated field whose gate is open, in
    /// [`Field::ALL`] order. Advances the K phases and the sampled gates.
    fn rewrite(&mut self, slot: SlotId, now: u64) -> EntryValues {
        let mut image = self.ungated[usize::from(self.phase)];
        self.phase = (self.phase + 1) % K_PERIOD;
        let mut gated = self.gated;
        while gated != 0 {
            let i = gated.trailing_zeros() as usize;
            gated &= gated - 1;
            let field = Field::ALL[i];
            // ISV-protected fields honor their timestamp gate: writing
            // inverted samples into every released slot forever would swing
            // the bias past 50% the other way.
            let gate = if field == Field::Immediate {
                &mut self.gate_imm
            } else {
                &mut self.gate_data
            };
            if !gate.should_invert(now) {
                continue;
            }
            if slot == SAMPLED_SLOT {
                gate.flip(true, now);
            }
            let rinv = match field {
                Field::Src2Data => &self.rinv_src2,
                Field::Immediate => &self.rinv_imm,
                // ISV on a non-data field samples the same image as src1
                // (profiled policies may assign it).
                _ => &self.rinv_src1,
            };
            let phase = &mut self.gated_phases[i];
            image.set(field, self.plans[i].value(*phase, rinv.value()));
            *phase = (*phase + 1) % K_PERIOD;
        }
        image
    }

    /// XORs a mask into all three ISV RINV images (fault injection).
    pub fn corrupt_rinv(&mut self, mask: u128) {
        self.rinv_src1.corrupt(mask);
        self.rinv_src2.corrupt(mask);
        self.rinv_imm.corrupt(mask);
    }

    /// Worst staleness over the ISV RINV images at `now`, with the sampling
    /// period (for freshness checks).
    pub fn rinv_staleness(&self, now: u64) -> (u64, u64) {
        let worst = self
            .rinv_src1
            .staleness(now)
            .max(self.rinv_src2.staleness(now))
            .max(self.rinv_imm.staleness(now));
        (worst, self.rinv_src1.period())
    }

    /// Fraction of releases whose balancing write went through (the paper
    /// finds ports available 77% of the time).
    pub fn update_success_rate(&self) -> f64 {
        if self.attempts == 0 {
            1.0
        } else {
            self.successes as f64 / self.attempts as f64
        }
    }

    /// The §4.5 cost record: ~2% TDP (RINV + counters + timestamps), no
    /// delay impact, guardband from the worst residual bias.
    pub fn block_cost(worst_bias: Duty, model: &GuardbandModel) -> BlockCost {
        let gb = model.cell_guardband(worst_bias);
        BlockCost::new(1.0, 1.02, gb.fraction())
    }
}

/// Hook adapter for the scheduler balancer.
#[derive(Debug, Clone)]
pub struct SchedulerHooks {
    /// The wrapped mechanism.
    pub balancer: SchedulerBalancer,
}

impl SchedulerHooks {
    /// With the paper's default policy.
    pub fn paper_default(sample_period: u64) -> Self {
        SchedulerHooks {
            balancer: SchedulerBalancer::paper_default(sample_period),
        }
    }
}

impl Hooks for SchedulerHooks {
    fn scheduler_allocated(
        &mut self,
        _sched: &mut Scheduler,
        slot: SlotId,
        values: &EntryValues,
        now: u64,
    ) {
        self.balancer.on_allocated(slot, values, now);
    }

    fn scheduler_released(&mut self, sched: &mut Scheduler, slot: SlotId, now: u64) {
        self.balancer.on_released(sched, slot, now);
    }
}

/// Worst cell duty over the protectable bits of Figure 8 (every field but
/// the opcode; the paper plots exactly that set).
pub fn worst_figure8_bias(sched: &Scheduler) -> Duty {
    Field::ALL
        .iter()
        .filter(|f| **f != Field::Opcode)
        .map(|f| sched.field_residency(*f).worst_cell_duty())
        .fold(Duty::ZERO, |w, d| if d > w { d } else { w })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::suite::Suite;
    use tracegen::trace::TraceSpec;
    use uarch::pipeline::{NoHooks, Pipeline, PipelineConfig};

    #[test]
    fn policy_json_roundtrip_is_exact() {
        let policy = SchedulerPolicy::paper_default();
        let encoded = policy.to_json().encode();
        let parsed = penelope_telemetry::json::parse(&encoded).expect("parses");
        let restored = SchedulerPolicy::from_json(&parsed).expect("decodes");
        assert_eq!(restored, policy);
        for (broken, why) in [
            ("[]", "wrong field count"),
            (r#"[["bogus"]]"#, "unknown technique"),
        ] {
            let parsed = penelope_telemetry::json::parse(broken).expect("parses");
            assert!(
                SchedulerPolicy::from_json(&parsed).is_err(),
                "expected decode error: {why}"
            );
        }
    }

    #[test]
    fn paper_policy_classification() {
        let p = SchedulerPolicy::paper_default();
        assert_eq!(p.technique(Field::Flags, 0), Technique::All1);
        assert_eq!(p.technique(Field::Latency, 4), Technique::All1);
        assert!(matches!(
            p.technique(Field::Latency, 1),
            Technique::All1K(k) if (k - 0.75).abs() < 1e-9
        ));
        assert_eq!(p.technique(Field::Src1Data, 13), Technique::Isv);
        assert_eq!(p.technique(Field::DstTag, 0), Technique::None);
        assert_eq!(p.technique(Field::Valid, 0), Technique::None);
        assert!(!p.protects(Field::MobId));
        assert!(p.protects(Field::Taken));
    }

    #[test]
    fn balancer_reduces_scheduler_bias() {
        let trace = || TraceSpec::new(Suite::Office, 2).generate(40_000);

        let mut base = Pipeline::new(PipelineConfig::default());
        base.run(trace(), &mut NoHooks);
        let now = base.now();
        base.parts.sched.sync(now);
        let base_worst = worst_figure8_bias(&base.parts.sched);

        // K values are profiled, exactly as the paper derives them from
        // 100 profiling traces (§4.5).
        let policy = SchedulerPolicy::from_scheduler(&mut base.parts.sched, now)
            .expect("profiled biases are in range");
        let mut aware = Pipeline::new(PipelineConfig::default());
        let mut hooks = SchedulerHooks {
            balancer: SchedulerBalancer::new(policy, 256),
        };
        aware.run(trace(), &mut hooks);
        let now = aware.now();
        aware.parts.sched.sync(now);
        let aware_worst = worst_figure8_bias(&aware.parts.sched);

        // Paper: worst bias falls from ~100% to 63.2% (their occupancy is
        // 63%; ours is ~70%, and the floor is set by the valid bit, which
        // cannot be protected).
        assert!(base_worst.fraction() > 0.95, "baseline worst {base_worst}");
        assert!(
            aware_worst.fraction() < 0.85,
            "aware {aware_worst} vs baseline {base_worst}"
        );
        assert!(aware_worst.fraction() < base_worst.fraction() - 0.1);
    }

    #[test]
    fn profiled_policy_matches_casuistic_expectations() {
        let mut pipe = Pipeline::new(PipelineConfig::default());
        pipe.run(
            TraceSpec::new(Suite::SpecInt2000, 0).generate(30_000),
            &mut NoHooks,
        );
        let now = pipe.now();
        let occupancy = pipe.parts.sched.occupancy(now);
        let policy = SchedulerPolicy::from_scheduler(&mut pipe.parts.sched, now)
            .expect("profiled biases are in range");
        // Flags bits are ~always 0 while busy: above 50% occupancy the
        // casuistic picks an ALL1 variant, below it falls back to ISV.
        if occupancy > 0.5 {
            assert!(matches!(
                policy.technique(Field::Flags, 5),
                Technique::All1 | Technique::All1K(_)
            ));
        } else {
            assert_eq!(policy.technique(Field::Flags, 5), Technique::Isv);
        }
        // Data fields are free most of the time → ISV.
        assert_eq!(policy.technique(Field::Src1Data, 0), Technique::Isv);
        // Self-balanced fields are untouched.
        assert_eq!(policy.technique(Field::MobId, 0), Technique::None);
    }

    /// Builds the balancing rewrite of 70 releases (more than two K
    /// periods) of the slots `slot_of(release)` and checks every rewritten
    /// field against a reference built bit by bit from per-bit
    /// `KCounter`s, which tick only when their field is rewritten, and the
    /// RINV images. Returns how many gated-field rewrites a closed gate
    /// skipped.
    fn check_plans_against_per_bit_reference(
        policy: SchedulerPolicy,
        slot_of: impl Fn(u64) -> SlotId,
    ) -> usize {
        let mut balancer = SchedulerBalancer::new(policy.clone(), 1);
        let mut counters: Vec<Vec<KCounter>> = Field::ALL
            .iter()
            .map(|&f| {
                (0..f.width())
                    .map(|bit| match policy.technique(f, bit) {
                        Technique::All1K(k) | Technique::All0K(k) => KCounter::new(k),
                        _ => KCounter::new(1.0),
                    })
                    .collect()
            })
            .collect();
        let mut uop = tracegen::uop::Uop::int_alu(1, 2, 3);
        let mut skipped = 0;
        for release in 0..70u64 {
            // Fresh RINV samples every release (period 1), so ISV bits
            // move; allocating and releasing the sampled slot 0 moves the
            // ISV gates.
            let slot = slot_of(release);
            uop.src1_val = (release as u32).wrapping_mul(0x9E37_79B9);
            uop.src2_val = !uop.src1_val.rotate_left(7);
            uop.immediate = Some((release as u16).wrapping_mul(0x6F4B));
            let values = EntryValues::from_uop(&uop, 0, 0, 0, 0, true, true);
            balancer.on_allocated(slot, &values, 10 * release);
            let image = balancer.rewrite(slot, 10 * release + 1 + release % 7);
            for field in Field::ALL {
                let gated =
                    (0..field.width()).any(|b| policy.technique(field, b) == Technique::Isv);
                if gated && !image.is_driven(field) {
                    skipped += 1;
                    continue;
                }
                assert_eq!(image.is_driven(field), policy.protects(field), "{field}");
                if !policy.protects(field) {
                    continue;
                }
                let rinv = match field {
                    Field::Src2Data => balancer.rinv_src2.value(),
                    Field::Immediate => balancer.rinv_imm.value(),
                    _ => balancer.rinv_src1.value(),
                };
                let mut want = 0u128;
                for (bit, counter) in counters[field.index()].iter_mut().enumerate() {
                    let one = match policy.technique(field, bit) {
                        Technique::All1 => true,
                        Technique::All0 | Technique::None => false,
                        Technique::All1K(_) => counter.tick(),
                        Technique::All0K(_) => !counter.tick(),
                        Technique::Isv => (rinv >> bit) & 1 == 1,
                    };
                    want |= u128::from(one) << bit;
                }
                assert_eq!(image.get(field), want, "{field}, release {release}");
            }
        }
        skipped
    }

    #[test]
    fn precomputed_plans_follow_closed_gates_for_mixed_isv_and_k_fields() {
        // Flags mixes ISV, ALL1-K%, ALL0-K% and ALL1 bits, so its K phase
        // must advance only on the releases its gate lets through.
        let mut policy = SchedulerPolicy::paper_default();
        policy.bits[Field::Flags.index()] = vec![
            Technique::Isv,
            Technique::All1K(0.75),
            Technique::All0K(0.4),
            Technique::All1,
            Technique::All1K(0.1),
            Technique::None,
        ];
        // Releasing the sampled slot 0 on three releases in four closes
        // the gates on some of them. Four gated fields over 70 releases.
        let slot_of = |r: u64| if r % 4 == 3 { 1 } else { 0 };
        let skipped = check_plans_against_per_bit_reference(policy, slot_of);
        assert!(skipped > 0, "no gate ever closed");
        assert!(skipped < 4 * 70, "no gate ever opened");
    }

    #[test]
    fn precomputed_plans_match_per_bit_techniques_for_the_paper_policy() {
        check_plans_against_per_bit_reference(SchedulerPolicy::paper_default(), |_| 1);
    }

    #[test]
    fn precomputed_plans_match_per_bit_techniques_for_a_profiled_policy() {
        let mut pipe = Pipeline::new(PipelineConfig::default());
        pipe.run(
            TraceSpec::new(Suite::Multimedia, 1).generate(5_000),
            &mut NoHooks,
        );
        let now = pipe.now();
        let policy = SchedulerPolicy::from_scheduler(&mut pipe.parts.sched, now)
            .expect("profiled biases are in range");
        let techniques: Vec<Technique> = Field::ALL
            .iter()
            .flat_map(|&f| (0..f.width()).map(move |bit| (f, bit)))
            .map(|(f, bit)| policy.technique(f, bit))
            .collect();
        // The profiled run must exercise both per-release kinds of bit.
        assert!(techniques
            .iter()
            .any(|t| matches!(t, Technique::All1K(_) | Technique::All0K(_))));
        assert!(techniques.contains(&Technique::Isv));
        check_plans_against_per_bit_reference(policy, |_| 1);
    }

    #[test]
    fn update_success_rate_reported() {
        let mut pipe = Pipeline::new(PipelineConfig::default());
        let mut hooks = SchedulerHooks::paper_default(256);
        pipe.run(
            TraceSpec::new(Suite::Kernels, 0).generate(20_000),
            &mut hooks,
        );
        let rate = hooks.balancer.update_success_rate();
        assert!(rate > 0.3, "success rate {rate}");
        assert!(hooks.balancer.attempts > 0);
    }
}
