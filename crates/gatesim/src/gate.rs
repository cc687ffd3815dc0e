//! CMOS gate primitives.
//!
//! Each primitive is a static CMOS gate: every input drives the gate
//! terminal of exactly one PMOS (in the pull-up network) and one NMOS (in
//! the pull-down network). For NBTI purposes only the PMOS matters, and it
//! is under stress precisely while its input is at logic "0" — regardless of
//! where the transistor sits in the series/parallel pull-up stack, because
//! stress depends on the gate-to-source field, which the paper (and the
//! literature it cites) approximates by the input level.
//!
//! Composite functions (AND, OR, XOR, ...) are *not* primitives; the
//! [`crate::netlist::NetlistBuilder`] expands them into these primitives so
//! that transistor counts and stress are faithful to a standard-cell
//! implementation.

use std::fmt;

/// Identifier of a net (wire) in a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Index of this net within its netlist.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a gate in a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// Builds the id of the gate at `index` in a netlist's gate list
    /// (for callers that enumerate `gates()` positionally, e.g. the
    /// differential tests comparing width annotations).
    pub fn from_index(index: usize) -> GateId {
        GateId(index as u32)
    }

    /// Index of this gate within its netlist.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// The static-CMOS primitives from which all circuits are built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Inverter: `out = !a`. 1 PMOS.
    Inv,
    /// 2-input NAND: `out = !(a & b)`. 2 parallel PMOS.
    Nand2,
    /// 3-input NAND: `out = !(a & b & c)`. 3 parallel PMOS.
    Nand3,
    /// 2-input NOR: `out = !(a | b)`. 2 series PMOS.
    Nor2,
    /// 3-input NOR: `out = !(a | b | c)`. 3 series PMOS.
    Nor3,
    /// And-Or-Invert 21: `out = !((a & b) | c)`. 3 PMOS.
    Aoi21,
    /// Or-And-Invert 21: `out = !((a | b) & c)`. 3 PMOS.
    Oai21,
}

impl GateKind {
    /// Number of inputs (each driving one PMOS gate terminal).
    pub fn arity(self) -> usize {
        match self {
            GateKind::Inv => 1,
            GateKind::Nand2 | GateKind::Nor2 => 2,
            GateKind::Nand3 | GateKind::Nor3 | GateKind::Aoi21 | GateKind::Oai21 => 3,
        }
    }

    /// Evaluates the gate's logic function on 64 independent lanes at
    /// once: bit `j` of the result is the output for bit `j` of every
    /// input word. This is the one statement of the gates' semantics;
    /// [`GateKind::eval`] is its single-lane wrapper.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is shorter than [`GateKind::arity`] (debug
    /// builds reject any length other than the arity).
    pub fn eval_word(self, inputs: &[u64]) -> u64 {
        debug_assert_eq!(inputs.len(), self.arity(), "gate {self:?} arity");
        match self {
            GateKind::Inv => !inputs[0],
            GateKind::Nand2 => !(inputs[0] & inputs[1]),
            GateKind::Nand3 => !(inputs[0] & inputs[1] & inputs[2]),
            GateKind::Nor2 => !(inputs[0] | inputs[1]),
            GateKind::Nor3 => !(inputs[0] | inputs[1] | inputs[2]),
            GateKind::Aoi21 => !((inputs[0] & inputs[1]) | inputs[2]),
            GateKind::Oai21 => !((inputs[0] | inputs[1]) & inputs[2]),
        }
    }

    /// Evaluates the gate's logic function for one input vector (lane 0
    /// of [`GateKind::eval_word`]).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` does not match [`GateKind::arity`].
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert_eq!(
            inputs.len(),
            self.arity(),
            "gate {self:?} expects {} inputs",
            self.arity()
        );
        let mut words = [0u64; 3];
        for (word, &input) in words.iter_mut().zip(inputs) {
            *word = u64::from(input);
        }
        self.eval_word(&words[..inputs.len()]) & 1 == 1
    }

    /// Short cell-library-style name.
    pub fn name(self) -> &'static str {
        match self {
            GateKind::Inv => "INV",
            GateKind::Nand2 => "NAND2",
            GateKind::Nand3 => "NAND3",
            GateKind::Nor2 => "NOR2",
            GateKind::Nor3 => "NOR3",
            GateKind::Aoi21 => "AOI21",
            GateKind::Oai21 => "OAI21",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One gate instance: a primitive, its input nets and its output net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    pub(crate) kind: GateKind,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) output: NetId,
}

impl Gate {
    /// The primitive kind.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Input nets, one per PMOS.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Output net.
    pub fn output(&self) -> NetId {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth_table(kind: GateKind) -> Vec<(Vec<bool>, bool)> {
        let n = kind.arity();
        (0..1usize << n)
            .map(|bits| {
                let inputs: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
                let out = kind.eval(&inputs);
                (inputs, out)
            })
            .collect()
    }

    #[test]
    fn inv_truth_table() {
        assert!(GateKind::Inv.eval(&[false]));
        assert!(!GateKind::Inv.eval(&[true]));
    }

    #[test]
    fn nand2_is_false_only_when_all_true() {
        for (inputs, out) in truth_table(GateKind::Nand2) {
            assert_eq!(out, !(inputs[0] && inputs[1]));
        }
    }

    #[test]
    fn nor3_is_true_only_when_all_false() {
        for (inputs, out) in truth_table(GateKind::Nor3) {
            assert_eq!(out, !inputs.iter().any(|&x| x));
        }
    }

    #[test]
    fn aoi21_matches_formula() {
        for (inputs, out) in truth_table(GateKind::Aoi21) {
            assert_eq!(out, !((inputs[0] && inputs[1]) || inputs[2]));
        }
    }

    #[test]
    fn oai21_matches_formula() {
        for (inputs, out) in truth_table(GateKind::Oai21) {
            assert_eq!(out, !((inputs[0] || inputs[1]) && inputs[2]));
        }
    }

    #[test]
    fn arity_matches_eval_expectations() {
        for kind in [
            GateKind::Inv,
            GateKind::Nand2,
            GateKind::Nand3,
            GateKind::Nor2,
            GateKind::Nor3,
            GateKind::Aoi21,
            GateKind::Oai21,
        ] {
            let inputs = vec![false; kind.arity()];
            let _ = kind.eval(&inputs); // must not panic
        }
    }

    /// Two input sets. In the first, lane `j` of input `i` is bit `i` of
    /// `j`, so the 64 lanes cycle through every input combination. The
    /// second is arbitrary, giving the lanes unrelated combinations.
    const LANE_WORDS: [[u64; 3]; 2] = [
        [
            0xAAAA_AAAA_AAAA_AAAA,
            0xCCCC_CCCC_CCCC_CCCC,
            0xF0F0_F0F0_F0F0_F0F0,
        ],
        [
            0x0123_4567_89AB_CDEF,
            0xF00D_CAFE_1234_5A5A,
            0x9E37_79B9_7F4A_7C15,
        ],
    ];

    #[test]
    fn eval_word_matches_written_truth_tables() {
        type Formula = fn(bool, bool, bool) -> bool;
        let cases: [(GateKind, Formula); 7] = [
            (GateKind::Inv, |a, _, _| !a),
            (GateKind::Nand2, |a, b, _| !(a && b)),
            (GateKind::Nand3, |a, b, c| !(a && b && c)),
            (GateKind::Nor2, |a, b, _| !(a || b)),
            (GateKind::Nor3, |a, b, c| !(a || b || c)),
            (GateKind::Aoi21, |a, b, c| !((a && b) || c)),
            (GateKind::Oai21, |a, b, c| !((a || b) && c)),
        ];
        for words in LANE_WORDS {
            for (kind, formula) in cases {
                let out = kind.eval_word(&words[..kind.arity()]);
                for lane in 0..64 {
                    let bit = |i: usize| (words[i] >> lane) & 1 == 1;
                    assert_eq!(
                        (out >> lane) & 1 == 1,
                        formula(bit(0), bit(1), bit(2)),
                        "{kind} lane {lane} of {words:x?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn eval_panics_on_wrong_arity() {
        GateKind::Nand2.eval(&[true]);
    }

    #[test]
    fn display_names() {
        assert_eq!(GateKind::Aoi21.to_string(), "AOI21");
        assert_eq!(NetId(3).to_string(), "n3");
        assert_eq!(GateId(7).to_string(), "g7");
    }
}
