//! Gate-level logic simulation with per-PMOS NBTI stress tracking.
//!
//! The Penelope paper evaluates its combinational-block strategy on a 32-bit
//! Ladner-Fischer adder with an electrical aging simulator. This crate is
//! the logical-level equivalent: circuits are built from CMOS primitives
//! (inverter, NAND, NOR, AOI), every primitive input corresponds to exactly
//! one PMOS gate terminal, and a PMOS is under NBTI stress exactly while its
//! input net is at logic "0".
//!
//! Contents:
//!
//! - [`netlist`]: netlist construction ([`netlist::NetlistBuilder`]) and
//!   evaluation, 64 input vectors per forward pass. Composite helpers
//!   (AND/OR/XOR/XNOR/MUX) expand into the primitives, so transistor
//!   counting stays faithful.
//! - [`gate`]: the CMOS primitives and their 64-lane truth functions.
//! - [`pmos`]: transistor enumeration and width classes. Width is assigned
//!   by output fanout, mirroring how high-fanout gates are upsized in a real
//!   layout. Wide PMOS tolerate NBTI much better (paper §2, \[19\]).
//! - [`stress`]: duty-cycle accumulation per PMOS across an input stream.
//! - [`adder`]: 32-bit (any width) Ladner-Fischer parallel-prefix adder and
//!   a ripple-carry baseline.
//! - [`vectors`]: the eight synthetic idle vectors of §4.3 and round-robin
//!   pair campaigns (Figures 4 and 5).
//! - [`blif`]: a dependency-free BLIF front end (parse/export) so any
//!   synthesized combinational circuit — decoders, multipliers, whole
//!   datapaths — can be imported and aged like the hand-built adder.
//! - [`passes`]: the netlist pass pipeline (dead-cone elimination,
//!   instance mapping, seeded deterministic partitioning) and hermetic
//!   per-partition stress accumulation.
//! - [`error`]: typed errors (BLIF rejections carry line context).
//!
//! # Example
//!
//! ```
//! use gatesim::adder::LadnerFischerAdder;
//! use gatesim::stress::StressTracker;
//! use gatesim::vectors::SyntheticVector;
//!
//! let adder = LadnerFischerAdder::new(32);
//! assert_eq!(adder.add(7, 8, false), (15, false));
//!
//! // Alternate the <0,0,0> and <1,1,1> idle vectors (pair "1+8"): every
//! // narrow PMOS ends at 0%, 50% or 100% zero-signal probability.
//! let mut tracker = StressTracker::new(adder.netlist());
//! for v in [SyntheticVector::V1, SyntheticVector::V8] {
//!     let (a, b, cin) = v.operands(adder.width());
//!     tracker.apply(adder.netlist(), &adder.input_assignment(a, b, cin), 1);
//! }
//! let worst = tracker.worst_narrow_duty();
//! assert!(worst.fraction() <= 1.0);
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod adder;
pub mod blif;
pub mod error;
pub mod gate;
pub mod netlist;
pub mod passes;
pub mod pmos;
pub mod stress;
pub mod vectors;
