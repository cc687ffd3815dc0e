//! Deterministic synthetic IA32-like uop traces.
//!
//! The Penelope paper drives its evaluation with 531 proprietary traces of
//! 10M IA32 instructions collected from ten benchmark suites (Table 1). We
//! cannot have those, so this crate generates *synthetic* traces that are
//! calibrated to the workload statistics the paper actually relies on:
//!
//! - per-bit value bias of integer data (65–90% towards "0" in the integer
//!   register file, §1.1 and Figure 6);
//! - FP data whose worst bit bias is ~84% (Figure 6), with x87-style 80-bit
//!   encoding (sign/exponent/explicit-integer-bit structure);
//! - carry-in of additions "0" more than 90% of the time (§1.1);
//! - near-100% bias for some scheduler flags/shift/latency bits (§4.5);
//! - memory streams with tunable locality so cache capacity matters
//!   (Table 3 sweeps 8/16/32KB caches and 32/64/128-entry DTLBs).
//!
//! Every trace is reproducible: the generator is seeded from the suite name
//! and trace index only.
//!
//! # Example
//!
//! ```
//! use tracegen::suite::Suite;
//! use tracegen::trace::TraceSpec;
//!
//! let spec = TraceSpec::new(Suite::SpecInt2000, 0);
//! let trace: Vec<_> = spec.generate(1000).collect();
//! assert_eq!(trace.len(), 1000);
//! // Determinism: the same spec yields the same trace.
//! let again: Vec<_> = spec.generate(1000).collect();
//! assert_eq!(trace, again);
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod error;
pub mod fault;
pub mod memgen;
pub mod suite;
pub mod trace;
pub mod uop;
pub mod values;
