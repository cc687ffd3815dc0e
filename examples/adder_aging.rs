//! Combinational-block aging study: how idle-input injection heals an
//! adder, and how the answer depends on the adder's topology.
//!
//! Beyond the paper's Ladner-Fischer case study, this example runs the same
//! analysis on a ripple-carry adder — whose carry chain is *not* upsized —
//! to show that the vector-pair search adapts to the circuit.
//!
//! Run with: `cargo run --release -p penelope --example adder_aging`

use gatesim::adder::{AdderNetlist, LadnerFischerAdder, RippleCarryAdder};
use gatesim::pmos::PmosTable;
use gatesim::vectors::{best_pair, evaluate_all_pairs, MixedCampaign};
use nbti_model::duty::Duty;
use nbti_model::guardband::GuardbandModel;
use nbti_model::lifetime::LifetimeModel;
use penelope::adder_aware::real_adder_inputs;
use tracegen::suite::Suite;
use tracegen::trace::TraceSpec;

fn study(name: &str, adder: &AdderNetlist) {
    let model = GuardbandModel::paper_calibrated();
    let table = PmosTable::with_default_threshold(adder.netlist());
    println!(
        "\n== {name}: {} gates, {} PMOS ({} narrow / {} wide) ==",
        adder.netlist().gates().len(),
        table.len(),
        table.narrow_count(),
        table.wide_count()
    );

    // The Figure 4 search over all 28 idle-vector pairs.
    let all = evaluate_all_pairs(adder);
    let best = best_pair(adder);
    let worst = all
        .iter()
        .max_by(|a, b| {
            a.narrow_fully_stressed
                .partial_cmp(&b.narrow_fully_stressed)
                .expect("finite")
        })
        .expect("non-empty");
    println!(
        "best idle pair {}: {:.2}% narrow PMOS fully stressed (worst pair {}: {:.2}%)",
        best.pair.label(),
        best.narrow_fully_stressed * 100.0,
        worst.pair.label(),
        worst.narrow_fully_stressed * 100.0
    );

    // Guardband and lifetime across utilizations.
    let inputs = real_adder_inputs(&TraceSpec::new(Suite::Kernels, 1), 4_000);
    let lifetime = LifetimeModel::paper_calibrated();
    for util in [1.0, 0.30, 0.21, 0.11] {
        let campaign = MixedCampaign::new(util, best.pair);
        let tracker = campaign.run(adder, inputs.iter().copied());
        let duty = tracker.worst_narrow_duty();
        let gb = model.guardband(duty);
        let ext = lifetime
            .extension_factor(Duty::FULL, duty)
            .expect("nonzero baseline duty");
        println!(
            "  util {:>4.0}%: worst narrow duty {:>6}, guardband {:>5}, lifetime x{:.1}",
            util * 100.0,
            duty,
            gb,
            ext
        );
    }
}

fn main() {
    let lf = LadnerFischerAdder::new(32);
    study("Ladner-Fischer 32-bit", &lf);
    let rca = RippleCarryAdder::new(32);
    study("Ripple-carry 32-bit", &rca);
}
