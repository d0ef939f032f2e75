//! Regenerates Figure 1: the six-axis radar comparison (normalised
//! [1, 5] series for TxAllo vs Mosaic vs hash-based).

use mosaic_bench::{run_cells, scenario_from_args};
use mosaic_sim::{experiments, Scenario};

fn main() {
    let scenario = scenario_from_args(
        "Figure 1: efficiency/effectiveness radar",
        Scenario::effectiveness,
    );
    let (_, cells) = run_cells(&scenario);
    println!("{}", experiments::fig1(&cells, &scenario));
}
