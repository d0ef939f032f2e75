//! Regenerates Table IV: average running time (seconds) and input size.

use mosaic_bench::{run_cells, scenario_from_args};
use mosaic_sim::{experiments, Scenario};

fn main() {
    let scenario = scenario_from_args(
        "Table IV: running time and input data size",
        Scenario::effectiveness,
    );
    let (_, cells) = run_cells(&scenario);
    println!("{}", experiments::table4(&cells));
}
