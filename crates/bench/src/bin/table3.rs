//! Regenerates Table III: average workload deviation.

use mosaic_bench::{run_cells, scenario_from_args};
use mosaic_sim::{experiments, Scenario};

fn main() {
    let scenario = scenario_from_args("Table III: workload deviation", Scenario::effectiveness);
    let (_, cells) = run_cells(&scenario);
    println!("{}", experiments::table3(&cells));
}
