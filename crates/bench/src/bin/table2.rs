//! Regenerates Table II: average throughput improvement Λ/λ.

use mosaic_bench::{run_cells, scenario_from_args};
use mosaic_sim::{experiments, Scenario};

fn main() {
    let scenario = scenario_from_args("Table II: normalized throughput", Scenario::effectiveness);
    let (_, cells) = run_cells(&scenario);
    println!("{}", experiments::table2(&cells));
}
