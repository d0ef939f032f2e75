//! Regenerates Table VI: the framework comparison, with measured values.

use mosaic_bench::{run_cells, scenario_from_args};
use mosaic_sim::{experiments, Scenario};

fn main() {
    let scenario = scenario_from_args("Table VI: framework comparison", Scenario::effectiveness);
    let (_, cells) = run_cells(&scenario);
    println!("{}", experiments::table6(&cells, &scenario));
}
