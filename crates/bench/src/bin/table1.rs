//! Regenerates Table I: average cross-shard transaction ratios.

use mosaic_bench::{run_cells, scenario_from_args};
use mosaic_sim::{experiments, Scenario};

fn main() {
    let scenario = scenario_from_args(
        "Table I: cross-shard transaction ratio",
        Scenario::effectiveness,
    );
    let (_, cells) = run_cells(&scenario);
    println!("{}", experiments::table1(&cells));
}
