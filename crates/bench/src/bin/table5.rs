//! Regenerates Table V: impact of the future-knowledge ratio β.

use mosaic_bench::{run_cells, scenario_from_args};
use mosaic_sim::{experiments, Scenario};

fn main() {
    let scenario = scenario_from_args(
        "Table V: future knowledge (beta sweep, k = 4)",
        Scenario::beta_sweep,
    );
    let (_, cells) = run_cells(&scenario);
    println!("{}", experiments::table5(&cells));
}
