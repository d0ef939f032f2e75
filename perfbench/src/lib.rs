//! The repository benchmark: three workloads run through the public
//! entry points (`Simulation::run`, and a child `mosaic-node serve`
//! driven by `MosaicClient`), plus traced drivers that time each
//! layer from outside the program. `README.md` in this directory
//! describes the workloads and every metric.

pub mod node;
pub mod offline;
pub mod stats;
pub mod timed;
pub mod workload;

use offline::CellCsv;

/// Checks one cell's CSV without a reference: a header, `eval_epochs`
/// rows numbered in order, `tau * txs_per_block` transactions per
/// epoch, ratios in range, and no migrations for the static baseline.
pub fn check_csv(cell: &CellCsv, shape: &workload::Shape) -> Result<(), String> {
    let text = std::str::from_utf8(&cell.csv).map_err(|_| format!("{}: not UTF-8", cell.stem))?;
    let mut lines = text.lines();
    if lines.next() != Some(mosaic_metrics::report::EPOCH_CSV_HEADER) {
        return Err(format!("{}: missing CSV header", cell.stem));
    }
    let want_txs = (u64::from(shape.tau) * shape.txs_per_block as u64).to_string();
    let mut rows = 0;
    for (epoch, line) in lines.enumerate() {
        let fields: Vec<&str> = line.split(',').collect();
        let ratio = fields.get(1).and_then(|f| f.parse::<f64>().ok());
        let ok = fields.len() == 6
            && fields[0] == epoch.to_string()
            && ratio.is_some_and(|r| (0.0..=1.0).contains(&r))
            && fields[4] == want_txs
            && (cell.stem != "random" || fields[5] == "0");
        if !ok {
            return Err(format!("{}: bad row {epoch}: {line}", cell.stem));
        }
        rows += 1;
    }
    if rows != shape.eval_epochs {
        return Err(format!(
            "{}: {rows} rows, expected {}",
            cell.stem, shape.eval_epochs
        ));
    }
    Ok(())
}
