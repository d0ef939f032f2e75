//! Server-wide telemetry aggregation behind the `STATS` request.
//!
//! One [`ServerStats`] lives for the whole `serve` lifetime and hands
//! every session its own private [`Recorder`] at registration. Nothing
//! is installed process-wide, so two servers in one process keep
//! disjoint aggregates. Per-session counters never contend with each
//! other, and a `STATS` reply can show *this* connection's numbers next
//! to the server-wide aggregate. Sessions that end fold their final
//! snapshot into a retained merge, so the aggregate never forgets a
//! finished replay.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mosaic_telemetry::{json_f64, Recorder, Snapshot};

/// The node's telemetry root: the registry of per-session recorders,
/// aggregated on demand for `STATS`.
pub struct ServerStats {
    enabled: bool,
    sessions_started: AtomicU64,
    active: Mutex<Vec<(u64, Recorder)>>,
    /// Final snapshots of finished sessions, pre-merged.
    completed: Mutex<Snapshot>,
}

impl ServerStats {
    /// Builds the telemetry root. With `enabled = false` every handed-out
    /// recorder is a no-op and `STATS` replies say `telemetry off`.
    pub fn new(enabled: bool) -> Arc<Self> {
        Arc::new(ServerStats {
            enabled,
            sessions_started: AtomicU64::new(0),
            active: Mutex::new(Vec::new()),
            completed: Mutex::new(Snapshot::default()),
        })
    }

    /// Whether telemetry is collected at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Registers session `id` and returns its private recorder.
    pub fn register(&self, id: u64) -> Recorder {
        let recorder = if self.enabled {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        self.sessions_started.fetch_add(1, Ordering::Relaxed);
        self.active
            .lock()
            .expect("stats lock")
            .push((id, recorder.clone()));
        recorder
    }

    /// Deregisters session `id`, folding its final counters into the
    /// retained server-wide aggregate.
    pub fn unregister(&self, id: u64) {
        let mut active = self.active.lock().expect("stats lock");
        if let Some(pos) = active.iter().position(|(sid, _)| *sid == id) {
            let (_, recorder) = active.swap_remove(pos);
            drop(active);
            self.completed
                .lock()
                .expect("stats lock")
                .merge(&recorder.snapshot());
        }
    }

    /// Sessions registered over the server's lifetime.
    pub fn sessions_started(&self) -> u64 {
        self.sessions_started.load(Ordering::Relaxed)
    }

    /// Currently registered sessions.
    pub fn sessions_active(&self) -> usize {
        self.active.lock().expect("stats lock").len()
    }

    /// The `STATS` reply body: the asking session's own snapshot (when
    /// given), then the server-wide aggregate — every finished and live
    /// session merged.
    pub fn stats_lines(&self, session: Option<(u64, &Recorder)>) -> Vec<String> {
        let mut lines = vec![format!(
            "telemetry {}",
            if self.enabled { "on" } else { "off" }
        )];
        if let Some((id, recorder)) = session {
            lines.push(format!("session {id}"));
            snapshot_lines(&recorder.snapshot(), "", &mut lines);
        }
        lines.push(format!(
            "server sessions_started {}",
            self.sessions_started()
        ));
        let mut merged = self.completed.lock().expect("stats lock").clone();
        let active = self.active.lock().expect("stats lock");
        lines.push(format!("server sessions_active {}", active.len()));
        for (_, recorder) in active.iter() {
            merged.merge(&recorder.snapshot());
        }
        drop(active);
        snapshot_lines(&merged, "server ", &mut lines);
        lines
    }
}

/// Renders one snapshot as `counter`/`gauge`/`hist` lines. Histogram
/// min/max render as `-` until something has been recorded.
fn snapshot_lines(snapshot: &Snapshot, prefix: &str, out: &mut Vec<String>) {
    for (name, value) in &snapshot.counters {
        out.push(format!("{prefix}counter {name} {value}"));
    }
    for (name, value) in &snapshot.gauges {
        out.push(format!("{prefix}gauge {name} {}", json_f64(*value)));
    }
    for (name, hist) in &snapshot.histograms {
        let bound = |b: Option<u64>| b.map_or_else(|| "-".to_string(), |v| v.to_string());
        out.push(format!(
            "{prefix}hist {name} {} {} {} {}",
            hist.count,
            hist.total_ns,
            bound(hist.min_ns),
            bound(hist.max_ns),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_survives_session_lifecycle() {
        let stats = ServerStats::new(true);
        let a = stats.register(0);
        let b = stats.register(1);
        a.add("core.txs_ingested", 100);
        b.add("core.txs_ingested", 50);
        assert_eq!(stats.sessions_started(), 2);
        assert_eq!(stats.sessions_active(), 2);

        // A live session sees its own counters and the merged total.
        let lines = stats.stats_lines(Some((0, &a)));
        assert!(lines.contains(&"telemetry on".to_string()), "{lines:?}");
        assert!(lines.contains(&"session 0".to_string()));
        assert!(lines.contains(&"counter core.txs_ingested 100".to_string()));
        assert!(lines.contains(&"server counter core.txs_ingested 150".to_string()));

        // A finished session's counters persist in the aggregate.
        stats.unregister(0);
        assert_eq!(stats.sessions_active(), 1);
        let lines = stats.stats_lines(None);
        assert!(lines.contains(&"server sessions_started 2".to_string()));
        assert!(lines.contains(&"server sessions_active 1".to_string()));
        assert!(lines.contains(&"server counter core.txs_ingested 150".to_string()));
    }

    #[test]
    fn disabled_stats_still_answer() {
        let stats = ServerStats::new(false);
        let r = stats.register(7);
        r.add("core.txs_ingested", 9); // dropped: recorder is a no-op
        let lines = stats.stats_lines(Some((7, &r)));
        assert_eq!(lines[0], "telemetry off");
        assert!(lines.contains(&"session 7".to_string()));
        assert!(!lines.iter().any(|l| l.contains("core.txs_ingested")));
    }
}
