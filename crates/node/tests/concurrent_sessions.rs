//! Multi-session concurrency: N connections replay
//! `scenarios/quick.scenario` against one node **simultaneously**, and
//! every session's CSV comes back byte-identical to the offline
//! [`Simulation`] run — sessions are fully isolated, so concurrent
//! streams never bleed into each other's cores. Also pins the
//! isolation semantics at the protocol level: one connection's active
//! run is invisible to another connection.

use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use mosaic_node::replay::{replay, replay_sessions};
use mosaic_node::{serve, MosaicClient, Wire};
use mosaic_sim::{Scenario, Simulation};

fn quick_scenario() -> Scenario {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/quick.scenario"
    );
    Scenario::load(path).expect("checked-in scenario parses")
}

fn offline_csvs(scenario: &Scenario) -> Vec<(String, String)> {
    let cells = scenario.cells().unwrap();
    let single_point = scenario.is_single_point();
    let simulation = Simulation::from_scenario(scenario.clone()).unwrap();
    cells
        .iter()
        .map(|cell| {
            let mut bytes = Vec::new();
            simulation.stream_cell(cell, &mut bytes).unwrap();
            (
                cell.file_stem(single_point),
                String::from_utf8(bytes).unwrap(),
            )
        })
        .collect()
}

fn tx(i: u64) -> mosaic_types::Transaction {
    mosaic_types::Transaction::new(
        mosaic_types::TxId::new(i),
        mosaic_types::AccountId::new(i % 800),
        mosaic_types::AccountId::new((i + 1) % 800),
        mosaic_types::BlockHeight::new(i / 4),
    )
}

fn boot(scenario: &Scenario) -> (String, thread::JoinHandle<mosaic_types::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let serve_scenario = scenario.clone();
    (addr, thread::spawn(move || serve(listener, serve_scenario)))
}

fn stop(addr: &str, server: thread::JoinHandle<mosaic_types::Result<()>>) {
    let mut client = MosaicClient::connect(addr, Wire::Binary).unwrap();
    client.shutdown().unwrap();
    drop(client);
    server.join().unwrap().unwrap();
}

#[test]
fn concurrent_replays_are_byte_identical_to_the_offline_run() {
    let scenario = quick_scenario();
    let offline = offline_csvs(&scenario);
    let (addr, server) = boot(&scenario);

    // Three sessions at once; replay_sessions cross-checks the sessions
    // against each other, and we check the survivor against offline.
    let report = replay_sessions(&addr, &scenario, Wire::Binary, 3).unwrap();
    assert_eq!(report.sessions, 3);
    let per_session = report.txs / 3;
    assert_eq!(report.txs, per_session * 3, "sessions sent unequal counts");

    // Session 0's STATS (fetched on its own connection, concurrent with
    // the other two) count exactly the transactions it streamed.
    assert_eq!(report.stats[0], "telemetry on", "{:?}", report.stats);
    assert!(
        report
            .stats
            .contains(&format!("counter core.txs_ingested {per_session}")),
        "session counters diverged from the stream: {:?}",
        report.stats
    );
    assert!(
        report
            .stats
            .iter()
            .any(|l| l.starts_with("server counter core.txs_ingested ")),
        "server aggregate missing: {:?}",
        report.stats
    );
    assert_eq!(report.cells.len(), offline.len());
    for (replayed, (stem, csv)) in report.cells.iter().zip(&offline) {
        assert_eq!(&replayed.stem, stem);
        assert_eq!(
            replayed.csv, *csv,
            "concurrent node-side CSV for cell {stem} diverged from the offline run"
        );
    }

    // Mixed codecs concurrently: a line session and a binary session
    // sharing the node still both match offline.
    let reports: Vec<_> = thread::scope(|scope| {
        let (addr, scenario) = (&addr, &scenario);
        [Wire::Line, Wire::Binary]
            .map(|wire| scope.spawn(move || replay(addr, scenario, wire)))
            .map(|handle| handle.join().unwrap().unwrap())
            .into_iter()
            .collect()
    });
    for report in reports {
        for (replayed, (stem, csv)) in report.cells.iter().zip(&offline) {
            assert_eq!(&replayed.stem, stem);
            assert_eq!(
                replayed.csv, *csv,
                "mixed-wire CSV for cell {stem} diverged ({} wire)",
                report.wire
            );
        }
    }

    stop(&addr, server);
}

#[test]
fn stats_are_per_session_and_answered_on_both_codecs() {
    let scenario = quick_scenario();
    let (addr, server) = boot(&scenario);

    let mut a = MosaicClient::connect(&addr, Wire::Binary).unwrap();
    let mut b = MosaicClient::connect(&addr, Wire::Line).unwrap();

    a.begin(0, 2000).unwrap();
    a.ingest_block(&(0..10).map(tx).collect::<Vec<_>>())
        .unwrap();
    b.begin(0, 2000).unwrap();
    b.ingest_block(&(0..7).map(tx).collect::<Vec<_>>()).unwrap();

    // Each connection sees its own count — 10 vs 7 — on its own codec.
    // A STATS round-trip flushes and drains that connection's stream,
    // so the server-wide merge grows deterministically: b's 7 are still
    // buffered client-side when a asks, and folded in by the time b asks.
    let a_stats = a.stats().unwrap();
    assert!(
        a_stats.contains(&"counter core.txs_ingested 10".to_string()),
        "{a_stats:?}"
    );
    assert!(
        a_stats.contains(&"server counter core.txs_ingested 10".to_string()),
        "{a_stats:?}"
    );
    let b_stats = b.stats().unwrap();
    assert!(
        b_stats.contains(&"counter core.txs_ingested 7".to_string()),
        "{b_stats:?}"
    );
    assert!(
        b_stats.contains(&"server counter core.txs_ingested 17".to_string()),
        "{b_stats:?}"
    );
    for stats in [&a_stats, &b_stats] {
        assert!(
            stats.contains(&"server sessions_active 2".to_string()),
            "{stats:?}"
        );
    }

    drop(b);
    drop(a);
    stop(&addr, server);
}

#[test]
fn sessions_are_isolated_per_connection() {
    let scenario = quick_scenario();
    let (addr, server) = boot(&scenario);

    let mut a = MosaicClient::connect(&addr, Wire::Binary).unwrap();
    let mut b = MosaicClient::connect(&addr, Wire::Line).unwrap();

    // A starts a run; B's session must not see it.
    a.begin(0, 2000).unwrap();
    let err = b.csv().unwrap_err().to_string();
    assert!(err.contains("no active run"), "{err}");
    // B starts its own run on a different cell; A's stays untouched.
    b.begin(1, 2000).unwrap();
    let a_csv = a.csv().unwrap();
    let b_csv = b.csv().unwrap();
    assert_eq!(a_csv, b_csv, "both runs are header-only at this point");
    // No transactions have flowed on A, so its session has no
    // allocation to look up — proving B's activity never reached it.
    let shard_err = a.lookup(mosaic_types::AccountId::new(0)).unwrap_err();
    assert!(
        shard_err.to_string().contains("no allocation yet"),
        "{shard_err}"
    );

    drop(b);
    drop(a);
    stop(&addr, server);
}

#[test]
fn two_servers_in_one_process_keep_disjoint_stats() {
    let scenario = quick_scenario();
    let (addr_a, server_a) = boot(&scenario);
    let (addr_b, server_b) = boot(&scenario);

    let mut a = MosaicClient::connect(&addr_a, Wire::Binary).unwrap();
    let mut b = MosaicClient::connect(&addr_b, Wire::Line).unwrap();
    a.begin(0, 2000).unwrap();
    a.ingest_block(&(0..10).map(tx).collect::<Vec<_>>())
        .unwrap();
    b.begin(1, 2000).unwrap();
    b.ingest_block(&(0..7).map(tx).collect::<Vec<_>>()).unwrap();
    // An offline run in the same process counts into neither server.
    assert!(!offline_csvs(&scenario).is_empty());

    let a_stats = a.stats().unwrap();
    let b_stats = b.stats().unwrap();
    for (stats, own) in [(&a_stats, 10), (&b_stats, 7)] {
        assert!(
            stats.contains(&format!("server counter core.txs_ingested {own}")),
            "{stats:?}"
        );
        assert!(
            stats.contains(&"server sessions_started 1".to_string()),
            "{stats:?}"
        );
    }

    drop(b);
    drop(a);
    stop(&addr_a, server_a);
    stop(&addr_b, server_b);
}

#[test]
fn probe_connections_open_no_session_and_closed_sessions_stay_counted() {
    let scenario = quick_scenario();
    let (addr, server) = boot(&scenario);

    // A port check: connect and close without sending a request.
    drop(TcpStream::connect(&addr).unwrap());

    let mut a = MosaicClient::connect(&addr, Wire::Binary).unwrap();
    a.begin(0, 2000).unwrap();
    a.ingest_block(&(0..10).map(tx).collect::<Vec<_>>())
        .unwrap();
    let a_stats = a.stats().unwrap();
    assert!(
        a_stats.contains(&"server sessions_started 1".to_string()),
        "the probe must not open a session: {a_stats:?}"
    );
    drop(a);

    // The closed session unregisters once its handler sees the EOF;
    // its counters stay in the server aggregate.
    let mut c = MosaicClient::connect(&addr, Wire::Line).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let c_stats = loop {
        let stats = c.stats().unwrap();
        if stats.contains(&"server sessions_active 1".to_string()) {
            break stats;
        }
        assert!(
            Instant::now() < deadline,
            "the closed session never unregistered: {stats:?}"
        );
        thread::sleep(Duration::from_millis(10));
    };
    for line in [
        "server sessions_started 2",
        "server counter core.txs_ingested 10",
    ] {
        assert!(c_stats.contains(&line.to_string()), "{c_stats:?}");
    }

    drop(c);
    stop(&addr, server);
}
