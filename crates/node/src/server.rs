//! The TCP service: one thread per connection, session inline.
//!
//! Each accepted connection negotiates its codec ([`crate::wire`]) from
//! the first bytes — a `MOSB` hello selects the binary frame protocol,
//! anything else is a line-mode session — and its handler thread then
//! owns a private [`NodeSession`], built at the connection's first
//! request (for a replay client, its `BEGIN`) so probe connections
//! (port checks, monitoring dials) cost no session. Requests are
//! applied inline in arrival order, and every owed reply is written and
//! flushed before the next read. N clients therefore replay N scenarios
//! concurrently with full per-session isolation, and a sender that
//! outruns epoch processing is pushed back by TCP flow control alone:
//! the handler stops reading, the socket's receive window fills, the
//! client stalls. The session never leaves its thread, so no `Send`
//! bound is imposed on strategy implementations.
//!
//! A panicking session (a strategy blowing up mid-epoch) ends only its
//! own connection: the client gets `ERR session failed; see node log`
//! if a reply is owed, and no other session shares state with it.
//!
//! Shutdown: a `SHUTDOWN` request flips a shared flag and pokes the
//! listener with a loopback connection so the accept loop observes the
//! flag; [`serve`] then joins its handler threads before returning.

use std::io::{BufRead, BufReader, BufWriter, Cursor, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use mosaic_sim::{RunTarget, Scenario};
use mosaic_types::{Error, Result};

use crate::proto::{Request, Response};
use crate::session::NodeSession;
use crate::stats::ServerStats;
use crate::wire::{self, Incoming, Negotiated, Wire};

/// What every connection handler of one server shares.
struct Shared {
    /// Pre-validated by [`serve_with_telemetry`].
    scenario: Scenario,
    /// The telemetry root shared by every session — per-session
    /// recorders plus the server-wide aggregate behind `STATS`.
    stats: Arc<ServerStats>,
    stop: AtomicBool,
    addr: SocketAddr,
}

/// Serves `scenario` on `listener` until a client sends `SHUTDOWN`,
/// with telemetry on. Every connection gets its own [`NodeSession`] and
/// may speak either codec (negotiated from its first bytes).
///
/// # Errors
///
/// Returns scenario validation errors up front (before any client can
/// connect) and [`Error::Io`] on listener failures.
pub fn serve(listener: TcpListener, scenario: Scenario) -> Result<()> {
    serve_with_telemetry(listener, scenario, true)
}

/// [`serve`] with an explicit telemetry switch (`mosaic-node serve
/// --telemetry off`). When on, every session records into its own
/// recorder and `STATS` merges them into this server's aggregate;
/// when off, every recorder is a no-op and `STATS` replies say so.
///
/// # Errors
///
/// Everything [`serve`] returns.
pub fn serve_with_telemetry(
    listener: TcpListener,
    scenario: Scenario,
    telemetry: bool,
) -> Result<()> {
    // Fail fast on an invalid spec — NodeSession::with_stats
    // re-validates, but only on a handler thread, where the error could
    // no longer be returned to the caller.
    scenario.cells_for(RunTarget::Node)?;
    let addr = listener
        .local_addr()
        .map_err(|e| io_error("<listener>", &e))?;
    let shared = Arc::new(Shared {
        scenario,
        stats: ServerStats::new(telemetry),
        stop: AtomicBool::new(false),
        addr,
    });

    let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
    for incoming in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = incoming.map_err(|e| io_error(&addr.to_string(), &e))?;
        // Closed connections leave finished threads behind; drop their
        // handles so each one's stack is released now, not at shutdown.
        handlers.retain(|handler| !handler.is_finished());
        let shared = Arc::clone(&shared);
        handlers.push(thread::spawn(move || {
            // A connection dying mid-request only ends that connection
            // (and its private session).
            let _ = handle_connection(stream, &shared);
        }));
    }

    for handler in handlers {
        let _ = handler.join();
    }
    Ok(())
}

fn handle_connection(stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    match wire::accept_hello(&mut reader)? {
        Negotiated::Binary => {
            wire::write_server_hello(&mut writer, wire::VERSION)?;
            run_session(reader, writer, Wire::Binary, shared)
        }
        Negotiated::Unsupported(version) => {
            // Answer with "accepted version 0" (= rejection) and close;
            // the client reports the skew to its user.
            eprintln!(
                "mosaic-node: rejecting binary hello at unsupported version {version} \
                 (this build speaks {})",
                wire::VERSION
            );
            wire::write_server_hello(&mut writer, 0)
        }
        // Replay the consumed sniff bytes ahead of the stream. The chain
        // of two BufReads is itself BufRead, so the line reader sees one
        // seamless stream.
        Negotiated::Line(prefix) => run_session(
            Cursor::new(prefix).chain(reader),
            writer,
            Wire::Line,
            shared,
        ),
    }
}

fn run_session(
    mut reader: impl BufRead,
    mut writer: impl Write,
    wire: Wire,
    shared: &Shared,
) -> std::io::Result<()> {
    // Built at the first request; dropping it when this function
    // returns unregisters it from the server's stats.
    let mut session: Option<NodeSession> = None;
    while let Some(incoming) = wire.read_request(&mut reader)? {
        let session = session.get_or_insert_with(|| {
            NodeSession::with_stats(shared.scenario.clone(), &shared.stats)
                .expect("scenario pre-validated by serve")
        });
        let (reply, shutdown) = match incoming {
            Incoming::Request(request) => {
                let shutdown = matches!(request, Request::Shutdown);
                let owes_reply = request.expects_reply();
                let Ok(reply) = panic::catch_unwind(AssertUnwindSafe(|| session.apply(request)))
                else {
                    eprintln!("mosaic-node: a session panicked; its connection is closed");
                    if owes_reply {
                        let _ = wire.write_response(
                            &mut writer,
                            &Response::Error("session failed; see node log".to_string()),
                        );
                        let _ = writer.flush();
                    }
                    return Ok(());
                };
                (reply, shutdown)
            }
            Incoming::Malformed {
                message,
                fire_and_forget: true,
            } => {
                session.defer(message);
                (None, false)
            }
            Incoming::Malformed { message, .. } => (Some(Response::Error(message)), false),
        };
        if let Some(response) = reply {
            wire.write_response(&mut writer, &response)?;
            writer.flush()?;
        }
        if shutdown {
            shared.stop.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(shared.addr);
            return Ok(());
        }
    }
    Ok(())
}

fn io_error(path: &str, e: &std::io::Error) -> Error {
    Error::Io {
        path: path.to_string(),
        message: e.to_string(),
    }
}
