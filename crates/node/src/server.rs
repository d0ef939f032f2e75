//! The TCP service: thread-per-connection front end, one session core
//! thread *per connection*.
//!
//! Each accepted connection negotiates its codec ([`crate::wire`]) from
//! the first bytes — a `MOSB` hello selects the binary frame protocol,
//! anything else is a line-mode session — and then owns a private
//! [`NodeSession`]: the
//! `SessionRegistry` spins up a dedicated core thread the moment the
//! connection's first request arrives (for a replay client, its
//! `BEGIN`), and the handler forwards decoded requests to it over a
//! **bounded** mpsc queue. N clients therefore replay N scenarios
//! concurrently with full per-session isolation — one session's run,
//! deferred errors, or even a panicking strategy never touch another —
//! while the bounded queue pushes back on a sender that outruns epoch
//! processing (the handler blocks, the socket's receive window fills,
//! the client stalls: end-to-end backpressure with no unbounded
//! buffering). Transaction traffic travels without a reply channel, so
//! a replay stream is never round-trip-bound.
//!
//! Building the session *on* its core thread keeps `Box<dyn
//! EpochStrategy>` from ever crossing threads, so no `Send` bound is
//! imposed on strategy implementations.
//!
//! Shutdown: a `SHUTDOWN` request flips a shared flag and pokes the
//! listener with a loopback connection so the accept loop observes the
//! flag; [`serve`] then joins its handler threads (each of which joins
//! its own session thread) before returning.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Cursor, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

use mosaic_sim::{RunTarget, Scenario};
use mosaic_types::{Error, Result};

use crate::proto::{Request, Response};
use crate::session::NodeSession;
use crate::stats::ServerStats;
use crate::wire::{self, Incoming, Negotiated, Wire};

/// How many decoded requests may sit between a connection handler and
/// its session core thread before the handler blocks — the backpressure
/// bound. Batched `TX` frames count as one message, so the worst-case
/// buffered transaction count is this times the batch size.
const SESSION_QUEUE: usize = 256;

/// One decoded unit in flight from a connection handler to its session
/// core thread.
enum SessionMsg {
    /// Apply a request; `reply` is `None` for fire-and-forget traffic.
    Apply(Request, Option<mpsc::Sender<Response>>),
    /// Record a malformed fire-and-forget input for the `END` reply.
    Defer(String),
}

/// A running session core thread, as its owning handler sees it.
struct SessionHandle {
    id: u64,
    queue: mpsc::SyncSender<SessionMsg>,
    thread: thread::JoinHandle<()>,
}

/// The per-connection session table: hands out session ids, spawns one
/// [`NodeSession`] core thread per connection on demand, and tracks the
/// live queues (the registry is what makes the server multi-session —
/// PR 8 had a single global core thread here).
struct SessionRegistry {
    scenario: Scenario,
    next_id: AtomicU64,
    active: Mutex<HashMap<u64, mpsc::SyncSender<SessionMsg>>>,
    /// The telemetry root shared by every session — per-session
    /// recorders plus the server-wide aggregate behind `STATS`.
    stats: Arc<ServerStats>,
}

impl SessionRegistry {
    fn new(scenario: Scenario, stats: Arc<ServerStats>) -> Self {
        SessionRegistry {
            scenario,
            next_id: AtomicU64::new(0),
            active: Mutex::new(HashMap::new()),
            stats,
        }
    }

    /// Spawns a session core thread for one connection and registers
    /// its queue. The session is built on the new thread (see module
    /// docs); the scenario was pre-validated by [`serve`].
    fn spawn(&self) -> std::io::Result<SessionHandle> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (queue, inbox) = mpsc::sync_channel::<SessionMsg>(SESSION_QUEUE);
        let scenario = self.scenario.clone();
        let stats = Arc::clone(&self.stats);
        let thread = thread::Builder::new()
            .name(format!("mosaic-session-{id}"))
            .spawn(move || {
                let mut session = NodeSession::with_stats(scenario, id, &stats)
                    .expect("scenario pre-validated by serve");
                while let Ok(msg) = inbox.recv() {
                    match msg {
                        SessionMsg::Apply(request, reply) => {
                            let response = session.apply(request);
                            if let (Some(reply), Some(response)) = (reply, response) {
                                let _ = reply.send(response);
                            }
                        }
                        SessionMsg::Defer(message) => session.defer(message),
                    }
                }
            })?;
        self.active
            .lock()
            .expect("registry lock")
            .insert(id, queue.clone());
        Ok(SessionHandle { id, queue, thread })
    }

    /// Deregisters and joins one session: drops every sender so the
    /// core thread's receive loop ends, then waits for it. A panicked
    /// session (a strategy blowing up mid-epoch) is contained here —
    /// the connection is already gone and no other session shares
    /// state with it.
    fn finish(&self, handle: SessionHandle) {
        let SessionHandle { id, queue, thread } = handle;
        self.active.lock().expect("registry lock").remove(&id);
        drop(queue);
        if thread.join().is_err() {
            eprintln!("mosaic-node: session {id} panicked; its connection is closed");
        }
    }

    /// Live session count (registered queues).
    #[cfg(test)]
    fn active_sessions(&self) -> usize {
        self.active.lock().expect("registry lock").len()
    }
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
    // re-validates, but only on a session thread, where the error could
    // no longer be returned to the caller.
    scenario.cells_for(RunTarget::Node)?;
    let addr = listener
        .local_addr()
        .map_err(|e| io_error("<listener>", &e))?;
    let stop = Arc::new(AtomicBool::new(false));
    let stats = ServerStats::new(telemetry);
    let registry = Arc::new(SessionRegistry::new(scenario, stats));

    let mut handlers = Vec::new();
    for incoming in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match incoming {
            Ok(stream) => stream,
            Err(e) => return Err(io_error(&addr.to_string(), &e)),
        };
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        handlers.push(thread::spawn(move || {
            // A connection dying mid-request only ends that connection
            // (and its private session).
            let _ = handle_connection(stream, &registry, &stop, addr);
        }));
    }

    for handler in handlers {
        let _ = handler.join();
    }
    Ok(())
}

fn handle_connection(
    stream: TcpStream,
    registry: &SessionRegistry,
    stop: &AtomicBool,
    addr: SocketAddr,
) -> std::io::Result<()> {
    let mut raw_reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let wire = match wire::accept_hello(&mut raw_reader)? {
        Negotiated::Binary => {
            wire::write_server_hello(&mut writer, wire::VERSION)?;
            Wire::Binary
        }
        Negotiated::Unsupported(version) => {
            // Answer with "accepted version 0" (= rejection) and close;
            // the client reports the skew to its user.
            eprintln!(
                "mosaic-node: rejecting binary hello at unsupported version {version} \
                 (this build speaks {})",
                wire::VERSION
            );
            wire::write_server_hello(&mut writer, 0)?;
            return Ok(());
        }
        Negotiated::Line(prefix) => {
            // Replay the consumed sniff bytes ahead of the stream. The
            // chain of two BufReads is itself BufRead, so the line
            // reader sees one seamless stream.
            return run_session(
                Cursor::new(prefix).chain(raw_reader),
                writer,
                Wire::Line,
                registry,
                stop,
                addr,
            );
        }
    };
    run_session(
        Cursor::new(Vec::new()).chain(raw_reader),
        writer,
        wire,
        registry,
        stop,
        addr,
    )
}

fn run_session(
    mut reader: impl BufRead,
    mut writer: impl Write,
    wire: Wire,
    registry: &SessionRegistry,
    stop: &AtomicBool,
    addr: SocketAddr,
) -> std::io::Result<()> {
    // Spun up lazily at the first request so probe connections (port
    // checks, monitoring dials) never cost a session thread.
    let mut session: Option<SessionHandle> = None;
    let outcome = (|| -> std::io::Result<()> {
        loop {
            let incoming = match wire.read_request(&mut reader)? {
                Some(incoming) => incoming,
                None => return Ok(()),
            };
            if session.is_none() {
                session = Some(registry.spawn()?);
            }
            let queue = &session.as_ref().expect("just spawned").queue;
            match incoming {
                Incoming::Request(request) => {
                    let is_shutdown = matches!(request, Request::Shutdown);
                    if request.expects_reply() {
                        let (reply_tx, reply_rx) = mpsc::channel();
                        if queue
                            .send(SessionMsg::Apply(request, Some(reply_tx)))
                            .is_err()
                        {
                            return Ok(());
                        }
                        let Ok(response) = reply_rx.recv() else {
                            // The session thread died (strategy panic);
                            // tell this client before closing.
                            let _ = wire.write_response(
                                &mut writer,
                                &Response::Error("session failed; see node log".to_string()),
                            );
                            let _ = writer.flush();
                            return Ok(());
                        };
                        wire.write_response(&mut writer, &response)?;
                        writer.flush()?;
                    } else if queue.send(SessionMsg::Apply(request, None)).is_err() {
                        return Ok(());
                    }
                    if is_shutdown {
                        stop.store(true, Ordering::SeqCst);
                        // Wake the accept loop so it observes the flag.
                        let _ = TcpStream::connect(addr);
                        return Ok(());
                    }
                }
                Incoming::Malformed {
                    message,
                    fire_and_forget,
                } => {
                    if fire_and_forget {
                        if queue.send(SessionMsg::Defer(message)).is_err() {
                            return Ok(());
                        }
                    } else {
                        wire.write_response(&mut writer, &Response::Error(message))?;
                        writer.flush()?;
                    }
                }
            }
        }
    })();
    if let Some(handle) = session {
        registry.finish(handle);
    }
    outcome
}

fn io_error(path: &str, e: &std::io::Error) -> Error {
    Error::Io {
        path: path.to_string(),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_sim::Scale;

    #[test]
    fn registry_spawns_and_reaps_isolated_sessions() {
        let registry = SessionRegistry::new(
            Scenario::full_protocol(&Scale::quick()),
            ServerStats::new(true),
        );
        let a = registry.spawn().unwrap();
        let b = registry.spawn().unwrap();
        assert_ne!(a.id, b.id);
        assert_eq!(registry.active_sessions(), 2);

        // Each session answers through its own queue; a run started on
        // one is invisible to the other.
        let begin = |h: &SessionHandle| {
            let (tx, rx) = mpsc::channel();
            h.queue
                .send(SessionMsg::Apply(
                    Request::Begin {
                        cell: 0,
                        blocks: 100,
                    },
                    Some(tx),
                ))
                .unwrap();
            rx.recv().unwrap()
        };
        assert!(matches!(begin(&a), Response::Ok(_)));
        let (tx, rx) = mpsc::channel();
        b.queue
            .send(SessionMsg::Apply(Request::Csv, Some(tx)))
            .unwrap();
        assert!(matches!(rx.recv().unwrap(), Response::Error(_)));

        registry.finish(a);
        assert_eq!(registry.active_sessions(), 1);
        registry.finish(b);
        assert_eq!(registry.active_sessions(), 0);
    }
}
