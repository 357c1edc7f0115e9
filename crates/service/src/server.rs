//! The TCP server: JSON-lines over `std::net`, with two interchangeable
//! I/O models behind one [`ServerHandle`].
//!
//! - [`IoModel::Reactor`] (Linux default): one epoll reactor thread per
//!   `io_threads` multiplexes every connection through per-connection
//!   state machines (reading → executing → writing), and a small bounded
//!   executor pool runs the [`Backend`] calls. Idle connections cost a
//!   few kilobytes of buffers, not a thread; process thread count is
//!   bounded by `io_threads + executor_threads`, not by connections.
//! - [`IoModel::Threaded`]: the classic thread-per-connection loop —
//!   correct everywhere `std::net` works, and the fallback on platforms
//!   without epoll.
//!
//! Neither model knows the connection protocol: both feed the bytes they
//! read to a [`Session`] and write what its steps and
//! [`session::answer`] produce, so protocol behaviour is identical by
//! construction. What a model owns is scheduling — the reactor serves
//! *pipelined* requests (many frames in one packet) strictly in order,
//! batching each run of buffered frames into one executor job, and
//! applies back-pressure and admission control.
//!
//! Shutdown is graceful in both models: in-flight requests finish, their
//! responses flush, then every thread joins. The reactor needs no
//! socket-shutdown sweep for this — its connections never block, so the
//! drain is just "stop reading, finish executing, flush, close".

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::backend::Backend;
use crate::engine::{Engine, EngineError};
use crate::framing::{WireFrame, MAX_FRAME_BYTES};
use crate::protocol::{self, Request, Response};
use crate::session::{self, Session, Step};

/// How the server multiplexes its connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoModel {
    /// One epoll reactor (per io thread) + a bounded executor pool.
    /// Linux only; other platforms silently fall back to [`Self::Threaded`]
    /// at bind time.
    Reactor,
    /// One blocking thread per connection.
    Threaded,
}

impl Default for IoModel {
    /// The reactor on Linux, thread-per-connection elsewhere.
    fn default() -> Self {
        IoModel::Reactor.effective()
    }
}

impl IoModel {
    /// The model that will actually run on this platform.
    pub fn effective(self) -> IoModel {
        #[cfg(target_os = "linux")]
        {
            self
        }
        #[cfg(not(target_os = "linux"))]
        {
            IoModel::Threaded
        }
    }

    /// The canonical name (CLI flags, bench labels).
    pub fn name(self) -> &'static str {
        match self {
            IoModel::Reactor => "reactor",
            IoModel::Threaded => "threaded",
        }
    }
}

impl std::str::FromStr for IoModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "reactor" => Ok(IoModel::Reactor),
            "threaded" => Ok(IoModel::Threaded),
            other => Err(format!(
                "unknown io model `{other}` (expected `reactor` or `threaded`)"
            )),
        }
    }
}

impl std::fmt::Display for IoModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Server concurrency configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOptions {
    /// The I/O model (see [`IoModel`]).
    pub io_model: IoModel,
    /// Reactor threads (connections are distributed round-robin across
    /// them). Ignored by [`IoModel::Threaded`]. At least 1.
    pub io_threads: usize,
    /// Executor threads running [`Backend`] calls for the reactor model.
    /// Ignored by [`IoModel::Threaded`]. At least 1.
    pub executor_threads: usize,
    /// Open-connection cap (0 = unlimited). A connection over the cap is
    /// answered one structured `unavailable` error and closed, so clients
    /// can tell "server full" from a network failure and back off.
    pub max_connections: usize,
    /// Server-side queue deadline for the reactor model: a request that
    /// waited longer than this for an executor is shed with a structured
    /// `deadline_exceeded` error instead of being executed — under
    /// overload the server answers *recent* requests rather than grinding
    /// through a backlog nobody is waiting on anymore. `None` disables
    /// shedding. The threaded model has no queue, so it ignores this.
    pub request_deadline: Option<Duration>,
    /// Whether connections may upgrade to a binary wire dialect (`bin1c`
    /// or `bin1`) via the `hello` handshake. On by default — clients that never send
    /// a `hello` stay on JSON-lines either way; turning this off makes
    /// the server answer every `hello` with an error (clients then fall
    /// back to JSON), pinning the whole fleet to the text protocol.
    pub binary_wire: bool,
}

impl Default for ServerOptions {
    /// One reactor thread and four executors: enough to saturate the
    /// engine's shard workers while keeping the thread count constant.
    /// Admission control is off by default.
    fn default() -> Self {
        Self {
            io_model: IoModel::default(),
            io_threads: 1,
            executor_threads: 4,
            max_connections: 0,
            request_deadline: None,
            binary_wire: true,
        }
    }
}

enum ServerImpl {
    Threaded(threaded::Server),
    #[cfg(target_os = "linux")]
    Reactor(reactor_server::Server),
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    io_model: IoModel,
    /// Set when the server was bound over an [`Engine`] (the common case);
    /// backend-bound servers (`fc-coordinator`) have no engine to inspect.
    engine: Option<Arc<Engine>>,
    imp: Option<ServerImpl>,
}

impl ServerHandle {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// serving `engine` with default [`ServerOptions`].
    pub fn bind(addr: impl ToSocketAddrs, engine: Engine) -> std::io::Result<ServerHandle> {
        Self::bind_with(addr, engine, ServerOptions::default())
    }

    /// [`Self::bind`] with explicit concurrency options.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        engine: Engine,
        options: ServerOptions,
    ) -> std::io::Result<ServerHandle> {
        let engine = Arc::new(engine);
        let mut handle =
            Self::bind_backend_with(addr, Arc::clone(&engine) as Arc<dyn Backend>, options)?;
        handle.engine = Some(engine);
        Ok(handle)
    }

    /// Binds `addr` and serves an arbitrary [`Backend`] — the same
    /// protocol, concurrency, and shutdown behaviour as [`Self::bind`],
    /// but the requests may be answered by anything (the `fc-cluster`
    /// coordinator serves a whole node fleet through this entry point).
    pub fn bind_backend(
        addr: impl ToSocketAddrs,
        backend: Arc<dyn Backend>,
    ) -> std::io::Result<ServerHandle> {
        Self::bind_backend_with(addr, backend, ServerOptions::default())
    }

    /// [`Self::bind_backend`] with explicit concurrency options.
    pub fn bind_backend_with(
        addr: impl ToSocketAddrs,
        backend: Arc<dyn Backend>,
        options: ServerOptions,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let io_model = options.io_model.effective();
        let imp = match io_model {
            IoModel::Threaded => {
                ServerImpl::Threaded(threaded::Server::start(listener, backend, &options)?)
            }
            #[cfg(target_os = "linux")]
            IoModel::Reactor => {
                ServerImpl::Reactor(reactor_server::Server::start(listener, backend, &options)?)
            }
            #[cfg(not(target_os = "linux"))]
            IoModel::Reactor => unreachable!("IoModel::effective maps Reactor away off-Linux"),
        };
        Ok(ServerHandle {
            addr,
            io_model,
            engine: None,
            imp: Some(imp),
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The I/O model actually serving (after platform fallback).
    pub fn io_model(&self) -> IoModel {
        self.io_model
    }

    /// The served engine (for in-process inspection in tests and examples).
    ///
    /// # Panics
    ///
    /// When the server was bound over a generic backend
    /// ([`Self::bind_backend`]) rather than an [`Engine`].
    pub fn engine(&self) -> &Arc<Engine> {
        self.engine
            .as_ref()
            .expect("server was bound over a generic backend, not an Engine")
    }

    /// Stops accepting, waits for in-flight requests to finish and their
    /// responses to flush, and joins all server threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        match self.imp.take() {
            Some(ServerImpl::Threaded(mut s)) => s.shutdown(self.addr),
            #[cfg(target_os = "linux")]
            Some(ServerImpl::Reactor(mut s)) => s.shutdown(),
            None => {}
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn engine_error(e: EngineError) -> Response {
    let code = match &e {
        EngineError::Overloaded { .. } => Some(protocol::ErrorCode::Overloaded),
        EngineError::UnknownDataset(_) => Some(protocol::ErrorCode::UnknownDataset),
        EngineError::NoData { .. } => Some(protocol::ErrorCode::NoData),
        EngineError::Unavailable => Some(protocol::ErrorCode::Unavailable),
        EngineError::WrongEpoch { .. } => Some(protocol::ErrorCode::WrongEpoch),
        _ => None,
    };
    Response::Error {
        message: e.to_string(),
        code,
    }
}

/// Best-effort structured refusal for a connection over the admission
/// cap: one `unavailable` error, then close. The socket is still in
/// blocking mode here and the payload is far below any send buffer,
/// so the write either lands immediately or the client is gone.
fn refuse(mut stream: TcpStream, cap: usize) {
    let refusal = Response::Error {
        message: format!("connection limit reached ({cap} open connections)"),
        code: Some(protocol::ErrorCode::Unavailable),
    };
    let _ = stream.write_all(&session::json_line(&refusal));
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Executes one request against a backend. Exposed so tests can drive the
/// dispatch logic without a socket. (`&Engine` coerces: the engine is the
/// reference [`Backend`].)
pub fn handle_request(backend: &dyn Backend, request: Request) -> Response {
    match request {
        // A `hello` that reaches dispatch was not intercepted at the
        // connection layer — the upgrade is unsupported there (non-binary
        // server, or `--wire json`). Answering an error keeps the client
        // on JSON-lines, exactly like talking to a pre-`hello` server.
        Request::Hello { proto } => Response::Error {
            message: format!("wire protocol `{proto}` is not enabled on this connection"),
            code: None,
        },
        Request::Ingest {
            dataset,
            block,
            plan,
            ident,
            epoch,
        } => {
            let points = block.len();
            let batch = match block.into_dataset() {
                Ok(b) => b,
                Err(e) => {
                    return Response::Error {
                        message: format!("invalid `points`: {e}"),
                        code: None,
                    }
                }
            };
            match backend.ingest(&dataset, &batch, plan.as_ref(), ident.as_ref(), epoch) {
                Ok(outcome) => Response::Ingested {
                    dataset,
                    points,
                    total_points: outcome.total_points,
                    total_weight: outcome.total_weight,
                    duplicate: outcome.duplicate,
                },
                Err(e) => engine_error(e),
            }
        }
        Request::Compress {
            dataset,
            method,
            seed,
        } => match backend.coreset(&dataset, seed, method.as_ref()) {
            Ok((coreset, seed, method)) => {
                let (points, weights) = protocol::dataset_to_rows(coreset.dataset());
                Response::Coreset {
                    dataset,
                    points,
                    weights,
                    method,
                    seed,
                }
            }
            Err(e) => engine_error(e),
        },
        Request::Cluster {
            dataset,
            k,
            kind,
            solver,
            seed,
        } => match backend.cluster(&dataset, k, kind, solver, seed) {
            Ok(outcome) => Response::Clustered {
                dataset,
                centers: outcome
                    .solution
                    .centers
                    .iter()
                    .map(<[f64]>::to_vec)
                    .collect(),
                kind: outcome.kind,
                solver: outcome.solver,
                coreset_cost: outcome.solution.cost,
                coreset_points: outcome.coreset_points,
                seed: outcome.seed,
            },
            Err(e) => engine_error(e),
        },
        Request::Cost {
            dataset,
            centers,
            kind,
        } => {
            let centers = match protocol::rows_to_points(&centers) {
                Ok(c) => c,
                Err(e) => {
                    return Response::Error {
                        message: e.message,
                        code: None,
                    }
                }
            };
            match backend.cost(&dataset, &centers, kind) {
                Ok((cost, kind, coreset_points)) => Response::Cost {
                    dataset,
                    cost,
                    kind,
                    coreset_points,
                },
                Err(e) => engine_error(e),
            }
        }
        Request::Stats { dataset } => {
            let result = match dataset {
                Some(name) => backend.dataset_stats(&name).map(|s| vec![s]),
                None => backend.stats(),
            };
            match result {
                Ok(datasets) => Response::Stats {
                    datasets,
                    server: backend.server_stats(),
                },
                Err(e) => engine_error(e),
            }
        }
        Request::DropDataset { dataset } => match backend.drop_dataset(&dataset) {
            Ok(()) => Response::Dropped { dataset },
            Err(e) => engine_error(e),
        },
        Request::Metrics => match backend.metrics() {
            Some(metrics) => Response::Metrics { metrics },
            None => Response::Error {
                message: "this backend exposes no metrics".to_owned(),
                code: None,
            },
        },
        Request::AddNode { addr, capacity } => fleet_updated(backend.add_node(&addr, capacity)),
        Request::DrainNode { addr } => fleet_updated(backend.drain_node(&addr)),
    }
}

fn fleet_updated(change: Result<(u64, usize, usize), EngineError>) -> Response {
    match change {
        Ok((epoch, nodes, migrated)) => Response::FleetUpdated {
            epoch,
            nodes,
            migrated,
        },
        Err(e) => engine_error(e),
    }
}

/// The classic thread-per-connection model: an accept thread spawns one
/// blocking worker per connection; shutdown pokes the accept loop and
/// sweeps connection read sides so parked workers wake and join.
mod threaded {
    use super::*;

    /// Live connections: the worker join handle plus a stream clone the
    /// shutdown path uses to unblock readers waiting on idle clients.
    type ConnectionRegistry = Arc<Mutex<Vec<(JoinHandle<()>, TcpStream)>>>;

    pub(super) struct Server {
        stop: Arc<AtomicBool>,
        connections: ConnectionRegistry,
        accept_thread: Option<JoinHandle<()>>,
    }

    impl Server {
        pub(super) fn start(
            listener: TcpListener,
            backend: Arc<dyn Backend>,
            options: &ServerOptions,
        ) -> std::io::Result<Server> {
            let stop = Arc::new(AtomicBool::new(false));
            let connections: ConnectionRegistry = Arc::new(Mutex::new(Vec::new()));
            let accept_stop = Arc::clone(&stop);
            let accept_connections = Arc::clone(&connections);
            let max_connections = options.max_connections;
            let binary_wire = options.binary_wire;
            let accept_thread =
                std::thread::Builder::new()
                    .name("fc-accept".into())
                    .spawn(move || {
                        accept_loop(
                            listener,
                            backend,
                            accept_stop,
                            accept_connections,
                            max_connections,
                            binary_wire,
                        )
                    })?;
            Ok(Server {
                stop,
                connections,
                accept_thread: Some(accept_thread),
            })
        }

        pub(super) fn shutdown(&mut self, addr: SocketAddr) {
            if self.stop.swap(true, Ordering::SeqCst) {
                return;
            }
            // Unblock the accept loop with a no-op connection, and unblock
            // connection readers parked on idle-but-open clients by
            // shutting the read side of their sockets. In-flight requests
            // still finish: the worker observes EOF on its next read and
            // can still write its response.
            let _ = TcpStream::connect(addr);
            for (_, stream) in self
                .connections
                .lock()
                .expect("connection registry lock")
                .iter()
            {
                let _ = stream.shutdown(std::net::Shutdown::Read);
            }
            if let Some(t) = self.accept_thread.take() {
                let _ = t.join();
            }
        }
    }

    fn accept_loop(
        listener: TcpListener,
        backend: Arc<dyn Backend>,
        stop: Arc<AtomicBool>,
        connections: ConnectionRegistry,
        max_connections: usize,
        binary_wire: bool,
    ) {
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else {
                // Persistent accept errors (e.g. fd exhaustion) would
                // otherwise busy-spin this loop at 100% CPU; pause before
                // retrying.
                std::thread::sleep(std::time::Duration::from_millis(20));
                continue;
            };
            if max_connections > 0 {
                let mut conns = connections.lock().expect("connection registry lock");
                conns.retain(|(h, _)| !h.is_finished());
                if conns.len() >= max_connections {
                    drop(conns);
                    refuse(stream, max_connections);
                    continue;
                }
            }
            let Ok(registry_clone) = stream.try_clone() else {
                continue;
            };
            let backend = Arc::clone(&backend);
            let stop = Arc::clone(&stop);
            let spawned = std::thread::Builder::new()
                .name("fc-conn".into())
                .spawn(move || run_connection(stream, &*backend, &stop, binary_wire));
            let Ok(handle) = spawned else {
                // Thread exhaustion: decline this connection (the stream
                // clone drops, the client sees EOF) but keep accepting —
                // the regime that exhausts threads is exactly the one
                // where killing the accept loop would be worst.
                continue;
            };
            let mut conns = connections.lock().expect("connection registry lock");
            // Opportunistically reap finished connections so the registry
            // doesn't grow with every client that ever connected.
            conns.retain(|(h, _)| !h.is_finished());
            conns.push((handle, registry_clone));
        }
        // Shut each connection's read side before joining: a worker parked
        // on an idle-but-open client wakes with EOF, finishes any in-flight
        // response, and exits. (The handle's shutdown path also sweeps the
        // registry, but this loop may have emptied it first — the join must
        // not depend on that race.)
        let handles = std::mem::take(&mut *connections.lock().expect("connection registry lock"));
        for (h, stream) in handles {
            let _ = stream.shutdown(std::net::Shutdown::Read);
            let _ = h.join();
        }
    }

    /// Read → push → write each step, until EOF, a fatal step, or
    /// shutdown (observed between requests, so an in-flight one finishes).
    fn serve_connection(
        mut stream: TcpStream,
        backend: &dyn Backend,
        stop: &AtomicBool,
        binary_wire: bool,
    ) -> std::io::Result<()> {
        let mut session = Session::new(binary_wire);
        let mut scratch = vec![0u8; 64 * 1024];
        let mut eof = false;
        while !eof {
            let n = stream.read(&mut scratch)?;
            eof = n == 0;
            session.push(&scratch[..n]);
            // Serve every frame already buffered (pipelined requests)
            // before reading more bytes.
            while let Some(step) = session.next_step(eof) {
                match step {
                    Step::Frame(frame) => stream.write_all(&session::answer(backend, &frame))?,
                    Step::Reply(bytes) => stream.write_all(&bytes)?,
                    Step::Fatal(bytes) => return stream.write_all(&bytes),
                }
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Serves one connection, then actively closes the socket. The close
    /// must be an explicit `shutdown`: the registry keeps a clone of the
    /// stream, so merely dropping this thread's handles would leave the
    /// connection half-open (no FIN) until server shutdown, and a waiting
    /// client would never see EOF. It runs from a drop guard, so however
    /// this thread ends the peer sees the close.
    fn run_connection(stream: TcpStream, backend: &dyn Backend, stop: &AtomicBool, binary: bool) {
        struct Close(TcpStream);
        impl Drop for Close {
            fn drop(&mut self) {
                let _ = self.0.shutdown(std::net::Shutdown::Both);
            }
        }
        let _closer = stream.try_clone().map(Close);
        let _ = serve_connection(stream, backend, stop, binary);
    }
}

/// The epoll reactor model (Linux): per-connection state machines driven
/// by reactor threads, [`Backend`] calls on a bounded executor pool.
#[cfg(target_os = "linux")]
mod reactor_server {
    use super::*;
    use crate::reactor::{Event, Poller, Waker};
    use fc_telemetry::{Counter, Gauge, Histogram, Telemetry};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    const TOKEN_WAKER: u64 = 0;
    const TOKEN_LISTENER: u64 = 1;
    const FIRST_CONN_TOKEN: u64 = 2;

    /// Parsed-but-unexecuted frames buffered per connection before read
    /// interest is dropped — the pipelining depth one client may run.
    const PENDING_CAP: usize = 128;

    /// Unflushed response bytes above which a connection stops reading new
    /// requests (write backpressure propagated to the reader).
    const WRITE_HIGH_WATERMARK: usize = 4 * 1024 * 1024;

    /// Bytes read per connection per readiness event before yielding to
    /// the other connections (level-triggered epoll re-fires if more data
    /// is waiting).
    const READ_BURST_BYTES: usize = 256 * 1024;

    /// How long shutdown waits for in-flight requests to finish and their
    /// responses to flush before force-closing stragglers (a client that
    /// never drains its socket must not pin the process).
    const DRAIN_GRACE: Duration = Duration::from_secs(5);

    enum Msg {
        /// A freshly accepted connection assigned to this reactor.
        Conn(TcpStream),
        /// An executor finished a request for connection `conn`.
        Complete { conn: u64, bytes: Vec<u8> },
        /// Begin graceful drain.
        Shutdown,
    }

    /// A reactor's cross-thread mailbox: push a message, wake the loop.
    pub(super) struct Mailbox {
        queue: Mutex<Vec<Msg>>,
        waker: Waker,
    }

    impl Mailbox {
        fn send(&self, msg: Msg) {
            self.queue.lock().expect("reactor mailbox lock").push(msg);
            self.waker.wake();
        }

        fn drain(&self) -> Vec<Msg> {
            self.waker.drain();
            std::mem::take(&mut *self.queue.lock().expect("reactor mailbox lock"))
        }
    }

    struct Job {
        reactor: usize,
        conn: u64,
        /// One connection's consecutively pipelined requests, each in its
        /// wire form; each response is encoded in the format its request
        /// arrived in, and all of them return as one ordered byte run.
        /// Batching pays the executor hand-off (queue, wake, mailbox,
        /// reactor wake) once per run of frames instead of once per
        /// request — the difference between round-trip-bound and
        /// wire-bound throughput for a pipelining producer.
        frames: Vec<WireFrame>,
        /// When the request left its connection for the executor queue —
        /// the timestamp deadline shedding and queue-wait metrics run on.
        enqueued: Instant,
    }

    /// Handles into the backend's metric registry for everything the
    /// serving loop itself observes (connections, bytes, queue waits,
    /// admission-control rejections). Cloned freely: each handle is an
    /// `Arc` around atomics.
    #[derive(Clone)]
    struct ServeMetrics {
        connections_open: Gauge,
        connections_total: Counter,
        connections_rejected: Counter,
        bytes_read: Counter,
        bytes_written: Counter,
        queue_wait: Histogram,
        deadline_shed: Counter,
    }

    impl ServeMetrics {
        fn new(telemetry: &Telemetry) -> ServeMetrics {
            let registry = &telemetry.registry;
            ServeMetrics {
                connections_open: registry.gauge("fc_connections_open"),
                connections_total: registry.counter("fc_connections_total"),
                connections_rejected: registry.counter("fc_connections_rejected_total"),
                bytes_read: registry.counter("fc_bytes_read_total"),
                bytes_written: registry.counter("fc_bytes_written_total"),
                queue_wait: registry.histogram("fc_queue_wait_seconds"),
                deadline_shed: registry.counter("fc_deadline_shed_total"),
            }
        }
    }

    struct Conn {
        stream: TcpStream,
        session: Session,
        /// Extracted steps awaiting dispatch. Locally answered replies
        /// stay *in order* with the requests around them, so a pipelined
        /// client sees its responses in exactly the order it sent the
        /// frames, even across a mid-pipeline protocol upgrade.
        pending: VecDeque<Step>,
        /// Bytes held by `pending` request frames — the byte-level bound
        /// on pipelining (frame *count* alone would let one connection
        /// queue `PENDING_CAP` × 64 MiB frames).
        pending_bytes: usize,
        write_buf: Vec<u8>,
        write_pos: usize,
        /// A batch of requests from this connection is executing on the
        /// pool (at most one job in flight per connection).
        inflight: bool,
        /// EOF observed (or reads abandoned); no further frames will come.
        read_closed: bool,
        /// Close once the write buffer drains (fatal framing error).
        close_after_flush: bool,
        /// Current epoll interest, to skip redundant `EPOLL_CTL_MOD`s.
        want_read: bool,
        want_write: bool,
        /// Byte counters shared with the process registry.
        bytes_read: Counter,
        bytes_written: Counter,
        /// The open-connection gauge, decremented by `Drop` so every way a
        /// connection dies (error, EOF, drain, force-close) releases its
        /// admission slot.
        open: Gauge,
    }

    impl Conn {
        fn new(stream: TcpStream, binary_wire: bool, metrics: &ServeMetrics) -> Conn {
            metrics.connections_open.add(1);
            metrics.connections_total.incr();
            Conn {
                stream,
                session: Session::new(binary_wire),
                pending: VecDeque::new(),
                pending_bytes: 0,
                write_buf: Vec::new(),
                write_pos: 0,
                inflight: false,
                read_closed: false,
                close_after_flush: false,
                want_read: true,
                want_write: false,
                bytes_read: metrics.bytes_read.clone(),
                bytes_written: metrics.bytes_written.clone(),
                open: metrics.connections_open.clone(),
            }
        }

        fn unflushed(&self) -> usize {
            self.write_buf.len() - self.write_pos
        }

        /// Whether the connection has nothing left to do and can close.
        fn finished(&self, draining: bool) -> bool {
            let no_more_input = self.read_closed || draining || self.close_after_flush;
            no_more_input && !self.inflight && self.pending.is_empty() && self.unflushed() == 0
        }

        /// Whether more frames may be queued: bounded by count *and* by
        /// bytes, so neither many small lines nor few huge ones grow the
        /// queue past roughly one maximum frame.
        fn can_queue(&self) -> bool {
            self.pending.len() < PENDING_CAP && self.pending_bytes <= MAX_FRAME_BYTES
        }

        fn push_pending(&mut self, step: Step) {
            match &step {
                Step::Frame(f) => self.pending_bytes += frame_len(f),
                Step::Reply(_) => {}
                // Nothing follows a fatal step: stop reading now.
                Step::Fatal(_) => self.read_closed = true,
            }
            self.pending.push_back(step);
        }

        fn pop_pending(&mut self) -> Option<Step> {
            let step = self.pending.pop_front();
            if let Some(Step::Frame(f)) = &step {
                self.pending_bytes -= frame_len(f);
            }
            step
        }

        fn clear_pending(&mut self) {
            self.pending.clear();
            self.pending_bytes = 0;
        }
    }

    impl Drop for Conn {
        fn drop(&mut self) {
            self.open.sub(1);
        }
    }

    /// Request-frame payload size (the byte-level pipelining bound).
    fn frame_len(frame: &WireFrame) -> usize {
        match frame {
            WireFrame::Line(line) => line.len(),
            WireFrame::Binary(payload) | WireFrame::Checked(payload) => payload.len(),
        }
    }

    pub(super) struct Server {
        mailboxes: Vec<Arc<Mailbox>>,
        reactor_threads: Vec<JoinHandle<()>>,
        job_tx: Option<mpsc::Sender<Job>>,
        executor_threads: Vec<JoinHandle<()>>,
        stopped: bool,
    }

    impl Server {
        pub(super) fn start(
            listener: TcpListener,
            backend: Arc<dyn Backend>,
            options: &ServerOptions,
        ) -> std::io::Result<Server> {
            listener.set_nonblocking(true)?;
            let io_threads = options.io_threads.max(1);
            let executor_threads = options.executor_threads.max(1);
            // Backends without telemetry still get working admission
            // control — the serving metrics just land in a registry
            // nobody scrapes.
            let telemetry = backend
                .telemetry()
                .unwrap_or_else(|| Arc::new(Telemetry::new()));
            let metrics = ServeMetrics::new(&telemetry);
            let max_connections = options.max_connections;
            let deadline = options.request_deadline;
            let binary_wire = options.binary_wire;

            let mut mailboxes = Vec::with_capacity(io_threads);
            let mut pollers = Vec::with_capacity(io_threads);
            for _ in 0..io_threads {
                let mailbox = Arc::new(Mailbox {
                    queue: Mutex::new(Vec::new()),
                    waker: Waker::new()?,
                });
                let poller = Poller::new()?;
                poller.add(mailbox.waker.fd(), TOKEN_WAKER, true, false)?;
                pollers.push(poller);
                mailboxes.push(mailbox);
            }
            pollers[0].add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;

            let (job_tx, job_rx) = mpsc::channel::<Job>();
            let job_rx = Arc::new(Mutex::new(job_rx));
            let mut executors = Vec::with_capacity(executor_threads);
            for i in 0..executor_threads {
                let rx = Arc::clone(&job_rx);
                let backend = Arc::clone(&backend);
                let mailboxes = mailboxes.clone();
                let metrics = metrics.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("fc-exec-{i}"))
                    .spawn(move || executor_loop(&rx, &*backend, &mailboxes, deadline, &metrics));
                match spawned {
                    Ok(t) => executors.push(t),
                    Err(e) => {
                        // No reactors exist yet: dropping the only sender
                        // disconnects the queue, so the spawned workers
                        // exit and join — nothing leaks out of a failed
                        // bind.
                        drop(job_tx);
                        for t in executors {
                            let _ = t.join();
                        }
                        return Err(e);
                    }
                }
            }

            let mut reactor_threads = Vec::with_capacity(io_threads);
            let mut listener = Some(listener);
            for (idx, poller) in pollers.into_iter().enumerate() {
                let mailbox = Arc::clone(&mailboxes[idx]);
                let peers = mailboxes.clone();
                let reactor_job_tx = job_tx.clone();
                let reactor_metrics = metrics.clone();
                let listener = if idx == 0 { listener.take() } else { None };
                let spawned = std::thread::Builder::new()
                    .name(format!("fc-io-{idx}"))
                    .spawn(move || {
                        Reactor {
                            idx,
                            poller,
                            mailbox,
                            peers,
                            listener,
                            job_tx: reactor_job_tx,
                            conns: HashMap::new(),
                            next_token: FIRST_CONN_TOKEN,
                            next_assignee: 0,
                            draining: false,
                            drain_deadline: None,
                            accept_retry_at: None,
                            max_connections,
                            binary_wire,
                            metrics: reactor_metrics,
                        }
                        .run()
                    });
                match spawned {
                    Ok(t) => reactor_threads.push(t),
                    Err(e) => {
                        // Partial spawn: the reactors already running (one
                        // of which may own the listener) must drain and
                        // join, or a failed bind would leave the port
                        // bound and threads serving with no handle.
                        let mut partial = Server {
                            mailboxes,
                            reactor_threads,
                            job_tx: Some(job_tx),
                            executor_threads: executors,
                            stopped: false,
                        };
                        partial.shutdown();
                        return Err(e);
                    }
                }
            }

            Ok(Server {
                mailboxes,
                reactor_threads,
                job_tx: Some(job_tx),
                executor_threads: executors,
                stopped: false,
            })
        }

        pub(super) fn shutdown(&mut self) {
            if self.stopped {
                return;
            }
            self.stopped = true;
            for mailbox in &self.mailboxes {
                mailbox.send(Msg::Shutdown);
            }
            // Reactors drain (in-flight responses still complete through
            // the live executor pool), then exit; only then is the pool
            // disconnected and joined.
            for t in self.reactor_threads.drain(..) {
                let _ = t.join();
            }
            self.job_tx = None;
            for t in self.executor_threads.drain(..) {
                let _ = t.join();
            }
        }
    }

    fn executor_loop(
        rx: &Mutex<mpsc::Receiver<Job>>,
        backend: &dyn Backend,
        mailboxes: &[Arc<Mailbox>],
        deadline: Option<Duration>,
        metrics: &ServeMetrics,
    ) {
        loop {
            // The guard drops at the end of the statement: workers contend
            // only for the *wait*, never during execution.
            let job = rx.lock().expect("executor queue lock").recv();
            let Ok(job) = job else { break };
            let waited = job.enqueued.elapsed();
            metrics.queue_wait.observe(waited);
            // Shed, don't execute, requests that already waited past the
            // deadline: under a backlog the client has likely timed out
            // (or will), and running them anyway only delays every
            // request behind them. Every shed frame still gets its error
            // response — one answer per request, pipelined order intact.
            let shed = deadline.is_some_and(|d| waited > d);
            let mut bytes = Vec::new();
            for frame in &job.frames {
                if shed {
                    metrics.deadline_shed.incr();
                    let late = Response::Error {
                        message: format!(
                            "request waited {}ms in the executor queue, past the {}ms deadline",
                            waited.as_millis(),
                            deadline.unwrap_or_default().as_millis(),
                        ),
                        code: Some(protocol::ErrorCode::DeadlineExceeded),
                    };
                    bytes.extend_from_slice(&session::reply_to(frame, &late));
                    continue;
                }
                // `answer` contains a panicking backend call: an unwind
                // through here would skip `Msg::Complete` (the connection
                // would stay *executing* forever) and shrink the pool by
                // one thread per panic.
                bytes.extend_from_slice(&session::answer(backend, frame));
            }
            mailboxes[job.reactor].send(Msg::Complete {
                conn: job.conn,
                bytes,
            });
        }
    }

    struct Reactor {
        idx: usize,
        poller: Poller,
        mailbox: Arc<Mailbox>,
        peers: Vec<Arc<Mailbox>>,
        listener: Option<TcpListener>,
        job_tx: mpsc::Sender<Job>,
        conns: HashMap<u64, Conn>,
        next_token: u64,
        /// Round-robin cursor over `peers` for accepted connections
        /// (reactor 0 only — it owns the listener).
        next_assignee: usize,
        draining: bool,
        drain_deadline: Option<Instant>,
        /// Set after a persistent accept failure (e.g. fd exhaustion):
        /// the listener is deregistered until this instant so the
        /// still-pending connection cannot spin the level-triggered loop,
        /// and no sleep ever blocks the reactor thread.
        accept_retry_at: Option<Instant>,
        /// Open-connection cap (0 = unlimited), shared across reactors
        /// through the `fc_connections_open` gauge itself: the gauge is
        /// the process-wide count, so the cap needs no second counter.
        max_connections: usize,
        /// Whether connections may `hello`-upgrade to the binary wire.
        binary_wire: bool,
        metrics: ServeMetrics,
    }

    impl Reactor {
        fn run(mut self) {
            let mut events: Vec<Event> = Vec::new();
            let mut scratch = vec![0u8; 64 * 1024];
            loop {
                let now = Instant::now();
                let mut timeout = self
                    .drain_deadline
                    .map(|d| d.saturating_duration_since(now));
                if let Some(retry) = self.accept_retry_at {
                    let until = retry.saturating_duration_since(now);
                    timeout = Some(timeout.map_or(until, |t| t.min(until)));
                }
                if self.poller.wait(&mut events, timeout).is_err() {
                    // An unusable poller cannot serve; drop everything.
                    return;
                }
                // Re-arm the listener once its accept-failure backoff ends.
                if self
                    .accept_retry_at
                    .is_some_and(|retry| Instant::now() >= retry)
                {
                    self.accept_retry_at = None;
                    if let Some(listener) = &self.listener {
                        let _ = self
                            .poller
                            .add(listener.as_raw_fd(), TOKEN_LISTENER, true, false);
                    }
                    self.accept_burst();
                }
                let mut touched: Vec<u64> = Vec::new();
                // Detach the event list so `self` stays borrowable; hand
                // the (same-capacity) vector back for the next wait.
                let ready = std::mem::take(&mut events);
                for event in &ready {
                    let event = *event;
                    match event.token {
                        TOKEN_WAKER => {} // mailbox drained below
                        TOKEN_LISTENER => self.accept_burst(),
                        token => {
                            if self.handle_io(token, &event, &mut scratch) {
                                touched.push(token);
                            }
                        }
                    }
                }
                events = ready;
                for msg in self.mailbox.drain() {
                    match msg {
                        Msg::Conn(stream) => self.adopt(stream),
                        Msg::Complete { conn, bytes } => {
                            if let Some(c) = self.conns.get_mut(&conn) {
                                c.write_buf.extend_from_slice(&bytes);
                                c.inflight = false;
                                touched.push(conn);
                            }
                        }
                        Msg::Shutdown => self.begin_drain(),
                    }
                }
                touched.sort_unstable();
                touched.dedup();
                for token in touched {
                    self.pump(token);
                }
                if self.draining {
                    if self.drain_deadline.is_some_and(|d| Instant::now() >= d) {
                        // Grace expired: force-close the stragglers.
                        self.conns.clear();
                    }
                    if self.conns.is_empty() {
                        return;
                    }
                }
            }
        }

        fn begin_drain(&mut self) {
            if self.draining {
                return;
            }
            self.draining = true;
            self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
            // Stop accepting; the port closes with the listener.
            self.listener = None;
            self.accept_retry_at = None;
            // Stop reading everywhere; in-flight work still completes.
            let tokens: Vec<u64> = self.conns.keys().copied().collect();
            for token in tokens {
                self.pump(token);
            }
        }

        fn accept_burst(&mut self) {
            let mut accepted = Vec::new();
            if let Some(listener) = &self.listener {
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => accepted.push(stream),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        // Persistent accept failures (e.g. fd exhaustion)
                        // leave the pending connection in the kernel
                        // queue, so level-triggered epoll would re-report
                        // the listener instantly and spin this loop at
                        // 100% CPU. Deregister the listener and retry
                        // after a pause — tracked as a deadline, never a
                        // sleep, so established connections keep being
                        // served in the meantime.
                        Err(_) => {
                            let _ = self.poller.remove(listener.as_raw_fd());
                            self.accept_retry_at = Some(Instant::now() + Duration::from_millis(20));
                            break;
                        }
                    }
                }
            }
            for stream in accepted {
                let target = self.next_assignee % self.peers.len();
                self.next_assignee = self.next_assignee.wrapping_add(1);
                if target == self.idx {
                    self.adopt(stream);
                } else {
                    self.peers[target].send(Msg::Conn(stream));
                }
            }
        }

        fn adopt(&mut self, stream: TcpStream) {
            if self.draining {
                return; // dropped: we are closing
            }
            if self.max_connections > 0
                && self.metrics.connections_open.get() >= self.max_connections as u64
            {
                self.metrics.connections_rejected.incr();
                refuse(stream, self.max_connections);
                return;
            }
            if stream.set_nonblocking(true).is_err() {
                return;
            }
            stream.set_nodelay(true).ok();
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .add(stream.as_raw_fd(), token, true, false)
                .is_err()
            {
                return;
            }
            self.conns
                .insert(token, Conn::new(stream, self.binary_wire, &self.metrics));
        }

        /// Socket-level I/O for one readiness event. Returns whether the
        /// connection survived (and should be pumped).
        fn handle_io(&mut self, token: u64, event: &Event, scratch: &mut [u8]) -> bool {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            if event.writable && conn.unflushed() > 0 && !flush_writes(conn) {
                self.conns.remove(&token);
                return false;
            }
            if event.readable && !conn.read_closed {
                let mut budget = READ_BURST_BYTES;
                loop {
                    match conn.stream.read(scratch) {
                        Ok(0) => {
                            conn.read_closed = true;
                            break;
                        }
                        Ok(n) => {
                            conn.bytes_read.add(n as u64);
                            conn.session.push(&scratch[..n]);
                            budget = budget.saturating_sub(n);
                            if budget == 0 {
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            self.conns.remove(&token);
                            return false;
                        }
                    }
                }
            }
            true
        }

        /// Runs one connection's state machine: extract frames, dispatch
        /// at most one batch of requests to the executors, flush writes,
        /// close when finished, and re-arm epoll interest.
        fn pump(&mut self, token: u64) {
            let draining = self.draining;
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };

            // Reading → pending: pull the steps the buffered bytes hold.
            // This runs even after EOF — a client that writes its request
            // and immediately half-closes must still get its answers for
            // every complete frame it sent — and EOF terminates a final,
            // newline-less request too.
            while conn.can_queue() {
                let Some(step) = conn.session.next_step(conn.read_closed) else {
                    break;
                };
                conn.push_pending(step);
            }

            // Pending → executing: one *job* in flight per connection,
            // responses strictly in request order. A run of consecutively
            // queued request frames dispatches as a single batch, so a
            // pipelining client pays the executor round trip once per run
            // instead of once per request. Locally answered replies
            // flush inline, in their pipelined position, so they bound a
            // batch. A drain stops dispatching new work but lets the
            // in-flight job finish.
            while !conn.inflight && !draining {
                match conn.pop_pending() {
                    None => break,
                    Some(Step::Frame(frame)) => {
                        let mut frames = vec![frame];
                        while matches!(conn.pending.front(), Some(Step::Frame(_))) {
                            let Some(Step::Frame(frame)) = conn.pop_pending() else {
                                unreachable!("front was a request frame");
                            };
                            frames.push(frame);
                        }
                        conn.inflight = true;
                        if self
                            .job_tx
                            .send(Job {
                                reactor: self.idx,
                                conn: token,
                                frames,
                                enqueued: Instant::now(),
                            })
                            .is_err()
                        {
                            // Executors are gone (shutdown race): nothing
                            // will ever answer; close.
                            self.conns.remove(&token);
                            return;
                        }
                    }
                    Some(Step::Reply(bytes)) => {
                        conn.write_buf.extend_from_slice(&bytes);
                    }
                    Some(Step::Fatal(bytes)) => {
                        conn.write_buf.extend_from_slice(&bytes);
                        conn.close_after_flush = true;
                        conn.clear_pending();
                    }
                }
            }
            if draining {
                conn.clear_pending();
            }

            // Executing → writing: flush whatever is queued.
            if conn.unflushed() > 0 && !flush_writes(conn) {
                self.conns.remove(&token);
                return;
            }

            if conn.finished(draining) {
                self.conns.remove(&token);
                return;
            }

            // Re-arm interest for the current state. Reads stop while the
            // pipeline queue is full (by count or bytes), while a partial
            // frame already fills the codec, or while responses are backed
            // up past the write watermark.
            let want_read = !conn.read_closed
                && !conn.close_after_flush
                && !draining
                && conn.can_queue()
                && conn.session.buffered() <= MAX_FRAME_BYTES
                && conn.write_buf.len() < WRITE_HIGH_WATERMARK;
            let want_write = conn.unflushed() > 0;
            if want_read != conn.want_read || want_write != conn.want_write {
                conn.want_read = want_read;
                conn.want_write = want_write;
                if self
                    .poller
                    .modify(conn.stream.as_raw_fd(), token, want_read, want_write)
                    .is_err()
                {
                    self.conns.remove(&token);
                }
            }
        }
    }

    /// Writes as much of the buffer as the socket accepts. Returns `false`
    /// when the connection died.
    fn flush_writes(conn: &mut Conn) -> bool {
        while conn.write_pos < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.bytes_written.add(n as u64);
                    conn.write_pos += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if conn.write_pos == conn.write_buf.len() {
            conn.write_buf.clear();
            conn.write_pos = 0;
        } else if conn.write_pos > WRITE_HIGH_WATERMARK {
            conn.write_buf.drain(..conn.write_pos);
            conn.write_pos = 0;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use fc_core::methods::Uniform;
    use fc_geom::Dataset;
    use std::io::{BufRead, BufReader, BufWriter};

    fn engine() -> Engine {
        Engine::with_compressor(
            EngineConfig {
                shards: 2,
                k: 2,
                m_scalar: 20,
                ..Default::default()
            },
            Arc::new(Uniform),
        )
        .unwrap()
    }

    #[test]
    fn dispatch_covers_every_op() {
        let engine = engine();
        let ingest = handle_request(
            &engine,
            Request::Ingest {
                dataset: "d".into(),
                block: fc_core::PointBlock::new(
                    (0..50).flat_map(|i| [i as f64, 0.0]).collect(),
                    2,
                    None,
                )
                .unwrap(),
                plan: None,
                ident: None,
                epoch: None,
            },
        );
        assert!(
            matches!(ingest, Response::Ingested { points: 50, .. }),
            "{ingest:?}"
        );

        let compress = handle_request(
            &engine,
            Request::Compress {
                dataset: "d".into(),
                method: Some(fc_core::plan::Method::Uniform),
                seed: Some(1),
            },
        );
        assert!(matches!(compress, Response::Coreset { .. }), "{compress:?}");

        let cluster = handle_request(
            &engine,
            Request::Cluster {
                dataset: "d".into(),
                k: Some(2),
                kind: None,
                solver: Some(fc_clustering::Solver::Hamerly),
                seed: Some(1),
            },
        );
        match &cluster {
            Response::Clustered { solver, .. } => {
                assert_eq!(*solver, fc_clustering::Solver::Hamerly)
            }
            other => panic!("unexpected {other:?}"),
        }

        let cost = handle_request(
            &engine,
            Request::Cost {
                dataset: "d".into(),
                centers: vec![vec![0.0, 0.0], vec![49.0, 0.0]],
                kind: None,
            },
        );
        assert!(matches!(cost, Response::Cost { .. }), "{cost:?}");

        let stats = handle_request(&engine, Request::Stats { dataset: None });
        match stats {
            Response::Stats { datasets, server } => {
                assert_eq!(datasets.len(), 1);
                assert_eq!(datasets[0].ingested_points, 50);
                let server = server.expect("engines report lifetime counters");
                assert_eq!(server.ingested_points, 50);
                assert_eq!(server.ingested_blocks, 1);
                assert!(server.queries >= 1, "cost query counted");
            }
            other => panic!("unexpected {other:?}"),
        }

        let dropped = handle_request(
            &engine,
            Request::DropDataset {
                dataset: "d".into(),
            },
        );
        assert!(matches!(dropped, Response::Dropped { .. }), "{dropped:?}");

        let missing = handle_request(
            &engine,
            Request::Stats {
                dataset: Some("d".into()),
            },
        );
        assert!(matches!(missing, Response::Error { .. }), "{missing:?}");
    }

    fn roundtrip_against(options: ServerOptions) {
        let handle = ServerHandle::bind_with("127.0.0.1:0", engine(), options).unwrap();
        let addr = handle.addr();
        assert_ne!(addr.port(), 0);
        // A raw client connection with a malformed line gets an error
        // reply; a valid request on the same connection still answers.
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        let mut reader = BufReader::new(stream);
        writer.write_all(b"{oops\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = Response::from_json(line.trim()).unwrap();
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
        writer
            .write_all(b"{\"op\":\"ingest\",\"dataset\":\"d\",\"points\":[[0,0],[1,1]]}\n")
            .unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        let resp = Response::from_json(line.trim()).unwrap();
        assert!(
            matches!(resp, Response::Ingested { points: 2, .. }),
            "{resp:?}"
        );
        handle.shutdown();
        let empty = Dataset::from_flat(vec![], 2);
        assert!(empty.is_ok(), "shutdown leaves the process healthy");
    }

    #[test]
    fn server_binds_ephemeral_port_and_shuts_down() {
        roundtrip_against(ServerOptions::default());
    }

    #[test]
    fn threaded_model_serves_identically() {
        roundtrip_against(ServerOptions {
            io_model: IoModel::Threaded,
            ..Default::default()
        });
    }

    #[test]
    fn io_model_names_round_trip() {
        for model in [IoModel::Reactor, IoModel::Threaded] {
            assert_eq!(model.name().parse::<IoModel>().unwrap(), model);
        }
        assert!("uring".parse::<IoModel>().is_err());
    }
}
