//! One remote `fc-server` node, as the coordinator sees it: a pool of
//! reusable connections, lazy (re)dialing under socket timeouts, and a
//! health record driven by what actually happens on the wire.
//!
//! [`NodeHandle::request`] is the only way the coordinator reaches a
//! node, on every platform: each fan-out slot, routed ingest, replica
//! write, migration leg and drain drop is one blocking call to it, run on
//! the caller's thread or on a scoped thread of the coordinator's
//! exchange. The redial, `overloaded` backoff and health rules below are
//! written here once.
//!
//! Connection lifecycle: a request checks an idle connection out of the
//! pool (dialing a fresh one when the pool is empty), runs its exchange,
//! and returns the connection to the pool on any outcome that leaves the
//! socket usable. A socket-level or framing failure drops the connection;
//! if it came from the pool it may simply be stale (the node restarted
//! since), so the request redials once before giving up — that redial is
//! the coordinator's whole reconnect story. A timeout is not staleness
//! and is not redialed.
//!
//! Every dial, binary hello and byte moved is bounded by the fleet's
//! [`NodeTimeouts`]: a *hung* (not dead) node — accepting but never
//! answering — fails the exchange with a timeout instead of pinning a
//! coordinator fan-out slot forever, and is surfaced as
//! [`NodeHealth::Degraded`] (it is answering the transport, just not the
//! protocol; a node that refuses the transport entirely is
//! [`NodeHealth::Down`]).
//!
//! Transport retry semantics are **at-least-once**: a request resent
//! after a socket failure may have already been applied if the node
//! processed it and died before replying. Queries are idempotent so this
//! is free. Ingest closes the window one layer up: a batch carrying an
//! [`fc_service::protocol::IngestIdent`] `(client, seq)` is deduplicated
//! by the engine's per-dataset watermark (and by the coordinator's own
//! route watermark under replication), so the at-least-once resend is
//! acknowledged as a duplicate instead of double-counting. Only bare,
//! unidented ingest still carries the narrow double-count window.

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

use fc_service::protocol::NodeHealth;
use fc_service::{ClientError, Request, Response, RetryPolicy, ServiceClient};

/// Idle connections kept per node; extras beyond this are dropped on
/// check-in rather than hoarded (fan-outs briefly need one per concurrent
/// query, steady state needs far fewer).
const MAX_POOLED: usize = 8;

/// Socket timeouts for everything a coordinator does to a node. A zero
/// duration disables that timeout (std rejects zero-duration socket
/// timeouts, so zero maps to "unbounded").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeTimeouts {
    /// TCP connect budget per dial attempt.
    pub connect: Duration,
    /// Budget for a node to produce its complete response line once the
    /// request is on the wire.
    pub read: Duration,
    /// Budget to flush a request onto the wire.
    pub write: Duration,
}

impl Default for NodeTimeouts {
    /// 2 s to connect, 30 s to answer, 10 s to accept a request — generous
    /// enough for a serving compression over a loaded node, small enough
    /// that a hung node degrades a query instead of wedging it.
    fn default() -> Self {
        Self {
            connect: Duration::from_secs(2),
            read: Duration::from_secs(30),
            write: Duration::from_secs(10),
        }
    }
}

impl NodeTimeouts {
    fn opt(d: Duration) -> Option<Duration> {
        (!d.is_zero()).then_some(d)
    }

    /// The read timeout as std wants it (`None` when disabled).
    pub fn read_opt(&self) -> Option<Duration> {
        Self::opt(self.read)
    }

    /// The write timeout as std wants it (`None` when disabled).
    pub fn write_opt(&self) -> Option<Duration> {
        Self::opt(self.write)
    }
}

/// Whether an I/O failure is a deadline expiry (the node is slow or hung)
/// rather than a transport failure (the node is gone). Blocking sockets
/// report `SO_RCVTIMEO` expiry as `WouldBlock` on Linux.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
    )
}

#[derive(Debug, Clone)]
struct NodeState {
    health: NodeHealth,
    last_error: Option<String>,
    /// Sticky replay flag, orthogonal to transport health: any request
    /// outcome marks the node alive ([`NodeHandle::record`]), but only a
    /// *stats* response saying every dataset has caught up clears this —
    /// so a node restarting warm reads [`NodeHealth::Recovering`] until
    /// its WAL replay is actually done, however many queries it answers
    /// in between.
    recovering: bool,
}

/// A remote node: address, connection pool, timeouts, and health. Its
/// placement weight lives in the coordinator's [`fc_fleet::FleetMap`].
pub(crate) struct NodeHandle {
    addr: String,
    timeouts: NodeTimeouts,
    /// Offer every fresh connection the `bin1` upgrade. Nodes that
    /// decline (old binaries, `--wire json`) simply stay on JSON-lines —
    /// the preference is per *dial*, so a mixed fleet works.
    binary_wire: bool,
    pool: Mutex<Vec<ServiceClient>>,
    state: Mutex<NodeState>,
}

impl NodeHandle {
    /// A handle for the node at `addr` with the given socket timeouts.
    /// `binary_wire` offers each fresh connection
    /// the `bin1` upgrade (JSON-lines when the node declines). Health
    /// starts [`NodeHealth::Alive`] optimistically — the first request
    /// corrects it.
    pub fn new(addr: impl Into<String>, timeouts: NodeTimeouts, binary_wire: bool) -> Self {
        Self {
            addr: addr.into(),
            timeouts,
            binary_wire,
            pool: Mutex::new(Vec::new()),
            state: Mutex::new(NodeState {
                health: NodeHealth::Alive,
                last_error: None,
                recovering: false,
            }),
        }
    }

    /// The node's identity: the address the coordinator dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// A handle for the node at `addr`, driven like this one: the same
    /// socket timeouts and binary-wire preference.
    pub fn sibling(&self, addr: &str) -> Self {
        Self::new(addr, self.timeouts, self.binary_wire)
    }

    /// The node's current health and most recent error. A transport-alive
    /// node still replaying its WAL reads [`NodeHealth::Recovering`];
    /// degraded/down take precedence (a dead node's replay state is
    /// unknowable and moot).
    pub fn health(&self) -> (NodeHealth, Option<String>) {
        let state = self.state.lock().expect("node state lock");
        let health = match state.health {
            NodeHealth::Alive if state.recovering => NodeHealth::Recovering,
            h => h,
        };
        (health, state.last_error.clone())
    }

    /// Whether the node's last stats report said it was still replaying.
    pub fn is_recovering(&self) -> bool {
        self.state.lock().expect("node state lock").recovering
    }

    /// Updates the sticky replay flag from a stats response (the only
    /// evidence that speaks to it).
    pub(crate) fn set_recovering(&self, recovering: bool) {
        self.state.lock().expect("node state lock").recovering = recovering;
    }

    fn mark_alive(&self) {
        let mut state = self.state.lock().expect("node state lock");
        state.health = NodeHealth::Alive;
        state.last_error = None;
    }

    fn mark(&self, health: NodeHealth, error: String) {
        let mut state = self.state.lock().expect("node state lock");
        state.health = health;
        state.last_error = Some(error);
    }

    /// Checks a connection out of the pool, dialing when empty. The bool
    /// is `true` for a pooled (possibly stale) connection. A failed dial
    /// marks the node's health.
    fn checkout(&self) -> Result<(ServiceClient, bool), ClientError> {
        let pooled = self.pool.lock().expect("connection pool lock").pop();
        match pooled {
            Some(client) => Ok((client, true)),
            None => self.dial().map(|client| (client, false)),
        }
    }

    /// Returns a healthy connection to the pool.
    fn checkin(&self, client: ServiceClient) {
        let mut pool = self.pool.lock().expect("connection pool lock");
        if pool.len() < MAX_POOLED {
            pool.push(client);
        }
    }

    /// Dials a fresh connection under the connect timeout, arms the
    /// socket's read/write timeouts and offers the binary upgrade. A
    /// failure marks the node's health: a connect or hello that times out
    /// reads degraded, any other failure down.
    fn dial(&self) -> Result<ServiceClient, ClientError> {
        let mut last: Option<std::io::Error> = None;
        let addrs = match self.addr.as_str().to_socket_addrs() {
            Ok(addrs) => addrs,
            Err(e) => {
                self.mark(NodeHealth::Down, format!("resolve {}: {e}", self.addr));
                return Err(ClientError::Io(e));
            }
        };
        for addr in addrs {
            let attempt = match NodeTimeouts::opt(self.timeouts.connect) {
                Some(limit) => TcpStream::connect_timeout(&addr, limit),
                None => TcpStream::connect(addr),
            };
            match attempt {
                Ok(stream) => {
                    stream.set_read_timeout(self.timeouts.read_opt()).ok();
                    stream.set_write_timeout(self.timeouts.write_opt()).ok();
                    let mut client = ServiceClient::from_stream(stream);
                    // The socket timeout alone is per-read-syscall; the
                    // client-level budget makes `read` a *whole-response*
                    // deadline, so a node trickling bytes cannot pin a
                    // blocking request (ingest routing) indefinitely.
                    client.set_response_timeout(self.timeouts.read_opt());
                    if self.binary_wire {
                        // A declined hello (`Ok(false)`) keeps the
                        // connection on JSON; only a transport/protocol
                        // failure condemns the dial, classified like any
                        // request's: a node that accepts and never
                        // answers the hello is degraded, not down.
                        if let Err(e) = client.negotiate_binary() {
                            let kind = match &e {
                                ClientError::Io(io) => io.kind(),
                                _ => std::io::ErrorKind::InvalidData,
                            };
                            let failed = ClientError::Io(std::io::Error::new(
                                kind,
                                format!("negotiate bin1 with {}: {e}", self.addr),
                            ));
                            self.record(Err(&failed));
                            return Err(failed);
                        }
                    }
                    return Ok(client);
                }
                Err(e) => last = Some(e),
            }
        }
        let e = last.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        });
        let health = if is_timeout(&e) {
            NodeHealth::Degraded
        } else {
            NodeHealth::Down
        };
        self.mark(health, format!("connect {}: {e}", self.addr));
        Err(ClientError::Io(e))
    }

    /// Records the health consequences of one request outcome. Timeouts
    /// mean the node is *answering the transport but not the protocol* —
    /// degraded, like persistent overload; other socket or framing
    /// failures mean it is down.
    fn record(&self, outcome: Result<&Response, &ClientError>) {
        match outcome {
            // Server-side rejections (unknown dataset, plan conflicts, …)
            // still prove the node is answering.
            Ok(_) | Err(ClientError::Server { .. }) | Err(ClientError::UnexpectedResponse(_)) => {
                self.mark_alive()
            }
            Err(ClientError::Overloaded(msg)) => {
                self.mark(NodeHealth::Degraded, format!("overloaded: {msg}"))
            }
            Err(ClientError::Io(e)) if is_timeout(e) => {
                self.mark(NodeHealth::Degraded, format!("timed out: {e}"))
            }
            Err(e @ (ClientError::Io(_) | ClientError::Protocol(_))) => {
                self.mark(NodeHealth::Down, e.to_string())
            }
        }
    }

    /// Sends one request to this node: pooled connection or fresh dial,
    /// bounded `overloaded` backoff, one redial when a pooled connection
    /// turns out stale. Updates the health record from the outcome. This
    /// is the only way the coordinator reaches a node; the request carries
    /// the calling thread's ambient trace id.
    pub fn request(&self, request: &Request, retry: &RetryPolicy) -> Result<Response, ClientError> {
        let (mut client, from_pool) = self.checkout()?;
        let outcome = client.request_with_backoff(request, retry);
        // The pooled socket may be stale (node restarted since it was
        // pooled): drop it and redial once. Timeouts are not staleness —
        // a fresh socket would hang the same way.
        let stale = from_pool
            && match &outcome {
                Err(ClientError::Io(e)) => !is_timeout(e),
                Err(ClientError::Protocol(_)) => true,
                _ => false,
            };
        if stale {
            drop(client);
            let mut fresh = self.dial()?;
            let outcome = fresh.request_with_backoff(request, retry);
            return self.settle(fresh, outcome);
        }
        self.settle(client, outcome)
    }

    /// Records the outcome and, when the socket stayed usable, returns
    /// the connection to the pool.
    fn settle(
        &self,
        client: ServiceClient,
        outcome: Result<Response, ClientError>,
    ) -> Result<Response, ClientError> {
        self.record(outcome.as_ref());
        match &outcome {
            Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => drop(client),
            _ => self.checkin(client),
        }
        outcome
    }
}

impl std::fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (health, last_error) = self.health();
        f.debug_struct("NodeHandle")
            .field("addr", &self.addr)
            .field("timeouts", &self.timeouts)
            .field("health", &health)
            .field("last_error", &last_error)
            .finish_non_exhaustive()
    }
}
