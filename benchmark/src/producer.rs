//! The one load generator every ingest phase uses.
//!
//! It owns backpressure: a block is *idented* (`client`, `seq`), sent
//! strictly request/response, and an `overloaded` reply is retried inside a
//! per-block deadline (1 ms doubling to 20 ms, 2 s in all). Idented blocks
//! are never pipelined: the server's dedup watermark is monotonic per
//! `(dataset, client)`, so re-sending block 3 after block 4 was applied
//! would be acknowledged as a duplicate and lost. The light workloads use
//! the client's own windowed `ingest_pipelined` instead, without idents and
//! without resends: a chunk that errors counts every block in it as failed.
//!
//! Either way the producer counts what it attempted, retried and lost, and
//! `drain` waits until the server has *applied* — not merely acknowledged —
//! what was sent, so a rate computed from it means something.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use fc_geom::Dataset;
use fc_service::protocol::IngestIdent;
use fc_service::{ClientError, ServiceClient};

use crate::trace::Tracer;

const FIRST_BACKOFF: Duration = Duration::from_millis(1);
const MAX_BACKOFF: Duration = Duration::from_millis(20);
const BLOCK_DEADLINE: Duration = Duration::from_secs(2);
/// In-flight requests of a pipelined chunk.
pub const PIPELINE_WINDOW: usize = 32;
/// How long `drain` will wait before giving up.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);
const DRAIN_POLL: Duration = Duration::from_micros(200);

#[derive(Debug, Default, Clone)]
pub struct ProducerCounts {
    /// Blocks handed to the producer.
    pub blocks_attempted: u64,
    /// Blocks that errored, were refused, or ran out their deadline.
    pub blocks_failed: u64,
    /// `overloaded` replies that a later retry satisfied or gave up on.
    pub overloaded_retries: u64,
    pub points_acked: u64,
    /// Seconds from first byte out to ack, per strict block.
    pub ack_secs: Vec<f64>,
    /// Seconds spent sending (strict and pipelined), excluding drains.
    pub send_secs: f64,
}

pub struct Producer {
    client: ServiceClient,
    dataset: String,
    ident_client: String,
    next_seq: u64,
    pub counts: ProducerCounts,
}

impl Producer {
    /// Connects, optionally negotiating whichever binary dialect the
    /// server offers.
    pub fn connect(
        addr: SocketAddr,
        dataset: &str,
        ident_client: &str,
        binary: bool,
    ) -> Result<Self, String> {
        let mut client = ServiceClient::connect(addr).map_err(|e| e.to_string())?;
        if binary && !client.negotiate_binary().map_err(|e| e.to_string())? {
            return Err("server declined the binary dialect".into());
        }
        Ok(Self {
            client,
            dataset: dataset.to_owned(),
            ident_client: ident_client.to_owned(),
            next_seq: 1,
            counts: ProducerCounts::default(),
        })
    }

    /// Sends one idented block and waits for its ack, retrying
    /// `overloaded`. Returns whether the block was applied.
    pub fn send(&mut self, block: &Dataset, tracer: &mut Tracer) -> bool {
        self.counts.blocks_attempted += 1;
        let ident = IngestIdent {
            client: self.ident_client.clone(),
            seq: self.next_seq,
        };
        self.next_seq += 1;
        let open = tracer.begin("producer.block", ident.seq);
        let started = Instant::now();
        let mut backoff = FIRST_BACKOFF;
        let applied = loop {
            let attempt = tracer.begin("client.ingest_idented", ident.seq);
            let reply = self
                .client
                .ingest_idented(&self.dataset, block, None, Some(&ident), None);
            tracer.end(attempt);
            match reply {
                Ok(_) => break true,
                Err(ClientError::Overloaded(_)) => {
                    self.counts.overloaded_retries += 1;
                    if started.elapsed() + backoff > BLOCK_DEADLINE {
                        break false;
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(MAX_BACKOFF);
                }
                Err(e) => {
                    eprintln!("fcbench: ingest of block {} failed: {e}", ident.seq);
                    break false;
                }
            }
        };
        let secs = tracer.end(open);
        self.counts.send_secs += secs;
        if applied {
            self.counts.points_acked += block.len() as u64;
            self.counts.ack_secs.push(secs);
        } else {
            self.counts.blocks_failed += 1;
        }
        applied
    }

    /// Sends one chunk of blocks through the client's windowed pipeline.
    /// An error fails the whole chunk; nothing is resent.
    pub fn send_pipelined(&mut self, chunk: &[&Dataset], tracer: &mut Tracer) -> bool {
        self.counts.blocks_attempted += chunk.len() as u64;
        let open = tracer.begin("client.ingest_pipelined", self.counts.blocks_attempted);
        let reply = self.client.ingest_pipelined(
            &self.dataset,
            chunk.iter().copied(),
            None,
            PIPELINE_WINDOW,
        );
        self.counts.send_secs += tracer.end(open);
        match reply {
            Ok(_) => {
                self.counts.points_acked += chunk.iter().map(|b| b.len() as u64).sum::<u64>();
                true
            }
            Err(e) => {
                eprintln!("fcbench: pipelined chunk failed: {e}");
                self.counts.blocks_failed += chunk.len() as u64;
                false
            }
        }
    }

    /// Waits until the dataset reports `points_acked` ingested points and
    /// every shard queue empty (see [`wait_quiet`] for `settle`). Returns
    /// the seconds waited, or `None` on a mismatch the deadline did not
    /// resolve.
    pub fn drain(&mut self, settle: Duration, tracer: &mut Tracer) -> Option<f64> {
        let open = tracer.begin("producer.drain", self.next_seq);
        let drained = wait_quiet(settle, || {
            let stats = self.client.stats(Some(&self.dataset));
            let stats = stats.map_err(|e| eprintln!("fcbench: stats during drain failed: {e}"));
            Some(stats.ok()?.first().is_some_and(|s| {
                s.ingested_points == self.counts.points_acked
                    && s.queue_depth_per_shard.iter().all(|&d| d == 0)
            }))
        });
        let secs = tracer.end(open);
        drained.then_some(secs)
    }
}

/// Polls `quiet` until it has held continuously for `settle` — the
/// coalescing delay of the server, zero when it does not coalesce:
/// acknowledged rows may sit in a shard's coalescing buffer, outside any
/// queue, for that long. `false` when `quiet` gives up (`None`) or the
/// deadline passes first.
pub fn wait_quiet(settle: Duration, mut quiet: impl FnMut() -> Option<bool>) -> bool {
    let started = Instant::now();
    let mut quiet_since: Option<Instant> = None;
    while started.elapsed() < DRAIN_DEADLINE {
        match quiet() {
            None => return false,
            Some(true) => {
                if quiet_since.get_or_insert_with(Instant::now).elapsed() >= settle {
                    return true;
                }
            }
            Some(false) => quiet_since = None,
        }
        std::thread::sleep(DRAIN_POLL);
    }
    false
}
