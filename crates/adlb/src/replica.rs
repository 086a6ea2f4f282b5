//! Write-through replication: the ledger a server streams to its ring
//! successors so a successor can take over the shard when the primary
//! dies.
//!
//! Every server owns one [`Ledger`] worth of recoverable state — its data
//! shard, queued tasks, open leases, per-client request bookkeeping, and
//! write-ahead task transfers — and mirrors it on the first `R - 1` live
//! ring successors ([`crate::Layout::successors`]). Mutations are shipped
//! as [`ReplOp`] batches *before* any client-visible response leaves the
//! server (write-through), so at `R >= 2` the replica is always at least
//! as new as anything a client has observed. On a confirmed death the
//! first live successor merges the dead server's ledger into its own live
//! state and serves the shard in its place.
//!
//! What is deliberately *not* replicated: parked `Get`s (clients re-send
//! them on failover), steal/backoff heuristics, and monitoring counters —
//! all either reconstructible or harmless to lose.

use std::collections::{HashMap, HashSet, VecDeque};

use bytes::Bytes;
use mpisim::{Rank, WireError, WireReader, WireWriter};

#[cfg(test)]
use crate::datastore::TYPE_TAG_CONTAINER;
use crate::datastore::{DataStore, Datum, DatumValue};
use crate::msg::{decode_task_list, encode_task_list, Task};

/// One state-changing operation against a server's [`Ledger`], streamed
/// to its replica holders. The op stream from a primary is applied in
/// order; each handler's ops are shipped in one [`ServerMsg::Repl`]
/// batch, which the simulator delivers atomically — a kill can land
/// between messages, never inside one.
///
/// [`ServerMsg::Repl`]: crate::msg::ServerMsg::Repl
#[derive(Debug, Clone, PartialEq)]
pub enum ReplOp {
    /// Datum created ([`DataStore::create`]).
    Create { id: u64, type_tag: u8 },
    /// Scalar stored and closed. Drained subscribers are not carried
    /// here: their notify tasks are replicated as task ops in the same
    /// batch.
    Store { id: u64, value: Bytes },
    /// Container member inserted.
    Insert { id: u64, key: String, value: Bytes },
    /// Datum closed.
    CloseDatum { id: u64 },
    /// Writer slot count adjusted (may close the datum).
    IncrWriters { id: u64, delta: i64 },
    /// Rank subscribed to an open datum.
    Subscribe { id: u64, rank: Rank },
    /// Tasks entered the work queue.
    Push { tasks: Vec<Task> },
    /// Tasks left the work queue (delivery or donation). Always explicit —
    /// a [`ReplOp::LeaseOpen`] alone does *not* imply removal, because
    /// direct deliveries to a parked client never touch the queue.
    Remove { tasks: Vec<Task> },
    /// Tasks leased to a client (delivered, awaiting ack).
    LeaseOpen { client: Rank, tasks: Vec<Task> },
    /// The client's `n` oldest leases were acknowledged.
    LeaseDrop { client: Rank, n: u32 },
    /// Every lease of `client` was revoked (timeout); the client earns
    /// that many stale-ack credits.
    LeaseRevoke { client: Rank },
    /// `n` stale-ack credits of `client` were consumed.
    CreditUse { client: Rank, n: u32 },
    /// `client` was detected dead: permanently parked, leases and credits
    /// dropped (its requeued tasks arrive as separate task ops).
    ClientDead { client: Rank },
    /// `client`'s request `seq` against home shard `home` was fully
    /// processed; `resp` caches the encoded response when the request was
    /// awaited, so a promoted successor can answer a re-sent duplicate
    /// byte-for-byte. A cached response also delivered every error held
    /// for the client.
    SeqResp {
        client: Rank,
        home: Rank,
        seq: u64,
        resp: Option<Bytes>,
    },
    /// `client`'s one-way request `seq` failed with `error`, held until it
    /// rides the client's next awaited response.
    HoldError {
        client: Rank,
        seq: u64,
        error: String,
    },
    /// Streamed stdout from `client` on behalf of `tenant`.
    Out {
        client: Rank,
        text: String,
        tenant: u32,
    },
    /// `client` reported it will issue no further requests.
    ClientFinished { client: Rank },
    /// Write-ahead record of a task transfer toward home server `dest`
    /// (forward or steal donation), logged *before* the tasks are sent.
    XferOut {
        dest: Rank,
        fseq: u64,
        steal: bool,
        tasks: Vec<Task>,
    },
    /// Transfer acknowledged by the receiver; the write-ahead entry is
    /// retired. `origin` is explicit because a promoted server also
    /// retires entries it inherited from the dead primary.
    XferDone { origin: Rank, dest: Rank, fseq: u64 },
    /// The ledger owner applied transfer `fseq` from `origin`'s ledger
    /// toward home `dest` (`n` tasks; the tasks themselves ride in
    /// adjacent task ops of the same batch).
    XferIn {
        origin: Rank,
        dest: Rank,
        fseq: u64,
        n: u64,
    },
    /// A task was quarantined with this report.
    Quarantine { report: String },
}

/// A write-ahead task transfer entry: `origin`'s ledger still owes the
/// tasks to home server `dest` until the receiver acknowledges `fseq`.
#[derive(Debug, Clone, PartialEq)]
pub struct Xfer {
    /// Server whose ledger carries the entry (the original sender, which
    /// may be dead by the time the entry is re-driven).
    pub origin: Rank,
    /// Home server the tasks belong to (may itself be dead — the wire
    /// message is then addressed to its promoted successor).
    pub dest: Rank,
    /// Per-`(origin, dest)` transfer sequence number, from 1.
    pub fseq: u64,
    /// Whether the transfer answers a steal request (wire variant).
    pub steal: bool,
    /// The tasks in flight.
    pub tasks: Vec<Task>,
}

/// The replicable state of one ADLB server. Replicas hold one `Ledger`
/// per peer they back; a server's own live state is snapshotted into this
/// form when a (re)synced successor needs the full picture.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ledger {
    /// The data shard (futures and containers).
    pub store: DataStore,
    /// Queued tasks, as a multiset (order is rebuilt on promotion; the
    /// priority queue re-sorts).
    pub queue: Vec<Task>,
    /// Open leases per client, oldest first.
    pub leases: HashMap<Rank, VecDeque<Task>>,
    /// Stale-ack credits per client (whole-deque revocations).
    pub credits: HashMap<Rank, u32>,
    /// Request dedup high-water mark per `(client, home)`: each home
    /// shard's request stream from a client is deduplicated on its own,
    /// because a client's requests to different homes interleave one seq
    /// counter, and a promoted successor must still accept the dead
    /// home's unconfirmed one-way requests below its own high-water.
    pub seqs: HashMap<(Rank, Rank), u64>,
    /// Cached encoded response for a client's last awaited request.
    pub resps: HashMap<Rank, (u64, Bytes)>,
    /// Errors of one-way requests not yet delivered, per client, each with
    /// the seq of the request that failed.
    pub held: HashMap<Rank, Vec<(u64, String)>>,
    /// Accumulated stdout stream per `(client, tenant)`.
    pub outputs: HashMap<(Rank, u32), String>,
    /// Clients that are permanently parked (finished or dead).
    pub finished: HashSet<Rank>,
    /// Quarantine reports.
    pub quarantine: Vec<String>,
    /// Unacknowledged outbound task transfers.
    pub pending_xfers: Vec<Xfer>,
    /// Next outbound transfer seq per destination home (last used; next
    /// is `+ 1`).
    pub next_fseq: HashMap<Rank, u64>,
    /// Applied inbound transfer high-water per `(dest home, origin)`.
    pub xfer_applied: HashMap<(Rank, Rank), u64>,
    /// Tasks forwarded/donated away (termination-detection flow counter).
    pub fwd_out: u64,
    /// Tasks received from peers (termination-detection flow counter).
    pub fwd_in: u64,
    /// How many dead peers' ledgers the owning server has merged into this
    /// state (its failover count). This is the replica freshness version:
    /// a copy is promotable only if its `merges` covers every promotion
    /// the holder has observed the owner perform, because the bulk merged
    /// during a promotion never flows through the incremental op stream —
    /// only a full (re)sync carries it. Comparing versions makes
    /// staleness a property of the data rather than of message arrival
    /// order.
    pub merges: u64,
}

impl Ledger {
    /// Apply one op from `owner`'s replication stream. Must mirror
    /// exactly what the primary did to its live state.
    pub fn apply(&mut self, owner: Rank, op: &ReplOp) {
        match op {
            ReplOp::Create { id, type_tag } => {
                let _ = self.store.create(*id, *type_tag);
            }
            ReplOp::Store { id, value } => {
                let _ = self.store.store(*id, value.clone());
            }
            ReplOp::Insert { id, key, value } => {
                let _ = self.store.insert(*id, key, value.clone());
            }
            ReplOp::CloseDatum { id } => {
                let _ = self.store.close(*id);
            }
            ReplOp::IncrWriters { id, delta } => {
                let _ = self.store.incr_writers(*id, *delta);
            }
            ReplOp::Subscribe { id, rank } => {
                let _ = self.store.subscribe(*id, *rank);
            }
            ReplOp::Push { tasks } => {
                self.queue.extend(tasks.iter().cloned());
            }
            ReplOp::Remove { tasks } => {
                for t in tasks {
                    if let Some(i) = self.queue.iter().position(|q| q == t) {
                        self.queue.swap_remove(i);
                    }
                }
            }
            ReplOp::LeaseOpen { client, tasks } => {
                self.leases
                    .entry(*client)
                    .or_default()
                    .extend(tasks.iter().cloned());
            }
            ReplOp::LeaseDrop { client, n } => {
                if let Some(deque) = self.leases.get_mut(client) {
                    for _ in 0..*n {
                        deque.pop_front();
                    }
                    if deque.is_empty() {
                        self.leases.remove(client);
                    }
                }
            }
            ReplOp::LeaseRevoke { client } => {
                if let Some(deque) = self.leases.remove(client) {
                    *self.credits.entry(*client).or_default() += deque.len() as u32;
                }
            }
            ReplOp::CreditUse { client, n } => {
                if let Some(c) = self.credits.get_mut(client) {
                    *c = c.saturating_sub(*n);
                    if *c == 0 {
                        self.credits.remove(client);
                    }
                }
            }
            ReplOp::ClientDead { client } => {
                self.finished.insert(*client);
                self.leases.remove(client);
                self.credits.remove(client);
            }
            ReplOp::SeqResp {
                client,
                home,
                seq,
                resp,
            } => {
                let hw = self.seqs.entry((*client, *home)).or_default();
                *hw = (*hw).max(*seq);
                if let Some(bytes) = resp {
                    self.resps.insert(*client, (*seq, bytes.clone()));
                    self.held.remove(client);
                }
            }
            ReplOp::HoldError { client, seq, error } => {
                self.held
                    .entry(*client)
                    .or_default()
                    .push((*seq, error.clone()));
            }
            ReplOp::Out {
                client,
                text,
                tenant,
            } => {
                self.outputs
                    .entry((*client, *tenant))
                    .or_default()
                    .push_str(text);
            }
            ReplOp::ClientFinished { client } => {
                self.finished.insert(*client);
            }
            ReplOp::XferOut {
                dest,
                fseq,
                steal,
                tasks,
            } => {
                let next = self.next_fseq.entry(*dest).or_default();
                *next = (*next).max(*fseq);
                self.fwd_out += tasks.len() as u64;
                self.pending_xfers.push(Xfer {
                    origin: owner,
                    dest: *dest,
                    fseq: *fseq,
                    steal: *steal,
                    tasks: tasks.clone(),
                });
            }
            ReplOp::XferDone { origin, dest, fseq } => {
                self.pending_xfers
                    .retain(|x| !(x.origin == *origin && x.dest == *dest && x.fseq == *fseq));
            }
            ReplOp::XferIn {
                origin,
                dest,
                fseq,
                n,
            } => {
                let hw = self.xfer_applied.entry((*dest, *origin)).or_default();
                *hw = (*hw).max(*fseq);
                self.fwd_in += n;
            }
            ReplOp::Quarantine { report } => {
                self.quarantine.push(report.clone());
            }
        }
    }

    /// Serialize the full ledger (a `Snapshot` payload).
    pub(crate) fn encode_into(&self, w: &mut WireWriter) {
        let datums: Vec<_> = self.store.iter().collect();
        w.put_u32(datums.len() as u32);
        for (id, d) in datums {
            w.put_u64(*id);
            encode_datum(w, d);
        }
        encode_task_list(w, &self.queue);
        w.put_u32(self.leases.len() as u32);
        for (client, deque) in &self.leases {
            w.put_u64(*client as u64);
            let tasks: Vec<Task> = deque.iter().cloned().collect();
            encode_task_list(w, &tasks);
        }
        w.put_u32(self.credits.len() as u32);
        for (client, n) in &self.credits {
            w.put_u64(*client as u64);
            w.put_u32(*n);
        }
        w.put_u32(self.seqs.len() as u32);
        for ((client, home), seq) in &self.seqs {
            w.put_u64(*client as u64);
            w.put_u64(*home as u64);
            w.put_u64(*seq);
        }
        w.put_u32(self.resps.len() as u32);
        for (client, (seq, bytes)) in &self.resps {
            w.put_u64(*client as u64);
            w.put_u64(*seq);
            w.put_bytes(bytes);
        }
        w.put_u32(self.held.len() as u32);
        for (client, errors) in &self.held {
            w.put_u64(*client as u64);
            w.put_u32(errors.len() as u32);
            for (seq, e) in errors {
                w.put_u64(*seq);
                w.put_str(e);
            }
        }
        w.put_u32(self.outputs.len() as u32);
        for ((client, tenant), text) in &self.outputs {
            w.put_u64(*client as u64);
            w.put_u32(*tenant);
            w.put_str(text);
        }
        w.put_u32(self.finished.len() as u32);
        for client in &self.finished {
            w.put_u64(*client as u64);
        }
        w.put_u32(self.quarantine.len() as u32);
        for q in &self.quarantine {
            w.put_str(q);
        }
        w.put_u32(self.pending_xfers.len() as u32);
        for x in &self.pending_xfers {
            w.put_u64(x.origin as u64);
            w.put_u64(x.dest as u64);
            w.put_u64(x.fseq);
            w.put_u8(x.steal as u8);
            encode_task_list(w, &x.tasks);
        }
        w.put_u32(self.next_fseq.len() as u32);
        for (dest, fseq) in &self.next_fseq {
            w.put_u64(*dest as u64);
            w.put_u64(*fseq);
        }
        w.put_u32(self.xfer_applied.len() as u32);
        for ((dest, origin), fseq) in &self.xfer_applied {
            w.put_u64(*dest as u64);
            w.put_u64(*origin as u64);
            w.put_u64(*fseq);
        }
        w.put_u64(self.fwd_out);
        w.put_u64(self.fwd_in);
        w.put_u64(self.merges);
    }

    /// Deserialize a full ledger.
    pub(crate) fn decode_from(r: &mut WireReader) -> Result<Ledger, WireError> {
        let mut ledger = Ledger::default();
        let n = r.get_u32()? as usize;
        for _ in 0..n {
            let id = r.get_u64()?;
            let d = decode_datum(r)?;
            ledger.store.insert_datum(id, d);
        }
        ledger.queue = decode_task_list(r)?;
        let n = r.get_u32()? as usize;
        for _ in 0..n {
            let client = r.get_u64()? as Rank;
            let tasks = decode_task_list(r)?;
            ledger.leases.insert(client, tasks.into());
        }
        let n = r.get_u32()? as usize;
        for _ in 0..n {
            let client = r.get_u64()? as Rank;
            ledger.credits.insert(client, r.get_u32()?);
        }
        let n = r.get_u32()? as usize;
        for _ in 0..n {
            let client = r.get_u64()? as Rank;
            let home = r.get_u64()? as Rank;
            ledger.seqs.insert((client, home), r.get_u64()?);
        }
        let n = r.get_u32()? as usize;
        for _ in 0..n {
            let client = r.get_u64()? as Rank;
            let seq = r.get_u64()?;
            let bytes = Bytes::copy_from_slice(r.get_bytes()?);
            ledger.resps.insert(client, (seq, bytes));
        }
        let n = r.get_u32()? as usize;
        for _ in 0..n {
            let client = r.get_u64()? as Rank;
            let m = r.get_u32()? as usize;
            let mut errors = Vec::with_capacity(m.min(64));
            for _ in 0..m {
                let seq = r.get_u64()?;
                errors.push((seq, r.get_str()?.to_string()));
            }
            ledger.held.insert(client, errors);
        }
        let n = r.get_u32()? as usize;
        for _ in 0..n {
            let client = r.get_u64()? as Rank;
            let tenant = r.get_u32()?;
            ledger
                .outputs
                .insert((client, tenant), r.get_str()?.to_string());
        }
        let n = r.get_u32()? as usize;
        for _ in 0..n {
            ledger.finished.insert(r.get_u64()? as Rank);
        }
        let n = r.get_u32()? as usize;
        for _ in 0..n {
            ledger.quarantine.push(r.get_str()?.to_string());
        }
        let n = r.get_u32()? as usize;
        for _ in 0..n {
            ledger.pending_xfers.push(Xfer {
                origin: r.get_u64()? as Rank,
                dest: r.get_u64()? as Rank,
                fseq: r.get_u64()?,
                steal: r.get_u8()? != 0,
                tasks: decode_task_list(r)?,
            });
        }
        let n = r.get_u32()? as usize;
        for _ in 0..n {
            let dest = r.get_u64()? as Rank;
            ledger.next_fseq.insert(dest, r.get_u64()?);
        }
        let n = r.get_u32()? as usize;
        for _ in 0..n {
            let dest = r.get_u64()? as Rank;
            let origin = r.get_u64()? as Rank;
            ledger.xfer_applied.insert((dest, origin), r.get_u64()?);
        }
        ledger.fwd_out = r.get_u64()?;
        ledger.fwd_in = r.get_u64()?;
        ledger.merges = r.get_u64()?;
        Ok(ledger)
    }
}

fn encode_datum(w: &mut WireWriter, d: &Datum) {
    w.put_u8(d.type_tag);
    w.put_u8(d.closed as u8);
    match &d.value {
        DatumValue::Unset => {
            w.put_u8(0);
        }
        DatumValue::Scalar(b) => {
            w.put_u8(1);
            w.put_bytes(b);
        }
        DatumValue::Container(map) => {
            w.put_u8(2);
            w.put_u32(map.len() as u32);
            for (k, v) in map {
                w.put_str(k);
                w.put_bytes(v);
            }
        }
    }
    w.put_u32(d.subscribers.len() as u32);
    for s in &d.subscribers {
        w.put_u64(*s as u64);
    }
    w.put_i64(d.write_refs);
}

fn decode_datum(r: &mut WireReader) -> Result<Datum, WireError> {
    let type_tag = r.get_u8()?;
    let closed = r.get_u8()? != 0;
    let value = match r.get_u8()? {
        0 => DatumValue::Unset,
        1 => DatumValue::Scalar(Bytes::copy_from_slice(r.get_bytes()?)),
        2 => {
            let n = r.get_u32()? as usize;
            let mut map = HashMap::with_capacity(n.min(4096));
            for _ in 0..n {
                let k = r.get_str()?.to_string();
                let v = Bytes::copy_from_slice(r.get_bytes()?);
                map.insert(k, v);
            }
            DatumValue::Container(map)
        }
        _ => {
            return Err(WireError {
                context: "unknown datum value kind",
                offset: 0,
            })
        }
    };
    let n = r.get_u32()? as usize;
    let mut subscribers = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        subscribers.push(r.get_u64()? as Rank);
    }
    let write_refs = r.get_i64()?;
    Ok(Datum {
        type_tag,
        value,
        closed,
        subscribers,
        write_refs,
    })
}

impl ReplOp {
    pub(crate) fn encode_into(&self, w: &mut WireWriter) {
        match self {
            ReplOp::Create { id, type_tag } => {
                w.put_u8(0);
                w.put_u64(*id);
                w.put_u8(*type_tag);
            }
            ReplOp::Store { id, value } => {
                w.put_u8(1);
                w.put_u64(*id);
                w.put_bytes(value);
            }
            ReplOp::Insert { id, key, value } => {
                w.put_u8(2);
                w.put_u64(*id);
                w.put_str(key);
                w.put_bytes(value);
            }
            ReplOp::CloseDatum { id } => {
                w.put_u8(3);
                w.put_u64(*id);
            }
            ReplOp::IncrWriters { id, delta } => {
                w.put_u8(4);
                w.put_u64(*id);
                w.put_i64(*delta);
            }
            ReplOp::Subscribe { id, rank } => {
                w.put_u8(5);
                w.put_u64(*id);
                w.put_u64(*rank as u64);
            }
            ReplOp::Push { tasks } => {
                w.put_u8(6);
                encode_task_list(w, tasks);
            }
            ReplOp::Remove { tasks } => {
                w.put_u8(7);
                encode_task_list(w, tasks);
            }
            ReplOp::LeaseOpen { client, tasks } => {
                w.put_u8(8);
                w.put_u64(*client as u64);
                encode_task_list(w, tasks);
            }
            ReplOp::LeaseDrop { client, n } => {
                w.put_u8(9);
                w.put_u64(*client as u64);
                w.put_u32(*n);
            }
            ReplOp::LeaseRevoke { client } => {
                w.put_u8(10);
                w.put_u64(*client as u64);
            }
            ReplOp::CreditUse { client, n } => {
                w.put_u8(11);
                w.put_u64(*client as u64);
                w.put_u32(*n);
            }
            ReplOp::ClientDead { client } => {
                w.put_u8(12);
                w.put_u64(*client as u64);
            }
            ReplOp::SeqResp {
                client,
                home,
                seq,
                resp,
            } => {
                w.put_u8(13);
                w.put_u64(*client as u64);
                w.put_u64(*home as u64);
                w.put_u64(*seq);
                match resp {
                    Some(b) => {
                        w.put_u8(1);
                        w.put_bytes(b);
                    }
                    None => {
                        w.put_u8(0);
                    }
                }
            }
            ReplOp::Out {
                client,
                text,
                tenant,
            } => {
                w.put_u8(14);
                w.put_u64(*client as u64);
                w.put_str(text);
                w.put_u32(*tenant);
            }
            ReplOp::ClientFinished { client } => {
                w.put_u8(15);
                w.put_u64(*client as u64);
            }
            ReplOp::XferOut {
                dest,
                fseq,
                steal,
                tasks,
            } => {
                w.put_u8(16);
                w.put_u64(*dest as u64);
                w.put_u64(*fseq);
                w.put_u8(*steal as u8);
                encode_task_list(w, tasks);
            }
            ReplOp::XferDone { origin, dest, fseq } => {
                w.put_u8(17);
                w.put_u64(*origin as u64);
                w.put_u64(*dest as u64);
                w.put_u64(*fseq);
            }
            ReplOp::XferIn {
                origin,
                dest,
                fseq,
                n,
            } => {
                w.put_u8(18);
                w.put_u64(*origin as u64);
                w.put_u64(*dest as u64);
                w.put_u64(*fseq);
                w.put_u64(*n);
            }
            ReplOp::Quarantine { report } => {
                w.put_u8(19);
                w.put_str(report);
            }
            ReplOp::HoldError { client, seq, error } => {
                w.put_u8(20);
                w.put_u64(*client as u64);
                w.put_u64(*seq);
                w.put_str(error);
            }
        }
    }

    pub(crate) fn decode_from(r: &mut WireReader) -> Result<ReplOp, WireError> {
        Ok(match r.get_u8()? {
            0 => ReplOp::Create {
                id: r.get_u64()?,
                type_tag: r.get_u8()?,
            },
            1 => ReplOp::Store {
                id: r.get_u64()?,
                value: Bytes::copy_from_slice(r.get_bytes()?),
            },
            2 => ReplOp::Insert {
                id: r.get_u64()?,
                key: r.get_str()?.to_string(),
                value: Bytes::copy_from_slice(r.get_bytes()?),
            },
            3 => ReplOp::CloseDatum { id: r.get_u64()? },
            4 => ReplOp::IncrWriters {
                id: r.get_u64()?,
                delta: r.get_i64()?,
            },
            5 => ReplOp::Subscribe {
                id: r.get_u64()?,
                rank: r.get_u64()? as Rank,
            },
            6 => ReplOp::Push {
                tasks: decode_task_list(r)?,
            },
            7 => ReplOp::Remove {
                tasks: decode_task_list(r)?,
            },
            8 => ReplOp::LeaseOpen {
                client: r.get_u64()? as Rank,
                tasks: decode_task_list(r)?,
            },
            9 => ReplOp::LeaseDrop {
                client: r.get_u64()? as Rank,
                n: r.get_u32()?,
            },
            10 => ReplOp::LeaseRevoke {
                client: r.get_u64()? as Rank,
            },
            11 => ReplOp::CreditUse {
                client: r.get_u64()? as Rank,
                n: r.get_u32()?,
            },
            12 => ReplOp::ClientDead {
                client: r.get_u64()? as Rank,
            },
            13 => {
                let client = r.get_u64()? as Rank;
                let home = r.get_u64()? as Rank;
                let seq = r.get_u64()?;
                let resp = if r.get_u8()? == 1 {
                    Some(Bytes::copy_from_slice(r.get_bytes()?))
                } else {
                    None
                };
                ReplOp::SeqResp {
                    client,
                    home,
                    seq,
                    resp,
                }
            }
            14 => {
                let client = r.get_u64()? as Rank;
                let text = r.get_str()?.to_string();
                ReplOp::Out {
                    client,
                    text,
                    tenant: r.get_u32()?,
                }
            }
            15 => ReplOp::ClientFinished {
                client: r.get_u64()? as Rank,
            },
            16 => ReplOp::XferOut {
                dest: r.get_u64()? as Rank,
                fseq: r.get_u64()?,
                steal: r.get_u8()? != 0,
                tasks: decode_task_list(r)?,
            },
            17 => ReplOp::XferDone {
                origin: r.get_u64()? as Rank,
                dest: r.get_u64()? as Rank,
                fseq: r.get_u64()?,
            },
            18 => ReplOp::XferIn {
                origin: r.get_u64()? as Rank,
                dest: r.get_u64()? as Rank,
                fseq: r.get_u64()?,
                n: r.get_u64()?,
            },
            19 => ReplOp::Quarantine {
                report: r.get_str()?.to_string(),
            },
            20 => {
                let client = r.get_u64()? as Rank;
                let seq = r.get_u64()?;
                ReplOp::HoldError {
                    client,
                    seq,
                    error: r.get_str()?.to_string(),
                }
            }
            _ => {
                return Err(WireError {
                    context: "unknown repl op kind",
                    offset: 0,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(p: i32) -> Task {
        Task::new(1, p, None, Bytes::from_static(b"work"))
    }

    fn sample_ledger() -> Ledger {
        let mut l = Ledger::default();
        l.store.create(3, 0).unwrap();
        l.store.create(10, TYPE_TAG_CONTAINER).unwrap();
        l.store.subscribe(3, 1).unwrap();
        l.store
            .insert(10, "0", Bytes::from_static(b"member"))
            .unwrap();
        l.queue.push(task(1));
        l.queue.push(task(2));
        l.leases.insert(0, vec![task(3), task(4)].into());
        l.credits.insert(2, 1);
        l.seqs.insert((0, 8), 17);
        l.resps.insert(0, (17, Bytes::from_static(b"resp")));
        l.held.insert(1, vec![(4, "double assignment".into())]);
        l.outputs.insert((1, 0), "line\n".into());
        l.outputs.insert((1, 3), "tenant three\n".into());
        l.finished.insert(4);
        l.quarantine.push("bad task".into());
        l.pending_xfers.push(Xfer {
            origin: 8,
            dest: 9,
            fseq: 2,
            steal: false,
            tasks: vec![task(5)],
        });
        l.next_fseq.insert(9, 2);
        l.xfer_applied.insert((8, 9), 4);
        l.fwd_out = 3;
        l.fwd_in = 2;
        l.merges = 1;
        l
    }

    #[test]
    fn ledger_round_trips() {
        let l = sample_ledger();
        let mut w = WireWriter::new();
        l.encode_into(&mut w);
        let wire = w.finish();
        let mut r = WireReader::new(&wire);
        let back = Ledger::decode_from(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back, l);
    }

    #[test]
    fn ops_round_trip() {
        let cases = vec![
            ReplOp::Create { id: 1, type_tag: 0 },
            ReplOp::Store {
                id: 1,
                value: Bytes::from_static(b"v"),
            },
            ReplOp::Insert {
                id: 2,
                key: "7".into(),
                value: Bytes::new(),
            },
            ReplOp::CloseDatum { id: 2 },
            ReplOp::IncrWriters { id: 2, delta: -1 },
            ReplOp::Subscribe { id: 1, rank: 3 },
            ReplOp::Push {
                tasks: vec![task(1)],
            },
            ReplOp::Remove {
                tasks: vec![task(1), task(2)],
            },
            ReplOp::LeaseOpen {
                client: 0,
                tasks: vec![task(1)],
            },
            ReplOp::LeaseDrop { client: 0, n: 2 },
            ReplOp::LeaseRevoke { client: 1 },
            ReplOp::CreditUse { client: 1, n: 1 },
            ReplOp::ClientDead { client: 2 },
            ReplOp::SeqResp {
                client: 0,
                home: 8,
                seq: 9,
                resp: Some(Bytes::from_static(b"ok")),
            },
            ReplOp::SeqResp {
                client: 0,
                home: 9,
                seq: 10,
                resp: None,
            },
            ReplOp::HoldError {
                client: 0,
                seq: 11,
                error: "double assignment".into(),
            },
            ReplOp::Out {
                client: 1,
                text: "hello\n".into(),
                tenant: 2,
            },
            ReplOp::ClientFinished { client: 1 },
            ReplOp::XferOut {
                dest: 9,
                fseq: 1,
                steal: true,
                tasks: vec![task(8)],
            },
            ReplOp::XferDone {
                origin: 8,
                dest: 9,
                fseq: 1,
            },
            ReplOp::XferIn {
                origin: 9,
                dest: 8,
                fseq: 1,
                n: 4,
            },
            ReplOp::Quarantine {
                report: "poison".into(),
            },
        ];
        for c in cases {
            let mut w = WireWriter::new();
            c.encode_into(&mut w);
            let wire = w.finish();
            let mut r = WireReader::new(&wire);
            let back = ReplOp::decode_from(&mut r).unwrap();
            r.expect_end().unwrap();
            assert_eq!(back, c);
        }
    }

    #[test]
    fn apply_mirrors_primary_mutations() {
        let mut l = Ledger::default();
        let owner = 8;
        // Data ops.
        l.apply(owner, &ReplOp::Create { id: 5, type_tag: 0 });
        l.apply(owner, &ReplOp::Subscribe { id: 5, rank: 2 });
        l.apply(
            owner,
            &ReplOp::Store {
                id: 5,
                value: Bytes::from_static(b"42"),
            },
        );
        assert_eq!(l.store.retrieve(5).unwrap().unwrap(), &b"42"[..]);
        // Store drains subscribers on the replica too (notify tasks are
        // replicated separately as task ops).
        l.apply(owner, &ReplOp::Create { id: 6, type_tag: 0 });

        // Queue + lease ops.
        l.apply(
            owner,
            &ReplOp::Push {
                tasks: vec![task(1), task(2)],
            },
        );
        l.apply(
            owner,
            &ReplOp::Remove {
                tasks: vec![task(1)],
            },
        );
        assert_eq!(l.queue, vec![task(2)]);
        l.apply(
            owner,
            &ReplOp::LeaseOpen {
                client: 0,
                tasks: vec![task(1), task(3)],
            },
        );
        l.apply(owner, &ReplOp::LeaseDrop { client: 0, n: 1 });
        assert_eq!(l.leases[&0], VecDeque::from(vec![task(3)]));
        l.apply(owner, &ReplOp::LeaseRevoke { client: 0 });
        assert!(l.leases.is_empty());
        assert_eq!(l.credits[&0], 1);
        l.apply(owner, &ReplOp::CreditUse { client: 0, n: 1 });
        assert!(l.credits.is_empty());

        // Request bookkeeping.
        l.apply(
            owner,
            &ReplOp::SeqResp {
                client: 0,
                home: owner,
                seq: 3,
                resp: Some(Bytes::from_static(b"r")),
            },
        );
        l.apply(
            owner,
            &ReplOp::HoldError {
                client: 0,
                seq: 4,
                error: "double assignment".into(),
            },
        );
        l.apply(
            owner,
            &ReplOp::SeqResp {
                client: 0,
                home: owner,
                seq: 5,
                resp: None,
            },
        );
        assert_eq!(l.seqs[&(0, owner)], 5);
        assert_eq!(l.resps[&0].0, 3);
        assert_eq!(l.held[&0], vec![(4, "double assignment".to_string())]);
        // The next cached response delivered the held error.
        l.apply(
            owner,
            &ReplOp::SeqResp {
                client: 0,
                home: owner,
                seq: 6,
                resp: Some(Bytes::from_static(b"r")),
            },
        );
        assert!(l.held.is_empty());

        // Transfers.
        l.apply(
            owner,
            &ReplOp::XferOut {
                dest: 9,
                fseq: 1,
                steal: false,
                tasks: vec![task(7)],
            },
        );
        assert_eq!(l.pending_xfers.len(), 1);
        assert_eq!(l.pending_xfers[0].origin, owner);
        assert_eq!(l.fwd_out, 1);
        l.apply(
            owner,
            &ReplOp::XferDone {
                origin: owner,
                dest: 9,
                fseq: 1,
            },
        );
        assert!(l.pending_xfers.is_empty());
        l.apply(
            owner,
            &ReplOp::XferIn {
                origin: 9,
                dest: owner,
                fseq: 2,
                n: 3,
            },
        );
        assert_eq!(l.xfer_applied[&(owner, 9)], 2);
        assert_eq!(l.fwd_in, 3);
    }
}
