//! The client-side API: what engines and workers call.

use std::collections::{HashSet, VecDeque};
use std::time::Duration;

use bytes::Bytes;
use mpisim::{trace, Comm, Rank, Src, TagSel};

use crate::datastore::DataError;
use crate::layout::Layout;
use crate::msg::{seal_request, Request, Response, Task, TAG_REQ, TAG_RESP};

/// How long an awaited request waits for its response before checking
/// whether the serving rank died. While the server is alive the client
/// just keeps waiting — the timeout is a liveness probe, not a deadline.
const RETRY_PROBE: Duration = Duration::from_millis(20);

/// Pause between re-offers of admission-rejected puts. Quota headroom
/// opens when the tenant's queued tasks are delivered, so a short wait
/// beats hammering the server.
const ADMISSION_BACKOFF: Duration = Duration::from_millis(2);

/// Client-side batching knobs for the pipelined wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Maximum tasks requested per `Get` round trip. Tasks beyond the
    /// first land in a local prefetch deque and are handed out with no
    /// further server traffic; their lease acknowledgements batch into
    /// one message on the next server trip. 1 disables prefetch (one
    /// task per round trip).
    pub prefetch: u32,
    /// Buffer up to this many puts and ship them as one `PutBatch` with a
    /// single ack. 0 (the default) keeps puts eager — each put is its own
    /// acknowledged round trip — which preserves the externally visible
    /// submission order interactive callers rely on. Buffered puts are
    /// always flushed before any other server round trip, so a client
    /// never parks or reads data while holding unsubmitted work.
    pub put_buffer: usize,
    /// Flush the buffered stdout stream to the server once it exceeds
    /// this many bytes (it also flushes before every awaited round trip
    /// and at `finish`). 0 ships every [`AdlbClient::send_output`]
    /// immediately.
    pub output_buffer: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            prefetch: 8,
            put_buffer: 0,
            output_buffer: 0,
        }
    }
}

impl ClientConfig {
    /// PR 1 wire behavior: one task per round trip, eager puts. The E5
    /// ablation knob.
    pub fn unbatched() -> Self {
        ClientConfig {
            prefetch: 1,
            put_buffer: 0,
            output_buffer: 0,
        }
    }
}

/// A client (engine or worker) handle onto the ADLB subsystem, mirroring
/// the real ADLB C API (`ADLB_Put`, `ADLB_Get`, `ADLB_Store`, ...).
///
/// Gets, puts and reads are request/response round trips. Gets prefetch
/// batches of tasks and lease acknowledgements ride back in batches (see
/// [`ClientConfig`]). Data mutations whose only reply is "ok or error"
/// (`create`, `store`, `insert`, `close`, `incr_writers`) are *one-way*
/// when the datum lives on this client's home server: they return at
/// once, per-pair FIFO delivery orders them before every later request
/// to that server, and a failure comes back with the next awaited
/// response, to be taken with [`AdlbClient::take_deferred_errors`] (the
/// awaited call itself is unaffected). Mutations of other servers' data
/// stay awaited. `DESIGN.md` documents the wire protocol.
///
/// ## Failover
///
/// Every request carries a per-client sequence number; servers replicate
/// a per-client high-water mark and the last awaited response, so the
/// protocol is exactly-once across server failures. When the server a
/// request targets dies mid-wait, the client re-routes to the dead
/// server's ring successor (which has promoted the replica), re-sends
/// any unconfirmed fire-and-forget messages, and repeats the request;
/// duplicates are dropped (or re-answered from the response cache) on
/// the server side.
pub struct AdlbClient {
    comm: Comm,
    layout: Layout,
    my_server: Rank,
    config: ClientConfig,
    shutdown_seen: bool,
    finished_sent: bool,
    /// A task was handed to the caller and its outcome not yet recorded.
    /// `get`/`finish` record success; [`AdlbClient::task_failed`] records
    /// a contained failure.
    handed_out: bool,
    /// Tasks delivered by the server but not yet handed to the caller.
    /// Invariant: the server's lease deque for this rank is exactly [the
    /// handed-out task if any] + [unsent `pending_acks`]... followed by
    /// this deque, so acks flushed in order always release the oldest
    /// lease first.
    prefetch: VecDeque<Task>,
    /// Recorded task outcomes not yet shipped to the server. Flushed (as
    /// one `TaskDoneBatch`) before any server round trip.
    pending_acks: Vec<(bool, String)>,
    /// Buffered puts awaiting a flush (only when `config.put_buffer > 0`).
    put_buf: Vec<Task>,
    /// Buffered stdout awaiting a flush (see `ClientConfig::output_buffer`).
    out_buf: String,
    /// Tenant stamped onto every put and output this client ships.
    /// Engines set it to their program's tenant; workers set it to the
    /// tenant of the task they are executing, so child tasks are
    /// accounted to the right program.
    tenant: u32,
    /// When set, `get` only accepts untargeted tasks of this tenant
    /// (targeted tasks are always deliverable). Engines run with their
    /// own tenant here; workers leave it `None` and serve everyone.
    get_filter: Option<u32>,
    /// Cached encoding of the last `Get` request body; work types are
    /// almost always identical call-to-call, so this skips both the
    /// `to_vec` and the re-encode on the hot path (the 8-byte seq seal is
    /// appended per send).
    cached_get: Option<(Vec<u32>, Option<u32>, Bytes)>,
    /// Quarantine reports the server attached to its shutdown notice:
    /// tasks that exhausted their retry budget, with the error that
    /// killed the last attempt.
    quarantine_reports: Vec<String>,
    /// Set when the shutdown notice carried a shard-loss diagnosis: the
    /// run was aborted, not completed, and callers should fail loudly.
    abort_reason: Option<String>,
    next_id: u64,
    /// Last request sequence number used (seq 0 is never sent).
    next_seq: u64,
    /// Servers this client observed to be dead (its own view; servers
    /// confirm independently via the membership protocol).
    dead: HashSet<Rank>,
    /// Sealed one-way messages (acks, output, home data mutations) sent
    /// to the home server since its last awaited response, with their seq
    /// and the tenant they were sent under. If the home dies, these may
    /// not have reached the replica and are re-sent to the successor
    /// ahead of the repeated request; the server-side seq dedup drops the
    /// ones that did make it.
    unconfirmed: Vec<(u64, u32, Bytes)>,
    /// The rank the `unconfirmed` messages were sent to.
    unconfirmed_host: Rank,
    /// Errors of one-way data ops delivered by the server and not yet
    /// taken, with the tenant each op was issued under.
    deferred: Vec<(u32, DataError)>,
}

impl AdlbClient {
    /// Create the handle for this rank with default batching.
    ///
    /// # Panics
    /// Panics if called on a server rank.
    pub fn new(comm: Comm, layout: Layout) -> Self {
        Self::with_config(comm, layout, ClientConfig::default())
    }

    /// Create the handle with explicit batching knobs.
    ///
    /// # Panics
    /// Panics if called on a server rank.
    pub fn with_config(comm: Comm, layout: Layout, config: ClientConfig) -> Self {
        let my_server = layout.server_of(comm.rank());
        AdlbClient {
            comm,
            layout,
            my_server,
            config,
            shutdown_seen: false,
            finished_sent: false,
            handed_out: false,
            prefetch: VecDeque::new(),
            pending_acks: Vec::new(),
            put_buf: Vec::new(),
            out_buf: String::new(),
            tenant: 0,
            get_filter: None,
            cached_get: None,
            quarantine_reports: Vec::new(),
            abort_reason: None,
            next_id: 0,
            next_seq: 0,
            dead: HashSet::new(),
            unconfirmed: Vec::new(),
            unconfirmed_host: my_server,
            deferred: Vec::new(),
        }
    }

    /// This rank.
    pub fn rank(&self) -> Rank {
        self.comm.rank()
    }

    /// The machine layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Set the tenant stamped onto subsequent puts and output. Workers
    /// call this before executing each task, with the task's tenant, so
    /// downstream puts inherit the right accounting.
    pub fn set_tenant(&mut self, tenant: u32) {
        self.tenant = tenant;
    }

    /// The tenant currently stamped onto puts and output.
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    /// Restrict `get` to untargeted tasks of one tenant (`None` serves
    /// every tenant). Targeted tasks — notifications pinned to this rank —
    /// are delivered regardless of the filter.
    pub fn set_get_filter(&mut self, tenant: Option<u32>) {
        if self.get_filter != tenant {
            self.get_filter = tenant;
            self.cached_get = None;
        }
    }

    /// Allocate a globally unique datum id (disjoint per client rank).
    pub fn alloc_id(&mut self) -> u64 {
        let id = self.next_id * self.layout.size as u64 + self.comm.rank() as u64;
        self.next_id += 1;
        id
    }

    /// Seal a request body with the next sequence number.
    fn seal(&mut self, body: &[u8], one_way: bool) -> Bytes {
        self.next_seq += 1;
        seal_request(body, self.next_seq, one_way)
    }

    /// The rank currently serving home server `home`.
    fn host_of(&self, home: Rank) -> Rank {
        self.layout.route(home, &self.dead)
    }

    /// The rank serving this client's home server. When that changed
    /// since the unconfirmed one-way messages were sent — their host died,
    /// perhaps noticed during a round trip to another server — re-send
    /// them to the new host first, so it receives the home stream whole
    /// and in seq order (the seq dedup drops the ones it already has).
    fn home_host(&mut self) -> Rank {
        let host = self.host_of(self.my_server);
        if host != self.unconfirmed_host {
            for (_, _, b) in &self.unconfirmed {
                self.comm.send(host, TAG_REQ, b.clone());
            }
            self.unconfirmed_host = host;
        }
        host
    }

    /// Send a sealed one-way message to the home server and remember it
    /// for re-send on failover.
    fn send_one_way(&mut self, body: Bytes) {
        let sealed = self.seal(&body, true);
        let host = self.home_host();
        self.unconfirmed
            .push((self.next_seq, self.tenant, sealed.clone()));
        self.comm.send(host, TAG_REQ, sealed);
    }

    /// The rank currently serving `home`, replaying unconfirmed one-way
    /// traffic first when `home` is this client's own.
    fn route_to(&mut self, home: Rank) -> Rank {
        if home == self.my_server {
            self.home_host()
        } else {
            self.host_of(home)
        }
    }

    /// One awaited round trip against home server `home`, surviving the
    /// death of the rank serving it: on death, re-route to the ring
    /// successor, replay unconfirmed one-way traffic (home server only,
    /// see [`AdlbClient::home_host`]), and repeat the request under its
    /// original seq — the server-side dedup makes the retry exactly-once.
    ///
    /// Responses are received from any rank and matched by their sealed
    /// seq: after a failover the answer may arrive from the promoted
    /// successor rather than the rank the request was sent to (the
    /// successor pushes a dead server's cached responses unprompted), and
    /// stale duplicates of already-consumed responses must be dropped.
    fn exchange(&mut self, home: Rank, sealed: Bytes, seq: u64) -> Response {
        let mut host = self.route_to(home);
        self.comm.send(host, TAG_REQ, sealed.clone());
        loop {
            match self
                .comm
                .recv_timeout(Src::Any, TagSel::Of(TAG_RESP), RETRY_PROBE)
            {
                Some(m) => {
                    // A malformed response must not take the client rank
                    // down: log, drop, and keep waiting — the retry loop
                    // re-sends the request if nothing valid ever lands.
                    let Ok((resp, rseq)) = Response::decode_sealed(&m.data) else {
                        eprintln!(
                            "adlb client {}: undecodable response from rank {}; dropped",
                            self.comm.rank(),
                            m.source
                        );
                        continue;
                    };
                    if rseq != seq {
                        // A re-sent copy of a response this client already
                        // consumed (failover duplicate): drop it.
                        continue;
                    }
                    let resp = match resp {
                        Response::WithErrors { errors, resp } => {
                            self.absorb_errors(errors);
                            *resp
                        }
                        resp => resp,
                    };
                    if home == self.my_server {
                        // The response proves the serving rank processed
                        // (and replicated) everything we sent before this
                        // request — per-pair FIFO delivery.
                        self.unconfirmed.clear();
                    }
                    return resp;
                }
                None => {
                    if self.comm.is_alive(host) {
                        continue; // slow, not dead: keep waiting
                    }
                    self.dead.insert(host);
                    let next = self.route_to(home);
                    eprintln!(
                        "adlb client {}: server rank {host} died; retrying with rank {next}",
                        self.comm.rank()
                    );
                    self.comm.send(next, TAG_REQ, sealed.clone());
                    host = next;
                }
            }
        }
    }

    /// One acknowledged round trip. Buffered puts, output and pending
    /// acks are flushed first so the server observes this client's
    /// operations in program order (non-overtaking delivery makes the
    /// flushed messages land before `req`).
    fn request(&mut self, home: Rank, req: &Request) -> Response {
        self.flush_puts();
        self.flush_output();
        self.flush_acks();
        let sealed = self.seal(&req.encode(), false);
        self.exchange(home, sealed, self.next_seq)
    }

    /// Record the errors of failed one-way ops, attributed to the tenant
    /// each op was sent under (the current tenant if the op is no longer
    /// tracked, e.g. after a resume replay).
    fn absorb_errors(&mut self, errors: Vec<(u64, String)>) {
        for (seq, message) in errors {
            let tenant = self
                .unconfirmed
                .iter()
                .find(|(s, _, _)| *s == seq)
                .map_or(self.tenant, |(_, t, _)| *t);
            self.deferred.push((tenant, DataError { message }));
        }
    }

    /// One awaited data op. A one-way error that rode in on its response
    /// belongs to an earlier op, not this one: it is kept for
    /// [`AdlbClient::take_deferred_errors`] only.
    fn data_request(&mut self, id: u64, req: &Request) -> Response {
        let t0 = trace::now_us();
        let resp = self.request(self.layout.data_owner(id), req);
        trace::record_since(trace::KIND_DATA_OP, id, t0);
        resp
    }

    /// A data mutation whose only reply is "ok or error". One-way when the
    /// datum lives on this client's home server — the home receives this
    /// client's traffic in order, so every later request there sees the
    /// mutation, and a failure rides back on the next awaited response.
    /// Mutations of other servers' data are awaited: nothing orders them
    /// against this client's later requests to its home.
    fn mutate(&mut self, id: u64, req: &Request, op: &str) -> Result<(), DataError> {
        if self.layout.data_owner(id) != self.my_server {
            return Self::expect_ok(self.data_request(id, req), op);
        }
        self.send_one_way(req.encode());
        // An instant: the op counts as a data op, but nothing blocked on it.
        trace::record_instant(trace::KIND_DATA_OP, id);
        Ok(())
    }

    /// Take the errors of failed one-way data ops delivered so far, each
    /// with the tenant its op was issued under. Every client's final
    /// awaited call (`get` returning `None`, or `finish`) delivers any
    /// still outstanding, so checking after those loses none.
    pub fn take_deferred_errors(&mut self) -> Vec<(u32, DataError)> {
        std::mem::take(&mut self.deferred)
    }

    // -- work -------------------------------------------------------------

    /// Submit a task. `target` pins it to a rank; `priority` is
    /// higher-runs-first. With `put_buffer > 0` the task may sit in the
    /// local buffer until the next flush point (buffer full, any other
    /// server round trip, or [`AdlbClient::flush`]).
    pub fn put(&mut self, work_type: u32, priority: i32, target: Option<Rank>, payload: Vec<u8>) {
        let task =
            Task::new(work_type, priority, target, Bytes::from(payload)).with_tenant(self.tenant);
        if self.config.put_buffer == 0 {
            let t0 = trace::now_us();
            let resp = self.request(self.my_server, &Request::Put(task));
            trace::record_since(trace::KIND_TASK_PUT, 1, t0);
            self.complete_put(resp);
        } else {
            self.put_buf.push(task);
            if self.put_buf.len() >= self.config.put_buffer {
                self.flush_puts();
            }
        }
    }

    /// Submit many tasks as one pipelined wire message with a single ack —
    /// one round trip no matter how many tasks. Every task is stamped
    /// with this client's current tenant.
    pub fn put_batch(&mut self, mut tasks: Vec<Task>) {
        if tasks.is_empty() {
            return;
        }
        for t in &mut tasks {
            t.tenant = self.tenant;
        }
        let n = tasks.len() as u64;
        let t0 = trace::now_us();
        let resp = self.request(self.my_server, &Request::PutBatch(tasks));
        trace::record_since(trace::KIND_TASK_PUT, n, t0);
        self.complete_put(resp);
    }

    /// Force out any buffered puts now.
    pub fn flush(&mut self) {
        self.flush_puts();
    }

    fn flush_puts(&mut self) {
        if self.put_buf.is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.put_buf);
        let req = match batch.pop() {
            Some(t) if batch.is_empty() => Request::Put(t),
            Some(t) => {
                batch.push(t);
                Request::PutBatch(batch)
            }
            None => return, // guarded above; never panic on a race
        };
        // Sealed exchange directly: request() would recurse into this
        // flush.
        let n = match &req {
            Request::PutBatch(b) => b.len() as u64,
            _ => 1,
        };
        let t0 = trace::now_us();
        let sealed = self.seal(&req.encode(), false);
        let resp = self.exchange(self.my_server, sealed, self.next_seq);
        trace::record_since(trace::KIND_TASK_PUT, n, t0);
        self.complete_put(resp);
    }

    /// Finish a put round trip, absorbing admission backpressure: when the
    /// server rejects tasks for an over-quota tenant, hold them locally and
    /// re-offer until the quota drains. The client stays mid-put (never
    /// parked), so termination detection keeps waiting on it — the work
    /// cannot be lost, only delayed.
    fn complete_put(&mut self, first: Response) {
        let mut resp = first;
        loop {
            match resp {
                Response::Ok => return,
                Response::Rejected(mut tasks) => {
                    if tasks.is_empty() {
                        return;
                    }
                    std::thread::sleep(ADMISSION_BACKOFF);
                    let req = match tasks.pop() {
                        Some(t) if tasks.is_empty() => Request::Put(t),
                        Some(t) => {
                            tasks.push(t);
                            Request::PutBatch(tasks)
                        }
                        None => return,
                    };
                    let sealed = self.seal(&req.encode(), false);
                    resp = self.exchange(self.my_server, sealed, self.next_seq);
                }
                other => {
                    eprintln!(
                        "adlb client {}: put got unexpected response {other:?}; task may be lost",
                        self.comm.rank()
                    );
                    return;
                }
            }
        }
    }

    // -- output streaming -------------------------------------------------

    /// Stream a chunk of this rank's stdout to the server tier, where it
    /// is accumulated (and replicated) per rank. Output shipped before a
    /// rank dies survives it — the run's report can include everything
    /// the dead rank managed to say.
    pub fn send_output(&mut self, text: &str) {
        if text.is_empty() {
            return;
        }
        self.out_buf.push_str(text);
        if self.out_buf.len() >= self.config.output_buffer {
            self.flush_output();
        }
    }

    /// Force out any buffered output now (fire-and-forget).
    pub fn flush_output(&mut self) {
        if self.out_buf.is_empty() {
            return;
        }
        let text = std::mem::take(&mut self.out_buf);
        let tenant = self.tenant;
        self.send_one_way(Request::Output { text, tenant }.encode());
    }

    // -- leases -----------------------------------------------------------

    /// Record the outcome of the task currently handed to the caller, if
    /// any. The ack ships (batched) on the next server trip;
    /// non-overtaking delivery guarantees the server sees it before
    /// whatever request follows it on the same connection.
    fn resolve_delivered(&mut self, ok: bool, error: &str) {
        if !self.handed_out {
            return;
        }
        self.handed_out = false;
        self.pending_acks.push((ok, error.to_string()));
    }

    /// Ship pending lease acknowledgements: one `TaskDoneBatch` (or a
    /// plain `TaskDone` for a single result) releasing the oldest leases
    /// first. Fire-and-forget, like PR 1's `TaskDone`.
    fn flush_acks(&mut self) {
        if self.pending_acks.is_empty() {
            return;
        }
        let mut results = std::mem::take(&mut self.pending_acks);
        let req = match results.pop() {
            Some((ok, error)) if results.is_empty() => Request::TaskDone { ok, error },
            Some(r) => {
                results.push(r);
                Request::TaskDoneBatch { results }
            }
            None => return, // guarded above; never panic on a race
        };
        self.send_one_way(req.encode());
    }

    /// Report that the most recently delivered task failed in a contained
    /// way (its execution errored with `error` but this rank survives).
    /// The server will retry the task elsewhere or quarantine it per its
    /// [`crate::RetryPolicy`]. Failure acks flush immediately so the
    /// retry starts without waiting for this client's next server trip.
    pub fn task_failed(&mut self, error: &str) {
        self.resolve_delivered(false, error);
        self.flush_acks();
    }

    /// Quarantine reports this client's server attached to its shutdown
    /// notice (empty before [`AdlbClient::get`] has returned `None`, and
    /// when no task was quarantined). Each entry describes one task that
    /// exhausted its retry budget and the error of its final attempt.
    pub fn quarantine_reports(&self) -> &[String] {
        &self.quarantine_reports
    }

    /// The shard-loss diagnosis from the server's shutdown notice, if the
    /// run was aborted by an unrecoverable server death (replication too
    /// low to promote a replica). `None` after a clean shutdown — and
    /// before [`AdlbClient::get`] has returned `None`.
    pub fn run_aborted(&self) -> Option<&str> {
        self.abort_reason.as_deref()
    }

    /// Encoded `Get` body for `work_types`, reusing the cached encoding
    /// when the types match the previous call (cloning [`Bytes`] is an
    /// `Arc` bump, not a copy).
    fn encoded_get(&mut self, work_types: &[u32]) -> Bytes {
        match &self.cached_get {
            Some((cached, filter, enc)) if cached == work_types && *filter == self.get_filter => {
                enc.clone()
            }
            _ => {
                let enc = Request::Get {
                    work_types: work_types.to_vec(),
                    max_tasks: self.config.prefetch.max(1),
                    tenant: self.get_filter,
                }
                .encode();
                self.cached_get = Some((work_types.to_vec(), self.get_filter, enc.clone()));
                enc
            }
        }
    }

    /// Block until a task of one of `work_types` is available, or global
    /// termination (`None`). Calling `get` acknowledges success of the
    /// previously delivered task; call [`AdlbClient::task_failed`] first
    /// if it failed.
    ///
    /// A prefetched task (from an earlier `DeliverBatch`) is handed out
    /// with no server traffic at all; the accumulated acks flush as one
    /// message when the deque runs dry and the client returns to the
    /// server.
    pub fn get(&mut self, work_types: &[u32]) -> Option<Task> {
        self.resolve_delivered(true, "");
        if let Some(t) = self.prefetch.pop_front() {
            self.handed_out = true;
            return Some(t);
        }
        if self.shutdown_seen {
            return None;
        }
        loop {
            self.flush_puts();
            self.flush_output();
            self.flush_acks();
            let body = self.encoded_get(work_types);
            let sealed = self.seal(&body, false);
            // Zero-copy decode: task payloads alias the arrival buffer.
            let resp = self.exchange(self.my_server, sealed, self.next_seq);
            match resp {
                Response::DeliverTask(t) => {
                    self.handed_out = true;
                    return Some(t);
                }
                Response::DeliverBatch(tasks) => {
                    let mut it = tasks.into_iter();
                    match it.next() {
                        Some(first) => {
                            self.prefetch.extend(it);
                            self.handed_out = true;
                            return Some(first);
                        }
                        None => {
                            // An empty batch is a server bug; ask again.
                            eprintln!(
                                "adlb client {}: empty DeliverBatch; retrying",
                                self.comm.rank()
                            );
                        }
                    }
                }
                Response::NoMore {
                    quarantined,
                    aborted,
                } => {
                    self.shutdown_seen = true;
                    self.quarantine_reports = quarantined;
                    self.abort_reason = aborted;
                    return None;
                }
                other => {
                    // A confused server response must not take this rank
                    // down; log it and ask again.
                    eprintln!(
                        "adlb client {}: unexpected get response {other:?}; retrying",
                        self.comm.rank()
                    );
                }
            }
        }
    }

    /// Declare that this client will issue no further requests. Must be
    /// called by clients that stop calling [`AdlbClient::get`] before
    /// shutdown, or termination detection would wait on them forever.
    /// Awaited, so a server failover during the handshake is survived
    /// like any other request.
    pub fn finish(&mut self) {
        if self.shutdown_seen || self.finished_sent {
            return;
        }
        self.resolve_delivered(true, "");
        // Prefetched-but-unexecuted tasks are handed back as contained
        // failures so the server reruns them on a surviving client
        // instead of waiting forever on their leases.
        while self.prefetch.pop_front().is_some() {
            self.pending_acks
                .push((false, "returned unexecuted: client finished".to_string()));
        }
        self.finished_sent = true;
        match self.request(self.my_server, &Request::Finished) {
            Response::Ok | Response::NoMore { .. } => {}
            other => eprintln!(
                "adlb client {}: finish got unexpected response {other:?}",
                self.comm.rank()
            ),
        }
    }

    // -- data -------------------------------------------------------------

    fn unexpected(op: &str, resp: Response) -> DataError {
        DataError {
            message: format!("{op}: unexpected response {resp:?}"),
        }
    }

    fn expect_ok(resp: Response, op: &str) -> Result<(), DataError> {
        match resp {
            Response::Ok => Ok(()),
            Response::Error(e) => Err(DataError { message: e }),
            other => Err(Self::unexpected(op, other)),
        }
    }

    /// Create a datum of the given Turbine type tag (one-way on the home
    /// server; see [`AdlbClient`]).
    pub fn create(&mut self, id: u64, type_tag: u8) -> Result<(), DataError> {
        self.mutate(id, &Request::DataCreate { id, type_tag }, "create")
    }

    /// Store a scalar value, closing the datum and releasing subscribers
    /// (one-way on the home server).
    pub fn store(&mut self, id: u64, value: Vec<u8>) -> Result<(), DataError> {
        let value = Bytes::from(value);
        self.mutate(id, &Request::DataStore { id, value }, "store")
    }

    /// Fetch a closed scalar's value (`None` while still open).
    pub fn retrieve(&mut self, id: u64) -> Result<Option<Bytes>, DataError> {
        match self.data_request(id, &Request::DataRetrieve { id }) {
            Response::MaybeBytes(v) => Ok(v),
            Response::Error(e) => Err(DataError { message: e }),
            other => Err(Self::unexpected("retrieve", other)),
        }
    }

    /// Subscribe `notify_rank` to the close of `id`. Returns `true` if the
    /// datum is already closed (no notification will arrive).
    pub fn subscribe(&mut self, id: u64, notify_rank: Rank) -> Result<bool, DataError> {
        let req = Request::DataSubscribe {
            id,
            rank: notify_rank,
        };
        match self.data_request(id, &req) {
            Response::Bool(closed) => Ok(closed),
            Response::Error(e) => Err(DataError { message: e }),
            other => Err(Self::unexpected("subscribe", other)),
        }
    }

    /// Insert a member into an open container (one-way on the home
    /// server).
    pub fn insert(&mut self, id: u64, key: &str, value: Vec<u8>) -> Result<(), DataError> {
        let req = Request::DataInsert {
            id,
            key: key.to_string(),
            value: Bytes::from(value),
        };
        self.mutate(id, &req, "insert")
    }

    /// Look up a container member.
    pub fn lookup(&mut self, id: u64, key: &str) -> Result<Option<Bytes>, DataError> {
        let req = Request::DataLookup {
            id,
            key: key.to_string(),
        };
        match self.data_request(id, &req) {
            Response::MaybeBytes(v) => Ok(v),
            Response::Error(e) => Err(DataError { message: e }),
            other => Err(Self::unexpected("lookup", other)),
        }
    }

    /// Enumerate a container's members in subscript order.
    pub fn enumerate(&mut self, id: u64) -> Result<Vec<(String, Bytes)>, DataError> {
        match self.data_request(id, &Request::DataEnumerate { id }) {
            Response::Pairs(p) => Ok(p),
            Response::Error(e) => Err(DataError { message: e }),
            other => Err(Self::unexpected("enumerate", other)),
        }
    }

    /// Close a container, releasing subscribers (one-way on the home
    /// server).
    pub fn close(&mut self, id: u64) -> Result<(), DataError> {
        self.mutate(id, &Request::DataClose { id }, "close")
    }

    /// Adjust a container's writer slot count (Swift/T slot counting); a
    /// drop to zero closes it (one-way on the home server).
    pub fn incr_writers(&mut self, id: u64, delta: i64) -> Result<(), DataError> {
        self.mutate(id, &Request::DataIncrWriters { id, delta }, "incr_writers")
    }

    /// Whether the datum exists and is closed.
    pub fn exists(&mut self, id: u64) -> Result<bool, DataError> {
        match self.data_request(id, &Request::DataExists { id }) {
            Response::Bool(b) => Ok(b),
            Response::Error(e) => Err(DataError { message: e }),
            other => Err(Self::unexpected("exists", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{WORK_TYPE_NOTIFY, WORK_TYPE_WORK};
    use crate::server::{serve, ServerConfig};
    use mpisim::World;

    fn with_runtime<T: Send>(
        size: usize,
        servers: usize,
        body: impl Fn(AdlbClient) -> T + Sync,
    ) -> Vec<Option<T>> {
        let layout = Layout::new(size, servers);
        World::run(size, move |comm| {
            if layout.is_server(comm.rank()) {
                serve(comm, layout, ServerConfig::default());
                None
            } else {
                Some(body(AdlbClient::new(comm, layout)))
            }
        })
    }

    #[test]
    fn empty_world_terminates() {
        // Clients that immediately finish: termination must still fire.
        let out = with_runtime(4, 1, |mut c| {
            c.finish();
            true
        });
        assert_eq!(out.iter().flatten().count(), 3);
    }

    #[test]
    fn tasks_flow_from_putter_to_getter() {
        let out = with_runtime(3, 1, |mut c| {
            if c.rank() == 0 {
                for i in 0..10 {
                    c.put(WORK_TYPE_WORK, 0, None, vec![i]);
                }
                c.finish();
                return 0u64;
            }
            let mut sum = 0u64;
            while let Some(t) = c.get(&[WORK_TYPE_WORK]) {
                sum += t.payload[0] as u64;
            }
            sum
        });
        let total: u64 = out.iter().flatten().sum();
        assert_eq!(total, (0..10).sum::<u64>());
    }

    #[test]
    fn targeted_task_reaches_only_target() {
        let out = with_runtime(4, 1, |mut c| {
            if c.rank() == 0 {
                c.put(WORK_TYPE_WORK, 0, Some(2), b"for-two".to_vec());
                c.finish();
                return None;
            }
            let mut got = None;
            while let Some(t) = c.get(&[WORK_TYPE_WORK]) {
                got = Some((c.rank(), t.payload.to_vec()));
            }
            got
        });
        let hits: Vec<_> = out.into_iter().flatten().flatten().collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 2);
    }

    #[test]
    fn priorities_order_delivery() {
        // One submitter, one consumer: consumer must see high priority
        // first even though it was put last.
        let out = with_runtime(3, 1, |mut c| {
            if c.rank() == 0 {
                c.put(WORK_TYPE_WORK, 1, Some(1), b"low".to_vec());
                c.put(WORK_TYPE_WORK, 9, Some(1), b"high".to_vec());
                // Give the server a beat so both tasks are queued before
                // the consumer's first get.
                std::thread::sleep(std::time::Duration::from_millis(20));
                c.put(WORK_TYPE_WORK, 5, Some(1), b"mid".to_vec());
                c.finish();
                return vec![];
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
            let mut order = vec![];
            while let Some(t) = c.get(&[WORK_TYPE_WORK]) {
                order.push(String::from_utf8(t.payload.to_vec()).unwrap());
            }
            order
        });
        let order = &out[1].as_ref().unwrap()[..2];
        assert_eq!(order, &["high".to_string(), "low".to_string()]);
    }

    #[test]
    fn work_stealing_balances_across_servers() {
        // 2 servers; all work is put by a client of server 0, but a client
        // of server 1 must still receive tasks via stealing.
        let layout = Layout::new(4, 2);
        let out = World::run(4, move |comm| {
            if layout.is_server(comm.rank()) {
                let stats = serve(comm, layout, ServerConfig::default());
                return stats.tasks_donated + stats.tasks_stolen;
            }
            let mut c = AdlbClient::new(comm, layout);
            if c.rank() == 0 {
                // Client 0 is served by server 2 (0 % 2 == 0).
                for i in 0..20 {
                    c.put(WORK_TYPE_WORK, 0, None, vec![i]);
                }
                c.finish();
                return 0;
            }
            // Client 1 is served by server 3: no local puts at all.
            let mut count = 0u64;
            while c.get(&[WORK_TYPE_WORK]).is_some() {
                count += 1;
            }
            count
        });
        assert_eq!(out[1], 20, "all tasks must reach the stealing side");
        assert!(out[2] + out[3] > 0, "steal traffic must have occurred");
    }

    #[test]
    fn data_store_round_trip() {
        let out = with_runtime(2, 1, |mut c| {
            if c.rank() == 0 {
                let id = c.alloc_id();
                c.create(id, 0).unwrap();
                assert_eq!(c.retrieve(id).unwrap(), None);
                c.store(id, b"payload".to_vec()).unwrap();
                let v = c.retrieve(id).unwrap().unwrap();
                c.finish();
                return v.to_vec();
            }
            c.finish();
            vec![]
        });
        assert_eq!(out[0].as_ref().unwrap(), b"payload");
    }

    #[test]
    fn subscribe_produces_notify_task() {
        let out = with_runtime(3, 1, |mut c| {
            // Rank 1 subscribes, rank 0 stores; rank 1 gets a NOTIFY task.
            let id = 7u64; // fixed id shared by convention
            match c.rank() {
                0 => {
                    c.create(id, 0).unwrap();
                    // Let rank 1 subscribe first.
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    c.store(id, b"v".to_vec()).unwrap();
                    c.finish();
                    u64::MAX
                }
                1 => {
                    // Retry subscribe until rank 0's create lands.
                    loop {
                        match c.subscribe(id, 1) {
                            Ok(false) => break,
                            Ok(true) => return id, // already closed
                            Err(_) => std::thread::sleep(std::time::Duration::from_millis(1)),
                        }
                    }
                    let t = c.get(&[WORK_TYPE_NOTIFY]).expect("notify task");
                    let got = u64::from_le_bytes(t.payload[..8].try_into().unwrap());
                    while c.get(&[WORK_TYPE_NOTIFY]).is_some() {}
                    got
                }
                _ => {
                    c.finish();
                    u64::MAX
                }
            }
        });
        assert_eq!(out[1], Some(7));
    }

    #[test]
    fn double_store_is_reported() {
        // A store on the home server is one-way: the second store returns
        // at once, and its "double assignment" comes back from the next
        // awaited call instead — which itself succeeds, since the error
        // is not its own.
        let out = with_runtime(2, 1, |mut c| {
            if c.rank() == 0 {
                let id = c.alloc_id();
                c.create(id, 0).unwrap();
                c.store(id, b"a".to_vec()).unwrap();
                c.store(id, b"b".to_vec())
                    .expect("a one-way store returns before the server sees it");
                let before = c.take_deferred_errors();
                let value = c.retrieve(id).expect("the awaited call succeeds");
                let after = c.take_deferred_errors();
                c.finish();
                return (before, value, after);
            }
            c.finish();
            (Vec::new(), None, Vec::new())
        });
        let (before, value, after) = out[0].clone().unwrap();
        assert!(before.is_empty(), "{before:?}");
        assert_eq!(value.as_deref(), Some(&b"a"[..]));
        assert_eq!(after.len(), 1, "{after:?}");
        assert!(
            after[0].1.message.contains("double assignment"),
            "{after:?}"
        );
    }

    #[test]
    fn one_way_error_rides_the_final_awaited_call() {
        // Nothing awaited follows the failed op but `finish`: its response
        // must still carry the error, attributed to the sending tenant.
        let out = with_runtime(2, 1, |mut c| {
            if c.rank() == 0 {
                c.set_tenant(3);
                // Never created; with one server every id is home-owned.
                c.store(1_000_000, b"x".to_vec()).expect("one-way");
                c.finish();
                return c.take_deferred_errors();
            }
            c.finish();
            Vec::new()
        });
        let errs = out[0].clone().unwrap();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert_eq!(errs[0].0, 3);
        assert!(errs[0].1.message.contains("does not exist"), "{errs:?}");
    }

    #[test]
    fn mutations_of_another_servers_data_stay_awaited() {
        // 2 servers, 3 clients: id 1 lives on server 4, but client 0's
        // home is server 3 — its store error comes back from the store.
        let layout = Layout::new(5, 2);
        let out = World::run(5, move |comm| {
            if layout.is_server(comm.rank()) {
                serve(comm, layout, ServerConfig::default());
                return None;
            }
            let mut c = AdlbClient::new(comm, layout);
            let mut result = None;
            if c.rank() == 0 {
                assert_ne!(layout.data_owner(1), layout.server_of(0));
                c.create(1, 0).unwrap();
                c.store(1, b"a".to_vec()).unwrap();
                result = Some(c.store(1, b"b".to_vec()).unwrap_err().message);
            }
            c.finish();
            result
        });
        assert!(out[0]
            .as_ref()
            .is_some_and(|e| e.contains("double assignment")));
    }

    #[test]
    fn containers_work_across_ranks() {
        let out = with_runtime(4, 2, |mut c| {
            let id = 42u64;
            if c.rank() == 0 {
                c.create(id, crate::datastore::TYPE_TAG_CONTAINER).unwrap();
                c.insert(id, "0", b"zero".to_vec()).unwrap();
                c.insert(id, "1", b"one".to_vec()).unwrap();
                c.close(id).unwrap();
                c.finish();
                return vec![];
            }
            // Wait until the container exists and is closed.
            while !c.exists(id).unwrap_or(false) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let pairs = c.enumerate(id).unwrap();
            c.finish();
            pairs.into_iter().map(|(k, _)| k).collect()
        });
        assert_eq!(out[1].as_ref().unwrap(), &["0", "1"]);
    }

    #[test]
    fn many_workers_drain_queue() {
        let n = 9;
        let out = with_runtime(n + 2, 2, move |mut c| {
            if c.rank() == 0 {
                for i in 0..200u32 {
                    c.put(
                        WORK_TYPE_WORK,
                        (i % 3) as i32,
                        None,
                        i.to_le_bytes().to_vec(),
                    );
                }
                c.finish();
                return 0u64;
            }
            let mut count = 0u64;
            while c.get(&[WORK_TYPE_WORK]).is_some() {
                count += 1;
            }
            count
        });
        let total: u64 = out.iter().flatten().sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn output_streams_accumulate_on_the_server() {
        let layout = Layout::new(3, 1);
        let out = World::run(3, move |comm| {
            if layout.is_server(comm.rank()) {
                let outcome = crate::server::serve_ext(comm, layout, ServerConfig::default());
                return outcome
                    .streams
                    .iter()
                    .map(|(r, _t, s)| format!("{r}:{s}"))
                    .collect::<Vec<_>>()
                    .join(" ");
            }
            let mut c = AdlbClient::new(comm, layout);
            c.send_output(&format!("hello from {}", c.rank()));
            c.send_output("!");
            c.finish();
            String::new()
        });
        assert_eq!(out[2], "0:hello from 0! 1:hello from 1!");
    }
}
