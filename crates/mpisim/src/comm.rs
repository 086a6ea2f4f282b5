//! The per-rank communicator handle: point-to-point sends/receives and
//! collectives built on top of them.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use crate::mailbox::Envelope;
use crate::world::Shared;
use crate::{Rank, Tag, RESERVED_TAG_BASE};

/// Source selector for receives: a specific rank or the MPI `ANY_SOURCE`
/// wildcard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Match messages from any source rank.
    Any,
    /// Match only messages from this rank.
    Of(Rank),
}

impl From<Rank> for Src {
    fn from(r: Rank) -> Self {
        Src::Of(r)
    }
}

/// Tag selector for receives: a specific tag or the MPI `ANY_TAG` wildcard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagSel {
    /// Match messages with any tag below [`RESERVED_TAG_BASE`]: like
    /// MPI's `ANY_TAG`, it never matches collective traffic.
    Any,
    /// Match only messages with this tag.
    Of(Tag),
}

impl From<Tag> for TagSel {
    fn from(t: Tag) -> Self {
        TagSel::Of(t)
    }
}

/// A received message.
#[derive(Debug, Clone)]
pub struct Message {
    /// Rank that sent the message.
    pub source: Rank,
    /// Tag the message was sent with.
    pub tag: Tag,
    /// Payload bytes.
    pub data: Bytes,
}

// Reserved tags for collectives (all >= RESERVED_TAG_BASE).
const TAG_BARRIER_UP: Tag = RESERVED_TAG_BASE;
const TAG_BARRIER_DOWN: Tag = RESERVED_TAG_BASE + 1;
const TAG_BCAST: Tag = RESERVED_TAG_BASE + 2;
const TAG_GATHER: Tag = RESERVED_TAG_BASE + 3;
const TAG_REDUCE: Tag = RESERVED_TAG_BASE + 4;
const TAG_ALLREDUCE_DOWN: Tag = RESERVED_TAG_BASE + 5;
const TAG_SCATTER: Tag = RESERVED_TAG_BASE + 6;

/// A rank's handle onto the simulated communicator (the analogue of
/// `MPI_COMM_WORLD` plus the owning process's rank).
///
/// `Comm` is cheap to clone; clones share the same mailbox, so cloning is
/// only useful for passing the handle into helper structs on the same rank.
#[derive(Clone)]
pub struct Comm {
    rank: Rank,
    shared: Arc<Shared>,
}

impl Comm {
    pub(crate) fn new(rank: Rank, shared: Arc<Shared>) -> Self {
        Comm { rank, shared }
    }

    /// This rank's id, `0..size`.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.shared.mailboxes.len()
    }

    /// Whether `rank` is still alive (always true without a fault plan).
    pub fn is_alive(&self, rank: Rank) -> bool {
        self.shared.faults.is_alive(rank)
    }

    /// Send `data` to `dest` with `tag`. Never blocks (buffered send).
    ///
    /// Under a fault plan the send may be dropped, delayed, or be this
    /// rank's scripted last act: a `KillAfterSends` fault fires *after*
    /// the triggering message is delivered. Sends to dead ranks vanish
    /// silently, as with a real failed process.
    ///
    /// # Panics
    /// Panics if `dest` is out of range.
    pub fn send(&self, dest: Rank, tag: Tag, data: impl Into<Bytes>) {
        let data = data.into();
        let verdict = self.shared.faults.before_send(self.rank, dest);
        if let Some(ms) = verdict.delay_ms {
            std::thread::sleep(Duration::from_millis(ms));
        }
        if verdict.deliver && self.shared.faults.is_alive(dest) {
            self.shared.msg_count.fetch_add(1, Ordering::Relaxed);
            self.shared
                .byte_count
                .fetch_add(data.len() as u64, Ordering::Relaxed);
            self.shared.mailboxes[dest].push(Envelope {
                source: self.rank,
                tag,
                data,
            });
        }
        if verdict.kill_after {
            self.shared.faults.kill(self.rank);
        }
    }

    /// Blocking selective receive.
    pub fn recv(&self, src: impl Into<Src>, tag: impl Into<TagSel>) -> Message {
        self.shared.faults.check_recv_entry(self.rank);
        let m = self.shared.mailboxes[self.rank].recv(src.into(), tag.into());
        self.shared.faults.note_recv_done(self.rank);
        m
    }

    /// Non-blocking selective receive.
    pub fn try_recv(&self, src: impl Into<Src>, tag: impl Into<TagSel>) -> Option<Message> {
        self.shared.faults.check_recv_entry(self.rank);
        let m = self.shared.mailboxes[self.rank].try_recv(src.into(), tag.into());
        if m.is_some() {
            self.shared.faults.note_recv_done(self.rank);
        }
        m
    }

    /// Blocking receive with timeout; `None` if nothing matched in time.
    pub fn recv_timeout(
        &self,
        src: impl Into<Src>,
        tag: impl Into<TagSel>,
        timeout: Duration,
    ) -> Option<Message> {
        self.shared.faults.check_recv_entry(self.rank);
        let m = self.shared.mailboxes[self.rank].recv_timeout(src.into(), tag.into(), timeout);
        if m.is_some() {
            self.shared.faults.note_recv_done(self.rank);
        }
        m
    }

    /// Probe for a matching message without consuming it; returns
    /// `(source, tag, payload_len)`.
    pub fn iprobe(
        &self,
        src: impl Into<Src>,
        tag: impl Into<TagSel>,
    ) -> Option<(Rank, Tag, usize)> {
        self.shared.mailboxes[self.rank].iprobe(src.into(), tag.into())
    }

    /// Number of messages currently queued at this rank (diagnostics).
    pub fn pending(&self) -> usize {
        self.shared.mailboxes[self.rank].len()
    }

    // ---- Collectives --------------------------------------------------
    //
    // Implemented with a simple fan-in to rank 0 / fan-out from rank 0.
    // All traffic uses reserved tags, and because delivery is
    // non-overtaking per (src, dst, tag), back-to-back collectives of the
    // same kind cannot interfere.

    /// Block until every rank has entered the barrier.
    pub fn barrier(&self) {
        let n = self.size();
        if n == 1 {
            return;
        }
        if self.rank == 0 {
            for _ in 1..n {
                self.recv(Src::Any, TAG_BARRIER_UP);
            }
            for r in 1..n {
                self.send(r, TAG_BARRIER_DOWN, Bytes::new());
            }
        } else {
            self.send(0, TAG_BARRIER_UP, Bytes::new());
            self.recv(Src::Of(0), TAG_BARRIER_DOWN);
        }
    }

    /// Broadcast `data` from `root` to every rank; returns the payload on
    /// all ranks (including the root).
    ///
    /// # Panics
    /// Panics when called on the root without `data` (API contract, like
    /// MPI's requirement that the root supply a buffer).
    #[allow(clippy::expect_used)] // documented caller contract
    pub fn bcast(&self, root: Rank, data: Option<Bytes>) -> Bytes {
        if self.size() == 1 {
            return data.expect("bcast root must supply data");
        }
        if self.rank == root {
            let data = data.expect("bcast root must supply data");
            for r in 0..self.size() {
                if r != root {
                    self.send(r, TAG_BCAST, data.clone());
                }
            }
            data
        } else {
            self.recv(Src::Of(root), TAG_BCAST).data
        }
    }

    /// Gather each rank's payload at `root`; the root receives payloads
    /// indexed by rank, other ranks receive `None`.
    #[allow(clippy::unwrap_used)] // every slot filled: one recv per non-root rank
    pub fn gather(&self, root: Rank, data: Bytes) -> Option<Vec<Bytes>> {
        if self.rank == root {
            let mut out: Vec<Option<Bytes>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(data);
            for _ in 0..self.size() - 1 {
                let m = self.recv(Src::Any, TAG_GATHER);
                out[m.source] = Some(m.data);
            }
            Some(out.into_iter().map(|o| o.unwrap()).collect())
        } else {
            self.send(root, TAG_GATHER, data);
            None
        }
    }

    /// Scatter per-rank payloads from `root`; every rank gets its slice.
    ///
    /// # Panics
    /// Panics when called on the root without `data` (API contract).
    #[allow(clippy::expect_used)] // documented caller contract
    pub fn scatter(&self, root: Rank, data: Option<Vec<Bytes>>) -> Bytes {
        if self.rank == root {
            let data = data.expect("scatter root must supply data");
            assert_eq!(
                data.len(),
                self.size(),
                "scatter needs one payload per rank"
            );
            let mut mine = Bytes::new();
            for (r, d) in data.into_iter().enumerate() {
                if r == root {
                    mine = d;
                } else {
                    self.send(r, TAG_SCATTER, d);
                }
            }
            mine
        } else {
            self.recv(Src::Of(root), TAG_SCATTER).data
        }
    }

    /// Sum-reduce a `u64` contribution at rank 0; rank 0 gets the total.
    #[allow(clippy::unwrap_used)] // contributions are exactly 8 bytes by construction
    pub fn reduce_sum_u64(&self, value: u64) -> Option<u64> {
        if self.rank == 0 {
            let mut total = value;
            for _ in 0..self.size() - 1 {
                let m = self.recv(Src::Any, TAG_REDUCE);
                let arr: [u8; 8] = m.data[..8].try_into().unwrap();
                total += u64::from_le_bytes(arr);
            }
            Some(total)
        } else {
            self.send(0, TAG_REDUCE, value.to_le_bytes().to_vec());
            None
        }
    }

    /// Sum-allreduce a `u64` contribution; every rank gets the total.
    #[allow(clippy::unwrap_used)] // the total from rank 0 is exactly 8 bytes
    pub fn allreduce_sum_u64(&self, value: u64) -> u64 {
        match self.reduce_sum_u64(value) {
            Some(total) => {
                for r in 1..self.size() {
                    self.send(r, TAG_ALLREDUCE_DOWN, total.to_le_bytes().to_vec());
                }
                total
            }
            None => {
                let m = self.recv(Src::Of(0), TAG_ALLREDUCE_DOWN);
                let arr: [u8; 8] = m.data[..8].try_into().unwrap();
                u64::from_le_bytes(arr)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    #[test]
    fn bcast_reaches_all_ranks() {
        let out = World::run(5, |comm| {
            let data = if comm.rank() == 2 {
                Some(Bytes::from_static(b"hello"))
            } else {
                None
            };
            comm.bcast(2, data).to_vec()
        });
        for v in out {
            assert_eq!(v, b"hello");
        }
    }

    #[test]
    fn gather_collects_by_rank() {
        let out = World::run(4, |comm| {
            let mine = Bytes::from(vec![comm.rank() as u8]);
            comm.gather(0, mine)
        });
        let gathered = out[0].as_ref().unwrap();
        for (r, b) in gathered.iter().enumerate() {
            assert_eq!(b[0] as usize, r);
        }
        assert!(out[1].is_none());
    }

    #[test]
    fn scatter_distributes_by_rank() {
        let out = World::run(4, |comm| {
            let data = if comm.rank() == 0 {
                Some((0..4).map(|r| Bytes::from(vec![r as u8 * 2])).collect())
            } else {
                None
            };
            comm.scatter(0, data)[0]
        });
        assert_eq!(out, vec![0, 2, 4, 6]);
    }

    #[test]
    fn allreduce_sums_everywhere() {
        let out = World::run(6, |comm| comm.allreduce_sum_u64(comm.rank() as u64 + 1));
        for v in out {
            assert_eq!(v, 21);
        }
    }

    #[test]
    fn repeated_barriers_do_not_interfere() {
        World::run(8, |comm| {
            for _ in 0..50 {
                comm.barrier();
            }
        });
    }

    #[test]
    fn reduce_then_bcast_sequence() {
        let out = World::run(3, |comm| {
            let total = comm.allreduce_sum_u64(1);
            comm.barrier();
            let b = comm.bcast(
                0,
                (comm.rank() == 0).then(|| Bytes::from(vec![total as u8])),
            );
            b[0]
        });
        assert_eq!(out, vec![3, 3, 3]);
    }
}
