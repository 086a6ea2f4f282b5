//! Server-tier failover tests at the ADLB layer: with `replication = 2`,
//! killing one server mid-run must not lose or duplicate any task, and
//! the run must terminate cleanly with the survivor serving both shards.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use adlb::{serve_ext, AdlbClient, Layout, ServerConfig, WORK_TYPE_WORK};
use mpisim::{FaultPlan, World};

fn replicated_config() -> ServerConfig {
    ServerConfig {
        replication: 2,
        ..ServerConfig::default()
    }
}

/// 2 servers, 4 clients; kill one server after `kill_sends` of its sends.
/// Returns (tid → execution count, survivor failover count, whether the
/// kill actually fired — a late schedule point can land past the victim's
/// final `Bye`, in which case it exits normally and nothing fails over).
fn run_server_death(
    victim_server: usize,
    kill_sends: u64,
    total: u64,
) -> (HashMap<u64, u64>, u64, bool) {
    let layout = Layout::new(6, 2);
    let plan = FaultPlan::new().kill_after_sends(victim_server, kill_sends);
    let executed: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::new());
    let outcome = World::run_faulty(6, &plan, |comm| {
        let rank = comm.rank();
        if layout.is_server(rank) {
            return Some(serve_ext(comm, layout, replicated_config()).stats.failovers);
        }
        let mut client = AdlbClient::new(comm, layout);
        if rank == 0 {
            for tid in 0..total {
                // Mix of untargeted and targeted-at-a-consumer tasks so
                // both queues and the forward path are exercised.
                let target = if tid % 5 == 0 {
                    Some(1 + (tid as usize) % 3)
                } else {
                    None
                };
                client.put(
                    WORK_TYPE_WORK,
                    (tid % 3) as i32,
                    target,
                    tid.to_le_bytes().to_vec(),
                );
            }
            client.finish();
            return None;
        }
        while let Some(t) = client.get(&[WORK_TYPE_WORK]) {
            let tid = u64::from_le_bytes(t.payload[..8].try_into().unwrap());
            *executed.lock().unwrap().entry(tid).or_insert(0) += 1;
            // Think-time so the kill lands while work is still in flight.
            std::thread::sleep(Duration::from_micros(300));
        }
        None
    });
    let fired = !outcome.killed.is_empty();
    if fired {
        assert_eq!(outcome.killed, vec![victim_server]);
    }
    let failovers: u64 = outcome.outputs.into_iter().flatten().flatten().sum();
    (executed.into_inner().unwrap(), failovers, fired)
}

#[test]
fn killing_the_second_server_loses_nothing_at_replication_2() {
    // Rank 5 is the non-master server; kill it mid-run at several points
    // in its send stream (early: barely past startup snapshots; later:
    // mid-delivery with leases and forwards in flight).
    for kill_sends in [4, 20, 60] {
        let (executed, failovers, fired) = run_server_death(5, kill_sends, 40);
        for tid in 0..40 {
            let n = executed.get(&tid).copied().unwrap_or(0);
            assert_eq!(
                n, 1,
                "kill_sends={kill_sends}: task {tid} executed {n} times"
            );
        }
        // At the late kill point the victim can die on or after its final
        // `Bye` — or finish before its 60th send so the kill never fires —
        // in which case nothing was stranded and no promotion is needed.
        if !fired {
            assert_eq!(
                failovers, 0,
                "kill_sends={kill_sends}: no kill, no promotion"
            );
        } else if kill_sends < 60 {
            assert_eq!(failovers, 1, "kill_sends={kill_sends}: survivor promoted");
        } else {
            assert!(
                failovers <= 1,
                "kill_sends={kill_sends}: at most one promotion"
            );
        }
    }
}

#[test]
fn killing_the_master_server_loses_nothing_at_replication_2() {
    // Rank 4 is the master (termination detection owner): its successor
    // must take over both the shard and the termination protocol.
    for kill_sends in [4, 20, 60] {
        let (executed, failovers, fired) = run_server_death(4, kill_sends, 40);
        for tid in 0..40 {
            let n = executed.get(&tid).copied().unwrap_or(0);
            assert_eq!(
                n, 1,
                "kill_sends={kill_sends}: task {tid} executed {n} times"
            );
        }
        if !fired {
            assert_eq!(
                failovers, 0,
                "kill_sends={kill_sends}: no kill, no promotion"
            );
        } else if kill_sends < 60 {
            assert_eq!(failovers, 1, "kill_sends={kill_sends}: survivor promoted");
        } else {
            assert!(
                failovers <= 1,
                "kill_sends={kill_sends}: at most one promotion"
            );
        }
    }
}

#[test]
fn data_store_shard_survives_its_servers_death() {
    // A datum created and stored on the victim's shard must be readable
    // after failover, and a subscription parked on it must still fire.
    let layout = Layout::new(4, 2);
    // Servers are ranks 2 and 3. Kill rank 3 after its traffic includes
    // the replicated create/store.
    let plan = FaultPlan::new().kill_after_sends(3, 12);
    let outcome = World::run_faulty(4, &plan, |comm| {
        let rank = comm.rank();
        if layout.is_server(rank) {
            serve_ext(comm, layout, replicated_config());
            return None;
        }
        let mut c = AdlbClient::new(comm, layout);
        // Pick an id owned by server 3 (the victim).
        let id = (0..64u64)
            .find(|i| layout.data_owner(*i) == 3)
            .expect("an id owned by rank 3");
        if rank == 0 {
            c.create(id, 0).unwrap();
            c.store(id, b"replicated-value".to_vec()).unwrap();
            c.finish();
            return None;
        }
        // Rank 1: poll until the datum is closed (possibly across the
        // failover), then read it back.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !c.exists(id).unwrap_or(false) {
            assert!(std::time::Instant::now() < deadline, "datum never closed");
            std::thread::sleep(Duration::from_millis(1));
        }
        let v = c.retrieve(id).unwrap().expect("closed datum has a value");
        c.finish();
        Some(String::from_utf8(v.to_vec()).unwrap())
    });
    assert_eq!(outcome.killed, vec![3]);
    assert_eq!(
        outcome.outputs[1],
        Some(Some("replicated-value".to_string()))
    );
}

#[test]
fn replication_1_server_death_fails_cleanly_not_hangs() {
    // Same scenario as the failover tests but with replication disabled:
    // the run must still terminate (no hang), clients must get a NoMore
    // with a diagnosis, and nobody may panic.
    let layout = Layout::new(6, 2);
    // Kill early (6 sends: barely past the first deliveries) so the death
    // lands while work is still in flight, not during shutdown.
    let plan = FaultPlan::new().kill_after_sends(5, 6);
    let outcome = World::run_faulty(6, &plan, |comm| {
        let rank = comm.rank();
        if layout.is_server(rank) {
            serve_ext(comm, layout, ServerConfig::default());
            return Vec::new();
        }
        let mut client = AdlbClient::new(comm, layout);
        if rank == 0 {
            for tid in 0..80u64 {
                client.put(WORK_TYPE_WORK, 0, None, tid.to_le_bytes().to_vec());
            }
            client.finish();
            return client.quarantine_reports().to_vec();
        }
        while let Some(_t) = client.get(&[WORK_TYPE_WORK]) {
            std::thread::sleep(Duration::from_micros(300));
        }
        client.quarantine_reports().to_vec()
    });
    assert_eq!(outcome.killed, vec![5]);
    // At least one surviving client must have been told why the run was
    // cut short.
    let all_reports: Vec<String> = outcome.outputs.into_iter().flatten().flatten().collect();
    assert!(
        all_reports.iter().any(|r| r.contains("unrecoverable")),
        "no client saw the shard-loss diagnosis: {all_reports:?}"
    );
}

#[test]
fn output_streams_survive_a_server_death() {
    // Clients stream output through the victim server; after failover the
    // survivor must hold the replicated streams.
    let layout = Layout::new(4, 2);
    let plan = FaultPlan::new().kill_after_sends(3, 14);
    let outcome = World::run_faulty(4, &plan, |comm| {
        let rank = comm.rank();
        if layout.is_server(rank) {
            let o = serve_ext(comm, layout, replicated_config());
            return o
                .streams
                .into_iter()
                .map(|(r, _t, s)| format!("{r}:{s}"))
                .collect::<Vec<_>>();
        }
        let mut c = AdlbClient::new(comm, layout);
        // Rank 1 is a client of server 3 (the victim): its stream must
        // survive on the successor.
        c.send_output(&format!("out-{rank};"));
        std::thread::sleep(Duration::from_millis(30));
        c.send_output(&format!("more-{rank};"));
        c.finish();
        Vec::new()
    });
    assert_eq!(outcome.killed, vec![3]);
    let survivor_streams: Vec<String> = outcome.outputs.into_iter().flatten().flatten().collect();
    assert!(
        survivor_streams.iter().any(|s| s.contains("out-1;")),
        "rank 1's early output lost: {survivor_streams:?}"
    );
}

mod re_replication {
    //! Post-failover re-replication: after a survivor promotes a dead
    //! server's shard, the recomputed ring successors receive streamed
    //! replica state in bounded chunks, restoring the replication factor
    //! mid-run — so a *second* server death (after the sync completes) is
    //! also survivable at `replication = 2`.

    use std::collections::HashMap;
    use std::sync::Mutex;
    use std::time::Duration;

    use adlb::{serve_ext, AdlbClient, Layout, ServerConfig, ServerStats, WORK_TYPE_WORK};
    use mpisim::{FaultPlan, World};

    /// 3 servers (ranks 6..=8), 1 submitter, 5 workers. Kill `kills` as
    /// (victim rank, kill_after_sends). Returns (tid → execution count,
    /// summed survivor stats, every client's quarantine reports, killed).
    #[allow(clippy::type_complexity)]
    fn run_kills(
        kills: &[(usize, u64)],
        total: u64,
        think: Duration,
        config: ServerConfig,
    ) -> (HashMap<u64, u64>, ServerStats, Vec<String>, Vec<usize>) {
        let layout = Layout::new(9, 3);
        let mut plan = FaultPlan::new();
        for &(victim, sends) in kills {
            plan = plan.kill_after_sends(victim, sends);
        }
        let executed: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::new());
        let outcome = World::run_faulty(9, &plan, |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                let o = serve_ext(comm, layout, config.clone());
                return (Some(o.stats), Vec::new());
            }
            let mut client = AdlbClient::new(comm, layout);
            if rank == 0 {
                for tid in 0..total {
                    let target = if tid % 7 == 0 {
                        Some(1 + (tid as usize) % 5)
                    } else {
                        None
                    };
                    client.put(
                        WORK_TYPE_WORK,
                        (tid % 3) as i32,
                        target,
                        tid.to_le_bytes().to_vec(),
                    );
                }
                client.finish();
                return (None, client.quarantine_reports().to_vec());
            }
            while let Some(t) = client.get(&[WORK_TYPE_WORK]) {
                let tid = u64::from_le_bytes(t.payload[..8].try_into().unwrap());
                *executed.lock().unwrap().entry(tid).or_insert(0) += 1;
                std::thread::sleep(think);
            }
            (None, client.quarantine_reports().to_vec())
        });
        let mut stats = ServerStats::default();
        let mut reports = Vec::new();
        for o in outcome.outputs.into_iter().flatten() {
            if let Some(s) = o.0 {
                stats.failovers += s.failovers;
                stats.repl_syncs += s.repl_syncs;
                stats.repl_sync_bytes += s.repl_sync_bytes;
                stats.r_restore_micros += s.r_restore_micros;
                stats.tasks_requeued += s.tasks_requeued;
            }
            reports.extend(o.1);
        }
        (
            executed.into_inner().unwrap(),
            stats,
            reports,
            outcome.killed,
        )
    }

    #[test]
    fn second_server_death_survives_once_r_is_restored() {
        // Kill rank 7 almost immediately; rank 8 much later, past the
        // point where 8 promoted 7's shard and the post-promotion sync to
        // the recomputed successors completed. With R restored, the run
        // must survive BOTH deaths: every task exactly once and a
        // measured time-to-R-restored. (The first promotion's failover
        // counter dies with rank 8, so the surviving tier reports the
        // second promotion only.)
        let (executed, stats, reports, killed) = run_kills(
            &[(7, 4), (8, 200)],
            300,
            Duration::from_micros(800),
            ServerConfig {
                replication: 2,
                ..ServerConfig::default()
            },
        );
        assert_eq!(killed, vec![7, 8], "both kill points must fire");
        assert!(
            reports.is_empty(),
            "no shard may be lost with re-replication on: {reports:?}"
        );
        for tid in 0..300 {
            let n = executed.get(&tid).copied().unwrap_or(0);
            assert_eq!(n, 1, "task {tid} executed {n} times");
        }
        assert!(
            stats.failovers >= 1,
            "the survivor promoted the twice-failed-over shard"
        );
        assert!(stats.repl_syncs > 0, "chunked syncs completed");
        assert!(stats.repl_sync_bytes > 0);
        assert!(
            stats.r_restore_micros > 0,
            "time-to-R-restored was measured"
        );
    }

    #[test]
    fn tiny_chunks_stream_the_whole_replica() {
        // sync_chunk = 64 bytes forces every post-promotion sync through
        // many ReplSync/SyncAck round trips interleaved with live traffic;
        // fat payloads make the ledgers span several chunks. Correctness
        // must not depend on the chunk size.
        let payload = vec![0xabu8; 256];
        let layout = Layout::new(9, 3);
        let plan = FaultPlan::new().kill_after_sends(7, 10);
        let executed: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::new());
        let config = ServerConfig {
            replication: 2,
            sync_chunk: 64,
            ..ServerConfig::default()
        };
        let outcome = World::run_faulty(9, &plan, |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                return Some(serve_ext(comm, layout, config.clone()).stats);
            }
            let mut client = AdlbClient::new(comm, layout);
            if rank == 0 {
                for tid in 0..120u64 {
                    let mut body = tid.to_le_bytes().to_vec();
                    body.extend_from_slice(&payload);
                    client.put(WORK_TYPE_WORK, 0, None, body);
                }
                client.finish();
                return None;
            }
            while let Some(t) = client.get(&[WORK_TYPE_WORK]) {
                let tid = u64::from_le_bytes(t.payload[..8].try_into().unwrap());
                *executed.lock().unwrap().entry(tid).or_insert(0) += 1;
                std::thread::sleep(Duration::from_micros(500));
            }
            None
        });
        assert_eq!(outcome.killed, vec![7]);
        for tid in 0..120 {
            let n = executed.lock().unwrap().get(&tid).copied().unwrap_or(0);
            assert_eq!(n, 1, "task {tid} executed {n} times");
        }
        let mut syncs = 0;
        let mut bytes = 0;
        let mut restore = 0;
        for s in outcome.outputs.into_iter().flatten().flatten() {
            syncs += s.repl_syncs;
            bytes += s.repl_sync_bytes;
            restore += s.r_restore_micros;
        }
        assert!(syncs > 0, "syncs completed");
        assert!(
            bytes > 3 * 64,
            "a fat ledger must cross several 64-byte chunks (got {bytes})"
        );
        assert!(restore > 0, "death-triggered sync was timed");
    }

    #[test]
    fn without_re_replication_a_second_death_aborts_cleanly() {
        // The ablation: same double-kill schedule, re-replication off. R
        // stays degraded after the first failover, so the second death
        // may lose a shard — the run must then terminate with a
        // diagnosis, not hang, and must never duplicate work on
        // survivors.
        let (executed, stats, reports, killed) = run_kills(
            &[(7, 4), (8, 200)],
            300,
            Duration::from_micros(800),
            ServerConfig {
                replication: 2,
                re_replicate: false,
                ..ServerConfig::default()
            },
        );
        assert_eq!(killed, vec![7, 8], "both kill points must fire");
        assert_eq!(stats.repl_syncs, 0, "no chunked syncs when disabled");
        for (tid, n) in &executed {
            assert!(*n <= 1, "task {tid} executed {n} times");
        }
        // Either the legacy write-through path happened to keep a full
        // copy alive (completion) or the shard was declared lost — both
        // are clean endings; silence (a hang) is the only failure.
        if !reports.is_empty() {
            assert!(
                reports.iter().any(|r| r.contains("unrecoverable")),
                "abort must carry the shard-loss diagnosis: {reports:?}"
            );
        } else {
            for tid in 0..300 {
                let n = executed.get(&tid).copied().unwrap_or(0);
                assert_eq!(n, 1, "completed run lost task {tid}");
            }
        }
    }
}

mod lease_races {
    //! Regression for the lease-expiry / dead-client race: a client that
    //! dies holding a lease just as the lease-timeout sweep revokes it
    //! used to trip `expect("expired lease")` — the dead-client sweep had
    //! already removed the rank's lease table. The server must survive
    //! the interleaving in either order.

    use std::collections::HashMap;
    use std::sync::Mutex;
    use std::time::Duration;

    use adlb::{serve, AdlbClient, Layout, RetryPolicy, ServerConfig, WORK_TYPE_WORK};
    use mpisim::{FaultPlan, World};

    #[test]
    fn lease_expiry_racing_dead_client_sweep_does_not_panic() {
        // Rank 1 dies right after receiving its first task, holding the
        // lease. A 1 ms lease timeout expires it around the same moment
        // the liveness sweep notices the death (~10 ms) — sweep order is
        // timing-dependent, so run several kill points. A panic on any
        // server rank fails the World::run_faulty unwind; beyond that,
        // every task must still run exactly once on the survivor.
        for kill_recvs in [1u64, 2, 3] {
            let layout = Layout::new(4, 1);
            let plan = FaultPlan::new().kill_after_recvs(1, kill_recvs);
            let executed: Mutex<HashMap<u64, Vec<usize>>> = Mutex::new(HashMap::new());
            let config = ServerConfig {
                retry: RetryPolicy {
                    lease_timeout: Some(Duration::from_millis(1)),
                    max_retries: 8,
                    ..RetryPolicy::default()
                },
                ..ServerConfig::default()
            };
            let outcome = World::run_faulty(4, &plan, |comm| {
                let rank = comm.rank();
                if layout.is_server(rank) {
                    return Some(serve(comm, layout, config.clone()));
                }
                let mut client = AdlbClient::new(comm, layout);
                if rank == 0 {
                    for tid in 0..12u64 {
                        client.put(WORK_TYPE_WORK, 0, None, tid.to_le_bytes().to_vec());
                    }
                    client.finish();
                    return None;
                }
                // The survivor starts late so the victim's Get is served
                // first and the victim dies with the lease outstanding.
                if rank == 2 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                while let Some(t) = client.get(&[WORK_TYPE_WORK]) {
                    let tid = u64::from_le_bytes(t.payload[..8].try_into().unwrap());
                    executed.lock().unwrap().entry(tid).or_default().push(rank);
                }
                None
            });
            assert_eq!(outcome.killed, vec![1], "kill_recvs={kill_recvs}");
            let executed = executed.into_inner().unwrap();
            for tid in 0..12u64 {
                let execs = executed.get(&tid).cloned().unwrap_or_default();
                // Never lost — and strict exactly-once on the survivor
                // (the victim may have run a task and acked it before
                // dying, or run it unacked so it legitimately reruns).
                assert!(
                    !execs.is_empty(),
                    "kill_recvs={kill_recvs}: task {tid} was lost"
                );
                let by_survivor = execs.iter().filter(|&&r| r == 2).count();
                assert!(
                    by_survivor <= 1,
                    "kill_recvs={kill_recvs}: task {tid} ran {execs:?}"
                );
            }
            let stats = outcome
                .outputs
                .into_iter()
                .flatten()
                .flatten()
                .next()
                .expect("server stats");
            assert_eq!(stats.ranks_failed, 1);
        }
    }
}

mod one_way {
    //! Data mutations on a client's home server are one-way: the client
    //! does not wait, and re-sends them to the successor if the home dies
    //! before confirming them. The server-side seq dedup must apply each
    //! exactly once — across a failover, and across a whole-world resume.

    use std::sync::Arc;

    use adlb::{serve_ext, AdlbClient, CheckpointConfig, Layout, ServerConfig, ServerStats};
    use mpisim::{FaultPlan, World};
    use pfs::{Pfs, PfsConfig};

    /// Datums per client run.
    const DATUMS: u64 = 30;

    /// Create and store `DATUMS` datums, read every one back, and return
    /// the values that did not read back as stored plus any deferred
    /// errors (a replay applied twice shows up as a double assignment).
    fn write_and_verify(c: &mut AdlbClient) -> Vec<String> {
        let mut ids = Vec::new();
        for i in 0..DATUMS {
            let id = c.alloc_id();
            c.create(id, 0).expect("create");
            c.store(id, i.to_le_bytes().to_vec()).expect("store");
            ids.push((id, i));
        }
        let mut problems = Vec::new();
        for (id, i) in ids {
            match c.retrieve(id) {
                Ok(Some(v)) if v[..] == i.to_le_bytes() => {}
                other => problems.push(format!("datum {id}: {other:?}")),
            }
        }
        problems.extend(c.take_deferred_errors().into_iter().map(|(_, e)| e.message));
        problems
    }

    #[test]
    fn home_death_replays_unconfirmed_one_way_ops_exactly_once() {
        // Servers 3 and 4. Client 0's home is server 3; its datum ids
        // alternate between the two shards, so one-way ops to its home
        // interleave with awaited creates and stores on server 4 — the
        // home's successor, which later adopts the home's shard. Kill the
        // home at several points: whatever it had not processed (and
        // replicated) is re-sent from the client's unconfirmed log, and
        // must apply although server 4 already saw later seqs from the
        // same client.
        let layout = Layout::new(5, 2);
        for kill_recvs in [6, 20, 45] {
            let plan = FaultPlan::new().kill_after_recvs(3, kill_recvs);
            let outcome = World::run_faulty(5, &plan, |comm| {
                let rank = comm.rank();
                if layout.is_server(rank) {
                    serve_ext(comm, layout, super::replicated_config());
                    return Vec::new();
                }
                let mut c = AdlbClient::new(comm, layout);
                let problems = if rank == 0 {
                    write_and_verify(&mut c)
                } else {
                    Vec::new()
                };
                c.finish();
                problems
            });
            assert_eq!(outcome.killed, vec![3], "kill at recv {kill_recvs}");
            let problems: Vec<String> = outcome.outputs.into_iter().flatten().flatten().collect();
            assert!(
                problems.is_empty(),
                "kill at recv {kill_recvs}: {problems:?}"
            );
        }
    }

    #[test]
    fn one_way_ops_follow_the_home_across_a_death_noticed_elsewhere() {
        // Servers 3, 4, 5; client 1's home is 4. Kill 4 early: 5 adopts
        // its shard and client 1's home stream. The client keeps
        // interleaving one-way ops on its home shard (now served by 5)
        // with awaited ops on 5's own data until 5 dies too. The client
        // may notice that on an awaited op for 5's data rather than on a
        // home request; its unconfirmed home stream must still reach the
        // new host (3) ahead of anything newer.
        let layout = Layout::new(6, 3);
        let plan = FaultPlan::new()
            .kill_after_recvs(4, 8)
            .kill_after_recvs(5, 150);
        let outcome = World::run_faulty(6, &plan, |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                serve_ext(comm, layout, super::replicated_config());
                return Vec::new();
            }
            let mut c = AdlbClient::new(comm, layout);
            let mut problems = Vec::new();
            if rank == 1 {
                let mut ids = Vec::new();
                for k in 0..DATUMS {
                    // `3k + 1` lives on server 4 (the home), `3k + 2` on 5.
                    let home_id = 3 * (100 + k) + 1;
                    for id in [home_id, home_id + 1] {
                        c.create(id, 0).expect("create");
                        c.store(id, k.to_le_bytes().to_vec()).expect("store");
                        ids.push((id, k));
                    }
                    // An awaited home request confirms the one-way ops
                    // (and teaches the client where its home lives), so
                    // the next unconfirmed ones precede an awaited op on
                    // 5's data: that op is where 5's death shows.
                    if let Err(e) = c.exists(home_id) {
                        problems.push(e.message);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                for (id, k) in ids {
                    match c.retrieve(id) {
                        Ok(Some(v)) if v[..] == k.to_le_bytes() => {}
                        other => problems.push(format!("datum {id}: {other:?}")),
                    }
                }
                problems.extend(c.take_deferred_errors().into_iter().map(|(_, e)| e.message));
            }
            c.finish();
            problems
        });
        assert_eq!(outcome.killed, vec![4, 5]);
        let problems: Vec<String> = outcome.outputs.into_iter().flatten().flatten().collect();
        assert!(problems.is_empty(), "{problems:?}");
    }

    /// One single-server world checkpointing to `fs`; the client runs
    /// [`write_and_verify`]. Returns the server's stats and the client's
    /// problems — `None` when a fault took the world down.
    fn checkpointed_run(
        fs: &Arc<Pfs>,
        resume: bool,
        plan: &FaultPlan,
    ) -> Option<(ServerStats, Vec<String>)> {
        let layout = Layout::new(2, 1);
        let config = ServerConfig {
            checkpoint: Some(CheckpointConfig::new(fs.clone()).interval(1).resume(resume)),
            ..ServerConfig::default()
        };
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            World::run_faulty(2, plan, |comm| {
                if layout.is_server(comm.rank()) {
                    let stats = serve_ext(comm, layout, config.clone()).stats;
                    return (Some(stats), Vec::new());
                }
                let mut c = AdlbClient::new(comm, layout);
                let problems = write_and_verify(&mut c);
                c.finish();
                (None, problems)
            })
        }))
        .ok()?;
        let mut out = run.outputs.into_iter().flatten();
        let (client, server) = (out.next()?, out.next()?);
        Some((server.0?, client.1))
    }

    #[test]
    fn resume_drops_one_way_ops_below_the_durable_high_water() {
        // Run 1: the lone server dies after a third of the client's
        // one-way creates and stores; the client then crashes out on the
        // total server loss. Run 2 resumes from the checkpoint: the
        // restarted client replays its request stream from seq 1, the
        // replays below the durable high-water are dropped instead of
        // applied a second time (which would fail as "already exists" or
        // "double assignment"), and the rest executes fresh.
        let fs = Arc::new(Pfs::new(PfsConfig::default()));
        let crash = FaultPlan::new().kill_after_recvs(1, DATUMS * 2 / 3);
        assert!(
            checkpointed_run(&fs, false, &crash).is_none(),
            "run 1 must lose its only server"
        );
        let (stats, problems) =
            checkpointed_run(&fs, true, &FaultPlan::new()).expect("the resumed run completes");
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(stats.pfs_restores, 1);
        // Every datum's create and store plus one read each, less the
        // replays the dedup dropped.
        let issued = DATUMS * 3;
        assert!(
            stats.data_ops < issued,
            "no replayed one-way op was dropped: {} of {issued} data ops executed",
            stats.data_ops
        );
    }
}
