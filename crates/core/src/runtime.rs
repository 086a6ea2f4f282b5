//! The runtime: configure a simulated machine, compile Swift, run it.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use adlb::{merge_tenant_rows, TenantQuota, TenantSpec, TenantStats};
use mpisim::{FaultPlan, LatencyStats, World};
use pfs::{Pfs, PfsConfig};
use tclish::PackageInit;
use turbine::{InterpPolicy, TurbineConfig, TurbineProgram};

use crate::native::NativeLibrary;
use crate::result::{tenant_task_durations, LatencyReport, RunResult, SwiftTError, TenantReport};

/// One queued tenant program (see [`Runtime::submit`]).
#[derive(Clone)]
struct TenantJob {
    name: String,
    weight: u32,
    quota: Option<TenantQuota>,
    source: String,
}

/// A configured simulated machine that can run Swift programs.
///
/// Builder-style: pick rank counts and policies, register native
/// libraries and Tcl packages, then [`Runtime::run`].
#[derive(Clone)]
pub struct Runtime {
    ranks: usize,
    servers: usize,
    engines: usize,
    policy: InterpPolicy,
    steal: bool,
    batching: Option<bool>,
    replication: Option<usize>,
    re_replication: Option<bool>,
    checkpoint: Option<usize>,
    resume: bool,
    checkpoint_store: Option<Arc<Pfs>>,
    retry: adlb::RetryPolicy,
    faults: FaultPlan,
    tracing: bool,
    natives: Vec<NativeLibrary>,
    tcl_packages: Vec<(String, String, String)>,
    args: Vec<(String, String)>,
    tenants: Vec<TenantJob>,
}

impl Runtime {
    /// A machine with `ranks` ranks: 1 engine, 1 ADLB server, and the rest
    /// workers — the paper's "vast majority of processes are workers"
    /// shape scaled down.
    ///
    /// # Panics
    /// Panics if `ranks < 3` (need engine + worker + server).
    pub fn new(ranks: usize) -> Self {
        assert!(ranks >= 3, "need at least 3 ranks (engine, worker, server)");
        Runtime {
            ranks,
            servers: 1,
            engines: 1,
            policy: InterpPolicy::Retain,
            steal: true,
            batching: None,
            replication: None,
            re_replication: None,
            checkpoint: None,
            resume: false,
            checkpoint_store: None,
            retry: adlb::RetryPolicy::default(),
            faults: FaultPlan::new(),
            tracing: false,
            natives: Vec::new(),
            tcl_packages: Vec::new(),
            args: Vec::new(),
            tenants: Vec::new(),
        }
    }

    /// Set the number of ADLB servers.
    pub fn servers(mut self, n: usize) -> Self {
        self.servers = n;
        self
    }

    /// Set the number of engines.
    pub fn engines(mut self, n: usize) -> Self {
        self.engines = n;
        self
    }

    /// Set the §III.C interpreter policy.
    pub fn policy(mut self, p: InterpPolicy) -> Self {
        self.policy = p;
        self
    }

    /// Enable/disable ADLB work stealing (ablation switch).
    pub fn work_stealing(mut self, on: bool) -> Self {
        self.steal = on;
        self
    }

    /// Enable/disable client-side wire batching — get prefetch and put
    /// pipelining (ablation switch E5). Off recovers the PR 1
    /// one-task-per-round-trip protocol. When not set explicitly, the
    /// `SWIFTT_BATCHING` environment variable (`0`/`off`/`false` to
    /// disable) chooses, defaulting to on — this is how the CI
    /// fault-matrix sweeps configurations without code changes.
    pub fn batching(mut self, on: bool) -> Self {
        self.batching = Some(on);
        self
    }

    /// Copies of each ADLB server's recoverable state (data-store shard,
    /// queues, leases), counting the primary. With `r >= 2` the run
    /// survives the death of `r - 1` servers: a ring successor promotes
    /// the replica and serves the dead server's shard and clients. `1`
    /// disables replication (a dead server's shard is lost and the run
    /// winds down with a diagnosis). Default: 2 when the machine has more
    /// than one server, else 1. When not set explicitly, the
    /// `SWIFTT_REPLICATION` environment variable chooses instead (clamped
    /// to the server count, so a matrix sweep can export it globally).
    ///
    /// # Panics
    /// Panics (at run time) if `r` is 0 or exceeds the server count.
    pub fn replication(mut self, r: usize) -> Self {
        self.replication = Some(r);
        self
    }

    /// Enable/disable post-failover re-replication (ablation switch).
    /// On (the default), a survivor that promotes a dead server's shard
    /// streams the missing replica state to the recomputed ring
    /// successors in bounded chunks, restoring the replication factor
    /// mid-run — so a later server death (after the sync completes) is
    /// also survivable. Off recovers the PR 3 behavior: the ring shrinks
    /// and R stays degraded until the run ends. When not set explicitly,
    /// the `SWIFTT_REREPLICATION` environment variable (`0`/`off`/`false`
    /// to disable) chooses, defaulting to on.
    pub fn re_replication(mut self, on: bool) -> Self {
        self.re_replication = Some(on);
        self
    }

    /// Enable the durable checkpoint/WAL tier: every server appends its
    /// shard mutations to a write-ahead log on the simulated parallel
    /// filesystem, flushed every `interval` logged operations and
    /// periodically compacted into checkpoint segments. While the tier is
    /// on, a shard that loses *all* its in-memory holders (even with
    /// `replication(1)`) is restored from the filesystem instead of
    /// aborting the run. `0` disables the tier. When not set explicitly,
    /// the `SWIFTT_CHECKPOINT` environment variable chooses: `off`/`0`
    /// disables, `on` enables at the default interval, a number sets the
    /// interval (so `SWIFTT_CHECKPOINT=1` forces a flush per logged op —
    /// the per-task-logging worst case). Default: off.
    pub fn checkpoint(mut self, interval: usize) -> Self {
        self.checkpoint = Some(interval);
        self
    }

    /// Resume a previous run from its durable checkpoints: at startup
    /// every server restores its shard from the checkpoint store before
    /// serving (servers whose shard was subsumed into a peer's checkpoint
    /// follow the redirect and carve their part back out). Requires
    /// [`Runtime::checkpoint`] to be on and a [`Runtime::checkpoint_store`]
    /// holding the previous run's state — with a fresh store this is a
    /// no-op and the run starts empty. Replayed client requests dedup
    /// against durably recorded responses, so effects are exactly-once
    /// across the two runs.
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Use a specific [`Pfs`] instance as the checkpoint store instead of
    /// a private default one. This is how state crosses runs: keep the
    /// `Arc` (or serialize it with [`Pfs::dump`] / revive it with
    /// [`Pfs::restore`]) and hand it to the next run together with
    /// [`Runtime::resume`].
    pub fn checkpoint_store(mut self, fs: Arc<Pfs>) -> Self {
        self.checkpoint_store = Some(fs);
        self
    }

    /// Inject faults (rank kills, message drops/delays) from a
    /// [`FaultPlan`]. Ranks killed by the plan unwind quietly; the run
    /// completes on the survivors and reports the dead ranks in
    /// [`RunResult::killed_ranks`].
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Enable task-lifecycle tracing. Every rank records lifecycle spans
    /// (put, queue wait, delivery, eval, rule firings, steals,
    /// replication syncs, failover recovery) on its own monotonic clock;
    /// the merged timeline lands in [`RunResult::traces`] with latency
    /// percentiles distilled into [`RunResult::latency`], and
    /// [`RunResult::write_trace`] exports Chrome trace-event JSON. Off
    /// (the default), recording is a no-op and costs nothing measurable.
    pub fn tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Retry budget for failed or orphaned tasks: a task is requeued up to
    /// `k` times before the servers quarantine it.
    pub fn max_retries(mut self, k: u32) -> Self {
        self.retry.max_retries = k;
        self
    }

    /// Full control over the ADLB servers' [`adlb::RetryPolicy`].
    pub fn retry_policy(mut self, policy: adlb::RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Register a native library (§III.B): its functions become callable
    /// from leaf templates after `package require <name>` — which the
    /// template's package declaration emits automatically.
    pub fn native_library(mut self, lib: NativeLibrary) -> Self {
        self.natives.push(lib);
        self
    }

    /// Register an in-memory Tcl package (§III.A third benefit: "existing
    /// components built in Tcl can easily be brought into Swift").
    pub fn tcl_package(
        mut self,
        name: impl Into<String>,
        version: impl Into<String>,
        source: impl Into<String>,
    ) -> Self {
        self.tcl_packages
            .push((name.into(), version.into(), source.into()));
        self
    }

    /// Pass a program argument, readable from Swift as `argv("key")` (the
    /// Swift/K-heritage argument interface).
    pub fn arg(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.args.push((key.into(), value.into()));
        self
    }

    /// Queue a tenant program for a multi-tenant run: `name` labels it in
    /// reports, `weight` is its fair share under the servers' weighted
    /// round-robin (relative to the other tenants), and `quota` caps its
    /// queued tasks / in-flight leases (unlimited when `None`). Tenants
    /// run with [`Runtime::run_tenants`]; tenant `i` (in submission
    /// order) gets engine rank `i` to itself while the worker and server
    /// fleets are shared by everyone.
    pub fn submit(
        mut self,
        name: impl Into<String>,
        weight: u32,
        quota: Option<TenantQuota>,
        swift_source: impl Into<String>,
    ) -> Self {
        self.tenants.push(TenantJob {
            name: name.into(),
            weight,
            quota,
            source: swift_source.into(),
        });
        self
    }

    /// Number of worker ranks in this configuration.
    pub fn workers(&self) -> usize {
        self.ranks - self.servers - self.engines
    }

    /// Reject unsatisfiable machine shapes *before* any rank starts.
    /// `engines` is the effective engine count (the builder's, or one per
    /// program in a multi-tenant run).
    fn validate_config(&self, engines: usize) -> Result<(), SwiftTError> {
        let fail = |m: String| Err(SwiftTError::Config(m));
        if self.servers == 0 {
            return fail(format!(
                "need at least one ADLB server (servers = 0, ranks = {}); \
                 checkpointing, data storage and scheduling all live on servers",
                self.ranks
            ));
        }
        if self.servers >= self.ranks {
            return fail(format!(
                "{} server(s) leave no client ranks in a world of {}",
                self.servers, self.ranks
            ));
        }
        if engines == 0 {
            return fail("need at least one engine rank".to_string());
        }
        let clients = self.ranks - self.servers;
        if clients <= engines {
            return fail(format!(
                "no worker ranks: {} ranks minus {} server(s) minus {} engine(s) \
                 leaves no one to execute leaf tasks",
                self.ranks, self.servers, engines
            ));
        }
        if let Some(r) = self.replication {
            if r == 0 {
                return fail("replication factor must be at least 1 (the primary)".to_string());
            }
            if r > self.servers {
                return fail(format!(
                    "replication {r} exceeds the server count {}: each copy \
                     needs its own server rank",
                    self.servers
                ));
            }
        }
        if self.resume && self.effective_checkpoint().is_none() {
            return fail(
                "resume requires the checkpoint tier: enable checkpoint(interval) \
                 (or SWIFTT_CHECKPOINT) so there is a durable image to resume from"
                    .to_string(),
            );
        }
        for job in &self.tenants {
            if let Some(q) = &job.quota {
                if q.max_queued == Some(0) {
                    return fail(format!(
                        "tenant \"{}\": max_queued quota of 0 would reject every put",
                        job.name
                    ));
                }
                if q.max_leases == Some(0) {
                    return fail(format!(
                        "tenant \"{}\": max_leases quota of 0 could never deliver a task",
                        job.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// The effective replication factor: the explicit setting, else the
    /// `SWIFTT_REPLICATION` environment variable (clamped to the server
    /// count so a global matrix export never breaks 1-server machines),
    /// else the default of 2 whenever more than one server can hold a
    /// copy.
    fn effective_replication(&self) -> usize {
        let r = self
            .replication
            .or_else(|| {
                std::env::var("SWIFTT_REPLICATION")
                    .ok()
                    .and_then(|v| v.parse::<usize>().ok())
                    .map(|r| r.clamp(1, self.servers))
            })
            .unwrap_or(if self.servers > 1 { 2 } else { 1 });
        assert!(r >= 1, "replication factor must be at least 1");
        assert!(
            r <= self.servers,
            "replication {r} exceeds the server count {}",
            self.servers
        );
        r
    }

    /// The effective batching switch: the explicit setting, else the
    /// `SWIFTT_BATCHING` environment variable, else on.
    fn effective_batching(&self) -> bool {
        self.batching.unwrap_or_else(|| {
            !std::env::var("SWIFTT_BATCHING")
                .map(|v| matches!(v.as_str(), "0" | "off" | "false"))
                .unwrap_or(false)
        })
    }

    /// The effective re-replication switch: the explicit setting, else
    /// the `SWIFTT_REREPLICATION` environment variable, else on.
    fn effective_re_replication(&self) -> bool {
        self.re_replication.unwrap_or_else(|| {
            !std::env::var("SWIFTT_REREPLICATION")
                .map(|v| matches!(v.as_str(), "0" | "off" | "false"))
                .unwrap_or(false)
        })
    }

    /// The effective checkpoint interval: the explicit setting, else the
    /// `SWIFTT_CHECKPOINT` environment variable, else off. `None` = tier
    /// disabled.
    fn effective_checkpoint(&self) -> Option<usize> {
        let interval = self.checkpoint.or_else(|| {
            std::env::var("SWIFTT_CHECKPOINT")
                .ok()
                .map(|v| match v.as_str() {
                    "off" | "false" | "0" => 0,
                    "on" | "true" => adlb::CHECKPOINT_DEFAULT_INTERVAL,
                    s => s.parse::<usize>().unwrap_or(0),
                })
        })?;
        (interval > 0).then_some(interval)
    }

    fn turbine_config(&self) -> TurbineConfig {
        let checkpoint = self.effective_checkpoint().map(|interval| {
            let fs = self
                .checkpoint_store
                .clone()
                .unwrap_or_else(|| Arc::new(Pfs::new(PfsConfig::default())));
            adlb::CheckpointConfig::new(fs)
                .interval(interval)
                .resume(self.resume)
        });
        TurbineConfig {
            servers: self.servers,
            engines: self.engines,
            policy: self.policy,
            server: adlb::ServerConfig {
                steal_enabled: self.steal,
                retry: self.retry,
                replication: self.effective_replication(),
                re_replicate: self.effective_re_replication(),
                checkpoint,
                ..adlb::ServerConfig::default()
            },
            batching: self.effective_batching(),
        }
    }

    /// Compile and run Swift source on this machine.
    pub fn run(&self, swift_source: &str) -> Result<RunResult, SwiftTError> {
        let program = stc::compile(swift_source)?;
        self.run_turbine(TurbineProgram {
            preamble: program.preamble,
            main: program.main,
            args: self.args.clone(),
        })
    }

    /// Run already-compiled (or hand-written) Turbine code. A solo run is
    /// tenant 0 of a one-tenant run on every engine of the machine; the
    /// failure its tenant would report fails the run instead.
    pub fn run_turbine(&self, program: TurbineProgram) -> Result<RunResult, SwiftTError> {
        let mut result =
            self.run_programs(self.engines, vec![(TenantSpec::new(0, "main"), program)])?;
        match result.tenants.pop().and_then(|t| t.error) {
            Some(e) => Err(SwiftTError::Runtime(e)),
            None => Ok(result),
        }
    }

    /// Compile every program queued with [`Runtime::submit`] and run them
    /// concurrently over one shared machine: tenant `i` gets engine rank
    /// `i`, the servers schedule leaf work across tenants by weight and
    /// enforce each tenant's quota, and the workers execute everyone's
    /// tasks in per-tenant interpreters. Per-tenant output, accounting and
    /// latency land in [`RunResult::tenants`]; a tenant's program failure
    /// is contained there instead of failing the run.
    pub fn run_tenants(&self) -> Result<RunResult, SwiftTError> {
        if self.tenants.is_empty() {
            return Err(SwiftTError::Config(
                "no tenant programs: submit() at least one before run_tenants()".to_string(),
            ));
        }
        let mut programs = Vec::with_capacity(self.tenants.len());
        for (i, job) in self.tenants.iter().enumerate() {
            let compiled = stc::compile(&job.source)?;
            let mut spec = TenantSpec::new(i as u32, &job.name).weight(job.weight);
            if let Some(q) = job.quota {
                spec = spec.quota(q);
            }
            programs.push((
                spec,
                TurbineProgram {
                    preamble: compiled.preamble,
                    main: compiled.main,
                    args: self.args.clone(),
                },
            ));
        }
        self.run_turbine_tenants(programs)
    }

    /// Multi-tenant analogue of [`Runtime::run_turbine`]: run
    /// already-compiled programs, one per tenant. The builder's engine
    /// count is ignored — multi-tenant runs use exactly one engine per
    /// program.
    pub fn run_turbine_tenants(
        &self,
        programs: Vec<(TenantSpec, TurbineProgram)>,
    ) -> Result<RunResult, SwiftTError> {
        self.run_programs(programs.len(), programs)
    }

    /// The one run path: execute `programs` on a machine with `engines`
    /// engine ranks and assemble the result, with one report per program
    /// in [`RunResult::tenants`]. A program whose first engine (rank `i`
    /// for `programs[i]`) was killed cannot have finished, so that death
    /// is its error.
    fn run_programs(
        &self,
        engines: usize,
        programs: Vec<(TenantSpec, TurbineProgram)>,
    ) -> Result<RunResult, SwiftTError> {
        self.validate_config(engines)?;
        let mut config = self.turbine_config();
        config.engines = engines;
        let setup = self.interp_setup();
        let start = Instant::now();
        let world = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            World::run_faulty_traced(self.ranks, &self.faults, self.tracing, |comm| {
                turbine::run_rank_tenants(comm, &config, &programs, &setup)
            })
        }));
        let elapsed = start.elapsed();
        let outcome = world.map_err(|p| {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "rank panicked".to_string());
            SwiftTError::Runtime(msg)
        })?;
        let per_rank = outcome.outputs;

        // Streams accumulated on the server tier recover what a killed
        // rank shipped before dying; for survivors the locally captured
        // stdout is authoritative (and, fault free, identical to the
        // streamed copy).
        let mut streamed: HashMap<usize, BTreeMap<u32, String>> = HashMap::new();
        let mut truncated: Vec<usize> = Vec::new();
        let mut rows: Vec<(u32, TenantStats)> = Vec::new();
        for o in per_rank.iter().flatten() {
            for (r, t, s) in &o.server_streams {
                let e = streamed.entry(*r).or_default().entry(*t).or_default();
                if s.len() > e.len() {
                    s.clone_into(e);
                }
            }
            truncated.extend(o.truncated_streams.iter().copied());
            // Per-tenant accounting rows, merged across servers.
            merge_tenant_rows(&mut rows, &o.tenant_rows);
        }
        truncated.sort_unstable();
        truncated.dedup();
        let contended_total: u64 = rows.iter().map(|(_, s)| s.delivered_contended).sum();

        let mut reports = Vec::with_capacity(programs.len());
        for (index, (spec, _)) in programs.iter().enumerate() {
            // Per-tenant stdout in rank order: a survivor's locally
            // captured per-tenant buffer is authoritative; a killed
            // rank's contribution is what it streamed to the servers
            // under this tenant's tag.
            let mut stdout = String::new();
            for (rank, o) in per_rank.iter().enumerate() {
                let s = match o {
                    Some(ro) => ro
                        .tenant_stdout
                        .iter()
                        .find(|(t, _)| *t == spec.id)
                        .map(|(_, s)| s),
                    None => streamed.get(&rank).and_then(|m| m.get(&spec.id)),
                };
                stdout.push_str(s.map_or("", String::as_str));
            }
            let stats = rows
                .iter()
                .find(|(t, _)| *t == spec.id)
                .map(|(_, s)| *s)
                .unwrap_or_default();
            let share_of_delivered = (contended_total > 0)
                .then(|| stats.delivered_contended as f64 / contended_total as f64);
            // The program's first contained error in rank order (its
            // engines come first, then each worker's first error for it),
            // except that a dataflow deadlock yields to any other error:
            // a worker's failed one-way store leaves a future open, and
            // the worker's error is the diagnosis.
            let contained: Vec<&String> = per_rank
                .iter()
                .flatten()
                .flat_map(|o| o.tenant_errors.iter())
                .filter(|(t, _)| *t == spec.id)
                .map(|(_, e)| e)
                .collect();
            let contained = contained
                .iter()
                .find(|e| !turbine::is_deadlock(e))
                .or(contained.first())
                .map(|e| e.to_string());
            // A killed first engine fails its program conservatively,
            // even if the kill landed after its last rule fired.
            let died = per_rank[index].is_none().then(|| {
                let e = format!("engine rank {index} died before its program finished");
                if programs.len() > 1 {
                    format!("tenant {}: {e}", spec.id)
                } else {
                    e
                }
            });
            let latency = if self.tracing {
                LatencyStats::from_durations(tenant_task_durations(&outcome.traces, spec.id))
            } else {
                None
            };
            reports.push(TenantReport {
                id: spec.id,
                name: spec.name.clone(),
                weight: spec.weight,
                stdout,
                stats,
                share_of_delivered,
                latency,
                error: died.or(contained),
            });
        }

        let roles = (0..self.ranks)
            .map(|r| config.role(self.ranks, r))
            .collect();
        let latency = if self.tracing {
            Some(LatencyReport::from_traces(&outcome.traces))
        } else {
            None
        };
        Ok(RunResult {
            // The rank-order stdout would interleave tenants arbitrarily;
            // tenant-order concatenation is the deterministic view.
            stdout: reports.iter().map(|r| r.stdout.as_str()).collect(),
            outputs: per_rank.into_iter().flatten().collect(),
            elapsed,
            messages: outcome.stats.messages,
            bytes: outcome.stats.bytes,
            killed_ranks: outcome.killed,
            truncated_streams: truncated,
            roles,
            traces: outcome.traces,
            latency,
            tenants: reports,
        })
    }

    /// The engine/worker interpreter setup hook: native libraries
    /// (§III.B) and in-memory Tcl packages.
    fn interp_setup(&self) -> impl Fn(&mut tclish::Interp) + '_ {
        move |interp: &mut tclish::Interp| {
            for lib in &self.natives {
                lib.install(interp);
            }
            for (name, version, source) in &self.tcl_packages {
                interp.add_package(
                    name,
                    version,
                    PackageInit::Script(std::rc::Rc::from(source.as_str())),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::{NativeArg, NativeLibrary};

    #[test]
    fn workers_count() {
        let rt = Runtime::new(10).servers(2).engines(2);
        assert_eq!(rt.workers(), 6);
    }

    #[test]
    fn native_library_from_swift_leaf() {
        // The paper's Fig. 3 flow: native function → Tcl binding →
        // Swift leaf function → Swift program.
        let lib = NativeLibrary::new("mathlib", "1.0").function("hypot", |args| {
            Ok(NativeArg::Float(args[0].as_f64()?.hypot(args[1].as_f64()?)))
        });
        let r = Runtime::new(3)
            .native_library(lib)
            .run(
                r#"
                (float o) hypot (float x, float y) "mathlib" "1.0" [
                    "set <<o>> [ mathlib::hypot <<x>> <<y>> ]"
                ];
                float h = hypot(3.0, 4.0);
                printf("h = %.1f", h);
            "#,
            )
            .unwrap();
        assert_eq!(r.stdout, "h = 5.0\n");
        // Two worker tasks: the hypot leaf and the printf.
        assert_eq!(r.total_tasks(), 2);
    }

    #[test]
    fn tcl_package_from_swift_leaf() {
        let r = Runtime::new(3)
            .tcl_package(
                "my_package",
                "1.0",
                "proc my_package::f {a b} { return [expr {$a * 100 + $b}] }",
            )
            .run(
                r#"
                (int o) f (int i, int j) "my_package" "1.0" [
                    "set <<o>> [ my_package::f <<i>> <<j>> ]"
                ];
                int v = f(4, 2);
                printf("%d", v);
            "#,
            )
            .unwrap();
        assert_eq!(r.stdout, "402\n");
    }

    #[test]
    fn solo_multi_engine_main_error_ends_the_run_with_it() {
        // Engine 0 fails in main after spawning work; engine 1 never runs
        // main. The error is contained until global termination, then
        // fails the run: it must end, not hang, and carry the diagnosis.
        let err = Runtime::new(5)
            .engines(2)
            .run_turbine(TurbineProgram {
                preamble: String::new(),
                main: "turbine::spawn work 0 {puts before}; no_such_command_anywhere".into(),
                args: Vec::new(),
            })
            .unwrap_err();
        match err {
            SwiftTError::Runtime(m) => assert!(
                m.contains("program main failed") && m.contains("no_such_command_anywhere"),
                "{m}"
            ),
            other => panic!("expected a runtime error, got {other:?}"),
        }
    }

    #[test]
    fn reinitialize_policy_isolation() {
        // Two python() calls; under Reinitialize the second can't see the
        // first's state, so it must fail. Task errors are *contained*:
        // the NameError task is retried to the budget and quarantined
        // instead of crashing the worker rank — so the machine terminates
        // cleanly and the engine reports the never-satisfied printf as a
        // dataflow deadlock.
        // `b`'s code input depends on `a`, forcing task order a → b on the
        // single worker; only the retained interpreter still has `leak`.
        let src = r#"
            string a = python("leak = 5", "leak");
            string b = python(a, "leak + 1");
            printf("%s %s", a, b);
        "#;
        let retained = Runtime::new(3).policy(InterpPolicy::Retain).run(src);
        assert!(retained.is_ok(), "retain keeps state: {retained:?}");
        assert_eq!(retained.unwrap().stdout, "5 6\n");
        let reinit = Runtime::new(3).policy(InterpPolicy::Reinitialize).run(src);
        match reinit {
            Err(SwiftTError::Runtime(m)) => {
                assert!(m.contains("deadlock"), "quarantine leaves b unfilled: {m}")
            }
            other => panic!("expected dataflow deadlock under Reinitialize, got {other:?}"),
        }
    }
}
