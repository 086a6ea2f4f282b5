//! Per-rank driver: role assignment, program startup, engine loop, output
//! collection.
//!
//! This is the analogue of `turbine::start`: given compiled programs
//! (each a preamble of proc definitions + a main body; a solo run is one
//! program), each rank takes its role from the layout (Fig. 2) and runs
//! to global termination.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use adlb::{AdlbClient, Layout, ServerConfig, ServerStats, TenantSpec, TenantStats};
use mpisim::{Comm, Rank};
use tclish::Interp;

use crate::commands::{self, Ctx, SharedCtx};
use crate::types::InterpPolicy;
use crate::worker;

/// The role a rank plays (Fig. 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Evaluates Swift logic: rules, control actions.
    Engine,
    /// Executes leaf tasks.
    Worker,
    /// ADLB server: queues, data store, load balancing.
    Server,
}

/// Machine configuration for a run.
#[derive(Debug, Clone)]
pub struct TurbineConfig {
    /// Number of ADLB server ranks (at the top of the rank space).
    pub servers: usize,
    /// Number of engine ranks (at the bottom of the rank space). Engine 0
    /// evaluates the program's main body.
    pub engines: usize,
    /// §III.C interpreter policy on workers.
    pub policy: InterpPolicy,
    /// ADLB server tunables.
    pub server: ServerConfig,
    /// Client-side wire batching: get prefetch and put pipelining. On by
    /// default; switch off (the E5 ablation) to recover the PR 1
    /// one-task-per-round-trip protocol.
    pub batching: bool,
}

impl Default for TurbineConfig {
    fn default() -> Self {
        TurbineConfig {
            servers: 1,
            engines: 1,
            policy: InterpPolicy::Retain,
            server: ServerConfig::default(),
            batching: true,
        }
    }
}

impl TurbineConfig {
    /// The ADLB client knobs implied by [`TurbineConfig::batching`]:
    /// prefetch batches of tasks and pipeline puts when on, PR 1 wire
    /// behavior when off. Puts from engines and workers are always safe to
    /// buffer because every blocking client operation flushes them first.
    pub fn client_config(&self) -> adlb::ClientConfig {
        if self.batching {
            adlb::ClientConfig {
                prefetch: 8,
                put_buffer: 16,
                // Stdout chunks ship to the server as soon as a loop
                // iteration produces them: buffering would widen the
                // window of output a rank death can lose.
                output_buffer: 0,
            }
        } else {
            adlb::ClientConfig::unbatched()
        }
    }
}

impl TurbineConfig {
    /// The ADLB layout for a world of `size` ranks.
    pub fn layout(&self, size: usize) -> Layout {
        Layout::new(size, self.servers)
    }

    /// The role of `rank` in a world of `size` ranks.
    pub fn role(&self, size: usize, rank: Rank) -> Role {
        let layout = self.layout(size);
        if layout.is_server(rank) {
            Role::Server
        } else if rank < self.engines {
            Role::Engine
        } else {
            Role::Worker
        }
    }

    /// Validate against a world size: need at least one engine, and a
    /// worker if any leaf tasks are to run.
    pub fn validate(&self, size: usize) {
        let clients = size - self.servers;
        assert!(self.engines >= 1, "need at least one engine");
        assert!(
            clients > self.engines,
            "need at least one worker rank (size {size}, servers {}, engines {})",
            self.servers,
            self.engines
        );
    }
}

/// A compiled Turbine program.
#[derive(Debug, Clone, Default)]
pub struct TurbineProgram {
    /// Proc definitions and package setup; evaluated on every engine and
    /// worker before any task runs.
    pub preamble: String,
    /// The program body; evaluated by the program's first engine only.
    pub main: String,
    /// Program arguments, readable via `turbine::argv` / Swift `argv()`.
    pub args: Vec<(String, String)>,
}

/// What one rank reports after the run.
#[derive(Debug, Clone)]
pub struct RankOutput {
    /// The role this rank played.
    pub role: Role,
    /// Everything the rank's interpreter wrote via `puts` (and embedded
    /// interpreter output).
    pub stdout: String,
    /// Leaf tasks executed (workers).
    pub tasks_executed: u64,
    /// Leaf tasks that failed in a contained way (workers).
    pub tasks_failed: u64,
    /// Rules created (engines).
    pub rules_created: u64,
    /// Rules fired (engines).
    pub rules_fired: u64,
    /// Python/R interpreter initializations.
    pub interp_inits: u64,
    /// Server statistics (servers only).
    pub server_stats: Option<ServerStats>,
    /// Per-client stdout streams this rank accumulated (servers only),
    /// keyed by (client rank, tenant): everything each engine/worker
    /// shipped via the incremental output stream, which survives the
    /// producing rank's death.
    pub server_streams: Vec<(Rank, u32, String)>,
    /// Client ranks whose stream is known-incomplete — the rank died
    /// mid-run (servers only).
    pub truncated_streams: Vec<Rank>,
    /// Per-tenant scheduling/admission accounting (servers only).
    pub tenant_rows: Vec<(u32, TenantStats)>,
    /// Per-tenant stdout captured locally on this rank (engines and
    /// workers). [`RankOutput::stdout`] is the concatenation in tenant
    /// order.
    pub tenant_stdout: Vec<(u32, String)>,
    /// The first error this rank contained for each tenant, in tenant
    /// order. An engine serves one program, so it has at most one; a
    /// worker serves every tenant, so one error per rank would hide the
    /// others.
    pub tenant_errors: Vec<(u32, String)>,
}

impl RankOutput {
    /// A zeroed report for `role`; callers fill in what they measured.
    pub fn empty(role: Role) -> Self {
        RankOutput {
            role,
            stdout: String::new(),
            tasks_executed: 0,
            tasks_failed: 0,
            rules_created: 0,
            rules_fired: 0,
            interp_inits: 0,
            server_stats: None,
            server_streams: Vec::new(),
            truncated_streams: Vec::new(),
            tenant_rows: Vec::new(),
            tenant_stdout: Vec::new(),
            tenant_errors: Vec::new(),
        }
    }
}

/// Ships the interpreter's captured stdout to the ADLB server tier in
/// increments: everything `puts` appended since the last ship goes out as
/// one fire-and-forget `Output` message. Called before each blocking
/// `get`, so a rank death can only lose the output of the task it was
/// actively running — everything earlier already lives on (and is
/// replicated by) its server.
pub struct OutputStreamer {
    buf: Rc<RefCell<String>>,
    shipped: usize,
}

impl OutputStreamer {
    /// Stream increments of `buf` (an [`Interp::capture_output`] buffer).
    pub fn new(buf: Rc<RefCell<String>>) -> Self {
        OutputStreamer { buf, shipped: 0 }
    }

    /// Ship whatever was appended since the last call.
    pub fn ship(&mut self, client: &mut AdlbClient) {
        let b = self.buf.borrow();
        if b.len() > self.shipped {
            client.send_output(&b[self.shipped..]);
            self.shipped = b.len();
        }
    }
}

/// Build one engine/worker interpreter: `turbine::*` commands, the host
/// `setup` hook, the runtime library, and `preamble`. A preamble error is
/// returned (not panicked) so it stays contained to its program.
fn build_interp(
    ctx: &SharedCtx,
    config: &TurbineConfig,
    size: usize,
    preamble: &str,
    setup: &impl Fn(&mut Interp),
) -> (Interp, Rc<RefCell<String>>, Option<String>) {
    let mut interp = Interp::new();
    let buf = interp.capture_output();
    commands::register(&mut interp, ctx.clone());
    setup(&mut interp);
    // The runtime library plus the program's own definitions are an
    // in-memory "static package" (§IV): no filesystem involved.
    crate::library::load(&mut interp);
    let mut err = None;
    if !preamble.is_empty() {
        if let Err(e) = interp.eval(preamble) {
            err = Some(format!("program preamble failed: {e}"));
        }
    }
    interp.set_var("turbine::n_engines", config.engines.to_string());
    interp.set_var(
        "turbine::n_workers",
        (size - config.servers - config.engines).to_string(),
    );
    (interp, buf, err)
}

/// Run one rank of the machine to global termination: `programs[i]` runs
/// as tenant `programs[i].0.id` over the shared worker and server fleet.
/// A solo run is a one-tenant run.
///
/// Engines map onto programs by one rule: with one engine per program,
/// engine `i` serves `programs[i]`; with a single program, every engine
/// serves it. Either way engine rank `i` is the first engine of program
/// `i` and the only one that evaluates its `main`.
///
/// `setup` customizes each engine/worker interpreter after the
/// `turbine::*` commands are registered — this is where the host attaches
/// native libraries (the SWIG path of §III.B) and extra in-memory Tcl
/// packages.
///
/// Program errors do not panic the world: each is contained to its own
/// program and reported in [`RankOutput::tenant_errors`], so one broken
/// program cannot take its neighbors down.
pub fn run_rank_tenants(
    comm: Comm,
    config: &TurbineConfig,
    programs: &[(TenantSpec, TurbineProgram)],
    setup: impl Fn(&mut Interp),
) -> RankOutput {
    let size = comm.size();
    config.validate(size);
    assert!(
        programs.len() == config.engines || programs.len() == 1,
        "need one program, or one engine per program ({} engines, {} programs)",
        config.engines,
        programs.len()
    );
    let rank = comm.rank();
    let role = config.role(size, rank);
    let layout = config.layout(size);
    // In a world of several programs, every error names its tenant.
    let charge = |tenant: u32, e: String| {
        if programs.len() > 1 {
            (tenant, format!("tenant {tenant}: {e}"))
        } else {
            (tenant, e)
        }
    };

    if role == Role::Server {
        let mut server_cfg = config.server.clone();
        server_cfg.tenants = programs.iter().map(|(s, _)| s.clone()).collect();
        let outcome = adlb::serve_ext(comm, layout, server_cfg);
        return RankOutput {
            server_stats: Some(outcome.stats),
            server_streams: outcome.streams,
            truncated_streams: outcome.truncated,
            tenant_rows: outcome.tenant_rows,
            ..RankOutput::empty(role)
        };
    }

    let client = AdlbClient::with_config(comm, layout, config.client_config());
    let ctx = Ctx::new(client, role == Role::Engine, config.policy);

    match role {
        Role::Engine => {
            let index = if programs.len() == 1 { 0 } else { rank };
            let (spec, program) = &programs[index];
            let tenant = spec.id;
            {
                let mut c = ctx.borrow_mut();
                c.args = program.args.iter().cloned().collect();
                c.client.set_tenant(tenant);
                c.client.set_get_filter(Some(tenant));
            }
            let (mut interp, buf, mut error) =
                build_interp(&ctx, config, size, &program.preamble, &setup);
            let mut stream = OutputStreamer::new(buf.clone());
            // A failed main is contained: the engine keeps serving its
            // notifications to global termination so the rest of the
            // world is undisturbed.
            if error.is_none() && rank == index {
                if let Err(e) = interp.eval(&program.main) {
                    error = Some(format!("program main failed: {e}"));
                }
            }
            engine_loop_contained(&mut interp, &ctx, &mut stream, &mut error);
            let c = ctx.borrow();
            let stdout = buf.borrow().clone();
            RankOutput {
                stdout: stdout.clone(),
                rules_created: c.engine.rules_created,
                rules_fired: c.engine.rules_fired,
                interp_inits: c.interp_inits,
                tenant_stdout: vec![(tenant, stdout)],
                tenant_errors: error.map(|e| charge(tenant, e)).into_iter().collect(),
                ..RankOutput::empty(role)
            }
        }
        Role::Worker => {
            let program_of = |tenant: u32| {
                programs
                    .iter()
                    .find(|(s, _)| s.id == tenant)
                    .map(|(_, p)| p)
            };
            let mut errors: BTreeMap<u32, String> = BTreeMap::new();
            let mut bufs: Vec<(u32, Rc<RefCell<String>>)> = Vec::new();
            let deferred = {
                let mut build = |tenant: u32| {
                    let preamble = program_of(tenant).map_or("", |p| p.preamble.as_str());
                    let (interp, buf, err) = build_interp(&ctx, config, size, preamble, &setup);
                    if let Some(e) = err {
                        errors.insert(tenant, e);
                    }
                    bufs.push((tenant, buf.clone()));
                    (interp, OutputStreamer::new(buf))
                };
                let args_of = |tenant: u32| {
                    program_of(tenant)
                        .map(|p| p.args.iter().cloned().collect())
                        .unwrap_or_default()
                };
                worker::worker_loop_tenants(&ctx, &mut build, &args_of)
            };
            // A tenant whose preamble failed keeps that as its error: it
            // explains whatever else went wrong for the tenant.
            for (tenant, e) in deferred {
                errors.entry(tenant).or_insert(e);
            }
            bufs.sort_by_key(|(t, _)| *t);
            let tenant_stdout: Vec<(u32, String)> = bufs
                .into_iter()
                .map(|(t, b)| (t, b.borrow().clone()))
                .collect();
            let stdout = tenant_stdout.iter().map(|(_, s)| s.as_str()).collect();
            let c = ctx.borrow();
            RankOutput {
                stdout,
                tasks_executed: c.tasks_executed,
                tasks_failed: c.tasks_failed,
                interp_inits: c.interp_inits,
                tenant_stdout,
                tenant_errors: errors.into_iter().map(|(t, e)| charge(t, e)).collect(),
                ..RankOutput::empty(role)
            }
        }
        Role::Server => unreachable!(),
    }
}

/// How an engine's dataflow-deadlock report begins.
const DEADLOCK: &str = "dataflow deadlock: ";

/// Whether a contained program error is an engine's dataflow-deadlock
/// report. A deadlock is a symptom: any other error of the same program
/// (e.g. a worker's failed one-way store that left a future open)
/// explains it better.
pub fn is_deadlock(error: &str) -> bool {
    let bare = error
        .strip_prefix("tenant ")
        .and_then(|r| r.split_once(": "))
        .map_or(error, |(_, r)| r);
    bare.starts_with(DEADLOCK)
}

/// The engine loop: drain locally ready actions, then block on control
/// tasks and data-close notifications until global termination. Output
/// produced so far streams to the server tier before each blocking get.
///
/// Evaluation errors are *contained*: recorded in `error` (first one
/// wins) while the engine keeps serving notifications and control tasks
/// to global termination, so a broken program cannot stall or abort its
/// neighbors. A dataflow deadlock at termination is only reported when no
/// earlier error explains it.
fn engine_loop_contained(
    interp: &mut Interp,
    ctx: &SharedCtx,
    stream: &mut OutputStreamer,
    error: &mut Option<String>,
) {
    let note = |error: &mut Option<String>, e: String| {
        if error.is_none() {
            *error = Some(e);
        }
    };
    loop {
        loop {
            let action = ctx.borrow_mut().engine.ready.pop_front();
            match action {
                Some(a) => {
                    if let Err(e) = interp.eval(&a) {
                        note(error, format!("rule action failed: {e}"));
                    }
                }
                None => break,
            }
        }
        stream.ship(&mut ctx.borrow_mut().client);
        let task = ctx
            .borrow_mut()
            .client
            .get(&[adlb::WORK_TYPE_CONTROL, adlb::WORK_TYPE_NOTIFY]);
        // A one-way data op (e.g. a store) that failed on the server: the
        // same program error an awaited store would have raised in place.
        // All of an engine's ops are its own program's: one is enough.
        if let Some((_, e)) = ctx.borrow_mut().take_deferred_errors().into_iter().next() {
            note(error, e);
        }
        match task {
            None => {
                let c = ctx.borrow();
                // An aborted run (a server died with no replica to
                // promote) may look "complete" to the engine — tasks
                // that died with the shard leave no unfired rule behind.
                // The shutdown notice carries the diagnosis; fail the
                // program with it instead of reporting partial output as
                // success.
                if let Some(reason) = c.client.run_aborted() {
                    note(error, format!("run aborted: {reason}"));
                    return;
                }
                // Global termination with rules still waiting means their
                // input futures can never close: a dataflow deadlock in
                // the user program (e.g. reading a never-assigned
                // variable, or a task quarantined after repeated
                // failures). Report it like Swift/T does, with the
                // server's quarantine reports when there are any.
                let waiting = c.engine.rules_waiting();
                if waiting > 0 && error.is_none() {
                    let mut msg = format!(
                        "{DEADLOCK}{waiting} rule(s) never fired; \
                         some futures were never assigned"
                    );
                    for report in c.client.quarantine_reports() {
                        msg.push_str("\n  ");
                        msg.push_str(report);
                    }
                    *error = Some(msg);
                }
                return;
            }
            Some(t) if t.work_type == adlb::WORK_TYPE_NOTIFY => {
                // A malformed notification must not take the engine rank
                // down: skip it and keep serving (the td it named, if
                // any, will be re-learned through the closed-cache on
                // the next subscribe).
                let Some(id) = t
                    .payload
                    .get(..8)
                    .and_then(|b| b.try_into().ok())
                    .map(u64::from_le_bytes)
                else {
                    eprintln!(
                        "turbine engine {}: malformed notify payload ({} bytes); dropped",
                        ctx.borrow().client.rank(),
                        t.payload.len()
                    );
                    continue;
                };
                let dispatches = ctx.borrow_mut().engine.fire(id);
                let mut c = ctx.borrow_mut();
                for d in dispatches {
                    c.perform(d);
                }
            }
            Some(t) => match std::str::from_utf8(&t.payload) {
                Ok(code) => {
                    if let Err(e) = interp.eval(code) {
                        note(error, format!("control task failed: {e}"));
                    }
                }
                Err(_) => note(error, "non-UTF-8 control task".to_string()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::World;

    /// Run a whole machine on one program and check that no rank
    /// recorded a program error; returns concatenated stdout (rank order)
    /// and the per-rank outputs.
    pub fn run_machine(
        size: usize,
        config: TurbineConfig,
        program: TurbineProgram,
    ) -> (String, Vec<RankOutput>) {
        let outs = run_solo(size, config, program);
        for o in &outs {
            assert!(o.tenant_errors.is_empty(), "{:?}", o.tenant_errors);
        }
        let stdout = outs
            .iter()
            .map(|o| o.stdout.as_str())
            .collect::<Vec<_>>()
            .join("");
        (stdout, outs)
    }

    /// Run a whole machine on one program, errors and all.
    fn run_solo(size: usize, config: TurbineConfig, program: TurbineProgram) -> Vec<RankOutput> {
        let programs = [(TenantSpec::new(0, "main"), program)];
        World::run(size, move |comm| {
            run_rank_tenants(comm, &config, &programs, |_| {})
        })
    }

    #[test]
    fn hello_world_from_main() {
        let (stdout, outs) = run_machine(
            3,
            TurbineConfig::default(),
            TurbineProgram {
                preamble: String::new(),
                main: "puts {hello distributed world}".into(),
                args: Vec::new(),
            },
        );
        assert_eq!(stdout, "hello distributed world\n");
        assert_eq!(outs[2].role, Role::Server);
    }

    #[test]
    fn work_task_runs_on_worker() {
        let (_, outs) = run_machine(
            3,
            TurbineConfig::default(),
            TurbineProgram {
                preamble: String::new(),
                main: "turbine::spawn work 0 {puts {from worker}}".into(),
                args: Vec::new(),
            },
        );
        assert_eq!(outs[1].role, Role::Worker);
        assert_eq!(outs[1].stdout, "from worker\n");
        assert_eq!(outs[1].tasks_executed, 1);
    }

    #[test]
    fn dataflow_pipeline_end_to_end() {
        // x -> f(x) on a worker -> printed by a trace rule on the engine.
        let main = r#"
            set x [turbine::unique]; turbine::create $x integer
            set y [turbine::unique]; turbine::create $y integer
            turbine::rule [list $x] "swt:double_task $y $x" work
            turbine::rule [list $y] "swt:trace_body {integer} $y" control
            turbine::store_integer $x 21
        "#;
        let preamble = r#"
            proc swt:double_task {o i} {
                turbine::store_integer $o [expr {2 * [turbine::retrieve_integer $i]}]
            }
        "#;
        let (stdout, outs) = run_machine(
            4,
            TurbineConfig::default(),
            TurbineProgram {
                preamble: preamble.into(),
                main: main.into(),
                args: Vec::new(),
            },
        );
        assert_eq!(stdout, "trace: 42\n");
        let total_tasks: u64 = outs.iter().map(|o| o.tasks_executed).sum();
        assert_eq!(total_tasks, 1);
        assert!(outs[0].rules_fired >= 2);
    }

    #[test]
    fn range_foreach_distributes_chunks() {
        // Sum of squares over [1..32] via distributed chunks feeding a
        // container, printed when the container closes.
        let preamble = r#"
            proc loop_body {i idx c} {
                set t [turbine::unique]; turbine::create $t integer
                turbine::write_refcount_incr $c 1
                swt:container_deferred_insert $c $i $t integer
                turbine::rule {} "swt:square_task $t $i" work
            }
            proc swt:square_task {o i} {
                turbine::store_integer $o [expr {$i * $i}]
            }
            proc report {k v} { }
        "#;
        let main = r#"
            set c [turbine::unique]; turbine::create $c container
            swt:range_foreach loop_body [list $c] [list $c] 1 32 4
            turbine::container_close $c
            turbine::rule [list $c] "print_sum $c" control
            proc print_sum {c} {
                set total 0
                foreach v [turbine::container_values $c] { incr total $v }
                puts "sum=$total"
            }
        "#;
        let (stdout, outs) = run_machine(
            6,
            TurbineConfig {
                engines: 2,
                ..TurbineConfig::default()
            },
            TurbineProgram {
                preamble: preamble.into(),
                main: main.into(),
                args: Vec::new(),
            },
        );
        // 1^2 + ... + 32^2 = 32*33*65/6 = 11440.
        assert_eq!(stdout, "sum=11440\n");
        let tasks: u64 = outs.iter().map(|o| o.tasks_executed).sum();
        assert_eq!(tasks, 32, "one leaf task per iteration");
    }

    #[test]
    fn multiple_workers_share_leaf_tasks() {
        let main = r#"
            for {set i 0} {$i < 40} {incr i} {
                turbine::spawn work 0 "puts task-$i"
            }
        "#;
        let (stdout, outs) = run_machine(
            7,
            TurbineConfig {
                servers: 2,
                ..TurbineConfig::default()
            },
            TurbineProgram {
                preamble: String::new(),
                main: main.into(),
                args: Vec::new(),
            },
        );
        let lines = stdout.lines().count();
        assert_eq!(lines, 40);
        let busy_workers = outs
            .iter()
            .filter(|o| o.role == Role::Worker && o.tasks_executed > 0)
            .count();
        assert!(
            busy_workers >= 2,
            "load balancing must involve more than one worker, got {busy_workers}"
        );
    }

    #[test]
    fn python_leaf_through_dataflow() {
        let main = r#"
            set code [turbine::unique]; turbine::create $code string
            set sexpr [turbine::unique]; turbine::create $sexpr string
            set out [turbine::unique]; turbine::create $out string
            swt:python $out $code $sexpr
            turbine::rule [list $out] "swt:trace_body {string} $out" control
            turbine::store_string $code {n = 10
result = sum(range(n))}
            turbine::store_string $sexpr {result}
        "#;
        let (stdout, _) = run_machine(
            3,
            TurbineConfig::default(),
            TurbineProgram {
                preamble: String::new(),
                main: main.into(),
                args: Vec::new(),
            },
        );
        assert_eq!(stdout, "trace: 45\n");
    }

    #[test]
    fn main_error_is_contained_to_its_program() {
        // A failed main no longer panics the world: the engine records the
        // error and serves on to global termination.
        let outs = run_solo(
            3,
            TurbineConfig::default(),
            TurbineProgram {
                preamble: String::new(),
                main: "no_such_command_anywhere".into(),
                args: Vec::new(),
            },
        );
        let errors = &outs[0].tenant_errors;
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            errors[0].1.contains("program main failed")
                && errors[0].1.contains("no_such_command_anywhere"),
            "{errors:?}"
        );
        assert!(outs[1..].iter().all(|o| o.tenant_errors.is_empty()));
    }

    #[test]
    fn two_tenants_isolate_procs_and_output() {
        // Both programs define a proc `who` with conflicting bodies and
        // run it on the shared workers: per-tenant interpreters must keep
        // the definitions apart, and every output line must be accounted
        // to the right tenant.
        use adlb::TenantSpec;
        let programs = vec![
            (
                TenantSpec::new(0, "alpha"),
                TurbineProgram {
                    preamble: "proc who {} { return alpha }".into(),
                    main: r#"
                        for {set i 0} {$i < 6} {incr i} {
                            turbine::spawn work 0 {puts [who]}
                        }
                    "#
                    .into(),
                    args: Vec::new(),
                },
            ),
            (
                TenantSpec::new(1, "beta").weight(2),
                TurbineProgram {
                    preamble: "proc who {} { return beta }".into(),
                    main: r#"
                        for {set i 0} {$i < 6} {incr i} {
                            turbine::spawn work 0 {puts [who]}
                        }
                    "#
                    .into(),
                    args: Vec::new(),
                },
            ),
        ];
        let config = TurbineConfig {
            engines: 2,
            ..TurbineConfig::default()
        };
        let outs = World::run(6, move |comm| {
            run_rank_tenants(comm, &config, &programs, |_| {})
        });
        let mut per_tenant = [String::new(), String::new()];
        for o in &outs {
            assert!(o.tenant_errors.is_empty(), "{:?}", o.tenant_errors);
            for (t, s) in &o.tenant_stdout {
                per_tenant[*t as usize].push_str(s);
            }
        }
        assert_eq!(per_tenant[0], "alpha\n".repeat(6));
        assert_eq!(per_tenant[1], "beta\n".repeat(6));
        // The server accounted both tenants.
        let rows = &outs[5].tenant_rows;
        assert_eq!(rows.len(), 2);
        for (_, r) in rows {
            assert!(r.delivered >= 6);
        }
    }

    #[test]
    fn tenant_failure_is_contained_to_its_program() {
        use adlb::TenantSpec;
        let programs = vec![
            (
                TenantSpec::new(0, "broken"),
                TurbineProgram {
                    preamble: String::new(),
                    main: "error {deliberate failure}".into(),
                    args: Vec::new(),
                },
            ),
            (
                TenantSpec::new(1, "healthy"),
                TurbineProgram {
                    preamble: String::new(),
                    main: "turbine::spawn work 0 {puts survived}".into(),
                    args: Vec::new(),
                },
            ),
        ];
        let config = TurbineConfig {
            engines: 2,
            ..TurbineConfig::default()
        };
        let outs = World::run(5, move |comm| {
            run_rank_tenants(comm, &config, &programs, |_| {})
        });
        let broken = &outs[0];
        assert!(broken
            .tenant_errors
            .iter()
            .any(|(t, e)| *t == 0 && e.contains("deliberate failure")));
        let healthy: String = outs
            .iter()
            .flat_map(|o| o.tenant_stdout.iter())
            .filter(|(t, _)| *t == 1)
            .map(|(_, s)| s.clone())
            .collect();
        assert_eq!(healthy, "survived\n");
        assert!(outs[1].tenant_errors.is_empty());
    }

    #[test]
    fn deferred_store_error_is_charged_to_its_tenant() {
        // Tenant 0's leaf stores a future its engine already stored. The
        // store is one-way, so the worker learns of the failure only after
        // the task was acknowledged — it must still become tenant 0's
        // program error, and only tenant 0's.
        use adlb::TenantSpec;
        let programs = vec![
            (
                TenantSpec::new(0, "broken"),
                TurbineProgram {
                    preamble: String::new(),
                    main: r#"
                        set x [turbine::unique]; turbine::create $x integer
                        turbine::store_integer $x 1
                        turbine::spawn work 0 "turbine::store_integer $x 2"
                    "#
                    .into(),
                    args: Vec::new(),
                },
            ),
            (
                TenantSpec::new(1, "healthy"),
                TurbineProgram {
                    preamble: String::new(),
                    main: "turbine::spawn work 0 {puts survived}".into(),
                    args: Vec::new(),
                },
            ),
        ];
        let config = TurbineConfig {
            engines: 2,
            ..TurbineConfig::default()
        };
        let outs = World::run(5, move |comm| {
            run_rank_tenants(comm, &config, &programs, |_| {})
        });
        // Engines and workers report through the same list, so this also
        // checks that no engine charged an error.
        let errors: Vec<&(u32, String)> = outs.iter().flat_map(|o| &o.tenant_errors).collect();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(errors[0].0, 0, "{errors:?}");
        assert!(
            errors[0].1.starts_with("tenant 0:") && errors[0].1.contains("double assignment"),
            "{errors:?}"
        );
    }

    #[test]
    fn one_worker_keeps_the_deferred_errors_of_every_tenant() {
        // Both tenants' leaves break single assignment, and the only
        // worker runs both: its one-way store errors may arrive in one
        // batch, and each tenant's report must still get its own.
        use adlb::TenantSpec;
        let broken = |name: &str| TurbineProgram {
            preamble: String::new(),
            main: format!(
                r#"
                set x [turbine::unique]; turbine::create $x integer
                turbine::store_integer $x 1
                turbine::spawn work 0 "puts {name}; turbine::store_integer $x 2"
                "#
            ),
            args: Vec::new(),
        };
        let programs = vec![
            (TenantSpec::new(0, "a"), broken("a")),
            (TenantSpec::new(1, "b"), broken("b")),
        ];
        let config = TurbineConfig {
            engines: 2,
            ..TurbineConfig::default()
        };
        let outs = World::run(4, move |comm| {
            run_rank_tenants(comm, &config, &programs, |_| {})
        });
        assert_eq!(outs[2].role, Role::Worker);
        assert_eq!(outs[2].tasks_executed, 2, "one worker ran both leaves");
        let errors = &outs[2].tenant_errors;
        assert_eq!(
            errors.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            [0, 1],
            "{errors:?}"
        );
        for (t, e) in errors {
            assert!(
                e.starts_with(&format!("tenant {t}:")) && e.contains("double assignment"),
                "{errors:?}"
            );
        }
    }

    #[test]
    fn roles_assigned_as_documented() {
        let cfg = TurbineConfig {
            servers: 2,
            engines: 2,
            ..TurbineConfig::default()
        };
        assert_eq!(cfg.role(8, 0), Role::Engine);
        assert_eq!(cfg.role(8, 1), Role::Engine);
        assert_eq!(cfg.role(8, 2), Role::Worker);
        assert_eq!(cfg.role(8, 5), Role::Worker);
        assert_eq!(cfg.role(8, 6), Role::Server);
        assert_eq!(cfg.role(8, 7), Role::Server);
    }
}
