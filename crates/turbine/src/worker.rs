//! The worker: leaf-task executor with embedded interpreters.
//!
//! Workers are the vast majority of ranks (Fig. 2). Each one loops on
//! `ADLB_Get(WORK)`, evaluating each task's Tcl fragment in its embedded
//! interpreter. The per-task interpreter policy of §III.C (retain vs.
//! reinitialize Python/R state) is applied between tasks.
//!
//! Task failures are *contained*: an eval error (or an undecodable
//! payload) is reported to the ADLB server as a negative acknowledgement
//! — the server retries or quarantines the task per its `RetryPolicy` —
//! and the worker keeps serving. A failed task may have left the embedded
//! Python/R interpreters in an arbitrary state, so they are reinitialized
//! regardless of the configured §III.C policy.
//!
//! A store on the worker's home server is one-way (see
//! [`adlb::AdlbClient`]), so its failure — e.g. a double assignment —
//! surfaces only after the task was acknowledged. The loop checks for such
//! deferred errors after every `get` and turns them into program errors of
//! the task's tenant: retrying an acknowledged task cannot undo a store
//! that broke single assignment.

use std::collections::{BTreeMap, HashMap};

use tclish::{Interp, TclError};

use crate::commands::SharedCtx;
use crate::run::OutputStreamer;
use crate::types::InterpPolicy;

/// Evaluate one leaf task in `interp`, containing failures: success
/// increments the counters and applies the §III.C policy; an error is
/// negatively acknowledged and forces an embedded-interpreter reset.
/// Returns whether the task succeeded.
fn execute_task(interp: &mut Interp, ctx: &SharedCtx, task: &adlb::Task, count: &mut u64) -> bool {
    // Zero-copy hot path: the payload is a view into the arrival
    // buffer; validate UTF-8 in place instead of cloning it.
    let eval_start = mpisim::trace::now_us();
    let outcome = match std::str::from_utf8(&task.payload) {
        Ok(code) => interp.eval(code).map(|_| ()),
        Err(_) => Err(TclError::new("worker received non-UTF-8 task payload")),
    };
    let mut c = ctx.borrow_mut();
    match outcome {
        Ok(()) => {
            *count += 1;
            c.tasks_executed += 1;
            // One eval span per successful task: the trace-vs-counter
            // reconciliation oracle depends on this equality.
            mpisim::trace::record_since(mpisim::trace::KIND_TASK_EVAL, *count, eval_start);
            if c.policy == InterpPolicy::Reinitialize {
                // §III.C: clear interpreter state between tasks. The
                // next task that needs Python/R pays a fresh
                // initialization; blobs from the finished task are
                // released.
                c.python = None;
                c.r = None;
                c.blobs.borrow_mut().clear();
            }
            true
        }
        Err(e) => {
            c.tasks_failed += 1;
            eprintln!(
                "turbine worker {}: task failed (attempt {}): {e}",
                c.client.rank(),
                task.attempts + 1,
            );
            c.client.task_failed(&e.to_string());
            // The failed fragment may have left embedded interpreter
            // state half-mutated; force a clean slate.
            c.python = None;
            c.r = None;
            c.blobs.borrow_mut().clear();
            false
        }
    }
}

/// Run the worker loop until global termination: one ADLB client serving
/// every tenant's leaf tasks (a solo run is tenant 0), with a lazily
/// created Tcl interpreter *per tenant* (each loaded with that tenant's
/// preamble) so programs cannot observe each other's procs or globals.
/// Embedded Python/R state and blobs are cleared on every tenant switch
/// regardless of the configured §III.C policy — interpreter state is
/// never shared across tenants. Each finished task's output streams to
/// the server tier before the next blocking get, so a later death of this
/// rank cannot lose it.
///
/// `build` constructs the interpreter (plus its output streamer) for a
/// tenant on first use; `args_of` yields the tenant's program arguments,
/// installed into the shared context on each switch.
///
/// Task failures are contained (counted in `Ctx::tasks_failed` and
/// reported to the server). Returns the first deferred one-way error of
/// each tenant whose tasks caused any, in tenant order; the loop keeps
/// serving after one, so each failure stays contained to its own
/// tenant's program.
pub(crate) fn worker_loop_tenants(
    ctx: &SharedCtx,
    build: &mut dyn FnMut(u32) -> (Interp, OutputStreamer),
    args_of: &dyn Fn(u32) -> HashMap<String, String>,
) -> Vec<(u32, String)> {
    let mut interps: BTreeMap<u32, (Interp, OutputStreamer)> = BTreeMap::new();
    let mut last_tenant: Option<u32> = None;
    let mut count = 0u64;
    let mut errors: BTreeMap<u32, String> = BTreeMap::new();
    let rank = ctx.borrow().client.rank();
    loop {
        // Ship every tenant's output increments under its own tag before
        // blocking, so a later death of this rank loses at most the task
        // in flight.
        for (t, (_interp, stream)) in interps.iter_mut() {
            let mut c = ctx.borrow_mut();
            c.client.set_tenant(*t);
            stream.ship(&mut c.client);
        }
        let task = ctx.borrow_mut().client.get(&[adlb::WORK_TYPE_WORK]);
        for (tenant, e) in ctx.borrow_mut().take_deferred_errors() {
            errors
                .entry(tenant)
                .or_insert_with(|| format!("worker {rank} task failed: {e}"));
        }
        let Some(task) = task else {
            return errors.into_iter().collect();
        };
        let tenant = task.tenant;
        let mut c = ctx.borrow_mut();
        if last_tenant != Some(tenant) {
            // Tenant switch: embedded interpreters and blobs must not
            // leak across programs, whatever the retain policy says.
            if last_tenant.is_some() {
                c.python = None;
                c.r = None;
                c.blobs.borrow_mut().clear();
            }
            c.args = args_of(tenant);
            last_tenant = Some(tenant);
        }
        // Re-tag on every task, not just on a switch: the output shipping
        // above left the client on whichever tenant it shipped last, and
        // the tag decides which tenant a one-way op's error is charged to.
        c.client.set_tenant(tenant);
        drop(c);
        let (interp, _stream) = interps.entry(tenant).or_insert_with(|| build(tenant));
        execute_task(interp, ctx, &task, &mut count);
    }
}

#[cfg(test)]
mod tests {
    use adlb::{AdlbClient, Layout, ServerStats};
    use mpisim::World;
    use tclish::Interp;

    use crate::commands::{self, Ctx};
    use crate::types::InterpPolicy;

    /// What the worker and the server of a [`run_worker`] machine saw.
    #[derive(Default)]
    struct WorkerRun {
        stdout: String,
        executed: u64,
        failed: u64,
        inits: u64,
        errors: Vec<(u32, String)>,
        server: ServerStats,
    }

    /// 1 submitter + 1 worker + 1 server. The submitter puts
    /// `(tenant, script)` tasks targeted at the worker with falling
    /// priorities, so the worker runs them in the given order.
    fn run_worker(tasks: &'static [(u32, &'static str)], policy: InterpPolicy) -> WorkerRun {
        let layout = Layout::new(3, 1);
        let mut out = World::run(3, move |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                let server = adlb::serve(comm, layout, adlb::ServerConfig::default());
                return WorkerRun {
                    server,
                    ..WorkerRun::default()
                };
            }
            if rank == 0 {
                let mut client = AdlbClient::new(comm, layout);
                for (i, (tenant, t)) in tasks.iter().enumerate() {
                    let prio = (tasks.len() - i) as i32;
                    client.set_tenant(*tenant);
                    client.put(adlb::WORK_TYPE_WORK, prio, Some(1), t.as_bytes().to_vec());
                }
                client.finish();
                return WorkerRun::default();
            }
            let client = AdlbClient::new(comm, layout);
            let ctx = Ctx::new(client, false, policy);
            let mut bufs = Vec::new();
            let mut build = |_tenant: u32| {
                let mut interp = Interp::new();
                let buf = interp.capture_output();
                commands::register(&mut interp, ctx.clone());
                crate::library::load(&mut interp);
                bufs.push(buf.clone());
                (interp, crate::run::OutputStreamer::new(buf))
            };
            let errors = super::worker_loop_tenants(&ctx, &mut build, &|_| Default::default());
            let c = ctx.borrow();
            let stdout = bufs.iter().map(|b| b.borrow().clone()).collect();
            WorkerRun {
                stdout,
                executed: c.tasks_executed,
                failed: c.tasks_failed,
                inits: c.interp_inits,
                errors,
                server: ServerStats::default(),
            }
        });
        let server = out[2].server;
        WorkerRun {
            server,
            ..out.swap_remove(1)
        }
    }

    #[test]
    fn executes_tasks_in_order_for_same_source() {
        let r = run_worker(&[(0, "puts one"), (0, "puts two")], InterpPolicy::Retain);
        assert_eq!(r.executed, 2);
        assert_eq!(r.stdout, "one\ntwo\n");
    }

    #[test]
    fn retain_keeps_python_state() {
        let r = run_worker(
            &[
                (0, "puts [python {x = 10} {x}]"),
                (0, "puts [python {x = x + 1} {x}]"),
            ],
            InterpPolicy::Retain,
        );
        assert_eq!(r.stdout, "10\n11\n");
        assert_eq!(r.inits, 1, "retained interpreter initializes once");
    }

    #[test]
    fn reinitialize_isolates_state() {
        let r = run_worker(
            &[
                (0, "puts [python {x = 10} {x}]"),
                (0, "puts [catch {python {} {x}}]"),
            ],
            InterpPolicy::Reinitialize,
        );
        assert_eq!(r.stdout, "10\n1\n", "second task must not see x");
        assert_eq!(r.inits, 2, "one init per task under Reinitialize");
    }

    #[test]
    fn worker_rejects_rules() {
        let r = run_worker(
            &[(
                0,
                "puts [catch {turbine::rule {} {noop} control} msg]; puts $msg",
            )],
            InterpPolicy::Retain,
        );
        assert!(r.stdout.contains("1"));
        assert!(r.stdout.contains("only run on an engine"));
    }

    #[test]
    fn task_errors_are_contained() {
        // A task that always errors must not kill the worker: it is
        // reported failed, retried to the server's budget, quarantined —
        // and a healthy task put afterwards still runs.
        let r = run_worker(
            &[(0, "error kaboom"), (0, "puts healthy")],
            InterpPolicy::Retain,
        );
        assert_eq!(r.stdout, "healthy\n");
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        // Default RetryPolicy: max_retries = 3, so the poison task fails
        // once fresh + 3 retries before quarantine.
        assert_eq!(r.failed, 4);
        assert_eq!(r.executed, 1);
        assert_eq!(r.server.tasks_retried, 3);
        assert_eq!(r.server.tasks_quarantined, 1);
    }

    #[test]
    fn deferred_error_is_charged_to_the_tenant_of_consecutive_tasks() {
        // The worker holds interpreters for tenants 0 and 1 when tenant 0
        // runs twice in a row: shipping output between the two tasks tags
        // the client with tenant 1, and the second task's failing one-way
        // store must still be charged to tenant 0.
        let errors = run_worker(
            &[
                (1, "puts b"),
                (0, "puts a"),
                (
                    0,
                    "turbine::create 7 integer; turbine::store_integer 7 1; turbine::store_integer 7 2",
                ),
            ],
            InterpPolicy::Retain,
        )
        .errors;
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(errors[0].0, 0, "{errors:?}");
        assert!(errors[0].1.contains("double assignment"), "{errors:?}");
    }

    #[test]
    fn failed_task_forces_interpreter_reset() {
        // Python state set by a task must not survive a later failed task
        // even under the Retain policy.
        let r = run_worker(
            &[
                (0, "puts [python {x = 5} {x}]"),
                (0, "error boom"),
                (0, "puts [catch {python {} {x}}]"),
            ],
            InterpPolicy::Retain,
        );
        assert_eq!(r.stdout, "5\n1\n", "x must be gone after the failed task");
    }
}
