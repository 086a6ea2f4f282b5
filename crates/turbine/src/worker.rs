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
//! surfaces only after the task was acknowledged. The loops check for such
//! deferred errors after every `get` and turn them into program errors:
//! retrying an acknowledged task cannot undo a store that broke single
//! assignment.

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

/// Run the worker loop until global termination. Returns the number of
/// tasks executed successfully. Each finished task's output streams to
/// the server tier before the next blocking get, so a later death of this
/// rank cannot lose it.
///
/// Task failures are contained (counted in `Ctx::tasks_failed` and
/// reported to the server); the loop fails only with a deferred error of
/// a one-way data op, which no retry can repair.
pub fn worker_loop(
    interp: &mut Interp,
    ctx: &SharedCtx,
    stream: &mut OutputStreamer,
) -> Result<u64, TclError> {
    let mut count = 0u64;
    loop {
        stream.ship(&mut ctx.borrow_mut().client);
        let task = ctx.borrow_mut().client.get(&[adlb::WORK_TYPE_WORK]);
        if let Some((_, e)) = ctx.borrow_mut().take_deferred_errors().into_iter().next() {
            return Err(TclError::new(e));
        }
        let Some(task) = task else {
            return Ok(count);
        };
        execute_task(interp, ctx, &task, &mut count);
    }
}

/// The multi-tenant worker loop: one shared ADLB client serving every
/// tenant's leaf tasks, with a lazily created Tcl interpreter *per
/// tenant* (each loaded with that tenant's preamble) so programs cannot
/// observe each other's procs or globals. Embedded Python/R state and
/// blobs are cleared on every tenant switch regardless of the configured
/// §III.C policy — interpreter state is never shared across tenants.
///
/// `build` constructs the interpreter (plus its output streamer) for a
/// tenant on first use; `args_of` yields the tenant's program arguments,
/// installed into the shared context on each switch.
///
/// Returns the first deferred one-way error of each tenant whose tasks
/// caused any, in tenant order; the loop keeps serving after one, so each
/// failure stays contained to its own tenant's program.
pub fn worker_loop_tenants(
    ctx: &SharedCtx,
    build: &mut dyn FnMut(u32) -> (Interp, OutputStreamer),
    args_of: &dyn Fn(u32) -> HashMap<String, String>,
) -> Vec<(u32, String)> {
    let mut interps: BTreeMap<u32, (Interp, OutputStreamer)> = BTreeMap::new();
    let mut last_tenant: Option<u32> = None;
    let mut count = 0u64;
    let mut errors: BTreeMap<u32, String> = BTreeMap::new();
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
            errors.entry(tenant).or_insert(e);
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
    use adlb::{AdlbClient, Layout};
    use mpisim::World;
    use tclish::Interp;

    use crate::commands::{self, Ctx};
    use crate::types::InterpPolicy;

    /// 1 submitter + 1 worker + 1 server; submitter sends raw Tcl tasks.
    fn run_worker(tasks: &'static [&'static str], policy: InterpPolicy) -> (String, u64, u64) {
        let layout = Layout::new(3, 1);
        let out = World::run(3, move |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                adlb::serve(comm, layout, adlb::ServerConfig::default());
                return None;
            }
            if rank == 0 {
                let mut client = AdlbClient::new(comm, layout);
                for t in tasks {
                    client.put(adlb::WORK_TYPE_WORK, 0, Some(1), t.as_bytes().to_vec());
                }
                client.finish();
                return None;
            }
            let client = AdlbClient::new(comm, layout);
            let ctx = Ctx::new(client, false, policy);
            let mut interp = Interp::new();
            let buf = interp.capture_output();
            commands::register(&mut interp, ctx.clone());
            crate::library::load(&mut interp);
            let mut stream = crate::run::OutputStreamer::new(buf.clone());
            let n = super::worker_loop(&mut interp, &ctx, &mut stream).unwrap();
            let inits = ctx.borrow().interp_inits;
            let stdout = buf.borrow().clone();
            Some((stdout, n, inits))
        });
        out.into_iter().flatten().next().unwrap()
    }

    #[test]
    fn executes_tasks_in_order_for_same_source() {
        let (stdout, n, _) = run_worker(&["puts one", "puts two"], InterpPolicy::Retain);
        assert_eq!(n, 2);
        assert_eq!(stdout, "one\ntwo\n");
    }

    #[test]
    fn retain_keeps_python_state() {
        let (stdout, _, inits) = run_worker(
            &[
                "puts [python {x = 10} {x}]",
                "puts [python {x = x + 1} {x}]",
            ],
            InterpPolicy::Retain,
        );
        assert_eq!(stdout, "10\n11\n");
        assert_eq!(inits, 1, "retained interpreter initializes once");
    }

    #[test]
    fn reinitialize_isolates_state() {
        let (stdout, _, inits) = run_worker(
            &["puts [python {x = 10} {x}]", "puts [catch {python {} {x}}]"],
            InterpPolicy::Reinitialize,
        );
        assert_eq!(stdout, "10\n1\n", "second task must not see x");
        assert_eq!(inits, 2, "one init per task under Reinitialize");
    }

    #[test]
    fn worker_rejects_rules() {
        let (stdout, _, _) = run_worker(
            &["puts [catch {turbine::rule {} {noop} control} msg]; puts $msg"],
            InterpPolicy::Retain,
        );
        assert!(stdout.contains("1"));
        assert!(stdout.contains("only run on an engine"));
    }

    #[test]
    fn task_errors_are_contained() {
        // A task that always errors must not kill the worker: it is
        // reported failed, retried to the server's budget, quarantined —
        // and a healthy task put afterwards still runs.
        let layout = Layout::new(3, 1);
        let out = World::run(3, move |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                let stats = adlb::serve(comm, layout, adlb::ServerConfig::default());
                return Some((stats.tasks_retried, stats.tasks_quarantined, 0));
            }
            if rank == 0 {
                let mut client = AdlbClient::new(comm, layout);
                client.put(adlb::WORK_TYPE_WORK, 9, Some(1), b"error kaboom".to_vec());
                client.put(adlb::WORK_TYPE_WORK, 0, Some(1), b"puts healthy".to_vec());
                client.finish();
                return None;
            }
            let client = AdlbClient::new(comm, layout);
            let ctx = Ctx::new(client, false, InterpPolicy::Retain);
            let mut interp = Interp::new();
            let buf = interp.capture_output();
            commands::register(&mut interp, ctx.clone());
            let mut stream = crate::run::OutputStreamer::new(buf.clone());
            let n = super::worker_loop(&mut interp, &ctx, &mut stream)
                .expect("contained loop never errs");
            let failed = ctx.borrow().tasks_failed;
            assert_eq!(buf.borrow().as_str(), "healthy\n");
            Some((failed, n, 1))
        });
        // Default RetryPolicy: max_retries = 3, so the poison task fails
        // once fresh + 3 retries before quarantine.
        let (failed, executed, _) = out[1].unwrap();
        assert_eq!(failed, 4);
        assert_eq!(executed, 1);
        let (retried, quarantined, _) = out[2].unwrap();
        assert_eq!(retried, 3);
        assert_eq!(quarantined, 1);
    }

    /// 1 submitter + 1 multi-tenant worker + 1 server. The submitter puts
    /// `(tenant, script)` tasks targeted at the worker with falling
    /// priorities, so the worker runs them in the given order. Returns the
    /// worker's per-tenant errors.
    fn run_tenant_worker(tasks: &'static [(u32, &'static str)]) -> Vec<(u32, String)> {
        let layout = Layout::new(3, 1);
        let out = World::run(3, move |comm| {
            let rank = comm.rank();
            if layout.is_server(rank) {
                adlb::serve(comm, layout, adlb::ServerConfig::default());
                return None;
            }
            if rank == 0 {
                let mut client = AdlbClient::new(comm, layout);
                for (i, (tenant, t)) in tasks.iter().enumerate() {
                    let prio = (tasks.len() - i) as i32;
                    client.set_tenant(*tenant);
                    client.put(adlb::WORK_TYPE_WORK, prio, Some(1), t.as_bytes().to_vec());
                }
                client.finish();
                return None;
            }
            let client = AdlbClient::new(comm, layout);
            let ctx = Ctx::new(client, false, InterpPolicy::Retain);
            let mut build = |_tenant: u32| {
                let mut interp = Interp::new();
                let buf = interp.capture_output();
                commands::register(&mut interp, ctx.clone());
                crate::library::load(&mut interp);
                (interp, crate::run::OutputStreamer::new(buf))
            };
            Some(super::worker_loop_tenants(&ctx, &mut build, &|_| {
                Default::default()
            }))
        });
        out.into_iter().flatten().next().unwrap()
    }

    #[test]
    fn deferred_error_is_charged_to_the_tenant_of_consecutive_tasks() {
        // The worker holds interpreters for tenants 0 and 1 when tenant 0
        // runs twice in a row: shipping output between the two tasks tags
        // the client with tenant 1, and the second task's failing one-way
        // store must still be charged to tenant 0.
        let errors = run_tenant_worker(&[
            (1, "puts b"),
            (0, "puts a"),
            (
                0,
                "turbine::create 7 integer; turbine::store_integer 7 1; turbine::store_integer 7 2",
            ),
        ]);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(errors[0].0, 0, "{errors:?}");
        assert!(errors[0].1.contains("double assignment"), "{errors:?}");
    }

    #[test]
    fn failed_task_forces_interpreter_reset() {
        // Python state set by a task must not survive a later failed task
        // even under the Retain policy.
        let (stdout, _, _) = run_worker(
            &[
                "puts [python {x = 5} {x}]",
                "error boom",
                "puts [catch {python {} {x}}]",
            ],
            InterpPolicy::Retain,
        );
        assert_eq!(stdout, "5\n1\n", "x must be gone after the failed task");
    }
}
