//! Per-layer numbers: counters and span breakdowns of a traced run, and
//! the layer ladder — one rung per layer, timed from outside through the
//! layer's public functions.

use std::collections::BTreeMap;
use std::time::Instant;

use adlb::{serve, AdlbClient, Layout, ServerConfig, WORK_TYPE_WORK};
use mpisim::{trace, World};
use swiftt_core::{Role, RunResult};

use crate::measure::{median, time_per_call_us};
use crate::workloads::{Program, Sweep, Workload, WORKERS};

pub type Metrics = BTreeMap<&'static str, f64>;

/// Size of a leaf task's put payload: a short Tcl command naming datum ids.
const TASK_PAYLOAD: usize = 64;
/// Size of a bag value in the data store (an integer).
const BAG_VALUE: usize = 8;

/// Span-derived and counter-derived per-layer metrics of one traced run.
/// Fails if the trace breaks the oracle that every executed leaf task has
/// exactly one `task_eval` span.
pub fn from_traced(w: &Workload, r: &RunResult) -> Result<Metrics, String> {
    let leaves = r.total_tasks();
    let evals = trace::count_kind(&r.traces, trace::KIND_TASK_EVAL);
    if evals != leaves {
        return Err(format!(
            "trace oracle: {evals} task_eval spans for {leaves} leaf tasks"
        ));
    }
    let per_task = |v: u64| v as f64 / leaves as f64;
    let wall_us = r.elapsed.as_secs_f64() * 1e6;
    let stats = r.server_totals();
    let lat = r.latency.unwrap_or_default();
    let p50 = |s: Option<mpisim::LatencyStats>| s.map_or(0.0, |s| s.p50_us as f64);
    let p99 = |s: Option<mpisim::LatencyStats>| s.map_or(0.0, |s| s.p99_us as f64);

    let (mut engines, mut engine_rpc_us, mut engine_data_ops, mut eval_us) =
        (0u64, 0u64, 0u64, 0u64);
    for t in &r.traces {
        match r.roles.get(t.rank) {
            Some(Role::Engine) => {
                engines += 1;
                let rpc = t
                    .events
                    .iter()
                    .filter(|e| e.kind == trace::KIND_DATA_OP || e.kind == trace::KIND_TASK_PUT);
                engine_rpc_us += covered_us(rpc.map(|e| (e.start_us, e.end_us)));
                engine_data_ops += trace::count_kind(std::slice::from_ref(t), trace::KIND_DATA_OP);
            }
            Some(Role::Worker) => {
                eval_us += t
                    .events
                    .iter()
                    .filter(|e| e.kind == trace::KIND_TASK_EVAL)
                    .map(|e| e.end_us - e.start_us)
                    .sum::<u64>();
            }
            _ => {}
        }
    }

    let weight_total: u32 = w.programs.iter().map(|(_, weight, _)| weight).sum();
    let share_err = r
        .tenants
        .iter()
        .filter_map(|t| {
            let share = t.share_of_delivered?;
            Some((share - f64::from(t.weight) / f64::from(weight_total)).abs())
        })
        .fold(0.0, f64::max);

    Ok(BTreeMap::from([
        ("mpisim.msgs_per_task", per_task(r.messages)),
        ("mpisim.bytes_per_task", per_task(r.bytes)),
        ("adlb.data_ops_per_task", per_task(stats.data_ops)),
        ("adlb.queue_wait_p50_us", p50(lat.queue_wait)),
        ("adlb.queue_wait_p99_us", p99(lat.queue_wait)),
        ("adlb.task_latency_p50_us", p50(lat.task_latency)),
        ("adlb.task_latency_p99_us", p99(lat.task_latency)),
        ("adlb.repl_ops_per_task", per_task(stats.repl_ops)),
        ("adlb.ckpt_bytes_per_task", per_task(stats.ckpt_bytes)),
        ("adlb.ckpt_segments", stats.ckpt_segments as f64),
        ("adlb.ckpt_flush_p99_us", p99(lat.checkpoint_flush)),
        ("adlb.tenant_share_err", share_err),
        (
            "turbine.engine_rpc_frac",
            engine_rpc_us as f64 / (engines.max(1) as f64 * wall_us),
        ),
        (
            "turbine.engine_data_ops_per_task",
            per_task(engine_data_ops),
        ),
        (
            "turbine.worker_busy_frac",
            eval_us as f64 / (WORKERS as f64 * wall_us),
        ),
        ("turbine.eval_p50_us", p50(lat.eval_time)),
        ("turbine.eval_p99_us", p99(lat.eval_time)),
    ]))
}

/// Time covered by a set of spans, counting overlaps once (a put flushed
/// inside a data-op round trip is not blocked time twice).
fn covered_us(spans: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut spans: Vec<(u64, u64)> = spans.collect();
    spans.sort_unstable();
    let (mut total, mut reach) = (0, 0);
    for (start, end) in spans {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// The sweep whose fragments and value sizes a workload's rungs use: its
/// own, or the sweep tenant's. `None` for the bags.
fn sweep_of(w: &Workload) -> Option<&Sweep> {
    w.programs.iter().find_map(|(_, _, p)| match p {
        Program::Sweep(s) => Some(s),
        Program::Bag(_) => None,
    })
}

/// The ladder rungs for workload `w`, at its payload sizes and with its
/// leaf fragments. Rungs whose layer the workload never runs (Python and R
/// on the bags) read 0. Fails if an interpreter disagrees with the
/// benchmark's own reference.
pub fn ladder(w: &Workload) -> Result<Metrics, String> {
    let sweep = sweep_of(w);
    let value_bytes = sweep.map_or(BAG_VALUE, |s| s.csv(s.t0).len());
    let mut m = Metrics::new();
    m.insert("mpisim.pingpong_us", pingpong_us(value_bytes));
    m.insert("adlb.put_get_us", put_get_us(TASK_PAYLOAD));
    m.insert("adlb.data_rtt_us", data_rtt_us(value_bytes));
    m.insert("stc.compile_ms", compile_ms(w)?);

    let (tcl, py, r) = match sweep {
        None => {
            let Program::Bag(bag) = &w.programs[0].2 else {
                unreachable!("a workload without a sweep is a bag")
            };
            let frags: Vec<String> = (0..256).map(|k| bag.tcl_fragment(k)).collect();
            (tcl_us(&frags, None)?, 0.0, 0.0)
        }
        Some(s) => {
            let temps: Vec<u64> = s.temps().take(16).collect();
            let frags: Vec<String> = temps
                .iter()
                .map(|&t| Sweep::tcl_fragment(t, &s.expected_stats(t)))
                .collect();
            let want: Vec<String> = temps.iter().map(|&t| s.expected_line(t)).collect();
            (
                tcl_us(&frags, Some(&want))?,
                python_us(s, &temps)?,
                r_us(s, &temps)?,
            )
        }
    };
    m.insert("tclish.fragment_us", tcl);
    m.insert("pythonish.fragment_us", py);
    m.insert("rish.fragment_us", r);
    Ok(m)
}

/// One `Comm::send`/`recv` round trip between two ranks.
fn pingpong_us(bytes: usize) -> f64 {
    const TRIPS: usize = 1000;
    const REPS: usize = 7;
    let per_rank = World::run(2, |comm| {
        let peer = 1 - comm.rank();
        if comm.rank() == 1 {
            comm.send(peer, 0, vec![0x5au8; bytes]);
            for _ in 0..TRIPS * REPS {
                let m = comm.recv(peer, 0);
                comm.send(peer, 0, m.data);
            }
            return 0.0;
        }
        let mut data = comm.recv(peer, 0).data;
        let mut samples = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let t = Instant::now();
            for _ in 0..TRIPS {
                comm.send(peer, 0, data);
                data = comm.recv(peer, 0).data;
            }
            samples.push(t.elapsed().as_secs_f64() * 1e6 / TRIPS as f64);
        }
        median(&samples)
    });
    per_rank[0]
}

/// Run `client` on rank 0 against one ADLB server at the default config.
fn with_server(client: impl Fn(&mut AdlbClient) -> f64 + Sync) -> f64 {
    let layout = Layout::new(2, 1);
    let per_rank = World::run(2, |comm| {
        if layout.is_server(comm.rank()) {
            serve(comm, layout, ServerConfig::default());
            return 0.0;
        }
        let mut c = AdlbClient::new(comm, layout);
        let us = client(&mut c);
        c.finish();
        us
    });
    per_rank[0]
}

/// One `put` plus the `get` that takes the task back.
fn put_get_us(payload: usize) -> f64 {
    let body = vec![0x61u8; payload];
    with_server(|c| {
        time_per_call_us(7, 500, || {
            c.put(WORK_TYPE_WORK, 0, None, body.clone());
            let task = c.get(&[WORK_TYPE_WORK]).expect("the task just put");
            std::hint::black_box(task);
        })
    })
}

/// `create`, `store` and `retrieve` of one datum of `bytes` bytes.
fn data_rtt_us(bytes: usize) -> f64 {
    let value = vec![0x31u8; bytes];
    with_server(|c| {
        time_per_call_us(7, 200, || {
            let id = c.alloc_id();
            c.create(id, 0).expect("create");
            c.store(id, value.clone()).expect("store");
            let v = c.retrieve(id).expect("retrieve");
            assert_eq!(v.map(|b| b.len()), Some(bytes), "retrieved value size");
        })
    })
}

/// `stc::compile` of the workload's sources, in milliseconds.
fn compile_ms(w: &Workload) -> Result<f64, String> {
    for src in &w.sources {
        stc::compile(src).map_err(|e| format!("compile: {e}"))?;
    }
    Ok(time_per_call_us(9, 3, || {
        for src in &w.sources {
            std::hint::black_box(stc::compile(src).expect("compiled above"));
        }
    }) / 1e3)
}

/// One Tcl leaf fragment through `tclish::Interp::eval`, checked against
/// `want` when given.
fn tcl_us(frags: &[String], want: Option<&[String]>) -> Result<f64, String> {
    let mut interp = tclish::Interp::new();
    let _out = interp.capture_output();
    for (k, f) in frags.iter().enumerate() {
        interp.eval(f).map_err(|e| format!("tclish: {e:?}"))?;
        let got = interp.eval("set o").map_err(|e| format!("tclish: {e:?}"))?;
        if let Some(want) = want {
            if got != want[k] {
                return Err(format!("tclish: {got:?}, reference {:?}", want[k]));
            }
        }
    }
    let mut k = 0;
    Ok(time_per_call_us(7, frags.len(), || {
        std::hint::black_box(interp.eval(&frags[k % frags.len()]).ok());
        k += 1;
    }))
}

/// One `simulate` fragment through `pythonish::Python::run`.
fn python_us(s: &Sweep, temps: &[u64]) -> Result<f64, String> {
    let codes: Vec<String> = temps.iter().map(|&t| s.python_code(t)).collect();
    let mut py = pythonish::Python::new();
    for (code, &t) in codes.iter().zip(temps) {
        let got = py
            .run(code, "csv")
            .map_err(|e| format!("pythonish: {e:?}"))?;
        if got != s.csv(t) {
            return Err(format!(
                "pythonish: trajectory for T={t} differs from the reference"
            ));
        }
    }
    let mut k = 0;
    Ok(time_per_call_us(5, codes.len(), || {
        std::hint::black_box(py.run(&codes[k % codes.len()], "csv").ok());
        k += 1;
    }))
}

/// One `analyze` fragment through `rish::R::run`.
fn r_us(s: &Sweep, temps: &[u64]) -> Result<f64, String> {
    let codes: Vec<String> = temps.iter().map(|&t| Sweep::r_code(&s.csv(t))).collect();
    let mut r = rish::R::new();
    for (code, &t) in codes.iter().zip(temps) {
        let got = r
            .run(code, Sweep::R_EXPR)
            .map_err(|e| format!("rish: {e:?}"))?;
        if got != s.expected_stats(t) {
            return Err(format!(
                "rish: stats {got:?} for T={t}, reference {:?}",
                s.expected_stats(t)
            ));
        }
    }
    let mut k = 0;
    Ok(time_per_call_us(5, codes.len(), || {
        std::hint::black_box(r.run(&codes[k % codes.len()], Sweep::R_EXPR).ok());
        k += 1;
    }))
}

/// The serial baseline: every point's Python, R and Tcl fragments in
/// sequence on one thread, checked against the reference. Seconds.
pub fn serial_s(s: &Sweep) -> Result<f64, String> {
    let mut py = pythonish::Python::new();
    let mut r = rish::R::new();
    let mut tcl = tclish::Interp::new();
    let _out = tcl.capture_output();
    let jobs: Vec<(u64, String)> = s.temps().map(|t| (t, s.python_code(t))).collect();
    let start = Instant::now();
    let mut lines = Vec::with_capacity(jobs.len());
    for (t, code) in &jobs {
        let csv = py
            .run(code, "csv")
            .map_err(|e| format!("pythonish: {e:?}"))?;
        let stats = r
            .run(&Sweep::r_code(&csv), Sweep::R_EXPR)
            .map_err(|e| format!("rish: {e:?}"))?;
        tcl.eval(&Sweep::tcl_fragment(*t, &stats))
            .map_err(|e| format!("tclish: {e:?}"))?;
        lines.push(tcl.eval("set o").map_err(|e| format!("tclish: {e:?}"))?);
    }
    let secs = start.elapsed().as_secs_f64();
    for ((t, _), line) in jobs.iter().zip(&lines) {
        if *line != s.expected_line(*t) {
            return Err(format!(
                "serial baseline: {line:?}, reference {:?}",
                s.expected_line(*t)
            ));
        }
    }
    Ok(secs)
}
