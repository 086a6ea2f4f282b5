//! End-to-end benchmark of the Swift/T reproduction: seeded Swift source
//! in, checked results out, through the public `swiftt-core` `Runtime`.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload bag_noop --seed 1 --seconds 10 --trace 0
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --self-test
//! ```
//!
//! `--trace 0` reports the end-to-end metrics from untraced runs; `--trace
//! 1` reports the per-layer metrics from traced runs plus the layer
//! ladder. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, where `attempted` and
//! `failed` count leaf tasks. Any failed output check makes `correct`
//! false and the exit code 1. See `NOTES.md` for what each metric is
//! predicted to move.

mod layers;
mod measure;
mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use layers::Metrics;
use measure::{least_stolen, median, quote, Json, RssPeak, StealClock, QUIET_STEAL};
use swiftt_core::RunResult;
use workloads::{Program, Sizes, Workload, FULL, NAMES, SMALL, WORKERS};

/// End-to-end metrics (reported with `--trace 0`): name, unit.
const END_TO_END: [(&str, &str); 4] = [
    ("tasks_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics (reported with `--trace 1`): name, unit.
const PER_LAYER: [(&str, &str); 30] = [
    ("mpisim.msgs_per_task", "msgs/task"),
    ("mpisim.bytes_per_task", "B/task"),
    ("mpisim.pingpong_us", "us"),
    ("adlb.put_get_us", "us"),
    ("adlb.data_rtt_us", "us"),
    ("adlb.data_ops_per_task", "ops/task"),
    ("adlb.queue_wait_p50_us", "us"),
    ("adlb.queue_wait_p99_us", "us"),
    ("adlb.task_latency_p50_us", "us"),
    ("adlb.task_latency_p99_us", "us"),
    ("adlb.repl_ops_per_task", "ops/task"),
    ("adlb.ckpt_bytes_per_task", "B/task"),
    ("adlb.ckpt_segments", "count"),
    ("adlb.ckpt_flush_p99_us", "us"),
    ("adlb.tenant_share_err", "frac"),
    ("turbine.engine_rpc_frac", "frac"),
    ("turbine.engine_data_ops_per_task", "ops/task"),
    ("turbine.worker_busy_frac", "frac"),
    ("turbine.eval_p50_us", "us"),
    ("turbine.eval_p99_us", "us"),
    ("stc.compile_ms", "ms"),
    ("tclish.fragment_us", "us"),
    ("pythonish.fragment_us", "us"),
    ("rish.fragment_us", "us"),
    ("core.rss_growth_kb_per_task", "KB/task"),
    ("core.serial_s", "s"),
    ("core.parallel_eff", "frac"),
    ("core.trace_overhead_frac", "frac"),
    ("core.traced_tasks_per_s", "1/s"),
    ("core.untraced_tasks_per_s", "1/s"),
];

/// Set-ups timed before each measured workload run; `setup_s` is the
/// median of all of them, so it samples the whole run like `tasks_per_s`.
const SETUPS_PER_RUN: usize = 3;
/// Fewest measured workload runs per benchmark run.
const MIN_RUNS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !a.seconds.is_finite() || a.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".to_string());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !NAMES.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {NAMES:?}"));
    }
    Ok(a)
}

/// Leaf-task accounting and output checks across every run a benchmark
/// run makes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Run the workload once and check its output; `None` if the run
    /// errored or failed its check (its leaf tasks then count as failed).
    fn run(&mut self, w: &Workload, solo: &[String], tracing: bool) -> Option<RunResult> {
        self.attempted += w.leaves();
        let checked = w
            .run(tracing)
            .map_err(|e| e.to_string())
            .and_then(|r| w.check(&r, solo).map(|()| r));
        match checked {
            Ok(r) => Some(r),
            Err(e) => {
                self.failed += w.leaves();
                self.fail(e);
                None
            }
        }
    }

    /// [`Tally::run`] with the run's peak resident memory in KiB.
    fn run_sampled(
        &mut self,
        w: &Workload,
        solo: &[String],
        tracing: bool,
    ) -> Option<(RunResult, f64)> {
        let rss = RssPeak::start();
        let r = self.run(w, solo, tracing);
        let peak_kb = rss.stop() as f64;
        r.map(|r| (r, peak_kb))
    }

    fn fail(&mut self, e: String) {
        eprintln!("check failed: {e}");
        self.errors.push(e);
    }
}

fn tasks_per_s(r: &RunResult) -> f64 {
    r.total_tasks() as f64 / r.elapsed.as_secs_f64()
}

/// A run of empty programs (one per program of the workload) on the
/// workload's machine, checked to be empty.
fn run_empty(w: &Workload, tally: &mut Tally) {
    match w.run_sources(&vec![String::new(); w.programs.len()], false) {
        Ok(r) if r.stdout.is_empty() && r.total_tasks() == 0 => {}
        Ok(r) => tally.fail(format!("empty program printed {:?}", r.stdout)),
        Err(e) => tally.fail(format!("empty program: {e}")),
    }
}

/// One set-up: `stc::compile` of the workload's sources plus a run of the
/// same machine shape on empty programs. Seconds.
fn setup_once(w: &Workload, tally: &mut Tally) -> f64 {
    let t = Instant::now();
    for src in &w.sources {
        if let Err(e) = stc::compile(src) {
            tally.fail(format!("compile: {e}"));
        }
    }
    run_empty(w, tally);
    t.elapsed().as_secs_f64()
}

/// Print a sample's size and spread next to the median that is reported.
fn print_samples(name: &str, v: &[f64]) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if let (Some(lo), Some(hi)) = (s.first(), s.last()) {
        println!(
            "  {name}: {} samples, min {lo:.6} median {:.6} max {hi:.6}",
            s.len(),
            median(&s)
        );
    }
}

/// Print how many runs the medians use and how disturbed they were.
fn print_kept(shares: &[f64], kept: usize) {
    let worst = shares.iter().take(kept).copied().fold(0.0, f64::max);
    println!(
        "  medians over {kept} of {} runs: those with at most {:.1}% of the CPUs \
         stolen by other guests, else the {MIN_RUNS} least disturbed (worst kept {:.1}%)",
        shares.len(),
        QUIET_STEAL * 100.0,
        worst * 100.0
    );
}

/// Untraced runs: the end-to-end metrics.
fn end_to_end(w: &Workload, seconds: f64, tally: &mut Tally) -> Metrics {
    let solo = w.solo_outputs().unwrap_or_else(|e| {
        tally.fail(e);
        Vec::new()
    });
    tally.run(w, &solo, false); // warm-up
                                // Per run: (steal share, (set-up times, (tasks/s, peak MB))).
    let mut samples = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while samples.len() < MIN_RUNS || Instant::now() < deadline {
        let clock = StealClock::start();
        let setups: Vec<f64> = (0..SETUPS_PER_RUN).map(|_| setup_once(w, tally)).collect();
        let run = tally
            .run_sampled(w, &solo, false)
            .map(|(r, peak_kb)| (tasks_per_s(&r), peak_kb / 1024.0));
        samples.push((clock.share(), (setups, run)));
    }
    let mut shares: Vec<f64> = samples.iter().map(|(share, _)| *share).collect();
    shares.sort_by(f64::total_cmp);
    let kept = least_stolen(samples, MIN_RUNS);
    print_kept(&shares, kept.len());
    let setups: Vec<f64> = kept.iter().flat_map(|(s, _)| s.iter().copied()).collect();
    let (rates, peaks): (Vec<f64>, Vec<f64>) = kept.iter().filter_map(|(_, run)| *run).unzip();
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    print_samples("tasks_per_s", &rates);
    print_samples("setup_s", &setups);
    print_samples("peak_rss_mb", &peaks);
    Metrics::from([
        ("tasks_per_s", med(&rates)),
        ("setup_s", med(&setups)),
        ("peak_rss_mb", med(&peaks)),
        (
            "ok_frac",
            1.0 - tally.failed as f64 / tally.attempted as f64,
        ),
    ])
}

/// Traced runs alternating with untraced ones, then the layer ladder and
/// (for the sweep) the serial baseline: the per-layer metrics.
fn per_layer(w: &Workload, seconds: f64, tally: &mut Tally) -> Metrics {
    let solo = w.solo_outputs().unwrap_or_else(|e| {
        tally.fail(e);
        Vec::new()
    });
    let rss = RssPeak::start();
    run_empty(w, tally);
    let empty_kb = rss.stop() as f64;
    tally.run(w, &solo, false); // warm-up

    // Per pair of runs: (steal share, (untraced (tasks/s, wall s, RSS
    // growth KB/leaf), traced (tasks/s, span metrics))). The traced run is
    // RSS-sampled too, so both sides of the tracing overhead pay the same
    // sampler. Half the budget goes to runs; the ladder and baseline take
    // the rest.
    let mut samples = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds / 2.0);
    while samples.len() < MIN_RUNS || Instant::now() < deadline {
        let clock = StealClock::start();
        let untraced = tally.run_sampled(w, &solo, false).map(|(r, peak_kb)| {
            let leaves = r.total_tasks() as f64;
            (
                tasks_per_s(&r),
                r.elapsed.as_secs_f64(),
                (peak_kb - empty_kb) / leaves,
            )
        });
        let traced =
            tally
                .run_sampled(w, &solo, true)
                .and_then(|(r, _)| match layers::from_traced(w, &r) {
                    Ok(m) => Some((tasks_per_s(&r), m)),
                    Err(e) => {
                        tally.fail(e);
                        None
                    }
                });
        samples.push((clock.share(), (untraced, traced)));
    }
    let mut shares: Vec<f64> = samples.iter().map(|(share, _)| *share).collect();
    shares.sort_by(f64::total_cmp);
    let kept = least_stolen(samples, MIN_RUNS);
    print_kept(&shares, kept.len());
    let (mut untraced, mut walls, mut growth, mut traced) = (vec![], vec![], vec![], vec![]);
    let mut spans: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (u, t) in kept {
        if let Some((rate, wall, g)) = u {
            untraced.push(rate);
            walls.push(wall);
            growth.push(g);
        }
        if let Some((rate, m)) = t {
            traced.push(rate);
            for (k, v) in m {
                spans.entry(k).or_default().push(v);
            }
        }
    }

    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let mut m: Metrics = spans.iter().map(|(k, v)| (*k, median(v))).collect();
    // A rung that panics inside a layer is a failed check, not a crash.
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| layers::ladder(w))) {
        Ok(Ok(rungs)) => m.extend(rungs),
        Ok(Err(e)) => tally.fail(e),
        Err(_) => tally.fail("a ladder rung panicked".to_string()),
    }
    let (serial, eff) = match &w.programs[0].2 {
        Program::Sweep(s) if !w.tenants => match layers::serial_s(s) {
            Ok(secs) => (secs, secs / (med(&walls) * WORKERS as f64)),
            Err(e) => {
                tally.fail(e);
                (0.0, 0.0)
            }
        },
        _ => (0.0, 0.0),
    };
    let (t, u) = (med(&traced), med(&untraced));
    m.extend([
        ("core.rss_growth_kb_per_task", med(&growth)),
        ("core.serial_s", serial),
        ("core.parallel_eff", eff),
        (
            "core.trace_overhead_frac",
            if u > 0.0 { 1.0 - t / u } else { 0.0 },
        ),
        ("core.traced_tasks_per_s", t),
        ("core.untraced_tasks_per_s", u),
    ]);
    m
}

/// A finished benchmark run.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in table order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("{}: {{\"value\": {v}, \"unit\": {}}}", quote(n), quote(u))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn bench(name: &str, seed: u64, seconds: f64, trace: bool, sizes: Sizes) -> Report {
    let w = Workload::new(name, seed, sizes).expect("workload name was validated");
    let mut tally = Tally::default();
    let (table, values): (&[(&'static str, &'static str)], Metrics) = if trace {
        (&PER_LAYER, per_layer(&w, seconds, &mut tally))
    } else {
        (&END_TO_END, end_to_end(&w, seconds, &mut tally))
    };
    let metrics = table
        .iter()
        .map(|&(n, u)| (n, values.get(n).copied().unwrap_or(0.0), u))
        .collect();
    Report {
        correct: tally.errors.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

/// Run every workload small, in both modes, and assert that each metric
/// of `BENCHMARK.json` is printed with its unit and every check passes.
fn self_test() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let spec = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let listed = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |f| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    if workloads != NAMES {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?}, benchmark runs {NAMES:?}"
        ));
    }
    for name in NAMES {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = bench(name, 7, 0.2, trace, SMALL);
            let line = report.json();
            println!("{name} trace={}: {line}", u8::from(trace));
            let out = Json::parse(&line).map_err(|e| format!("{name}: output JSON: {e}"))?;
            if out.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!("{name} trace={trace}: a check failed"));
            }
            let printed = out.get("metrics").ok_or("no metrics")?;
            let want = listed(key);
            let keys = match printed {
                Json::Obj(m) => m.len(),
                _ => 0,
            };
            if keys != want.len() {
                return Err(format!(
                    "{name}: {keys} {key} metrics printed, {} listed",
                    want.len()
                ));
            }
            for (metric, unit) in want {
                let m = printed
                    .get(&metric)
                    .ok_or_else(|| format!("{name}: metric {metric} not printed"))?;
                if m.get("unit").and_then(Json::as_str) != Some(unit.as_str()) {
                    return Err(format!("{name}: metric {metric} not printed in {unit}"));
                }
                if m.get("value").and_then(Json::as_f64).is_none() {
                    return Err(format!("{name}: metric {metric} has no value"));
                }
            }
        }
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--self-test") {
        match self_test() {
            Ok(()) => println!("self-test passed"),
            Err(e) => {
                eprintln!("self-test failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed N --seconds S --trace 0|1 | --self-test",
                NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let report = bench(&args.workload, args.seed, args.seconds, args.trace, FULL);
    println!(
        "workload {} seed {} trace {} on {} CPUs: leaf tasks attempted {} failed {} (failed_frac {})",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for (name, value, unit) in &report.metrics {
        println!("  {name:<34} {value:>14.6} {unit}");
    }
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}
