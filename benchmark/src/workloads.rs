//! The four workloads: seeded Swift sources, the machine each runs on, and
//! the reference each run's output is checked against.
//!
//! The seed only shapes the generated Swift source (bag values, sweep
//! parameter points); the program under test sees nothing but that source.

use swiftt_core::{RunResult, Runtime, SwiftTError};

/// Python trajectory length per sweep point.
pub const SWEEP_STEPS: usize = 1500;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "bag_noop",
    "interlang_sweep",
    "bag_durable",
    "tenants_mixed",
];

/// Run sizes: leaf counts for the bags, parameter points for the sweeps.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub bag: usize,
    pub sweep: usize,
    pub durable: usize,
    pub tenant_bag: usize,
    pub tenant_sweep: usize,
}

/// The sizes the benchmark reports at.
pub const FULL: Sizes = Sizes {
    bag: 5_000,
    sweep: 400,
    durable: 3_000,
    tenant_bag: 5_000,
    tenant_sweep: 100,
};

/// The sizes of the self-test.
pub const SMALL: Sizes = Sizes {
    bag: 400,
    sweep: 12,
    durable: 200,
    tenant_bag: 300,
    tenant_sweep: 8,
};

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5157_4946_5454_4245)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// A bag of zero-work Tcl leaves over the index range `lo..lo + n`. Each
/// leaf stores its index and prints it, so the output carries the values
/// the leaves produced.
#[derive(Debug, Clone)]
pub struct Bag {
    pub lo: u64,
    pub n: usize,
}

impl Bag {
    fn seeded(rng: &mut Rng, n: usize) -> Bag {
        // Six-digit values whatever the seed, so every seed prints the
        // same number of bytes.
        Bag {
            lo: rng.range(100_000, 800_000),
            n,
        }
    }

    pub fn source(&self) -> String {
        format!(
            r#"
(int o) work (int i) [
    "set <<o>> <<i>>
     puts <<i>>"
];
foreach i in [{lo}:{hi}] {{
    int s = work(i);
}}
"#,
            lo = self.lo,
            hi = self.lo + self.n as u64 - 1
        )
    }

    /// The Tcl fragment one leaf evaluates, with its template filled in.
    pub fn tcl_fragment(&self, k: usize) -> String {
        let v = self.lo + k as u64;
        format!("set o {v}\nputs {v}")
    }

    /// Check the printed values: exactly one line per leaf, and their
    /// count, sum and sum of squares match the seeded index range.
    pub fn check(&self, stdout: &str) -> Result<(), String> {
        let (mut count, mut sum, mut sq) = (0u64, 0u64, 0u64);
        for line in stdout.lines() {
            let v: u64 = line
                .parse()
                .map_err(|_| format!("bag: unexpected output line {line:?}"))?;
            if v < self.lo || v >= self.lo + self.n as u64 {
                return Err(format!("bag: value {v} outside the seeded range"));
            }
            count += 1;
            sum = sum.wrapping_add(v);
            sq = sq.wrapping_add(v.wrapping_mul(v));
        }
        let (mut want_sum, mut want_sq) = (0u64, 0u64);
        for v in self.lo..self.lo + self.n as u64 {
            want_sum = want_sum.wrapping_add(v);
            want_sq = want_sq.wrapping_add(v.wrapping_mul(v));
        }
        if count != self.n as u64 || sum != want_sum || sq != want_sq {
            return Err(format!(
                "bag: {count} values (want {}), checksum ({sum}, {sq}) want ({want_sum}, {want_sq})",
                self.n
            ));
        }
        Ok(())
    }
}

/// A parameter sweep after `examples/stats_pipeline.rs`: per point a
/// Python trajectory, R summary statistics, a Tcl report line, `printf`.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// First temperature; the points are `t0 .. t0 + points`.
    pub t0: u64,
    pub points: usize,
    /// Initial excess energy, as written into the Python source.
    pub e0: String,
}

/// Decay factor of the trajectory and `1 - DECAY`, as written into the
/// Python source.
const DECAY: &str = "0.9";
const PULL: &str = "0.1";

/// The Tcl report format shared by the program and the reference.
const REPORT_FORMAT: &str = "T=%-4d mean=%-8s sd=%-6s min=%s";

impl Sweep {
    fn seeded(rng: &mut Rng, points: usize) -> Sweep {
        // Four-digit temperatures whatever the seed, so every seed moves
        // trajectories of the same length.
        Sweep {
            t0: rng.range(1_000, 8_000),
            points,
            e0: format!("{}.0", rng.range(50, 150)),
        }
    }

    pub fn temps(&self) -> impl Iterator<Item = u64> + '_ {
        self.t0..self.t0 + self.points as u64
    }

    /// The Python code the `simulate` leaf runs for temperature `t`.
    pub fn python_code(&self, t: u64) -> String {
        format!(
            "t = {t}\nvals = []\ne = {e0} + t\nfor step in range({SWEEP_STEPS}):\n    e = e * {d} + {p} * t\n    vals.append(round(e, 4))\nparts = []\nfor v in vals:\n    parts.append(str(v))\ncsv = ','.join(parts)",
            e0 = self.e0,
            d = DECAY,
            p = PULL
        )
    }

    /// The R code the `analyze` leaf runs on a trajectory.
    pub fn r_code(csv: &str) -> String {
        format!(
            "e <- c({csv})\nm <- round(mean(e), 2)\ns <- round(sd(e), 2)\nlo <- round(min(e), 2)"
        )
    }

    pub const R_EXPR: &'static str = "paste(m, s, lo)";

    /// The Tcl fragment the `report` leaf evaluates.
    pub fn tcl_fragment(t: u64, stats: &str) -> String {
        format!("lassign {{{stats}}} m s lo\nset o [format {{{REPORT_FORMAT}}} {t} $m $s $lo]")
    }

    pub fn source(&self) -> String {
        let code = self.python_code(0).replacen("t = 0", "t = @T@", 1);
        format!(
            r#"
(string o) simulate (int temp) [
    "set code [string map [list @T@ <<temp>>] {{{code}}}]
     set <<o>> [ python $code {{csv}} ]"
];
(string o) analyze (string csv) [
    "set code [string map [list @CSV@ <<csv>>] {{{r}}}]
     set <<o>> [ r $code {{{r_expr}}} ]"
];
(string o) report (int temp, string stats) [
    "lassign <<stats>> m s lo
     set <<o>> [format {{{REPORT_FORMAT}}} <<temp>> $m $s $lo]"
];
foreach t in [{lo}:{hi}] {{
    string traj = simulate(t);
    string stats = analyze(traj);
    string line = report(t, stats);
    printf("%s", line);
}}
"#,
            r = Self::r_code("@CSV@"),
            r_expr = Self::R_EXPR,
            lo = self.t0,
            hi = self.t0 + self.points as u64 - 1
        )
    }

    /// The trajectory for temperature `t`, recomputed from the formula the
    /// Python leaf runs (round half away from zero, as `round` does there).
    pub fn trajectory(&self, t: u64) -> Vec<f64> {
        let d: f64 = DECAY.parse().expect("DECAY is a literal");
        let p: f64 = PULL.parse().expect("PULL is a literal");
        let e0: f64 = self.e0.parse().expect("e0 is a literal");
        let tf = t as f64;
        let mut e = e0 + tf;
        (0..SWEEP_STEPS)
            .map(|_| {
                e = e * d + p * tf;
                (e * 10_000.0).round() / 10_000.0
            })
            .collect()
    }

    /// The CSV the `simulate` leaf stores (Python `str` of each value).
    pub fn csv(&self, t: u64) -> String {
        let parts: Vec<String> = self
            .trajectory(t)
            .iter()
            .map(|v| {
                let s = format!("{v}");
                if s.contains('.') || s.contains('e') {
                    s
                } else {
                    format!("{s}.0")
                }
            })
            .collect();
        parts.join(",")
    }

    /// The stats the `analyze` leaf returns for temperature `t`,
    /// recomputed independently of the interpreters: mean, sample
    /// standard deviation and minimum of the trajectory, each rounded to
    /// 2 decimals and printed as R prints a number.
    pub fn expected_stats(&self, t: u64) -> String {
        let e = self.trajectory(t);
        let n = e.len() as f64;
        let mean = e.iter().sum::<f64>() / n;
        let var = e.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        let min = e.iter().copied().fold(f64::INFINITY, f64::min);
        let r2 = |x: f64| r_number((x * 100.0).round() / 100.0);
        format!("{} {} {}", r2(mean), r2(var.sqrt()), r2(min))
    }

    /// The report line for temperature `t`.
    pub fn expected_line(&self, t: u64) -> String {
        let stats = self.expected_stats(t);
        let f: Vec<&str> = stats.split(' ').collect();
        format!("T={t:<4} mean={:<8} sd={:<6} min={}", f[0], f[1], f[2])
    }

    /// Check the printed report lines against the reference, as a
    /// multiset: workers interleave their output in arbitrary order.
    pub fn check(&self, stdout: &str) -> Result<(), String> {
        let mut got: Vec<&str> = stdout.lines().collect();
        got.sort_unstable();
        let mut want: Vec<String> = self.temps().map(|t| self.expected_line(t)).collect();
        want.sort_unstable();
        if got.len() != want.len() {
            return Err(format!(
                "sweep: {} report lines, want {}",
                got.len(),
                want.len()
            ));
        }
        if let Some((g, w)) = got.iter().zip(&want).find(|(g, w)| **g != w.as_str()) {
            return Err(format!("sweep: line {g:?} does not match reference {w:?}"));
        }
        Ok(())
    }
}

/// A double as R prints it here: integers without a decimal point, other
/// values with trailing zeros dropped. The sweep's statistics carry at
/// most 4 integer and 2 decimal digits, well inside R's 7 significant.
fn r_number(v: f64) -> String {
    if v == v.trunc() {
        return format!("{}", v as i64);
    }
    let s = format!("{v:.7}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// One Swift program of a workload and its reference.
#[derive(Debug, Clone)]
pub enum Program {
    Bag(Bag),
    Sweep(Sweep),
}

impl Program {
    pub fn source(&self) -> String {
        match self {
            Program::Bag(b) => b.source(),
            Program::Sweep(s) => s.source(),
        }
    }

    /// Leaf tasks one run executes (a sweep point is four leaves:
    /// simulate, analyze, report and its `printf`).
    pub fn leaves(&self) -> u64 {
        match self {
            Program::Bag(b) => b.n as u64,
            Program::Sweep(s) => 4 * s.points as u64,
        }
    }

    pub fn check(&self, stdout: &str) -> Result<(), String> {
        match self {
            Program::Bag(b) => b.check(stdout),
            Program::Sweep(s) => s.check(stdout),
        }
    }
}

/// A workload: its programs (one, or one per tenant), machine and sources.
pub struct Workload {
    pub name: &'static str,
    /// `(tenant name, weight, program)`; a solo workload has one entry.
    pub programs: Vec<(&'static str, u32, Program)>,
    pub sources: Vec<String>,
    /// Whether the programs run as tenants of one shared world.
    pub tenants: bool,
}

impl Workload {
    pub fn new(name: &str, seed: u64, sizes: Sizes) -> Option<Workload> {
        let mut rng = Rng::new(seed);
        let (name, programs, tenants) = match name {
            "bag_noop" => (
                NAMES[0],
                vec![("main", 1, Program::Bag(Bag::seeded(&mut rng, sizes.bag)))],
                false,
            ),
            "interlang_sweep" => (
                NAMES[1],
                vec![(
                    "main",
                    1,
                    Program::Sweep(Sweep::seeded(&mut rng, sizes.sweep)),
                )],
                false,
            ),
            "bag_durable" => (
                NAMES[2],
                vec![(
                    "main",
                    1,
                    Program::Bag(Bag::seeded(&mut rng, sizes.durable)),
                )],
                false,
            ),
            "tenants_mixed" => (
                NAMES[3],
                vec![
                    (
                        "a",
                        3,
                        Program::Bag(Bag::seeded(&mut rng, sizes.tenant_bag)),
                    ),
                    (
                        "b",
                        1,
                        Program::Sweep(Sweep::seeded(&mut rng, sizes.tenant_sweep)),
                    ),
                ],
                true,
            ),
            _ => return None,
        };
        let sources = programs.iter().map(|(_, _, p)| p.source()).collect();
        Some(Workload {
            name,
            programs,
            sources,
            tenants,
        })
    }

    /// Leaf tasks one run executes.
    pub fn leaves(&self) -> u64 {
        self.programs.iter().map(|(_, _, p)| p.leaves()).sum()
    }

    /// The machine: at most 5 rank threads, [`WORKERS`] of them workers.
    pub fn machine(&self, tracing: bool) -> Runtime {
        match self.name {
            // 1 engine, 2 workers, 2 servers; replication 2; checkpoint on.
            "bag_durable" => pinned(5, tracing)
                .servers(2)
                .replication(2)
                .checkpoint(adlb::CHECKPOINT_DEFAULT_INTERVAL),
            // 1 engine per tenant, 2 workers, 1 server.
            _ if self.tenants => pinned(5, tracing),
            // 1 engine, 2 workers, 1 server.
            _ => pinned(4, tracing),
        }
    }

    /// Run `sources` (the workload's own, or empty programs of the same
    /// shape) on the workload's machine.
    pub fn run_sources(&self, sources: &[String], tracing: bool) -> Result<RunResult, SwiftTError> {
        let mut rt = self.machine(tracing);
        if !self.tenants {
            return rt.run(&sources[0]);
        }
        for ((name, weight, _), src) in self.programs.iter().zip(sources) {
            rt = rt.submit(*name, *weight, None, src.as_str());
        }
        rt.run_tenants()
    }

    pub fn run(&self, tracing: bool) -> Result<RunResult, SwiftTError> {
        self.run_sources(&self.sources, tracing)
    }

    /// Check a run's output against the reference: per tenant for tenant
    /// runs, where `solo` (each program's stdout from a solo run) must
    /// also match line for line.
    pub fn check(&self, r: &RunResult, solo: &[String]) -> Result<(), String> {
        if r.total_tasks() != self.leaves() {
            return Err(format!(
                "{} leaf tasks executed, want {}",
                r.total_tasks(),
                self.leaves()
            ));
        }
        if r.total_tasks_failed() != 0 {
            return Err(format!("{} leaf tasks failed", r.total_tasks_failed()));
        }
        if !self.tenants {
            return self.programs[0].2.check(&r.stdout);
        }
        for (i, (name, _, program)) in self.programs.iter().enumerate() {
            let t = r
                .tenant(i as u32)
                .ok_or_else(|| format!("tenant {name}: no report"))?;
            if let Some(e) = &t.error {
                return Err(format!("tenant {name}: {e}"));
            }
            program
                .check(&t.stdout)
                .map_err(|e| format!("tenant {name}: {e}"))?;
            if let Some(s) = solo.get(i) {
                if sorted_lines(&t.stdout) != sorted_lines(s) {
                    return Err(format!("tenant {name}: output differs from its solo run"));
                }
            }
        }
        Ok(())
    }

    /// Each program's stdout from a solo run on the plain 4-rank machine
    /// (1 engine, 2 workers, 1 server), checked against its reference.
    pub fn solo_outputs(&self) -> Result<Vec<String>, String> {
        if !self.tenants {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        for ((name, _, program), src) in self.programs.iter().zip(&self.sources) {
            let r = pinned(4, false)
                .run(src)
                .map_err(|e| format!("solo run of tenant {name}: {e}"))?;
            program
                .check(&r.stdout)
                .map_err(|e| format!("solo run of tenant {name}: {e}"))?;
            out.push(r.stdout);
        }
        Ok(out)
    }
}

/// Worker ranks of every workload's machine.
pub const WORKERS: usize = 2;

/// A machine of `ranks` ranks, one server and one engine per program, with
/// every knob that an environment variable could otherwise set pinned.
fn pinned(ranks: usize, tracing: bool) -> Runtime {
    Runtime::new(ranks)
        .batching(true)
        .replication(1)
        .re_replication(true)
        .checkpoint(0)
        .tracing(tracing)
}

/// Lines sorted: stdout order across workers depends on scheduling.
fn sorted_lines(s: &str) -> Vec<&str> {
    let mut v: Vec<&str> = s.lines().collect();
    v.sort_unstable();
    v
}
