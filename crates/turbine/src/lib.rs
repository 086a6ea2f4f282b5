//! # turbine — the distributed-memory dataflow engine
//!
//! Turbine evaluates Swift semantics "in a distributed manner (no
//! bottleneck)" (Wozniak et al., CLUSTER 2015, §II.B): STC compiles Swift
//! to *Turbine code* — Tcl that calls the `turbine::*` command set — and at
//! run time every rank is an engine, an ADLB server, or a worker (Fig. 2).
//!
//! This crate supplies:
//!
//! * the **typed datum layer** ([`types`]): void/int/float/string/blob
//!   futures and containers, encoded onto the ADLB data store;
//! * the **`turbine::*` Tcl command set** ([`commands`]): data creation,
//!   stores/retrieves, containers, rules, task spawning, `python`/`r`
//!   leaf evaluation, blob utilities, and the shell interface;
//! * the **engine** ([`engine`]): data-dependent *rules* that fire when
//!   their input futures close (driven by ADLB notification tasks), local
//!   evaluation of control actions, and distribution of leaf tasks;
//! * the **worker** ([`worker`]): the leaf-task executor with per-rank
//!   embedded Tcl/Python/R interpreters under the §III.C
//!   retain-vs-reinitialize policy;
//! * the **Tcl runtime library** ([`library`]): the pure-Tcl procs
//!   (`swt:*`) that STC-generated code calls for arithmetic, string ops,
//!   printf, and loop splitting — the analogue of Turbine's `lib/*.tcl`;
//! * the **per-rank driver** ([`run`]): role dispatch and output
//!   collection for a whole simulated machine.
//!
//! The integration tests in this crate run hand-written Turbine code; the
//! `stc` crate generates such code from Swift source, and `swiftt-core`
//! glues both into the public API.

pub mod commands;
pub mod engine;
pub mod library;
pub mod run;
pub mod types;
pub mod worker;

pub use commands::{Ctx, SharedCtx};
pub use run::{is_deadlock, run_rank_tenants, RankOutput, Role, TurbineConfig, TurbineProgram};
pub use types::{InterpPolicy, TurbineType};
