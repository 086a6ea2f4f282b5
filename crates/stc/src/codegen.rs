//! Code generation: Swift AST → Turbine code (Tcl).
//!
//! Every Swift variable becomes a Turbine datum (future) whose id lives in
//! a generated Tcl variable. Expressions compile to *rules*: the Tcl we
//! emit never waits — it only tells the engine what to run when inputs
//! close. `foreach` bodies and `if` branches become generated procs in the
//! preamble (so any engine can run them) that receive the captured datum
//! ids as arguments; loops are split into distributable control tasks.
//! Container writes reserve writer slots so an array closes exactly when
//! its last (possibly remote) writer finishes — Swift/T's slot counting.

use std::collections::{HashMap, HashSet};

use crate::ast::*;
use crate::parser;

/// Compilation failure with source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Explanation, Swift-level.
    pub message: String,
    /// 1-based source line (0 when unknown).
    pub line: usize,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stc: line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CompileError {}

/// The compiler output: Turbine code, ready for `turbine::run_rank_tenants`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompiledProgram {
    /// Proc definitions (user functions, loop bodies, branches); loaded on
    /// every engine and worker.
    pub preamble: String,
    /// The main body; evaluated on engine 0.
    pub main: String,
}

impl CompiledProgram {
    /// A readable combined listing, for debugging and docs.
    pub fn listing(&self) -> String {
        format!(
            "# ---- preamble ----\n{}\n# ---- main ----\n{}",
            self.preamble, self.main
        )
    }
}

/// Compile Swift source to Turbine code.
pub fn compile(src: &str) -> Result<CompiledProgram, CompileError> {
    let prog = parser::parse(src).map_err(|e| CompileError {
        message: e.message,
        line: e.line,
    })?;
    let mut cg = Codegen::new();
    cg.collect_signatures(&prog)?;
    for f in &prog.functions {
        cg.emit_function(f)?;
    }
    let mut scope = Scope::new();
    let mut out = String::new();
    cg.emit_block(&prog.main, &mut scope, &mut out)?;
    cg.close_scope_containers(&scope, &mut out);
    Ok(CompiledProgram {
        preamble: cg.preamble,
        main: out,
    })
}

#[derive(Debug, Clone)]
struct VarInfo {
    ty: Type,
    /// Tcl variable holding the datum id.
    tcl: String,
    /// Engine-side Tcl value (an int literal, `$__val`, `$__idx`) when
    /// the engine already holds it as text byte-identical to what
    /// `turbine::retrieve_integer` would return. Leaf calls in the same
    /// proc pass it by value; it never crosses a proc boundary.
    value: Option<String>,
}

impl VarInfo {
    fn future(ty: Type, tcl: String) -> Self {
        VarInfo {
            ty,
            tcl,
            value: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FuncKind {
    Composite,
    TclLeaf,
}

#[derive(Debug, Clone)]
struct FuncSig {
    outputs: Vec<Type>,
    inputs: Vec<Type>,
    /// Call sites of a Tcl leaf pass value-known arguments by value.
    kind: FuncKind,
}

struct Scope {
    /// Innermost last. Each frame: name → info.
    frames: Vec<HashMap<String, VarInfo>>,
    /// Containers declared in the *current top frame* (closed at scope
    /// end), in declaration order.
    owned_containers: Vec<String>,
    /// Tcl variables whose datum id some emitted code reads.
    datums_used: HashSet<String>,
}

impl Scope {
    fn new() -> Self {
        Scope {
            frames: vec![HashMap::new()],
            owned_containers: Vec::new(),
            datums_used: HashSet::new(),
        }
    }

    fn declare(&mut self, name: &str, info: VarInfo) -> Result<(), String> {
        let top = self.frames.last_mut().unwrap();
        if top.contains_key(name) {
            return Err(format!(
                "variable \"{name}\" already declared in this scope"
            ));
        }
        top.insert(name.to_string(), info);
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<&VarInfo> {
        self.frames.iter().rev().find_map(|f| f.get(name))
    }

    /// Look `name` up for code that reads its datum id, and record the
    /// read: a loop variable's future is created only if one happens.
    fn datum(&mut self, name: &str) -> Option<&VarInfo> {
        let info = self.frames.iter().rev().find_map(|f| f.get(name))?;
        self.datums_used.insert(info.tcl.clone());
        Some(info)
    }

    /// `name` as a parameter of a generated proc: only the datum id
    /// crosses the boundary, never a value binding.
    fn capture(&mut self, name: &str) -> Option<VarInfo> {
        self.datum(name)
            .map(|i| VarInfo::future(i.ty.clone(), i.tcl.clone()))
    }

    fn push(&mut self) {
        self.frames.push(HashMap::new());
    }

    #[allow(dead_code)] // symmetry with push; used by future passes
    fn pop(&mut self) {
        self.frames.pop();
    }
}

struct Codegen {
    preamble: String,
    sigs: HashMap<String, FuncSig>,
    /// Tcl leaf definitions, for variants generated at call sites.
    leaves: HashMap<String, FuncDef>,
    /// By-value leaf variants already in the preamble.
    leaf_variants: HashSet<String>,
    tmp: u64,
    procn: u64,
}

fn err<T>(line: usize, msg: impl std::fmt::Display) -> Result<T, CompileError> {
    Err(CompileError {
        message: msg.to_string(),
        line,
    })
}

/// Builtin signature: (inputs, output); variadic handled specially.
fn builtin_sig(name: &str) -> Option<(&'static [Type], Type)> {
    use Type::*;
    Some(match name {
        "strlen" => (&[Str], Int),
        "toint" => (&[Str], Int),
        "fromint" => (&[Int], Str),
        "tofloat" => (&[Str], Float),
        "fromfloat" => (&[Float], Str),
        "itof" => (&[Int], Float),
        "ftoi" => (&[Float], Int),
        "sqrt" | "exp" | "log" | "log10" | "sin" | "cos" | "floor" | "ceil" | "round"
        | "abs_float" => (&[Float], Float),
        "pow" | "atan2" | "fmod" | "hypot" => (&[Float, Float], Float),
        "abs_int" => (&[Int], Int),
        "max_int" | "min_int" => (&[Int, Int], Int),
        "python" | "r" => (&[Str, Str], Str),
        "sh" => (&[Str], Str),
        _ => return None,
    })
}

impl Codegen {
    fn new() -> Self {
        Codegen {
            preamble: String::new(),
            sigs: HashMap::new(),
            leaves: HashMap::new(),
            leaf_variants: HashSet::new(),
            tmp: 0,
            procn: 0,
        }
    }

    fn fresh_tmp(&mut self) -> String {
        self.tmp += 1;
        format!("t{}", self.tmp)
    }

    fn fresh_proc(&mut self, kind: &str) -> String {
        self.procn += 1;
        format!("swp:{kind}{}", self.procn)
    }

    fn collect_signatures(&mut self, prog: &Program) -> Result<(), CompileError> {
        for f in &prog.functions {
            // Special forms cannot be redefined; ordinary library builtins
            // (sqrt, hypot, python, ...) may be shadowed by user functions.
            if self.sigs.contains_key(&f.name)
                || matches!(
                    f.name.as_str(),
                    "printf" | "trace" | "assert" | "strcat" | "size" | "argv"
                )
            {
                return err(f.line, format!("function \"{}\" already defined", f.name));
            }
            let kind = match f.body {
                FuncBody::Composite(_) => FuncKind::Composite,
                FuncBody::TclLeaf { .. } => FuncKind::TclLeaf,
            };
            if kind == FuncKind::TclLeaf {
                for p in &f.outputs {
                    if matches!(p.ty, Type::Array(_)) {
                        return err(f.line, "leaf functions cannot have array outputs");
                    }
                }
                self.leaves.insert(f.name.clone(), f.clone());
            }
            self.sigs.insert(
                f.name.clone(),
                FuncSig {
                    outputs: f.outputs.iter().map(|p| p.ty.clone()).collect(),
                    inputs: f.inputs.iter().map(|p| p.ty.clone()).collect(),
                    kind,
                },
            );
        }
        Ok(())
    }

    // ---- declarations & helpers --------------------------------------

    fn emit_create(&self, out: &mut String, tcl: &str, ty: &Type) {
        out.push_str(&format!(
            "set {tcl} [turbine::unique]\nturbine::create ${tcl} {}\n",
            ty.turbine_name()
        ));
    }

    fn alloc_td(&mut self, out: &mut String, ty: &Type) -> String {
        let t = self.fresh_tmp();
        self.emit_create(out, &t, ty);
        t
    }

    fn close_scope_containers(&self, scope: &Scope, out: &mut String) {
        for c in &scope.owned_containers {
            out.push_str(&format!("turbine::container_close ${c}\n"));
        }
    }

    // ---- functions -----------------------------------------------------

    fn emit_function(&mut self, f: &FuncDef) -> Result<(), CompileError> {
        match &f.body {
            FuncBody::Composite(body) => self.emit_composite(f, body),
            FuncBody::TclLeaf { .. } => self.emit_tcl_leaf(f, &vec![false; f.inputs.len()]),
        }
    }

    fn emit_composite(&mut self, f: &FuncDef, body: &[Stmt]) -> Result<(), CompileError> {
        let mut scope = Scope::new();
        let mut params = Vec::new();
        for p in f.outputs.iter().chain(&f.inputs) {
            let tcl = format!("p_{}", p.name);
            scope
                .declare(&p.name, VarInfo::future(p.ty.clone(), tcl.clone()))
                .map_err(|m| CompileError {
                    message: m,
                    line: f.line,
                })?;
            params.push(tcl);
        }
        let mut code = String::new();
        self.emit_block(body, &mut scope, &mut code)?;
        self.close_scope_containers(&scope, &mut code);
        self.preamble.push_str(&format!(
            "proc swift:{} {{{}}} {{\n{}}}\n",
            f.name,
            params.join(" "),
            indent(&code)
        ));
        Ok(())
    }

    /// The paper's §III.A leaf feature: a Tcl template with `<<x>>`
    /// placeholders, automatic dataflow insertion, and type conversion.
    /// Emits the rule/task proc pair of one variant of leaf `f`.
    /// `by_value[k]` marks input `k` as passed by value: the task takes
    /// it as is instead of retrieving it, and the rule does not wait on
    /// it.
    fn emit_tcl_leaf(&mut self, f: &FuncDef, by_value: &[bool]) -> Result<(), CompileError> {
        let FuncBody::TclLeaf { package, template } = &f.body else {
            unreachable!("emit_tcl_leaf on a composite function")
        };
        let name = leaf_proc_name(&f.name, by_value);
        let params: Vec<String> = f
            .outputs
            .iter()
            .chain(&f.inputs)
            .map(|p| format!("p_{}", p.name))
            .collect();

        // Substitute placeholders: inputs become `$name` (the retrieved
        // value variable), outputs become `name` (a variable the template
        // assigns, e.g. `set <<o>> ...`).
        let mut body = template.to_string();
        for p in &f.inputs {
            body = body.replace(&format!("<<{}>>", p.name), &format!("${}", p.name));
        }
        for p in &f.outputs {
            body = body.replace(&format!("<<{}>>", p.name), &p.name);
        }
        if body.contains("<<") {
            return err(
                f.line,
                format!(
                    "template for \"{}\" references unknown <<placeholders>>",
                    f.name
                ),
            );
        }

        let mut task = String::new();
        if let Some((pkg, _version)) = package {
            task.push_str(&format!("package require {pkg}\n"));
        }
        for (p, &value) in f.inputs.iter().zip(by_value) {
            let retrieve = match p.ty {
                _ if value => {
                    task.push_str(&format!("set {} $p_{}\n", p.name, p.name));
                    continue;
                }
                Type::Int | Type::Bool => "turbine::retrieve_integer",
                Type::Float => "turbine::retrieve_float",
                Type::Str => "turbine::retrieve_string",
                Type::Blob => "turbine::retrieve_blob",
                Type::Void => continue,
                Type::Array(_) => {
                    // Arrays are passed by container id: the template can
                    // walk them with turbine::container_* commands. The
                    // rule below waits for the whole container to close.
                    task.push_str(&format!("set {} $p_{}\n", p.name, p.name));
                    continue;
                }
            };
            task.push_str(&format!("set {} [{retrieve} $p_{}]\n", p.name, p.name));
        }
        task.push_str(&body);
        task.push('\n');
        for p in &f.outputs {
            let store = match p.ty {
                Type::Int | Type::Bool => "turbine::store_integer",
                Type::Float => "turbine::store_float",
                Type::Str => "turbine::store_string",
                Type::Blob => "turbine::store_blob",
                Type::Void => "turbine::store_void",
                Type::Array(_) => unreachable!(),
            };
            if p.ty == Type::Void {
                task.push_str(&format!("{store} $p_{}\n", p.name));
            } else {
                task.push_str(&format!("{store} $p_{} ${}\n", p.name, p.name));
            }
        }

        // Rule half: wait on the future inputs, then run the task as leaf
        // work.
        let input_list = f
            .inputs
            .iter()
            .zip(by_value)
            .filter(|(_, &value)| !value)
            .map(|(p, _)| format!("$p_{}", p.name))
            .collect::<Vec<_>>()
            .join(" ");
        let arg_refs = params
            .iter()
            .map(|p| format!("${p}"))
            .collect::<Vec<_>>()
            .join(" ");
        self.preamble.push_str(&format!(
            "proc {name} {{{params}}} {{\n    turbine::rule [list {input_list}] \"{name}_task {arg_refs}\" work\n}}\nproc {name}_task {{{params}}} {{\n{task_body}}}\n",
            params = params.join(" "),
            task_body = indent(&task),
        ));
        Ok(())
    }

    /// The rule proc of leaf `leaf` for the by-value mask `by_value`,
    /// emitted on first use.
    fn leaf_variant(&mut self, leaf: &str, by_value: &[bool]) -> Result<String, CompileError> {
        let name = leaf_proc_name(leaf, by_value);
        if self.leaf_variants.insert(name.clone()) {
            let f = self.leaves[leaf].clone();
            self.emit_tcl_leaf(&f, by_value)?;
        }
        Ok(name)
    }

    // ---- statements -----------------------------------------------------

    fn emit_block(
        &mut self,
        stmts: &[Stmt],
        scope: &mut Scope,
        out: &mut String,
    ) -> Result<(), CompileError> {
        for s in stmts {
            self.emit_stmt(s, scope, out)?;
        }
        Ok(())
    }

    fn emit_stmt(
        &mut self,
        stmt: &Stmt,
        scope: &mut Scope,
        out: &mut String,
    ) -> Result<(), CompileError> {
        let stmt_line = match stmt {
            Stmt::Decl { line, .. }
            | Stmt::Assign { line, .. }
            | Stmt::Call { line, .. }
            | Stmt::MultiAssign { line, .. }
            | Stmt::Foreach { line, .. }
            | Stmt::If { line, .. } => *line,
        };
        self.emit_stmt_inner(stmt, scope, out).map_err(|mut e| {
            if e.line == 0 {
                e.line = stmt_line;
            }
            e
        })
    }

    fn emit_stmt_inner(
        &mut self,
        stmt: &Stmt,
        scope: &mut Scope,
        out: &mut String,
    ) -> Result<(), CompileError> {
        match stmt {
            Stmt::Decl {
                ty,
                name,
                init,
                line,
            } => {
                if *ty == Type::Void && init.is_some() {
                    return err(*line, "void variables cannot be initialized");
                }
                let tcl = format!("v_{name}_{}", {
                    self.tmp += 1;
                    self.tmp
                });
                self.emit_create(out, &tcl, ty);
                if matches!(ty, Type::Array(_)) {
                    scope.owned_containers.push(tcl.clone());
                }
                scope
                    .declare(name, VarInfo::future(ty.clone(), tcl.clone()))
                    .map_err(|m| CompileError {
                        message: m,
                        line: *line,
                    })?;
                if let Some(e) = init {
                    self.compile_into(e, &tcl, ty, scope, out)?;
                }
                Ok(())
            }
            Stmt::Assign {
                target,
                value,
                line,
            } => match target {
                LValue::Var(name) => {
                    let (tcl, ty) = {
                        let info = scope.datum(name).ok_or_else(|| CompileError {
                            message: format!("undefined variable \"{name}\""),
                            line: *line,
                        })?;
                        (info.tcl.clone(), info.ty.clone())
                    };
                    if matches!(ty, Type::Array(_)) {
                        return err(*line, "whole-array assignment is not supported");
                    }
                    self.compile_into(value, &tcl, &ty, scope, out)
                }
                LValue::Index(name, idx) => {
                    let (ctcl, elem_ty) = {
                        let info = scope.datum(name).ok_or_else(|| CompileError {
                            message: format!("undefined variable \"{name}\""),
                            line: *line,
                        })?;
                        match &info.ty {
                            Type::Array(e) => (info.tcl.clone(), (**e).clone()),
                            other => {
                                return err(
                                    *line,
                                    format!("\"{name}\" is {} , not an array", other.swift_name()),
                                )
                            }
                        }
                    };
                    if matches!(elem_ty, Type::Blob | Type::Array(_)) {
                        return err(*line, "arrays of blobs/arrays are not supported");
                    }
                    let (idx_td, idx_ty) = self.compile_expr(idx, scope, out)?;
                    if idx_ty != Type::Int {
                        return err(*line, "array subscripts must be int");
                    }
                    let (val_td, _) = self.compile_expr_expect(value, &elem_ty, scope, out)?;
                    out.push_str(&format!(
                        "turbine::write_refcount_incr ${ctcl} 1\nswt:cinsert_when ${ctcl} ${idx_td} ${val_td} {}\n",
                        elem_ty.turbine_name()
                    ));
                    Ok(())
                }
            },
            Stmt::Call { call, line } => {
                let n_outputs = if let Some(sig) = self.sigs.get(&call.name) {
                    sig.outputs.len()
                } else {
                    0
                };
                if self.sigs.contains_key(&call.name) && n_outputs > 0 {
                    return err(
                        *line,
                        format!(
                            "call to \"{}\" discards its {} output(s)",
                            call.name, n_outputs
                        ),
                    );
                }
                self.emit_call(call, None, scope, out)
            }
            Stmt::MultiAssign {
                targets,
                call,
                line,
            } => {
                let sig = self
                    .sigs
                    .get(&call.name)
                    .cloned()
                    .ok_or_else(|| CompileError {
                        message: format!("unknown function \"{}\"", call.name),
                        line: *line,
                    })?;
                if sig.outputs.len() != targets.len() {
                    return err(
                        *line,
                        format!(
                            "function \"{}\" has {} output(s), but {} target(s) given",
                            call.name,
                            sig.outputs.len(),
                            targets.len()
                        ),
                    );
                }
                if call.args.len() != sig.inputs.len() {
                    return err(
                        *line,
                        format!(
                            "function \"{}\" takes {} argument(s), got {}",
                            call.name,
                            sig.inputs.len(),
                            call.args.len()
                        ),
                    );
                }
                let mut argv = Vec::new();
                for (t, oty) in targets.iter().zip(&sig.outputs) {
                    let info = scope.datum(t).ok_or_else(|| CompileError {
                        message: format!("undefined variable \"{t}\""),
                        line: *line,
                    })?;
                    if &info.ty != oty {
                        return err(
                            *line,
                            format!(
                                "output \"{t}\" is {}, function produces {} (type mismatch)",
                                info.ty.swift_name(),
                                oty.swift_name()
                            ),
                        );
                    }
                    argv.push(format!("${}", info.tcl));
                }
                self.emit_user_call(&call.name, &sig, argv, &call.args, scope, out)
            }
            Stmt::Foreach {
                value_var,
                index_var,
                iterable,
                body,
                line,
            } => self.emit_foreach(
                value_var,
                index_var.as_deref(),
                iterable,
                body,
                *line,
                scope,
                out,
            ),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                line,
            } => self.emit_if(cond, then_branch, else_branch, *line, scope, out),
        }
    }

    // ---- expressions -----------------------------------------------------

    fn infer_type(&self, e: &Expr, scope: &Scope) -> Result<Type, CompileError> {
        Ok(match e {
            Expr::IntLit(_) => Type::Int,
            Expr::FloatLit(_) => Type::Float,
            Expr::StrLit(_) => Type::Str,
            Expr::BoolLit(_) => Type::Bool,
            Expr::Var(name) => scope
                .lookup(name)
                .ok_or_else(|| CompileError {
                    message: format!("undefined variable \"{name}\""),
                    line: e.line(),
                })?
                .ty
                .clone(),
            Expr::Index(name, _, line) => {
                let info = scope.lookup(name).ok_or_else(|| CompileError {
                    message: format!("undefined variable \"{name}\""),
                    line: *line,
                })?;
                match &info.ty {
                    Type::Array(elem) => (**elem).clone(),
                    other => {
                        return err(
                            *line,
                            format!("\"{name}\" is {}, not an array", other.swift_name()),
                        )
                    }
                }
            }
            Expr::Call(c) => {
                if c.name == "strcat" {
                    return Ok(Type::Str);
                }
                if c.name == "size" {
                    return Ok(Type::Int);
                }
                if c.name == "argv" {
                    return Ok(Type::Str);
                }
                // User definitions shadow library builtins.
                if !self.sigs.contains_key(&c.name) {
                    if let Some((_, ret)) = builtin_sig(&c.name) {
                        return Ok(ret);
                    }
                }
                let sig = self.sigs.get(&c.name).ok_or_else(|| CompileError {
                    message: format!("unknown function \"{}\"", c.name),
                    line: c.line,
                })?;
                if sig.outputs.len() != 1 {
                    return err(
                        c.line,
                        format!(
                            "function \"{}\" has {} outputs; only single-output calls can be used as expressions",
                            c.name,
                            sig.outputs.len()
                        ),
                    );
                }
                sig.outputs[0].clone()
            }
            Expr::Unary("-", inner, line) => {
                let t = self.infer_type(inner, scope)?;
                if !matches!(t, Type::Int | Type::Float) {
                    return err(*line, "unary '-' needs a numeric operand");
                }
                t
            }
            Expr::Unary("!", inner, line) => {
                let t = self.infer_type(inner, scope)?;
                if t != Type::Bool {
                    return err(*line, "'!' needs a boolean operand");
                }
                Type::Bool
            }
            Expr::Unary(op, _, line) => return err(*line, format!("unknown unary {op}")),
            Expr::Binary(op, l, r, line) => {
                // Booleans are integers (0/1) in arithmetic contexts.
                let norm = |t: Type| if t == Type::Bool { Type::Int } else { t };
                let lt = norm(self.infer_type(l, scope)?);
                let rt = norm(self.infer_type(r, scope)?);
                match *op {
                    "+" | "-" | "*" | "/" | "%" | "**" => match (&lt, &rt) {
                        (Type::Int, Type::Int) => Type::Int,
                        (Type::Float, Type::Float)
                        | (Type::Int, Type::Float)
                        | (Type::Float, Type::Int) => Type::Float,
                        _ => {
                            return err(
                                *line,
                                format!(
                                    "operator '{op}' needs numeric operands, got {} and {} (wrong types)",
                                    lt.swift_name(),
                                    rt.swift_name()
                                ),
                            )
                        }
                    },
                    "==" | "!=" => {
                        let compatible = lt == rt
                            || matches!(
                                (&lt, &rt),
                                (Type::Int, Type::Float) | (Type::Float, Type::Int)
                            );
                        if !compatible || matches!(lt, Type::Array(_) | Type::Blob | Type::Void) {
                            return err(
                                *line,
                                format!(
                                    "cannot compare {} with {} (type mismatch)",
                                    lt.swift_name(),
                                    rt.swift_name()
                                ),
                            );
                        }
                        Type::Bool
                    }
                    "<" | "<=" | ">" | ">=" => match (&lt, &rt) {
                        (Type::Int, Type::Int)
                        | (Type::Float, Type::Float)
                        | (Type::Int, Type::Float)
                        | (Type::Float, Type::Int) => Type::Bool,
                        _ => {
                            return err(
                                *line,
                                format!(
                                    "comparison needs numeric operands, got {} and {} (wrong types)",
                                    lt.swift_name(),
                                    rt.swift_name()
                                ),
                            )
                        }
                    },
                    "&&" | "||" => {
                        // After normalization booleans read as Int; accept
                        // any integer-valued operands (0/1 semantics).
                        if lt != Type::Int || rt != Type::Int {
                            return err(*line, format!("'{op}' needs boolean operands"));
                        }
                        Type::Bool
                    }
                    other => return err(*line, format!("unknown operator {other}")),
                }
            }
        })
    }

    /// Compile an expression into a fresh datum; returns `(tcl_var, type)`.
    fn compile_expr(
        &mut self,
        e: &Expr,
        scope: &mut Scope,
        out: &mut String,
    ) -> Result<(String, Type), CompileError> {
        // Variables need no copy: reuse the existing datum.
        if let Expr::Var(name) = e {
            let info = scope.datum(name).ok_or_else(|| CompileError {
                message: format!("undefined variable \"{name}\""),
                line: e.line(),
            })?;
            return Ok((info.tcl.clone(), info.ty.clone()));
        }
        let ty = self.infer_type(e, scope)?;
        let td = self.alloc_td(out, &ty);
        self.compile_into(e, &td, &ty, scope, out)?;
        Ok((td, ty))
    }

    /// Compile an expression of an expected type (inserting int→float
    /// promotion when needed).
    fn compile_expr_expect(
        &mut self,
        e: &Expr,
        expected: &Type,
        scope: &mut Scope,
        out: &mut String,
    ) -> Result<(String, Type), CompileError> {
        let actual = self.infer_type(e, scope)?;
        let bool_int = |a: &Type, b: &Type| {
            matches!((a, b), (Type::Bool, Type::Int) | (Type::Int, Type::Bool))
        };
        if &actual == expected || bool_int(&actual, expected) {
            return self.compile_expr(e, scope, out);
        }
        if actual == Type::Int && *expected == Type::Float {
            let (itd, _) = self.compile_expr(e, scope, out)?;
            let ftd = self.alloc_td(out, &Type::Float);
            out.push_str(&format!("swt:itof ${ftd} ${itd}\n"));
            return Ok((ftd, Type::Float));
        }
        err(
            e.line(),
            format!(
                "expected {}, got {} (type mismatch)",
                expected.swift_name(),
                actual.swift_name()
            ),
        )
    }

    /// Compile an expression so that its result is stored into `target`.
    fn compile_into(
        &mut self,
        e: &Expr,
        target: &str,
        target_ty: &Type,
        scope: &mut Scope,
        out: &mut String,
    ) -> Result<(), CompileError> {
        // Promotion: compile as the actual type, then convert.
        let actual = self.infer_type(e, scope)?;
        if actual == Type::Int && *target_ty == Type::Float {
            let (itd, _) = self.compile_expr(e, scope, out)?;
            out.push_str(&format!("swt:itof ${target} ${itd}\n"));
            return Ok(());
        }
        if &actual != target_ty
            && !(actual == Type::Bool && *target_ty == Type::Int)
            && !(actual == Type::Int && *target_ty == Type::Bool)
        {
            return err(
                e.line(),
                format!(
                    "cannot assign {} to {} (type mismatch)",
                    actual.swift_name(),
                    target_ty.swift_name()
                ),
            );
        }
        match e {
            Expr::IntLit(v) => {
                out.push_str(&format!("turbine::store_integer ${target} {v}\n"));
                Ok(())
            }
            Expr::FloatLit(v) => {
                out.push_str(&format!(
                    "turbine::store_float ${target} {}\n",
                    tclish::format_double(*v)
                ));
                Ok(())
            }
            Expr::BoolLit(b) => {
                out.push_str(&format!("turbine::store_integer ${target} {}\n", *b as i64));
                Ok(())
            }
            Expr::StrLit(s) => {
                out.push_str(&format!(
                    "turbine::store_string ${target} {}\n",
                    tcl_quote(s)
                ));
                Ok(())
            }
            Expr::Var(name) => {
                let src = scope.datum(name).unwrap().tcl.clone();
                out.push_str(&format!(
                    "swt:copy {} ${target} ${src}\n",
                    target_ty.turbine_name()
                ));
                Ok(())
            }
            Expr::Index(name, idx, line) => {
                let ctcl = scope.datum(name).unwrap().tcl.clone();
                let (idx_td, idx_ty) = self.compile_expr(idx, scope, out)?;
                if idx_ty != Type::Int {
                    return err(*line, "array subscripts must be int");
                }
                out.push_str(&format!(
                    "swt:clookup {} ${target} ${ctcl} ${idx_td}\n",
                    actual.turbine_name()
                ));
                Ok(())
            }
            Expr::Call(c) => self.emit_call(c, Some(target), scope, out),
            Expr::Unary("-", inner, _) => {
                let (td, t) = self.compile_expr(inner, scope, out)?;
                let proc = if t == Type::Float {
                    "swt:neg_float"
                } else {
                    "swt:neg_int"
                };
                out.push_str(&format!("{proc} ${target} ${td}\n"));
                Ok(())
            }
            Expr::Unary("!", inner, _) => {
                let (td, _) = self.compile_expr(inner, scope, out)?;
                out.push_str(&format!("swt:not ${target} ${td}\n"));
                Ok(())
            }
            Expr::Unary(..) => unreachable!("rejected by infer_type"),
            Expr::Binary(op, l, r, _) => {
                let lt = self.infer_type(l, scope)?;
                let rt = self.infer_type(r, scope)?;
                let float_op = lt == Type::Float || rt == Type::Float;
                let is_cmp = matches!(*op, "==" | "!=" | "<" | "<=" | ">" | ">=");
                let is_bool = matches!(*op, "&&" | "||");
                // String equality.
                if is_cmp && lt == Type::Str {
                    let (a, _) = self.compile_expr(l, scope, out)?;
                    let (b, _) = self.compile_expr(r, scope, out)?;
                    out.push_str(&format!("swt:scmp {op} ${target} ${a} ${b}\n"));
                    return Ok(());
                }
                let operand_ty = if is_bool {
                    Type::Bool
                } else if float_op {
                    Type::Float
                } else {
                    Type::Int
                };
                let (a, _) = self.compile_expr_expect(l, &operand_ty, scope, out)?;
                let (b, _) = self.compile_expr_expect(r, &operand_ty, scope, out)?;
                let proc = if is_bool {
                    "swt:ibinop"
                } else if is_cmp {
                    if operand_ty == Type::Float {
                        "swt:fcmp"
                    } else {
                        "swt:icmp"
                    }
                } else if operand_ty == Type::Float {
                    "swt:fbinop"
                } else {
                    "swt:ibinop"
                };
                out.push_str(&format!("{proc} {op} ${target} ${a} ${b}\n"));
                Ok(())
            }
        }
    }

    // ---- calls -------------------------------------------------------------

    fn emit_call(
        &mut self,
        c: &CallExpr,
        target: Option<&str>,
        scope: &mut Scope,
        out: &mut String,
    ) -> Result<(), CompileError> {
        let line = c.line;
        match c.name.as_str() {
            "printf" | "trace" => {
                let (fmt, rest) = if c.name == "printf" {
                    match c.args.first() {
                        Some(Expr::StrLit(s)) => (Some(s.clone()), &c.args[1..]),
                        Some(_) => return err(line, "printf format must be a string literal"),
                        None => return err(line, "printf needs a format string"),
                    }
                } else {
                    (None, &c.args[..])
                };
                let mut tds = Vec::new();
                let mut types = Vec::new();
                for a in rest {
                    let (td, ty) = self.compile_expr(a, scope, out)?;
                    if matches!(ty, Type::Array(_) | Type::Blob) {
                        return err(line, "printf/trace arguments must be scalars");
                    }
                    types.push(ty.turbine_name());
                    tds.push(format!("${td}"));
                }
                if let Some(fmt) = fmt {
                    out.push_str(&format!(
                        "swt:printf {} {{{}}} {}\n",
                        tcl_quote(&fmt),
                        types.join(" "),
                        tds.join(" ")
                    ));
                } else {
                    out.push_str(&format!(
                        "swt:trace {{{}}} {}\n",
                        types.join(" "),
                        tds.join(" ")
                    ));
                }
                Ok(())
            }
            "assert" => {
                if c.args.len() != 2 {
                    return err(line, "assert(condition, message) takes two arguments");
                }
                let (cond, _) = self.compile_expr_expect(&c.args[0], &Type::Bool, scope, out)?;
                let (msg, _) = self.compile_expr_expect(&c.args[1], &Type::Str, scope, out)?;
                out.push_str(&format!("swt:assert ${cond} ${msg}\n"));
                Ok(())
            }
            "strcat" => {
                let target = target.ok_or_else(|| CompileError {
                    message: "strcat returns a value; use it in an expression".into(),
                    line,
                })?;
                let mut tds = Vec::new();
                for a in &c.args {
                    let (td, _) = self.compile_expr_expect(a, &Type::Str, scope, out)?;
                    tds.push(format!("${td}"));
                }
                out.push_str(&format!("swt:strcat ${target} {}\n", tds.join(" ")));
                Ok(())
            }
            "argv" => {
                let target = target.ok_or_else(|| CompileError {
                    message: "argv returns a value; use it in an expression".into(),
                    line,
                })?;
                let (key, default) = match (c.args.first(), c.args.get(1)) {
                    (Some(Expr::StrLit(k)), None) => (k.clone(), None),
                    (Some(Expr::StrLit(k)), Some(Expr::StrLit(d))) => (k.clone(), Some(d.clone())),
                    _ => return err(line, "argv(key) / argv(key, default) take string literals"),
                };
                // Arguments are known at startup; store immediately.
                match default {
                    Some(d) => out.push_str(&format!(
                        "turbine::store_string ${target} [turbine::argv {} {}]\n",
                        tcl_quote(&key),
                        tcl_quote(&d)
                    )),
                    None => out.push_str(&format!(
                        "turbine::store_string ${target} [turbine::argv {}]\n",
                        tcl_quote(&key)
                    )),
                }
                Ok(())
            }
            "size" => {
                let target = target.ok_or_else(|| CompileError {
                    message: "size returns a value; use it in an expression".into(),
                    line,
                })?;
                if c.args.len() != 1 {
                    return err(line, "size(array) takes one argument");
                }
                let (td, ty) = self.compile_expr(&c.args[0], scope, out)?;
                if !matches!(ty, Type::Array(_)) {
                    return err(line, "size() needs an array");
                }
                out.push_str(&format!("swt:csize ${target} ${td}\n"));
                Ok(())
            }
            name if builtin_sig(name).is_some() && !self.sigs.contains_key(name) => {
                let (ins, ret) = builtin_sig(name).unwrap();
                if c.args.len() != ins.len() {
                    return err(
                        line,
                        format!(
                            "{name}() takes {} argument(s), got {}",
                            ins.len(),
                            c.args.len()
                        ),
                    );
                }
                let target = match target {
                    Some(t) => t.to_string(),
                    None => {
                        // Result discarded: still evaluate (e.g. sh() for
                        // effect) into a throwaway datum.
                        self.alloc_td(out, &ret)
                    }
                };
                let mut tds = Vec::new();
                for (a, ity) in c.args.iter().zip(ins) {
                    let (td, _) = self.compile_expr_expect(a, ity, scope, out)?;
                    tds.push(format!("${td}"));
                }
                let proc = match name {
                    "sqrt" | "exp" | "log" | "log10" | "sin" | "cos" | "floor" | "ceil"
                    | "round" => {
                        out.push_str(&format!("swt:fmath {name} ${target} {}\n", tds.join(" ")));
                        return Ok(());
                    }
                    "abs_float" => {
                        out.push_str(&format!("swt:fmath abs ${target} {}\n", tds.join(" ")));
                        return Ok(());
                    }
                    "pow" | "atan2" | "fmod" | "hypot" => {
                        out.push_str(&format!("swt:fmath2 {name} ${target} {}\n", tds.join(" ")));
                        return Ok(());
                    }
                    "abs_int" => {
                        out.push_str(&format!("swt:iabs ${target} {}\n", tds.join(" ")));
                        return Ok(());
                    }
                    "max_int" | "min_int" => {
                        let which = &name[..3];
                        out.push_str(&format!(
                            "swt:iminmax {which} ${target} {}\n",
                            tds.join(" ")
                        ));
                        return Ok(());
                    }
                    other => format!("swt:{other}"),
                };
                out.push_str(&format!("{proc} ${target} {}\n", tds.join(" ")));
                Ok(())
            }
            _ => {
                let sig = self
                    .sigs
                    .get(&c.name)
                    .cloned()
                    .ok_or_else(|| CompileError {
                        message: format!("unknown function \"{}\"", c.name),
                        line,
                    })?;
                if c.args.len() != sig.inputs.len() {
                    return err(
                        line,
                        format!(
                            "function \"{}\" takes {} argument(s), got {}",
                            c.name,
                            sig.inputs.len(),
                            c.args.len()
                        ),
                    );
                }
                let mut argv = Vec::new();
                // Outputs first (STC convention).
                match (target, sig.outputs.len()) {
                    (Some(t), 1) => argv.push(format!("${t}")),
                    (None, 0) => {}
                    (None, _) => unreachable!("checked by caller"),
                    (Some(_), n) => {
                        return err(
                            line,
                            format!("function \"{}\" has {n} outputs, expected 1", c.name),
                        )
                    }
                }
                self.emit_user_call(&c.name, &sig, argv, &c.args, scope, out)
            }
        }
    }

    /// Emit a call to user function `name`; `argv` holds the output datum
    /// ids. A Tcl leaf takes each argument whose value the engine already
    /// holds by value, through the leaf variant for that mask; every other
    /// argument is compiled to a future.
    fn emit_user_call(
        &mut self,
        name: &str,
        sig: &FuncSig,
        mut argv: Vec<String>,
        args: &[Expr],
        scope: &mut Scope,
        out: &mut String,
    ) -> Result<(), CompileError> {
        let mut by_value = Vec::with_capacity(args.len());
        for (a, ity) in args.iter().zip(&sig.inputs) {
            let value = match sig.kind {
                FuncKind::TclLeaf => known_value(a, ity, scope),
                FuncKind::Composite => None,
            };
            by_value.push(value.is_some());
            match value {
                Some(v) => argv.push(v),
                None => {
                    let (td, _) = self.compile_expr_expect(a, ity, scope, out)?;
                    argv.push(format!("${td}"));
                }
            }
        }
        let proc = if by_value.contains(&true) {
            self.leaf_variant(name, &by_value)?
        } else {
            format!("swift:{name}")
        };
        out.push_str(&format!("{proc} {}\n", argv.join(" ")));
        Ok(())
    }

    // ---- foreach -------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn emit_foreach(
        &mut self,
        value_var: &str,
        index_var: Option<&str>,
        iterable: &Iterable,
        body: &[Stmt],
        line: usize,
        scope: &mut Scope,
        out: &mut String,
    ) -> Result<(), CompileError> {
        // Captured enclosing-scope variables used in the body.
        let mut bound: Vec<String> = vec![value_var.to_string()];
        if let Some(i) = index_var {
            bound.push(i.to_string());
        }
        let free = free_vars(body, &bound);
        let mut captured: Vec<(String, VarInfo)> = Vec::new();
        for name in &free {
            if let Some(info) = scope.capture(name) {
                captured.push((name.clone(), info));
            }
            // Unknown names will error during body compilation with a
            // proper line number.
        }
        // Containers (from enclosing scope) written in the body need slot
        // reservations spanning the asynchronous loop execution.
        let written = containers_written(body);
        let mut written_tcl = Vec::new();
        for w in &written {
            if let Some(info) = scope.lookup(w) {
                if matches!(info.ty, Type::Array(_)) && captured.iter().any(|(n, _)| n == w) {
                    written_tcl.push(info.tcl.clone());
                }
            }
        }

        // Generate the body proc: params are the loop value (+ index) as
        // *values*, then the captured datum ids under their original
        // Tcl names.
        let elem_ty = match iterable {
            Iterable::Range(..) => Type::Int,
            Iterable::Array(a) => match self.infer_type(a, scope)? {
                Type::Array(e) => (*e).clone(),
                other => return err(line, format!("cannot iterate over {}", other.swift_name())),
            },
        };
        if matches!(elem_ty, Type::Blob | Type::Array(_)) {
            return err(
                line,
                "foreach over blob/array-of-array containers is not supported",
            );
        }

        let mut body_scope = Scope::new();
        for (name, info) in &captured {
            body_scope
                .declare(name, info.clone())
                .map_err(|m| CompileError { message: m, line })?;
        }
        body_scope.push();
        // Loop variables: the body proc receives them as values. A range
        // loop's are integers in canonical form, so leaf calls take them
        // by value; each gets a future only if some code reads its id.
        let by_value = matches!(iterable, Iterable::Range(..));
        let mut loop_vars = vec![(value_var, elem_ty.clone(), "$__val")];
        if let Some(iv) = index_var {
            loop_vars.push((iv, Type::Int, "$__idx"));
        }
        for (name, ty, val) in &loop_vars {
            let info = VarInfo {
                ty: ty.clone(),
                tcl: format!("lv_{name}"),
                value: by_value.then(|| val.to_string()),
            };
            body_scope
                .declare(name, info)
                .map_err(|m| CompileError { message: m, line })?;
        }
        let mut stmts_code = String::new();
        self.emit_block(body, &mut body_scope, &mut stmts_code)?;
        self.close_scope_containers(&body_scope, &mut stmts_code);
        let mut body_code = String::new();
        for (name, ty, val) in &loop_vars {
            let tcl = format!("lv_{name}");
            if body_scope.datums_used.contains(&tcl) {
                self.emit_create(&mut body_code, &tcl, ty);
                let store = match ty {
                    Type::Int | Type::Bool => "turbine::store_integer",
                    Type::Float => "turbine::store_float",
                    Type::Str => "turbine::store_string",
                    _ => unreachable!(),
                };
                body_code.push_str(&format!("{store} ${tcl} {val}\n"));
            }
        }
        body_code.push_str(&stmts_code);

        let proc_name = self.fresh_proc("loop");
        let cap_params: Vec<String> = captured.iter().map(|(_, i)| i.tcl.clone()).collect();
        self.preamble.push_str(&format!(
            "proc {proc_name} {{__val __idx {params}}} {{\n{body}}}\n",
            params = cap_params.join(" "),
            body = indent(&body_code),
        ));

        let cap_refs: Vec<String> = captured
            .iter()
            .map(|(_, i)| format!("${}", i.tcl))
            .collect();
        let containers_list = written_tcl
            .iter()
            .map(|c| format!("${c}"))
            .collect::<Vec<_>>()
            .join(" ");

        // Reserve one slot per written container for the whole loop.
        for c in &written_tcl {
            out.push_str(&format!("turbine::write_refcount_incr ${c} 1\n"));
        }

        match iterable {
            Iterable::Range(start, end, step) => {
                if let Some(s) = step {
                    // Only unit step is supported; checked when constant.
                    if !matches!(s, Expr::IntLit(1)) {
                        return err(line, "only step 1 ranges are supported");
                    }
                }
                let (std_, _) = self.compile_expr_expect(start, &Type::Int, scope, out)?;
                let (etd, _) = self.compile_expr_expect(end, &Type::Int, scope, out)?;
                // Build the action with [list ...] so that the captured-ids
                // and containers sublists stay single words even when empty
                // or multi-element.
                out.push_str(&format!(
                    "turbine::rule [list ${std_} ${etd}] [list swt:range_foreach_deferred {proc_name} [list {caps}] [list {containers_list}] ${std_} ${etd}] control\n",
                    caps = cap_refs.join(" "),
                ));
            }
            Iterable::Array(a) => {
                let (atd, _) = self.compile_expr(a, scope, out)?;
                out.push_str(&format!(
                    "turbine::rule [list ${atd}] [list swt:array_foreach_go {proc_name} [list {caps}] [list {containers_list}] ${atd}] control\n",
                    caps = cap_refs.join(" "),
                ));
            }
        }
        Ok(())
    }

    // ---- if --------------------------------------------------------------------

    fn emit_if(
        &mut self,
        cond: &Expr,
        then_branch: &[Stmt],
        else_branch: &[Stmt],
        line: usize,
        scope: &mut Scope,
        out: &mut String,
    ) -> Result<(), CompileError> {
        let (cond_td, cond_ty) = self.compile_expr(cond, scope, out)?;
        if !matches!(cond_ty, Type::Bool | Type::Int) {
            return err(line, "if condition must be boolean");
        }

        let emit_branch = |cg: &mut Codegen,
                           branch: &[Stmt],
                           scope: &mut Scope,
                           released: &[String]|
         -> Result<(String, Vec<String>), CompileError> {
            let free = free_vars(branch, &[]);
            let mut captured: Vec<(String, VarInfo)> = Vec::new();
            for name in &free {
                if let Some(info) = scope.capture(name) {
                    captured.push((name.clone(), info));
                }
            }
            let mut bscope = Scope::new();
            for (name, info) in &captured {
                bscope
                    .declare(name, info.clone())
                    .map_err(|m| CompileError { message: m, line })?;
            }
            bscope.push();
            let mut code = String::new();
            cg.emit_block(branch, &mut bscope, &mut code)?;
            cg.close_scope_containers(&bscope, &mut code);
            for c in released {
                code.push_str(&format!("turbine::write_refcount_incr ${c} -1\n"));
            }
            let pname = cg.fresh_proc("branch");
            let params: Vec<String> = captured.iter().map(|(_, i)| i.tcl.clone()).collect();
            cg.preamble.push_str(&format!(
                "proc {pname} {{{}}} {{\n{}}}\n",
                params.join(" "),
                indent(&code)
            ));
            let refs: Vec<String> = captured
                .iter()
                .map(|(_, i)| format!("${}", i.tcl))
                .collect();
            Ok((pname, refs))
        };

        // Containers written in either branch: reserve one slot, released
        // by whichever branch runs.
        let mut written = containers_written(then_branch);
        for w in containers_written(else_branch) {
            if !written.contains(&w) {
                written.push(w);
            }
        }
        let mut reserved = Vec::new();
        for w in &written {
            if let Some(info) = scope.lookup(w) {
                if matches!(info.ty, Type::Array(_)) {
                    reserved.push(info.tcl.clone());
                }
            }
        }
        for c in &reserved {
            out.push_str(&format!("turbine::write_refcount_incr ${c} 1\n"));
        }

        let (then_proc, then_refs) = emit_branch(self, then_branch, scope, &reserved)?;
        let (else_proc, else_refs) = emit_branch(self, else_branch, scope, &reserved)?;
        out.push_str(&format!(
            "swt:if ${cond_td} \"{then_proc} {}\" \"{else_proc} {}\"\n",
            then_refs.join(" "),
            else_refs.join(" ")
        ));
        Ok(())
    }
}

/// The engine-side value of argument `e` for an input of type `ty`, when
/// it is an int or boolean the engine holds as text identical to what
/// `turbine::retrieve_integer` returns: an int or bool literal, or a
/// variable bound to such a value in this proc. Strings stay futures
/// (spaces or braces would split in the rule's action string), and so do
/// floats (their text matches `turbine::retrieve_float` only when
/// formatted by `format_double`).
fn known_value(e: &Expr, ty: &Type, scope: &Scope) -> Option<String> {
    if !matches!(ty, Type::Int | Type::Bool) {
        return None;
    }
    match e {
        Expr::IntLit(v) => Some(v.to_string()),
        Expr::BoolLit(b) => Some((*b as i64).to_string()),
        Expr::Var(name) => scope.lookup(name)?.value.clone(),
        _ => None,
    }
}

/// The rule proc of a leaf variant. The all-futures variant is `swift:f`;
/// the others are `swift:f:__v` plus one 0/1 digit per input (1 = by
/// value), a name no Swift identifier can produce.
fn leaf_proc_name(leaf: &str, by_value: &[bool]) -> String {
    if by_value.contains(&true) {
        let mask: String = by_value
            .iter()
            .map(|&v| if v { '1' } else { '0' })
            .collect();
        format!("swift:{leaf}:__v{mask}")
    } else {
        format!("swift:{leaf}")
    }
}

/// Quote a literal for safe inclusion in generated Tcl.
fn tcl_quote(s: &str) -> String {
    tclish::format_list(&[s])
}

/// Proc bodies are emitted without reindentation: templates may contain
/// multiline strings (Python code!) whose leading whitespace is
/// significant.
fn indent(code: &str) -> String {
    let mut s = code.to_string();
    if !s.ends_with('\n') {
        s.push('\n');
    }
    s
}

// ---- free-variable and write analysis -----------------------------------

fn free_vars(stmts: &[Stmt], bound: &[String]) -> Vec<String> {
    let mut bound: Vec<String> = bound.to_vec();
    let mut out = Vec::new();
    collect_free_stmts(stmts, &mut bound, &mut out);
    out
}

fn note(name: &str, bound: &[String], out: &mut Vec<String>) {
    if !bound.iter().any(|b| b == name) && !out.iter().any(|o| o == name) {
        out.push(name.to_string());
    }
}

fn collect_free_stmts(stmts: &[Stmt], bound: &mut Vec<String>, out: &mut Vec<String>) {
    for s in stmts {
        match s {
            Stmt::Decl { name, init, .. } => {
                if let Some(e) = init {
                    collect_free_expr(e, bound, out);
                }
                bound.push(name.clone());
            }
            Stmt::Assign { target, value, .. } => {
                match target {
                    LValue::Var(n) => note(n, bound, out),
                    LValue::Index(n, idx) => {
                        note(n, bound, out);
                        collect_free_expr(idx, bound, out);
                    }
                }
                collect_free_expr(value, bound, out);
            }
            Stmt::Call { call, .. } => {
                for a in &call.args {
                    collect_free_expr(a, bound, out);
                }
            }
            Stmt::MultiAssign { targets, call, .. } => {
                for t in targets {
                    note(t, bound, out);
                }
                for a in &call.args {
                    collect_free_expr(a, bound, out);
                }
            }
            Stmt::Foreach {
                value_var,
                index_var,
                iterable,
                body,
                ..
            } => {
                match iterable {
                    Iterable::Range(a, b, step) => {
                        collect_free_expr(a, bound, out);
                        collect_free_expr(b, bound, out);
                        if let Some(st) = step {
                            collect_free_expr(st, bound, out);
                        }
                    }
                    Iterable::Array(e) => collect_free_expr(e, bound, out),
                }
                let mut inner = bound.clone();
                inner.push(value_var.clone());
                if let Some(i) = index_var {
                    inner.push(i.clone());
                }
                collect_free_stmts(body, &mut inner, out);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                collect_free_expr(cond, bound, out);
                let mut t = bound.clone();
                collect_free_stmts(then_branch, &mut t, out);
                let mut e = bound.clone();
                collect_free_stmts(else_branch, &mut e, out);
            }
        }
    }
}

fn collect_free_expr(e: &Expr, bound: &[String], out: &mut Vec<String>) {
    match e {
        Expr::Var(n) => note(n, bound, out),
        Expr::Index(n, idx, _) => {
            note(n, bound, out);
            collect_free_expr(idx, bound, out);
        }
        Expr::Call(c) => {
            for a in &c.args {
                collect_free_expr(a, bound, out);
            }
        }
        Expr::Unary(_, inner, _) => collect_free_expr(inner, bound, out),
        Expr::Binary(_, l, r, _) => {
            collect_free_expr(l, bound, out);
            collect_free_expr(r, bound, out);
        }
        _ => {}
    }
}

/// Names of arrays written (via `A[i] = ...`) anywhere in `stmts`,
/// including nested blocks. Locally declared arrays are excluded by the
/// caller via scope lookup.
fn containers_written(stmts: &[Stmt]) -> Vec<String> {
    let mut out = Vec::new();
    fn walk(stmts: &[Stmt], locals: &mut Vec<String>, out: &mut Vec<String>) {
        for s in stmts {
            match s {
                Stmt::Decl { name, .. } => locals.push(name.clone()),
                Stmt::Assign {
                    target: LValue::Index(n, _),
                    ..
                } if !locals.iter().any(|l| l == n) && !out.iter().any(|o| o == n) => {
                    out.push(n.clone());
                }
                Stmt::Foreach {
                    body,
                    value_var,
                    index_var,
                    ..
                } => {
                    let mut inner = locals.clone();
                    inner.push(value_var.clone());
                    if let Some(i) = index_var {
                        inner.push(i.clone());
                    }
                    walk(body, &mut inner, out);
                }
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    let mut t = locals.clone();
                    walk(then_branch, &mut t, out);
                    let mut e = locals.clone();
                    walk(else_branch, &mut e, out);
                }
                _ => {}
            }
        }
    }
    let mut locals = Vec::new();
    walk(stmts, &mut locals, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_and_arithmetic() {
        let p = compile("int x = 2 + 3; float y = 1.5 * 2.0;").unwrap();
        assert!(p.main.contains("swt:ibinop + "));
        assert!(p.main.contains("swt:fbinop * "));
        assert!(p.main.contains("turbine::store_integer"));
    }

    #[test]
    fn int_to_float_promotion() {
        let p = compile("int i = 2; float f = i * 1.5;").unwrap();
        assert!(p.main.contains("swt:itof"));
        assert!(p.main.contains("swt:fbinop *"));
    }

    #[test]
    fn comparison_yields_boolean() {
        compile("int a = 1; boolean b = a < 2;").unwrap();
        let err = compile("int a = 1; int b = a < 2; string s = b;").unwrap_err();
        assert!(err.message.contains("type mismatch"), "{}", err.message);
    }

    #[test]
    fn string_ops() {
        let p = compile(r#"string s = strcat("a", "b"); int n = strlen(s);"#).unwrap();
        assert!(p.main.contains("swt:strcat"));
        assert!(p.main.contains("swt:strlen"));
    }

    #[test]
    fn composite_function_emitted_as_proc() {
        let p = compile("(int o) add (int a, int b) { o = a + b; }\nint z = add(1, 2);").unwrap();
        assert!(p.preamble.contains("proc swift:add {p_o p_a p_b}"));
        assert!(p.main.contains("swift:add $"));
    }

    #[test]
    fn call_arity_checked() {
        let err = compile("(int o) f (int a) { o = a; }\nint z = f(1, 2);").unwrap_err();
        assert!(err.message.contains("takes 1 argument"), "{}", err.message);
    }

    #[test]
    fn discarded_outputs_rejected() {
        let err = compile("(int o) f (int a) { o = a; }\nf(1);").unwrap_err();
        assert!(err.message.contains("discards"), "{}", err.message);
    }

    #[test]
    fn foreach_range_generates_loop_proc() {
        let p = compile("foreach i in [0:9] { trace(i); }").unwrap();
        assert!(p.preamble.contains("proc swp:loop1 {__val __idx }"));
        assert!(p.main.contains("swt:range_foreach_deferred swp:loop1"));
    }

    #[test]
    fn foreach_captures_enclosing_vars() {
        let p =
            compile("int base = 10;\nforeach i in [0:3] { int y = i + base; trace(y); }").unwrap();
        // The loop proc takes the captured TD as a parameter.
        assert!(p.preamble.contains("proc swp:loop1 {__val __idx v_base_1}"));
        assert!(p.main.contains("[list $v_base_1]"));
    }

    #[test]
    fn foreach_array_write_reserves_slots() {
        let p = compile(
            "int A[];\nforeach i in [0:4] { A[i] = i * i; }\nforeach v, k in A { trace(k, v); }",
        )
        .unwrap();
        assert!(p.main.contains("turbine::write_refcount_incr $v_A_1 1"));
        assert!(p.main.contains("swt:array_foreach_go"));
        assert!(p.preamble.contains("swt:cinsert_when"));
        // Main closes its own slot at end of scope.
        assert!(p
            .main
            .trim_end()
            .ends_with("turbine::container_close $v_A_1"));
    }

    #[test]
    fn if_branches_become_procs() {
        let p = compile("int x = 1;\nif (x > 0) { printf(\"pos\"); } else { printf(\"neg\"); }")
            .unwrap();
        assert!(p.preamble.contains("proc swp:branch"));
        assert!(p.main.contains("swt:if $"));
    }

    #[test]
    fn leaf_template_generates_rule_and_task() {
        let p = compile(
            r#"
            (float o) scale (float x) [ "set <<o>> [expr {<<x>> * 2.0}]" ];
            float y = scale(1.5);
        "#,
        )
        .unwrap();
        assert!(p.preamble.contains("proc swift:scale {p_o p_x}"));
        assert!(p
            .preamble
            .contains("turbine::rule [list $p_x] \"swift:scale_task"));
        assert!(p.preamble.contains("turbine::retrieve_float $p_x"));
        assert!(p.preamble.contains("turbine::store_float $p_o $o"));
    }

    #[test]
    fn leaf_template_unknown_placeholder_rejected() {
        let err = compile(r#"(int o) f (int i) [ "set <<o>> <<mystery>>" ]; "#).unwrap_err();
        assert!(err.message.contains("placeholders"), "{}", err.message);
    }

    #[test]
    fn python_builtin() {
        let p = compile(r#"string s = python("x = 1", "x + 1"); trace(s);"#).unwrap();
        assert!(p.main.contains("swt:python"));
    }

    #[test]
    fn variable_copy_semantics() {
        let p = compile("int a = 1; int b; b = a;").unwrap();
        assert!(p.main.contains("swt:copy integer"));
    }

    #[test]
    fn shadowing_in_same_scope_rejected() {
        let err = compile("int x = 1; int x = 2;").unwrap_err();
        assert!(err.message.contains("already declared"));
    }

    #[test]
    fn free_var_analysis() {
        let prog = parser::parse(
            "int a = 1;\nforeach i in [0:2] { int b = a + i; if (b > 0) { trace(c); } }",
        )
        .unwrap();
        match &prog.main[1] {
            Stmt::Foreach { body, .. } => {
                let fv = free_vars(body, &["i".to_string()]);
                assert_eq!(fv, vec!["a", "c"]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn containers_written_analysis() {
        let prog = parser::parse(
            "foreach i in [0:2] { A[i] = 1; int B[]; B[0] = 2; if (true) { C[0] = 3; } }",
        )
        .unwrap();
        match &prog.main[0] {
            Stmt::Foreach { body, .. } => {
                let w = containers_written(body);
                assert_eq!(w, vec!["A", "C"], "local B excluded");
            }
            _ => unreachable!(),
        }
    }
}

#[cfg(test)]
mod by_value_tests {
    use super::*;

    const WORK: &str = r#"(int o) work (int i) [ "set <<o>> <<i>>" ];
"#;

    fn compile_with_work(body: &str) -> CompiledProgram {
        compile(&format!("{WORK}{body}")).unwrap()
    }

    #[test]
    fn loop_index_uses_by_value_variant() {
        let p = compile_with_work("foreach i in [0:9] { int s = work(i); }");
        // The all-futures pair is still emitted exactly as before.
        assert!(p.preamble.starts_with(
            "proc swift:work {p_o p_i} {\n    turbine::rule [list $p_i] \"swift:work_task $p_o $p_i\" work\n}\nproc swift:work_task {p_o p_i} {\nset i [turbine::retrieve_integer $p_i]\n"
        ));
        assert!(p.preamble.contains(
            "proc swift:work:__v1 {p_o p_i} {\n    turbine::rule [list ] \"swift:work:__v1_task $p_o $p_i\" work\n}"
        ));
        assert!(p
            .preamble
            .contains("proc swift:work:__v1_task {p_o p_i} {\nset i $p_i\n"));
        assert!(p.preamble.contains("swift:work:__v1 $v_s_1 $__val\n"));
    }

    #[test]
    fn index_feeding_only_leaves_gets_no_future() {
        let p = compile_with_work("foreach v, k in [0:9] { int s = work(v); int t = work(k); }");
        assert!(!p.preamble.contains("lv_"), "{}", p.preamble);
        assert!(p.preamble.contains("swift:work:__v1 $v_t_2 $__idx\n"));
    }

    #[test]
    fn index_keeps_future_when_its_id_is_read() {
        let uses = [
            "int s = work(i + 1);",
            "int A[]; A[0] = 1; int s = A[i];",
            "int s = twice(i);",
            "printf(\"%d\", i);",
            "float f = itof(i);",
        ];
        for u in uses {
            let p = compile_with_work(&format!(
                "(int o) twice (int a) {{ o = a * 2; }}\nforeach i in [0:3] {{ int w = work(i); {u} }}"
            ));
            assert!(
                p.preamble.contains(
                    "set lv_i [turbine::unique]\nturbine::create $lv_i integer\nturbine::store_integer $lv_i $__val\n"
                ),
                "{u}: {}",
                p.preamble
            );
            // The leaf call still takes the value.
            assert!(p.preamble.contains("$__val\n"), "{u}");
        }
    }

    #[test]
    fn captured_loop_variable_keeps_only_its_datum_id() {
        let p = compile(
            r#"(int o) pair (int a, int b) [ "set <<o>> [expr {<<a>> + <<b>>}]" ];
            foreach i in [0:2] {
                foreach j in [0:2] { int s = pair(i, j); }
                if (true) { int t = pair(i, 9); }
            }"#,
        )
        .unwrap();
        // The inner loop and the branch receive i's datum id, not $__val.
        assert!(p.preamble.contains("proc swp:loop1 {__val __idx lv_i}"));
        assert!(p
            .preamble
            .contains("swift:pair:__v01 $v_s_1 $lv_i $__val\n"));
        assert!(p.preamble.contains(" $lv_i 9\n"));
        // The outer loop therefore creates and stores i's future.
        assert!(p.preamble.contains("turbine::store_integer $lv_i $__val\n"));
        // One variant per mask, however many call sites use it.
        assert_eq!(p.preamble.matches("proc swift:pair:__v01 ").count(), 1);
    }

    #[test]
    fn int_and_bool_literals_pass_by_value() {
        let p = compile(
            r#"(int o) work (int i) [ "set <<o>> <<i>>" ];
            (int o) flag (boolean b) [ "set <<o>> <<b>>" ];
            (float o) half (float x) [ "set <<o>> [expr {<<x>> / 2}]" ];
            (string o) echo (string s) [ "set <<o>> <<s>>" ];
            int a = work(5);
            int b = flag(true);
            float c = half(3.0);
            string d = echo("x");
            float e = half(3);"#,
        )
        .unwrap();
        assert!(p.main.contains("swift:work:__v1 $v_a_1 5\n"));
        assert!(p.main.contains("swift:flag:__v1 $v_b_2 1\n"));
        // Floats, strings and promoted ints stay futures.
        assert!(p
            .main
            .contains("turbine::store_float $t4 3.0\nswift:half $v_c_3 $t4\n"));
        assert!(p.main.contains("swift:echo $v_d_5 $t6\n"));
        assert!(p.main.contains("swt:itof $"));
        assert!(!p.preamble.contains("swift:half:__v"));
        assert_eq!(
            p.main.matches("turbine::store_integer").count(),
            1,
            "only the promoted 3 is stored: {}",
            p.main
        );
    }

    #[test]
    fn array_foreach_values_stay_futures() {
        let p = compile_with_work("int A[]; A[0] = 4; foreach v in A { int s = work(v); }");
        assert!(p.preamble.contains("turbine::store_integer $lv_v $__val\n"));
        assert!(p.preamble.contains("swift:work $v_s_"));
        assert!(!p.preamble.contains("swift:work:__v"));
    }

    #[test]
    fn variant_names_do_not_collide_with_user_functions() {
        let p = compile(
            r#"(int o) work (int i) [ "set <<o>> <<i>>" ];
            (int o) work__v1 (int i) [ "set <<o>> [expr {<<i>> + 1}]" ];
            foreach i in [0:1] { int a = work(i); int b = work__v1(i); }"#,
        )
        .unwrap();
        assert!(p.preamble.contains("proc swift:work:__v1 {"));
        assert!(p.preamble.contains("proc swift:work__v1 {"));
        assert!(p.preamble.contains("proc swift:work__v1:__v1 {"));
    }
}

#[cfg(test)]
mod shadowing_tests {
    use super::*;

    #[test]
    fn user_function_shadows_builtin() {
        let p = compile(
            r#"
            (float o) sqrt (float x) { o = x * 2.0; }
            float y = sqrt(4.0);
            trace(y);
        "#,
        )
        .unwrap();
        assert!(p.main.contains("swift:sqrt"));
        assert!(!p.main.contains("swt:fmath sqrt"));
    }

    #[test]
    fn special_forms_cannot_be_redefined() {
        for name in ["printf", "trace", "assert", "strcat", "size", "argv"] {
            let src = format!("(int o) {name} (int x) {{ o = x; }}");
            let err = compile(&src).unwrap_err();
            assert!(err.message.contains("already defined"), "{name}: {err}");
        }
    }
}
