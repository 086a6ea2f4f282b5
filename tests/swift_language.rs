//! Swift language semantics, end to end: every construct the compiler
//! supports, executed on a real simulated machine.

use swiftt::core::{Runtime, SwiftTError};

fn run(src: &str) -> String {
    Runtime::new(4).run(src).unwrap().stdout
}

#[test]
fn arithmetic_and_formatting() {
    let out = run(r#"
        int a = 7;
        int b = a * 6;
        float x = 1.5;
        float y = x * x + 0.25;
        printf("b=%d y=%.2f", b, y);
    "#);
    assert_eq!(out, "b=42 y=2.50\n");
}

#[test]
fn integer_division_and_modulo() {
    let out = run(r#"
        int q = 17 / 5;
        int m = 17 % 5;
        printf("%d r %d", q, m);
    "#);
    assert_eq!(out, "3 r 2\n");
}

#[test]
fn int_float_promotion() {
    let out = run(r#"
        int n = 3;
        float h = n / 2.0;
        printf("%.1f", h);
    "#);
    assert_eq!(out, "1.5\n");
}

#[test]
fn booleans_and_logic() {
    let out = run(r#"
        boolean p = 3 < 5;
        boolean q = 2 == 3;
        if (p && !q) { printf("logic ok"); } else { printf("logic broken"); }
    "#);
    assert_eq!(out, "logic ok\n");
}

#[test]
fn string_operations() {
    let out = run(r#"
        string a = "data";
        string b = strcat(a, "flow");
        int n = strlen(b);
        printf("%s has %d chars", b, n);
    "#);
    assert_eq!(out, "dataflow has 8 chars\n");
}

#[test]
fn string_comparison() {
    let out = run(r#"
        string a = "x";
        if (a == "x") { printf("eq"); } else { printf("ne"); }
    "#);
    assert_eq!(out, "eq\n");
}

#[test]
fn conversions() {
    let out = run(r#"
        int i = toint("41");
        string s = fromint(i + 1);
        float f = tofloat("2.5");
        printf("%s %.1f", s, f);
    "#);
    assert_eq!(out, "42 2.5\n");
}

#[test]
fn float_math_builtins() {
    let out = run(r#"
        float r = sqrt(144.0);
        float e = exp(0.0);
        printf("%.1f %.1f", r, e);
    "#);
    assert_eq!(out, "12.0 1.0\n");
}

#[test]
fn composite_functions_compose() {
    let out = run(r#"
        (int o) square (int x) { o = x * x; }
        (int o) add (int a, int b) { o = a + b; }
        int z = add(square(3), square(4));
        printf("%d", z);
    "#);
    assert_eq!(out, "25\n");
}

#[test]
fn composite_function_with_locals() {
    let out = run(r#"
        (float o) poly (float x) {
            float x2 = x * x;
            float x3 = x2 * x;
            o = x3 - 2.0 * x2 + 1.0;
        }
        printf("%.1f", poly(3.0));
    "#);
    assert_eq!(out, "10.0\n");
}

#[test]
fn arrays_fill_and_reduce() {
    let out = run(r#"
        int A[];
        foreach i in [0:9] {
            A[i] = i * i;
        }
        int n = size(A);
        printf("n=%d", n);
    "#);
    assert_eq!(out, "n=10\n");
}

#[test]
fn array_foreach_reads_values_and_indices() {
    let out = run(r#"
        int A[];
        A[3] = 30;
        A[1] = 10;
        foreach v, k in A {
            printf("A[%d]=%d", k, v);
        }
    "#);
    let mut lines: Vec<&str> = out.lines().collect();
    lines.sort();
    assert_eq!(lines, vec!["A[1]=10", "A[3]=30"]);
}

#[test]
fn array_element_read() {
    let out = run(r#"
        int A[];
        A[0] = 5;
        A[1] = 7;
        int x = A[0] + A[1];
        printf("%d", x);
    "#);
    assert_eq!(out, "12\n");
}

#[test]
fn nested_foreach() {
    let out = run(r#"
        foreach i in [1:3] {
            foreach j in [1:3] {
                if (i == j) { printf("%d", i * j); }
            }
        }
    "#);
    let mut nums: Vec<i64> = out.lines().map(|l| l.parse().unwrap()).collect();
    nums.sort();
    assert_eq!(nums, vec![1, 4, 9]);
}

#[test]
fn if_else_chains() {
    let out = run(r#"
        (string o) classify (int x) {
            if (x < 0) { o = "neg"; }
            else if (x == 0) { o = "zero"; }
            else { o = "pos"; }
        }
        printf("%s %s %s", classify(0 - 5), classify(0), classify(5));
    "#);
    assert_eq!(out, "neg zero pos\n");
}

#[test]
fn foreach_over_computed_range() {
    let out = run(r#"
        int lo = 2;
        int hi = lo * 2;
        foreach i in [lo:hi] { printf("%d", i); }
    "#);
    let mut nums: Vec<i64> = out.lines().map(|l| l.parse().unwrap()).collect();
    nums.sort();
    assert_eq!(nums, vec![2, 3, 4]);
}

#[test]
fn loop_carried_reduction_via_array() {
    // Swift has no mutable accumulators; reductions go through arrays.
    let out = run(r#"
        int parts[];
        foreach i in [1:20] {
            parts[i] = i;
        }
        int total = size(parts);
        printf("%d", total);
    "#);
    assert_eq!(out, "20\n");
}

#[test]
fn trace_builtin() {
    let out = run("trace(1, 2.5, \"three\");");
    assert_eq!(out, "trace: 1,2.5,three\n");
}

#[test]
fn assert_passing() {
    let out = run(r#"
        assert(2 + 2 == 4, "arithmetic works");
        printf("done");
    "#);
    assert_eq!(out, "done\n");
}

#[test]
fn double_assignment_is_caught_at_runtime() {
    // Single assignment is the language's core invariant; a second store
    // is a dataflow violation detected by the data store.
    let err = Runtime::new(3)
        .run(
            r#"
            int x;
            x = 1;
            x = 2;
        "#,
        )
        .unwrap_err();
    match err {
        SwiftTError::Runtime(m) => assert!(m.contains("double assignment"), "{m}"),
        other => panic!("expected runtime error, got {other:?}"),
    }
}

#[test]
fn compile_error_reports_line() {
    let err = Runtime::new(3)
        .run("int a = 1;\nint b = c + 1;\n")
        .unwrap_err();
    match err {
        SwiftTError::Compile(e) => {
            assert_eq!(e.line, 2);
            assert!(e.message.contains("undefined variable \"c\""));
        }
        other => panic!("expected compile error, got {other:?}"),
    }
}

#[test]
fn deep_dependency_chain() {
    // A 30-deep chain of futures exercises cascading notifications.
    let mut src = String::from("int x0 = 1;\n");
    for i in 1..30 {
        src.push_str(&format!("int x{i} = x{} + 1;\n", i - 1));
    }
    src.push_str("printf(\"%d\", x29);\n");
    let out = run(&src);
    assert_eq!(out, "30\n");
}

#[test]
fn many_independent_statements() {
    let mut src = String::new();
    for i in 0..50 {
        src.push_str(&format!("int a{i} = {i} * 2;\n"));
    }
    for i in 0..50 {
        src.push_str(&format!("trace(a{i});\n"));
    }
    let out = Runtime::new(6).run(&src).unwrap().stdout;
    assert_eq!(out.lines().count(), 50);
}

#[test]
fn extended_math_builtins() {
    let out = run(r#"
        float p = pow(2.0, 10.0);
        float h = hypot(3.0, 4.0);
        float rr = round(2.6);
        float af = abs_float(0.0 - 4.5);
        int ai = abs_int(0 - 42);
        int mx = max_int(3, 9);
        int mn = min_int(3, 9);
        printf("%.0f %.0f %.0f %.1f %d %d %d", p, h, rr, af, ai, mx, mn);
    "#);
    assert_eq!(out, "1024 5 3 4.5 42 9 3\n");
}

#[test]
fn printf_with_hostile_format_strings() {
    // Braces, quotes, dollars, and brackets in the *format* must survive
    // being shipped as a task through the load balancer.
    let out = run(r#"
        printf("braces {not code} ok");
        printf("dollar $notavar ok");
        printf("bracket [notacmd] ok");
        printf("quote \" ok");
    "#);
    let mut lines: Vec<&str> = out.lines().collect();
    lines.sort();
    assert_eq!(
        lines,
        vec![
            "braces {not code} ok",
            "bracket [notacmd] ok",
            "dollar $notavar ok",
            "quote \" ok",
        ]
    );
}

#[test]
fn string_arrays_with_awkward_values() {
    let out = run(r#"
        string words[];
        words[0] = "plain";
        words[1] = "two words";
        words[2] = "with {braces}";
        foreach w, k in words {
            printf("%d=%s", k, w);
        }
    "#);
    let mut lines: Vec<&str> = out.lines().collect();
    lines.sort();
    assert_eq!(lines, vec!["0=plain", "1=two words", "2=with {braces}"]);
}

#[test]
fn float_arrays() {
    let out = run(r#"
        float xs[];
        foreach i in [0:4] {
            xs[i] = itof(i) * 0.5;
        }
        foreach v, k in xs {
            if (k == 3) { printf("%.1f", v); }
        }
    "#);
    assert_eq!(out, "1.5\n");
}

#[test]
fn loop_indices_and_literals_reach_leaves_by_value() {
    // The outer index reaches `pair` through a nested loop and an `if`
    // branch (as a captured future), alongside by-value inner indices,
    // literals, and an arithmetic argument.
    let out = run(r#"
        (int o) pair (int a, int b) [ "set <<o>> [expr {<<a>> * 100 + <<b>>}]" ];
        foreach i in [1:3] {
            foreach j in [0:1] {
                int p = pair(i, j);
                int s = pair(i + 1, j);
                printf("p=%d s=%d", p, s);
            }
            if (i >= 2) {
                int q = pair(i, 9);
                printf("q=%d", q);
            }
        }
        foreach k in [4:5] {
            if (true) {
                int u = pair(k, 0);
                printf("u=%d", u);
            }
        }
        int t = pair(7, true);
        printf("t=%d", t);
    "#);
    let mut lines: Vec<&str> = out.lines().collect();
    lines.sort();
    assert_eq!(
        lines,
        vec![
            "p=100 s=200",
            "p=101 s=201",
            "p=200 s=300",
            "p=201 s=301",
            "p=300 s=400",
            "p=301 s=401",
            "q=209",
            "q=309",
            "t=701",
            "u=400",
            "u=500",
        ]
    );
}
