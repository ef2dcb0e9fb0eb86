//! Error-path coverage for the zero-dependency TOML-subset parser and
//! the spec layers above it: every rejection must carry the offending
//! key or a 1-based line number, because sweep grids multiply one
//! typo into hundreds of failed cells and the message is all the
//! operator gets.

use fib_scenario::spec::ScenarioSpec;
use fib_scenario::sweep::SweepSpec;
use fib_scenario::toml::{parse, Value};

#[test]
fn unknown_keys_name_the_key_and_context() {
    let src = r#"
name = "t"
horizon_secs = 10.0
capacity = 1e6
horizn = 3.0
[topology]
kind = "line"
n = 3
[[workload]]
kind = "constant"
at = 1.0
src = 1
n = 1
rate = 1e5
video_secs = 5.0
"#;
    let e = ScenarioSpec::from_toml_str(src).unwrap_err().to_string();
    assert!(e.contains("horizn"), "{e}");
    assert!(e.contains("allowed:"), "lists the valid keys: {e}");
    // Nested contexts are named too.
    let nested = src.replace("kind = \"line\"\nn = 3", "kind = \"line\"\nm = 3");
    let e = ScenarioSpec::from_toml_str(&nested)
        .unwrap_err()
        .to_string();
    assert!(e.contains('m') && e.contains("topology"), "{e}");
    // A typo leaves its key missing too: the typo is what gets named,
    // not the key it was meant to be.
    let typo_only = nested.replace("horizn = 3.0\n", "");
    let e = ScenarioSpec::from_toml_str(&typo_only)
        .unwrap_err()
        .to_string();
    assert!(e.contains("unknown key `m` in topology (allowed: "), "{e}");
}

#[test]
fn type_mismatches_name_expected_and_actual() {
    // Each case is a complete, otherwise-valid spec with exactly one
    // mistyped root key, so the reported error is about the type.
    let with_body = |root: &str| {
        format!(
            "{root}\n[topology]\nkind = \"line\"\nn = 3\n\
             [[workload]]\nkind = \"constant\"\nat = 1.0\nsrc = 1\nn = 1\n\
             rate = 1e5\nvideo_secs = 5.0\n"
        )
    };
    let cases = [
        (
            "name = 7\nhorizon_secs = 1.0\ncapacity = 1e6",
            "must be a string",
        ),
        (
            "name = \"t\"\nhorizon_secs = \"long\"\ncapacity = 1e6",
            "must be a number",
        ),
        (
            "name = \"t\"\nhorizon_secs = 1.0\ncapacity = 1e6\npin_seed = 1",
            "must be a boolean",
        ),
        (
            "name = \"t\"\nhorizon_secs = 1.0\ncapacity = 1e6\nseed = 1.5",
            "`seed` must be a non-negative integer",
        ),
        (
            "name = \"t\"\nhorizon_secs = 1.0\ncapacity = 1e6\nsinks = 3",
            "`sinks` must be an array",
        ),
        (
            // Router ids are range-checked like every other integer:
            // this one is 7 modulo 2^32.
            "name = \"t\"\nhorizon_secs = 1.0\ncapacity = 1e6\nsinks = [4294967303]",
            "`sinks` entries must be positive router ids",
        ),
        (
            "name = \"t\"\nhorizon_secs = 1.0\ncapacity = 1e6\ncontroller = 3",
            "`controller` must be a table",
        ),
        (
            "name = \"t\"\ndescription = 3\nhorizon_secs = 1.0\ncapacity = 1e6",
            "`scenario.description` must be a string",
        ),
    ];
    for (root, needle) in cases {
        let src = with_body(root);
        let e = ScenarioSpec::from_toml_str(&src).unwrap_err().to_string();
        assert!(
            e.contains(needle),
            "`{root}` should say `{needle}`, got {e}"
        );
    }
    // `workload` mistyped at the root (no `[[workload]]` body, which
    // would collide at the TOML layer already).
    let src = "name = \"t\"\nhorizon_secs = 1.0\ncapacity = 1e6\nworkload = 3\n\
               [topology]\nkind = \"line\"\nn = 3\n";
    let e = ScenarioSpec::from_toml_str(src).unwrap_err().to_string();
    assert!(e.contains("`workload` must be an array of tables"), "{e}");
}

#[test]
fn malformed_arrays_of_tables_are_line_numbered() {
    let e = parse("a = 1\n[[event]\nat = 2.0").unwrap_err();
    assert_eq!(e.line, 2);
    assert!(e.message.contains("array-of-tables"), "{e}");
    // A scalar key cannot later become an array of tables.
    let e = parse("event = 3\n[[event]]\nat = 2.0").unwrap_err();
    assert_eq!(e.line, 2);
    assert!(e.message.contains("not an array of tables"), "{e}");
    // Nor can a [[header]] collide with a plain [table].
    let e = parse("[event]\nat = 1.0\n\n[[event]]\nat = 2.0").unwrap_err();
    assert_eq!(e.line, 4);
    assert!(e.message.contains("not an array of tables"), "{e}");
}

#[test]
fn parse_errors_carry_one_based_line_numbers() {
    for (src, line) in [
        ("ok = 1\nbad", 2),
        ("ok = 1\n\n\nbad = @nope", 4),
        ("a = [1,\n2,\n!]", 1), // multi-line arrays report the opening line
        ("s = \"unterminated", 1),
        ("[t]\nx = {inline = 1}", 2),
        ("key with space = 1", 1),
    ] {
        let e = parse(src).unwrap_err();
        assert_eq!(e.line, line, "`{src}`: {e}");
        assert!(
            e.to_string().starts_with(&format!("line {line}:")),
            "display includes the line: {e}"
        );
    }
}

#[test]
fn duplicate_keys_and_tables_are_rejected() {
    assert!(parse("a = 1\na = 2")
        .unwrap_err()
        .message
        .contains("duplicate"));
    // Re-opening a [table] and re-defining a key inside it collides.
    let e = parse("[t]\na = 1\n[t]\na = 2").unwrap_err();
    assert!(e.message.contains("duplicate"), "{e}");
}

#[test]
fn float_values_do_not_pass_as_integers() {
    assert_eq!(Value::Float(2.5).as_i64(), None);
    let src = r#"
name = "t"
horizon_secs = 10.0
capacity = 1e6
[topology]
kind = "line"
n = 3.5
[[workload]]
kind = "constant"
at = 1.0
src = 1
n = 1
rate = 1e5
video_secs = 5.0
"#;
    let e = ScenarioSpec::from_toml_str(src).unwrap_err().to_string();
    assert!(
        e.contains("topology.n") && e.contains("non-negative integer"),
        "{e}"
    );
}

#[test]
fn sweep_specs_reject_bad_shapes_with_context() {
    for (src, needle) in [
        (
            "name = \"s\"\ngrid = 3",
            "`grid` must be an array of tables",
        ),
        (
            "name = \"s\"\ndefaults = 3\n[[grid]]\nscenario = \"x\"\nseeds = [1]",
            "`defaults` must be a table",
        ),
        (
            "name = \"s\"\n[[grid]]\nscenario = \"x\"\nseeds = [1]\ncapacity_scale = 2.0",
            "capacity_scale",
        ),
        (
            "name = \"s\"\n[[grid]]\nscenario = \"x\"\nseeds = [-1]",
            "seeds",
        ),
        (
            "name = \"s\"\n[[grid]]\nscenario = \"x\"\nseeds = [1]\nseed_count = 2",
            "not both",
        ),
    ] {
        let e = SweepSpec::from_toml_str(src).unwrap_err().to_string();
        assert!(e.contains(needle), "`{src}` should mention `{needle}`: {e}");
    }
}

/// An out-of-range literal reads as an infinity: refused where it is
/// read, under its own key, in a scenario and in a sweep alike.
#[test]
fn non_finite_numbers_are_refused_under_their_key() {
    let src = "name = \"t\"\nhorizon_secs = 1e400\ncapacity = 1e6\n\
               [topology]\nkind = \"line\"\nn = 3\n\
               [[workload]]\nkind = \"constant\"\nat = 1.0\nsrc = 1\nn = 1\n\
               rate = 1e5\nvideo_secs = 5.0\n";
    let e = ScenarioSpec::from_toml_str(src).unwrap_err().to_string();
    assert!(
        e.contains("`scenario.horizon_secs` must be a finite number, got inf"),
        "{e}"
    );
    let src = "name = \"s\"\n[[grid]]\nscenario = \"x\"\nseeds = [1]\nhorizon_secs = -1e400";
    let e = SweepSpec::from_toml_str(src).unwrap_err().to_string();
    assert!(
        e.contains("horizon_secs` must be a finite number, got -inf"),
        "{e}"
    );
}

/// A workload starts inside the horizon, as an event fires inside it.
#[test]
fn workload_instants_lie_inside_the_horizon() {
    for (workload, t) in [
        ("kind = \"constant\"\nat = -5.0\nsrc = 1\nn = 1", "-5"),
        (
            "kind = \"poisson\"\nstart = 12.5\nmean_gap_secs = 0.1\nn = 1\nsrc = 1",
            "12.5",
        ),
    ] {
        let src = format!(
            "name = \"t\"\nhorizon_secs = 10.0\ncapacity = 1e6\n\
             [topology]\nkind = \"line\"\nn = 3\n\
             [[workload]]\n{workload}\nrate = 1e5\nvideo_secs = 5.0\n"
        );
        let e = ScenarioSpec::from_toml_str(&src).unwrap_err().to_string();
        let want = format!("`workload[0]` starts at t={t}, outside the horizon 0..10");
        assert!(e.contains(&want), "{e}");
    }
}
