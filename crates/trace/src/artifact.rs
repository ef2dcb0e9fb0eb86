//! The one artifact writer: a JSON value, its two views, and `save`.
//!
//! Every JSON file this workspace writes (`BENCH_*.json`, the Chrome
//! trace-event exports) is built as a [`Value`] and written by
//! [`save`]. The module owns the three rules an artifact's bytes
//! depend on:
//!
//! * **escaping** — `"`, `\`, `\n`, `\r`, `\t` get their two-character
//!   escapes, every other control character becomes `\u00XX`;
//! * **numbers** — integers print exactly, floats print as `{:.6}`,
//!   and a non-finite float prints as `null` (JSON has no NaN);
//! * **the deterministic view** — a value that is *not* a function of
//!   spec and seed (anything read off the wall clock or derived from
//!   it, and worker counts) is wrapped in [`volatile`] by the code that
//!   computed it. [`View::Full`] prints such a value as it is;
//!   [`View::Deterministic`] prints `null` in its place and changes
//!   nothing else. Two runs of the same spec and seed therefore have
//!   byte-identical deterministic views, and comparing them needs no
//!   list of key names: [`save`] writes `X.json` and its
//!   `X.det.json` twin, and the differ is `cmp`.
//!
//! Layout is fixed too, so there is nothing to choose but the view:
//! the root object puts one member per line, an array that is a
//! direct member of the root puts one element per line (one trace
//! event, one sweep group, one table case), and everything deeper is
//! written inline.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::path::Path;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A count, seed or identifier, printed exactly.
    Int(u64),
    /// A measurement, printed as `{:.6}` (`null` when non-finite).
    Num(f64),
    /// A string, escaped on output.
    Str(Cow<'static, str>),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(&'static str, Value)>),
    /// A value outside the deterministic view (see [`volatile`]).
    Volatile(Box<Value>),
}

/// Which rendering of a [`Value`] to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// Every value as recorded.
    Full,
    /// [`volatile`] values blanked to `null`; equal across runs of the
    /// same spec and seed.
    Deterministic,
}

/// Mark `v` as not part of the deterministic view: wall-clock
/// readings, anything computed from one, and worker counts.
pub fn volatile(v: impl Into<Value>) -> Value {
    Value::Volatile(Box::new(v.into()))
}

impl Value {
    /// Render the document in `view`, newline-terminated.
    pub fn render(&self, view: View) -> String {
        let mut out = String::new();
        self.write(&mut out, view, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, view: View, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x:.6}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            // Only the root object and the arrays directly under it
            // break lines.
            Value::Arr(items) => write_list(out, ('[', ']'), depth == 1, depth, items, |out, v| {
                v.write(out, view, depth + 1)
            }),
            Value::Obj(fields) => {
                write_list(out, ('{', '}'), depth == 0, depth, fields, |out, (k, v)| {
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, view, depth + 1);
                })
            }
            Value::Volatile(inner) => match view {
                View::Full => inner.write(out, view, depth),
                View::Deterministic => out.push_str("null"),
            },
        }
    }
}

/// A comma-separated list between `open` and `close`: inline, or (when
/// `broken` and non-empty) one item per line at `depth + 1`.
fn write_list<T>(
    out: &mut String,
    (open, close): (char, char),
    broken: bool,
    depth: usize,
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T),
) {
    let broken = broken && !items.is_empty();
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat("  ").take(depth));
    };
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if broken {
            newline(out, depth + 1);
        } else if i > 0 {
            out.push(' ');
        }
        write_item(out, item);
    }
    if broken {
        newline(out, depth);
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Write `doc` to `path` in full, and its deterministic view next to
/// it with the extension replaced by `det.json` (`X.json` →
/// `X.det.json`).
pub fn save(path: &Path, doc: &Value) -> std::io::Result<()> {
    std::fs::write(path, doc.render(View::Full))?;
    std::fs::write(
        path.with_extension("det.json"),
        doc.render(View::Deterministic),
    )
}

/// FNV-1a offset basis: the `state` a digest starts from.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a (64 bit) over `bytes`, continuing from `state`. What the
/// byte pins fold an artifact's text into; chaining two calls digests
/// the concatenation.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Int(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Int(n as u64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Num(x)
    }
}

impl From<&'static str> for Value {
    fn from(s: &'static str) -> Value {
        Value::Str(Cow::Borrowed(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(Cow::Owned(s))
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inline(v: Value) -> String {
        v.render(View::Full)
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(inline("plain".into()), "\"plain\"\n");
        assert_eq!(
            inline("a\"b\\c\nd\re\tf".to_string().into()),
            "\"a\\\"b\\\\c\\nd\\re\\tf\"\n"
        );
        assert_eq!(
            inline("\u{1}\u{1f}".into()),
            "\"\\u0001\\u001f\"\n",
            "control characters without a short escape become \\u00XX"
        );
        assert_eq!(inline("θ* é".into()), "\"θ* é\"\n", "non-ASCII passes");
    }

    #[test]
    fn floats_have_one_width_and_non_finite_is_null() {
        assert_eq!(inline(0.5.into()), "0.500000\n");
        assert_eq!(inline(14.0.into()), "14.000000\n");
        assert_eq!(inline(f64::NAN.into()), "null\n");
        assert_eq!(inline(f64::INFINITY.into()), "null\n");
        assert_eq!(inline(Some(1.25).into()), "1.250000\n");
        assert_eq!(inline(None::<f64>.into()), "null\n");
        assert_eq!(inline(u64::MAX.into()), "18446744073709551615\n");
    }

    fn sample() -> Value {
        Value::Obj(vec![
            ("bench", "sweep".into()),
            ("jobs", volatile(4usize)),
            ("wall_secs", volatile(1.234567)),
            (
                "groups",
                Value::Arr(vec![
                    Value::Obj(vec![
                        ("group", "a".into()),
                        // Deterministic, though its name contains `secs`.
                        (
                            "unroutable_flow_secs",
                            Value::Obj(vec![("n", 1usize.into()), ("p50", 0.25.into())]),
                        ),
                        ("pct", volatile(41.2)),
                    ]),
                    Value::Obj(vec![("group", "b".into()), ("pct", volatile(58.8))]),
                ]),
            ),
            ("failures", Value::Arr(Vec::new())),
            ("rollup", Value::Obj(Vec::new())),
        ])
    }

    #[test]
    fn layout_is_one_root_member_and_one_root_array_element_per_line() {
        assert_eq!(
            sample().render(View::Full),
            "{\n  \"bench\": \"sweep\",\n  \"jobs\": 4,\n  \"wall_secs\": 1.234567,\n  \
             \"groups\": [\n    {\"group\": \"a\", \"unroutable_flow_secs\": {\"n\": 1, \
             \"p50\": 0.250000}, \"pct\": 41.200000},\n    {\"group\": \"b\", \
             \"pct\": 58.800000}\n  ],\n  \"failures\": [],\n  \"rollup\": {}\n}\n"
        );
    }

    #[test]
    fn deterministic_view_differs_in_exactly_the_marked_values() {
        let full = sample().render(View::Full);
        let det = sample().render(View::Deterministic);
        assert_eq!(
            det,
            full.replace("\"jobs\": 4", "\"jobs\": null")
                .replace("\"wall_secs\": 1.234567", "\"wall_secs\": null")
                .replace("\"pct\": 41.200000", "\"pct\": null")
                .replace("\"pct\": 58.800000", "\"pct\": null")
        );
        assert!(det.contains("\"unroutable_flow_secs\": {\"n\": 1, \"p50\": 0.250000}"));
        // Marking is by value, not by key name: changing every marked
        // value leaves the deterministic view untouched.
        let Value::Obj(mut fields) = sample() else {
            unreachable!()
        };
        fields[1].1 = volatile(1usize);
        fields[2].1 = volatile(9.0);
        assert_ne!(Value::Obj(fields.clone()).render(View::Full), full);
        assert_eq!(Value::Obj(fields).render(View::Deterministic), det);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors_and_chains() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn save_writes_the_file_and_its_deterministic_twin() {
        let dir = std::env::temp_dir().join(format!("fib-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_x.json");
        save(&path, &sample()).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            sample().render(View::Full)
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("BENCH_x.det.json")).unwrap(),
            sample().render(View::Deterministic)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
