//! The binding between spec types and TOML tables: each table names
//! its keys once, and three passes walk that one description.
//!
//! A table implements [`Fields`]: one call per key, in the order the
//! keys are written. The same calls serve three passes: [`Read`]
//! (from a parsed table, strict about types and missing keys), the
//! `Write` pass in [`crate::emit`] (back to text) and `Keys` (names
//! only: the closed-world unknown-key check, and the test that holds
//! the format reference to the code). Reading and writing are inverse
//! because they are the same list; a new key is one line.

use crate::spec::{fail, SpecError};
use crate::toml::{Table, Value};
use std::fmt::{Debug, Write as _};

/// What a key's absence means, and whether it is written back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Presence {
    /// Reading fails without it; always written.
    Required,
    /// Absent keeps the blank's value; always written.
    Optional,
    /// Absent keeps the blank's value, which is the type's default;
    /// not written at that value.
    OmitDefault,
    /// Accepted when reading, never written.
    ReadOnly,
}

pub(crate) type Done = Result<(), SpecError>;

/// Makes the value reading a table starts from, every optional key
/// at its default. A tagged table picks its variant here.
pub(crate) type Blank<'a, T> = &'a dyn Fn(&Table, &str) -> Result<T, SpecError>;

/// The blank of a table whose defaults are its type's.
pub(crate) fn default_blank<T: Default>(_: &Table, _: &str) -> Result<T, SpecError> {
    Ok(T::default())
}

/// One walk over the keys of a table.
pub(crate) trait Pass {
    /// A `key = value` pair.
    fn field<T: Field>(&mut self, key: &'static str, value: &mut T, presence: Presence) -> Done;

    /// A `[key]` sub-table (`None` = absent).
    fn table<T: Fields>(&mut self, key: &'static str, value: &mut Option<T>, b: Blank<T>) -> Done;

    /// The `[[key]]` array of tables (empty = absent).
    fn tables<T: Fields>(&mut self, key: &'static str, values: &mut Vec<T>, b: Blank<T>) -> Done;

    /// A rule over the keys read so far, given the table's name for
    /// its message. Only reading runs it.
    fn check(&mut self, _rule: impl FnOnce(&str) -> Done) -> Done {
        Ok(())
    }
}

/// A table of the dialect: every key, in the order it is written.
pub(crate) trait Fields: Sized {
    fn fields(&mut self, p: &mut impl Pass) -> Done;
}

/// A value kind of the dialect.
pub(crate) trait Field: Sized + Default + PartialEq + Debug {
    /// Convert a parsed value; the error names `ctx` and `key`.
    fn read(v: &Value, ctx: &str, key: &str) -> Result<Self, SpecError>;

    /// Append text that [`crate::toml`] parses back to `self`. For
    /// numbers and booleans that is `{:?}`: plain integers, and floats
    /// shortest-roundtrip with a `.` or an exponent, so they read
    /// back as floats.
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self:?}");
    }
}

fn mismatch<T>(v: &Value, ctx: &str, key: &str, what: &str) -> Result<T, SpecError> {
    let got = v.type_name();
    fail(format!("`{ctx}.{key}` must be {what}, got {got}"))
}

/// Any integer type, range-checked.
fn read_int<T: TryFrom<i64>>(v: &Value, ctx: &str, key: &str) -> Result<T, SpecError> {
    match v.as_i64().and_then(|i| T::try_from(i).ok()) {
        Some(i) => Ok(i),
        None => mismatch(v, ctx, key, "a non-negative integer"),
    }
}

/// `[a, b, c]`, each item written by `one`.
pub(crate) fn write_list<T>(items: &[T], out: &mut String, one: impl Fn(&T, &mut String)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        one(item, out);
    }
    out.push(']');
}

impl Field for String {
    fn read(v: &Value, ctx: &str, key: &str) -> Result<Self, SpecError> {
        match v.as_str() {
            Some(s) => Ok(s.to_string()),
            None => mismatch(v, ctx, key, "a string"),
        }
    }

    /// Quoted, with exactly the escapes the parser understands.
    fn write(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                other => out.push(other),
            }
        }
        out.push('"');
    }
}

impl Field for f64 {
    /// Integers are accepted where a float is expected; an infinity
    /// (what an out-of-range literal such as `1e400` reads as) is not,
    /// under any key.
    fn read(v: &Value, ctx: &str, key: &str) -> Result<Self, SpecError> {
        match v.as_f64() {
            Some(f) if f.is_finite() => Ok(f),
            Some(f) => fail(format!("`{ctx}.{key}` must be a finite number, got {f}")),
            None => mismatch(v, ctx, key, "a number"),
        }
    }
}

impl Field for bool {
    fn read(v: &Value, ctx: &str, key: &str) -> Result<Self, SpecError> {
        match v.as_bool() {
            Some(b) => Ok(b),
            None => mismatch(v, ctx, key, "a boolean"),
        }
    }
}

impl Field for u32 {
    fn read(v: &Value, ctx: &str, key: &str) -> Result<Self, SpecError> {
        read_int(v, ctx, key)
    }
}

impl Field for u64 {
    fn read(v: &Value, ctx: &str, key: &str) -> Result<Self, SpecError> {
        read_int(v, ctx, key)
    }
}

/// An index (`dst`): as wide as a router id in the file.
impl Field for usize {
    fn read(v: &Value, ctx: &str, key: &str) -> Result<Self, SpecError> {
        read_int::<u32>(v, ctx, key).map(|i| i as usize)
    }
}

/// A key that stays `None` when absent and is written only when set
/// (so always [`Presence::OmitDefault`] or [`Presence::ReadOnly`]).
impl<T: Field> Field for Option<T> {
    fn read(v: &Value, ctx: &str, key: &str) -> Result<Self, SpecError> {
        T::read(v, ctx, key).map(Some)
    }

    fn write(&self, out: &mut String) {
        if let Some(v) = self {
            v.write(out);
        }
    }
}

/// A list of router ids (`sinks`). The root arrays name themselves
/// without their table.
impl Field for Vec<u32> {
    fn read(v: &Value, ctx: &str, key: &str) -> Result<Self, SpecError> {
        let Some(items) = v.as_array() else {
            return fail(format!("`{key}` must be an array of router ids"));
        };
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            match u32::read(item, ctx, key) {
                Ok(id) if id > 0 => out.push(id),
                _ => return fail(format!("`{key}` entries must be positive router ids")),
            }
        }
        Ok(out)
    }

    fn write(&self, out: &mut String) {
        write_list(self, out, u32::write);
    }
}

/// A list of directed links, each an `"a-b"` string (`trace_links`).
impl Field for Vec<(u32, u32)> {
    fn read(v: &Value, _ctx: &str, key: &str) -> Result<Self, SpecError> {
        let Some(items) = v.as_array() else {
            return fail(format!("`{key}` must be an array of \"a-b\" strings"));
        };
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let Some(s) = item.as_str() else {
                return fail(format!("`{key}` entries must be \"a-b\" strings"));
            };
            let mut ends = s.split('-').map(|end| end.trim().parse().ok());
            match (ends.next().flatten(), ends.next().flatten(), ends.next()) {
                (Some(a), Some(b), None) => out.push((a, b)),
                _ => return fail(format!("bad trace link `{s}` (expected \"a-b\")")),
            }
        }
        Ok(out)
    }

    fn write(&self, out: &mut String) {
        write_list(self, out, |(a, b), out| {
            let _ = write!(out, "\"{a}-{b}\"");
        });
    }
}

/// A table whose variant is named by a string key (`kind`,
/// `action`). Each variant is listed once, as the blank reading
/// starts from, with its optional keys at their defaults.
pub(crate) trait Tagged: Clone + 'static {
    /// The key that names the variant.
    const KEY: &'static str;
    /// What the key selects, for the unknown-tag error.
    const WHAT: &'static str;
    /// Tag and blank of every variant.
    const VARIANTS: &'static [(&'static str, Self)];

    /// The blank variant `table` asks for.
    fn select(table: &Table, ctx: &str) -> Result<Self, SpecError> {
        let mut tag = String::new();
        Read { table, ctx }.field(Self::KEY, &mut tag, Presence::Required)?;
        match Self::VARIANTS.iter().find(|(t, _)| *t == tag) {
            Some((_, blank)) => Ok(blank.clone()),
            None => fail(format!("unknown {} `{tag}`", Self::WHAT)),
        }
    }

    /// The tag key itself, as one more field of the table: listed,
    /// written from the variant, and already consumed when reading.
    fn tag(&self, p: &mut impl Pass) -> Done {
        let of = std::mem::discriminant(self);
        let (tag, _) = Self::VARIANTS
            .iter()
            .find(|(_, blank)| std::mem::discriminant(blank) == of)
            .expect("every variant is listed");
        p.field(Self::KEY, &mut tag.to_string(), Presence::Required)
    }
}

/// Reads from one parsed table; errors name it as `ctx`.
struct Read<'a> {
    table: &'a Table,
    ctx: &'a str,
}

/// Read one table: make the blank, reject keys it does not list, then
/// fill it in. An unknown key is reported before a missing one, so a
/// typo is named instead of the key it was meant to be.
pub(crate) fn read_table<T: Fields>(table: &Table, ctx: &str, b: Blank<T>) -> Result<T, SpecError> {
    let mut value = b(table, ctx)?;
    let allowed = keys_of(&mut value);
    if let Some(k) = table.keys().find(|k| !allowed.contains(&k.as_str())) {
        let allowed = allowed.join(", ");
        return fail(format!("unknown key `{k}` in {ctx} (allowed: {allowed})"));
    }
    value.fields(&mut Read { table, ctx })?;
    Ok(value)
}

impl Pass for Read<'_> {
    fn field<T: Field>(&mut self, key: &'static str, value: &mut T, presence: Presence) -> Done {
        match self.table.get(key) {
            Some(v) => *value = T::read(v, self.ctx, key)?,
            None if presence == Presence::Required => {
                return fail(format!("missing key `{key}` in {}", self.ctx))
            }
            None => {}
        }
        Ok(())
    }

    fn table<T: Fields>(&mut self, key: &'static str, value: &mut Option<T>, b: Blank<T>) -> Done {
        *value = match self.table.get(key) {
            None => None,
            Some(Value::Table(t)) => Some(read_table(t, key, b)?),
            Some(v) => return fail(format!("`{key}` must be a table, got {}", v.type_name())),
        };
        Ok(())
    }

    fn tables<T: Fields>(&mut self, key: &'static str, values: &mut Vec<T>, b: Blank<T>) -> Done {
        let items = match self.table.get(key) {
            None => &[],
            Some(Value::Array(items)) => items.as_slice(),
            Some(v) => {
                let got = v.type_name();
                return fail(format!("`{key}` must be an array of tables, got {got}"));
            }
        };
        values.clear();
        for (i, item) in items.iter().enumerate() {
            match item.as_table() {
                Some(t) => values.push(read_table(t, &format!("{key}[{i}]"), b)?),
                None => return fail(format!("`[[{key}]]` entries must be tables")),
            }
        }
        Ok(())
    }

    fn check(&mut self, rule: impl FnOnce(&str) -> Done) -> Done {
        rule(self.ctx)
    }
}

/// Collects the names of a table's keys.
struct Keys(Vec<&'static str>);

/// The keys `value`'s table accepts (for a tagged table: the keys of
/// `value`'s variant).
pub(crate) fn keys_of(value: &mut impl Fields) -> Vec<&'static str> {
    let mut keys = Keys(Vec::new());
    value
        .fields(&mut keys)
        .expect("listing keys reads nothing, so nothing fails");
    keys.0
}

impl Pass for Keys {
    fn field<T: Field>(&mut self, key: &'static str, _: &mut T, _: Presence) -> Done {
        self.0.push(key);
        Ok(())
    }

    fn table<T: Fields>(&mut self, key: &'static str, _: &mut Option<T>, _: Blank<T>) -> Done {
        self.0.push(key);
        Ok(())
    }

    fn tables<T: Fields>(&mut self, key: &'static str, _: &mut Vec<T>, _: Blank<T>) -> Done {
        self.0.push(key);
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::{
        ControllerSpec, EventKind, EventSpec, ExpectSpec, TopologySpec, WorkloadSpec,
    };

    /// Fails unless the section of `page` under `heading` writes every
    /// one of `keys` as `` `key` `` (a sub-table may be `` `[key]` ``
    /// or `` `[[key]]` ``; a tag is passed with its quotes).
    pub(crate) fn assert_documented(page: &str, heading: &str, keys: &[&str]) {
        let start = page
            .find(&format!("\n## {heading}\n"))
            .unwrap_or_else(|| panic!("no `## {heading}` section"));
        let section = &page[start + 4..];
        let section = &section[..section.find("\n## ").unwrap_or(section.len())];
        for k in keys {
            let written = [format!("`{k}`"), format!("`[{k}]`"), format!("`[[{k}]]`")];
            assert!(
                written.iter().any(|w| section.contains(w)),
                "`{k}` is accepted by the reader but not written under `## {heading}`"
            );
        }
    }

    fn assert_variants_documented<T: Tagged>(
        page: &str,
        heading: &str,
        table: impl Fn(&T) -> Vec<&'static str>,
    ) {
        for (tag, blank) in T::VARIANTS {
            assert_documented(page, heading, &[&format!("\"{tag}\"")]);
            assert_documented(page, heading, &table(blank));
        }
    }

    /// The scenario reference lists every key the reader accepts,
    /// under the heading of the table that accepts it.
    #[test]
    fn scenario_format_page_lists_every_accepted_key() {
        let page = include_str!("../../../docs/SCENARIO_FORMAT.md");
        let mut root = crate::suite::load_scenario("paper_demo").unwrap();
        assert_documented(page, "Top level", &keys_of(&mut root));
        assert_variants_documented(page, "`[topology]`", |t: &TopologySpec| {
            keys_of(&mut t.clone())
        });
        let mut controller = Some(ControllerSpec::default());
        assert_documented(page, "`[controller]`", &keys_of(&mut controller));
        assert_variants_documented(page, "`[[workload]]`", |w: &WorkloadSpec| {
            keys_of(&mut w.clone())
        });
        assert_variants_documented(page, "`[[event]]`", |kind: &EventKind| {
            let kind = kind.clone();
            keys_of(&mut EventSpec { at: 0.0, kind })
        });
        assert_documented(page, "`[expect]`", &keys_of(&mut ExpectSpec::default()));
    }
}
