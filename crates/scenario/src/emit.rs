//! Serialize a [`ScenarioSpec`] back into the TOML subset.
//!
//! The inverse of [`ScenarioSpec::from_toml_str`] by construction:
//! the text is written by the same per-table key lists (`fields.rs`)
//! that read it, so `parse(emit(spec)) == spec` for every valid spec.
//! The bytes are pinned (`tests/emit_pin.rs`):
//! the ledger hands the program this text as its input, and the
//! adversarial fuzzer archives minimized finds with it as replayable
//! regression files under `scenarios/found/`.

use crate::fields::{Blank, Done, Field, Fields, Pass, Presence};
use crate::spec::ScenarioSpec;
use std::fmt::Write as _;

/// Appends a table's keys as text, one `key = value` line each.
struct Write<'a>(&'a mut String);

impl Pass for Write<'_> {
    fn field<T: Field>(&mut self, key: &'static str, value: &mut T, presence: Presence) -> Done {
        let omit = match presence {
            Presence::Required | Presence::Optional => false,
            Presence::OmitDefault => *value == T::default(),
            Presence::ReadOnly => true,
        };
        if !omit {
            let _ = write!(self.0, "{key} = ");
            value.write(self.0);
            self.0.push('\n');
        }
        Ok(())
    }

    fn table<T: Fields>(&mut self, key: &'static str, value: &mut Option<T>, _: Blank<T>) -> Done {
        if let Some(t) = value {
            let _ = writeln!(self.0, "\n[{key}]");
            t.fields(self)?;
        }
        Ok(())
    }

    fn tables<T: Fields>(&mut self, key: &'static str, values: &mut Vec<T>, _: Blank<T>) -> Done {
        for t in values {
            let _ = writeln!(self.0, "\n[[{key}]]");
            t.fields(self)?;
        }
        Ok(())
    }
}

/// Serialize `spec` into TOML-subset text that parses back to an
/// equal [`ScenarioSpec`].
pub fn to_toml_string(spec: &ScenarioSpec) -> String {
    let mut out = String::new();
    // A pass takes the table by `&mut`, since reading fills it in.
    spec.clone()
        .fields(&mut Write(&mut out))
        .expect("writing reads nothing, so nothing fails");
    out
}

impl ScenarioSpec {
    /// Serialize into TOML-subset text (see [`to_toml_string`]).
    pub fn to_toml_string(&self) -> String {
        to_toml_string(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExpectSpec;

    fn roundtrip(spec: &ScenarioSpec) {
        let text = to_toml_string(spec);
        let back = ScenarioSpec::from_toml_str(&text)
            .unwrap_or_else(|e| panic!("emitted spec must re-parse: {e}\n---\n{text}"));
        assert_eq!(&back, spec, "round-trip must be structural identity");
    }

    #[test]
    fn shipped_scenarios_round_trip() {
        for name in crate::suite::ALL_SCENARIOS {
            let spec = crate::suite::load_scenario(name).unwrap();
            roundtrip(&spec);
        }
    }

    #[test]
    fn expect_stanza_round_trips() {
        let mut spec = crate::suite::load_scenario("paper_demo").unwrap();
        spec.expect = Some(ExpectSpec {
            max_unroutable_flow_secs: Some(1.5),
            min_mean_qoe: Some(0.25),
            max_final_lies: Some(0),
            min_fwd_loops: Some(1),
            ..ExpectSpec::default()
        });
        roundtrip(&spec);
    }

    #[test]
    fn strings_with_escapes_round_trip() {
        let mut spec = crate::suite::load_scenario("paper_demo").unwrap();
        spec.description = "line one\nline\ttwo \"quoted\" back\\slash\r".to_string();
        roundtrip(&spec);
    }

    #[test]
    fn awkward_floats_round_trip() {
        let mut spec = crate::suite::load_scenario("paper_demo").unwrap();
        spec.capacity = 4e6;
        spec.horizon_secs = 55.000001;
        roundtrip(&spec);
        spec.capacity = 1.25e7;
        spec.horizon_secs = 1e-3;
        roundtrip(&spec);
    }
}
