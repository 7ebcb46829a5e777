//! Shared JSON writer — a small value tree plus an escaping-correct
//! pretty renderer.
//!
//! Every machine-readable export in this repo (the `repro
//! load_sweep`/`fault_sweep` datasets, `BENCH_netsim.json`, the
//! telemetry JSONL/Chrome-trace files) is built here; the workspace has
//! no serialization dependency. Before this module each emitter carried its own string
//! escaping and its own trailing-comma bookkeeping; they now all build a
//! [`Json`] tree and render it here, so escaping is correct (full control
//! character coverage, not just `"` and `\`) and well-formedness is
//! structural instead of asserted by brace counting.
//!
//! Numbers: integers keep full 64-bit precision ([`Json::UInt`] /
//! [`Json::Int`]); floats that must stay diff-stable across records use
//! [`Json::fixed`] (fixed decimal places, pre-rendered); non-finite
//! floats render as `null` (JSON has no NaN).

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer, rendered exactly.
    UInt(u64),
    /// Signed integer, rendered exactly.
    Int(i64),
    /// Float, shortest representation; NaN/infinity render as `null`.
    Num(f64),
    /// A pre-rendered numeric literal (see [`Json::fixed`]). The caller
    /// guarantees it is a valid JSON number; it is emitted verbatim.
    Raw(String),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A float rendered with exactly `decimals` decimal places — the
    /// diff-stable form every fixed-precision field of the exports uses.
    /// Non-finite values become `null`.
    pub fn fixed(v: f64, decimals: usize) -> Json {
        if v.is_finite() {
            Json::Raw(format!("{v:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// Renders the value as pretty-printed JSON (2-space indent) with a
    /// trailing newline, matching the repo's existing export layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the value on a single line (no indentation) — the JSONL
    /// form used by the telemetry exports.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 == items.len() { "\n" } else { ",\n" });
                }
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    push_indent(out, indent + 1);
                    let _ = write!(out, "\"{}\": ", escape(key));
                    value.write(out, indent + 1);
                    out.push_str(if i + 1 == fields.len() { "\n" } else { ",\n" });
                }
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Raw(lit) => out.push_str(lit),
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{}\": ", escape(key));
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Escapes a string for embedding between JSON quotes: `"`, `\`, and
/// every control character below 0x20 (named escapes where JSON has
/// them, `\u00XX` otherwise).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Builder for [`Json::Obj`] that keeps call sites flat:
/// `Obj::new().field("a", 1u64).field("b", "x").build()`.
#[derive(Debug, Default, Clone)]
pub struct Obj(Vec<(String, Json)>);

impl Obj {
    /// An empty object builder.
    pub fn new() -> Self {
        Obj(Vec::new())
    }

    /// Appends one field.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> Json {
        Json::Obj(self.0)
    }
}

impl From<Obj> for Json {
    fn from(o: Obj) -> Json {
        o.build()
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(u64::from(v))
    }
}

impl From<u16> for Json {
    fn from(v: u16) -> Json {
        Json::UInt(u64::from(v))
    }
}

impl From<u8> for Json {
    fn from(v: u8) -> Json {
        Json::UInt(u64::from(v))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(escape(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape(r"a\b"), r"a\\b");
        assert_eq!(escape("line1\nline2\ttab"), "line1\\nline2\\ttab");
        assert_eq!(escape("\r\u{08}\u{0C}"), "\\r\\b\\f");
        assert_eq!(escape("\u{01}\u{1f}"), "\\u0001\\u001f");
        // Non-control unicode passes through untouched.
        assert_eq!(escape("héllo ✓"), "héllo ✓");
    }

    #[test]
    fn escaping_applies_to_keys_and_values() {
        let j = Obj::new().field("ke\"y", "va\\lue\n").build();
        assert_eq!(j.render_compact(), r#"{"ke\"y": "va\\lue\n"}"#);
    }

    #[test]
    fn empty_collections_render_inline() {
        assert_eq!(Json::Arr(vec![]).render(), "[]\n");
        assert_eq!(Json::Obj(vec![]).render(), "{}\n");
        let j = Obj::new()
            .field("empty_arr", Json::Arr(vec![]))
            .field("empty_obj", Json::Obj(vec![]))
            .build();
        assert_eq!(
            j.render(),
            "{\n  \"empty_arr\": [],\n  \"empty_obj\": {}\n}\n"
        );
    }

    #[test]
    fn numbers_keep_precision_and_reject_nonfinite() {
        // Integers above 2^53 would lose precision as f64; UInt keeps
        // them exact.
        let big = u64::MAX;
        assert_eq!(Json::UInt(big).render_compact(), format!("{big}"));
        assert_eq!(Json::Int(-42).render_compact(), "-42");
        assert_eq!(Json::Num(0.25).render_compact(), "0.25");
        assert_eq!(Json::Num(f64::NAN).render_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render_compact(), "null");
        assert_eq!(Json::fixed(1.0 / 3.0, 4).render_compact(), "0.3333");
        assert_eq!(Json::fixed(f64::NAN, 4).render_compact(), "null");
    }

    #[test]
    fn nested_pretty_render_is_balanced_and_ordered() {
        let j = Obj::new()
            .field("name", "sweep")
            .field("stable", true)
            .field("missing", Json::Null)
            .field(
                "points",
                Json::Arr(vec![
                    Obj::new().field("offered", Json::fixed(0.02, 4)).build(),
                    Obj::new().field("offered", Json::fixed(0.05, 4)).build(),
                ]),
            )
            .build();
        let r = j.render();
        assert_eq!(r.matches('{').count(), r.matches('}').count());
        assert_eq!(r.matches('[').count(), r.matches(']').count());
        // Insertion order is preserved.
        assert!(r.find("\"name\"").unwrap() < r.find("\"points\"").unwrap());
        assert!(r.contains("\"offered\": 0.0200"));
        assert!(r.ends_with("}\n"));
    }

    #[test]
    fn option_maps_to_null_or_value() {
        let some: Option<u64> = Some(7);
        let none: Option<u64> = None;
        assert_eq!(Json::from(some).render_compact(), "7");
        assert_eq!(Json::from(none).render_compact(), "null");
    }
}
