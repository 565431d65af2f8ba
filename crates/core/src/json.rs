//! The one JSON writer behind every machine-readable output: batch,
//! campaign and crash-test reports, `profile --json`, every `ccured serve`
//! reply and the `BENCH_*.json` records.
//!
//! Output is compact (no whitespace), fields appear in the order they are
//! written, keys are code literals written as they are, and every string
//! value is escaped. perfbench scans serve replies for `"key":value`, so
//! the compact form is part of the serve protocol.
//!
//! ```
//! let j = ccured::json::object(|o| {
//!     o.str("path", "a.c").num("hits", 3u64).fixed("cost", 0.5, 1);
//!     o.list("rows", [1u32, 2], |o, n| {
//!         o.num("n", n);
//!     });
//! });
//! assert_eq!(j, r#"{"path":"a.c","hits":3,"cost":0.5,"rows":[{"n":1},{"n":2}]}"#);
//! ```

use std::fmt::Write;

/// A value [`Object::num`] writes bare: an integer, a boolean, or an
/// `Option` of one (`None` is `null`).
pub trait Num {
    /// Appends the value's JSON text.
    fn write(&self, out: &mut String);
}

macro_rules! bare {
    ($($t:ty),*) => {$(
        impl Num for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

bare!(u32, u64, u128, usize, i64, bool);

impl<T: Num> Num for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
}

/// Writes one JSON object through `f` and returns its compact text.
pub fn object(f: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, f);
    out
}

fn write_object(out: &mut String, f: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    f(&mut Object { out, first: true });
    out.push('}');
}

/// An open JSON object: each method appends one field.
pub struct Object<'a> {
    out: &'a mut String,
    first: bool,
}

impl Object<'_> {
    /// Starts a field: the separator, then `"key":`.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    /// A string field.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        escape(self.key(key), v);
        self
    }

    /// An integer or boolean field.
    pub fn num(&mut self, key: &str, v: impl Num) -> &mut Self {
        v.write(self.key(key));
        self
    }

    /// A number with exactly `places` decimals.
    pub fn fixed(&mut self, key: &str, v: f64, places: usize) -> &mut Self {
        let _ = write!(self.key(key), "{v:.places$}");
        self
    }

    /// A string field, or `null`.
    pub fn opt_str(&mut self, key: &str, v: Option<&str>) -> &mut Self {
        match v {
            Some(s) => self.str(key, s),
            None => {
                self.key(key).push_str("null");
                self
            }
        }
    }

    /// A nested object.
    pub fn obj(&mut self, key: &str, f: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        write_object(self.key(key), f);
        self
    }

    /// An array with one object per item, each written by `f`.
    pub fn list<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut f: impl FnMut(&mut Object<'_>, T),
    ) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_object(out, |o| f(o, item));
        }
        out.push(']');
        self
    }
}

/// Appends `s` as a JSON string literal, quotes included: `"` and `\` are
/// backslash-escaped, and every control character (below U+0020) becomes
/// `\n`, `\r`, `\t` or a `\u00XX` escape.
fn escape(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::object;

    #[test]
    fn writes_compact_fields_in_order() {
        let j = object(|o| {
            o.num("b", 2u64)
                .str("a", "x")
                .num("ok", true)
                .num("n", -3i64);
        });
        assert_eq!(j, r#"{"b":2,"a":"x","ok":true,"n":-3}"#);
        assert_eq!(object(|_| {}), "{}");
    }

    #[test]
    fn escapes_every_control_character() {
        let j = object(|o| {
            o.str("s", "quick\tstart.c\r")
                .str("q", "a\"b\\c\nd")
                .str("c", "\u{1}\u{1f}")
                .str("u", "héllo");
        });
        assert_eq!(
            j,
            r#"{"s":"quick\tstart.c\r","q":"a\"b\\c\nd","c":"\u0001\u001f","u":"héllo"}"#
        );
    }

    #[test]
    fn writes_null_for_missing_values() {
        let j = object(|o| {
            o.opt_str("a", None)
                .opt_str("b", Some("x"))
                .num("c", None::<u64>)
                .num("d", Some(4usize));
        });
        assert_eq!(j, r#"{"a":null,"b":"x","c":null,"d":4}"#);
    }

    #[test]
    fn fixed_rounds_to_the_given_places() {
        let j = object(|o| {
            o.fixed("a", 64.0, 1)
                .fixed("b", 0.5, 6)
                .fixed("c", 2.0 / 3.0, 3)
                .fixed("d", 7.96, 0);
        });
        assert_eq!(j, r#"{"a":64.0,"b":0.500000,"c":0.667,"d":8}"#);
    }

    #[test]
    fn nests_objects_and_lists() {
        let j = object(|o| {
            o.obj("outer", |o| {
                o.obj("inner", |o| {
                    o.num("x", 1u32);
                });
            })
            .list("rows", ["p", "q"], |o, s| {
                o.str("name", s).list("empty", Vec::<u8>::new(), |_, _| {});
            })
            .list("none", std::iter::empty::<u8>(), |_, _| {});
        });
        assert_eq!(
            j,
            r#"{"outer":{"inner":{"x":1}},"rows":[{"name":"p","empty":[]},{"name":"q","empty":[]}],"none":[]}"#
        );
    }
}
