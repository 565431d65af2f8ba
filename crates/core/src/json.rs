//! The one JSON string escaper shared by every machine-readable output
//! (batch and campaign reports, crash-test JSON, serve replies, profile
//! exports).

/// Renders `s` as a JSON string literal, quotes included: `"` and `\`
/// are backslash-escaped, and every control character (below U+0020)
/// becomes `\n`, `\r`, `\t` or a `\u00XX` escape, so the output is always
/// a valid JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::json_str;

    #[test]
    fn escapes_every_control_character() {
        assert_eq!(json_str("quick\tstart.c\r"), "\"quick\\tstart.c\\r\"");
        assert_eq!(json_str("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
        assert_eq!(json_str("héllo"), "\"héllo\"");
    }
}
