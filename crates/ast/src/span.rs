//! Byte-offset source spans and a line/column source map.

use std::fmt;

/// A half-open byte range `[lo, hi)` into the source text.
///
/// Spans are deliberately tiny (`Copy`, 8 bytes) so every AST node can carry
/// one without noticeable cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub lo: u32,
    /// Byte offset one past the last character.
    pub hi: u32,
}

impl Span {
    /// Creates a span covering `[lo, hi)`.
    pub fn new(lo: u32, hi: u32) -> Self {
        debug_assert!(lo <= hi, "span lo must not exceed hi");
        Span { lo, hi }
    }

    /// The empty span at offset zero, used for synthesized nodes.
    pub const DUMMY: Span = Span { lo: 0, hi: 0 };

    /// Returns the smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Length of the span in bytes.
    pub fn len(self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Whether the span is empty.
    pub fn is_empty(self) -> bool {
        self.lo == self.hi
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.lo, self.hi)
    }
}

/// A 1-based line/column pair resolved through a [`SourceMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineCol {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in bytes).
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Maps byte offsets back to line/column positions for diagnostics.
#[derive(Debug, Clone)]
pub struct SourceMap {
    name: String,
    text: String,
    /// Byte offset of the start of every line, always beginning with 0.
    line_starts: Vec<u32>,
    /// Lines of `text` before the first line of the file `name`.
    prelude_lines: u32,
}

impl SourceMap {
    /// Builds a source map for `text`, labelled `name` in diagnostics.
    pub fn new(name: impl Into<String>, text: impl Into<String>) -> Self {
        SourceMap::with_prelude(name, text, 0)
    }

    /// Builds a source map for `text` whose first `prelude_lines` lines are
    /// a prelude prepended to the file `name` (the standard-library
    /// wrappers): [`SourceMap::locate`] reports the file's own line
    /// numbers, and positions inside the prelude as `<wrappers>`.
    pub fn with_prelude(
        name: impl Into<String>,
        text: impl Into<String>,
        prelude_lines: u32,
    ) -> Self {
        let text = text.into();
        let mut line_starts = vec![0u32];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        SourceMap {
            name: name.into(),
            text,
            line_starts,
            prelude_lines,
        }
    }

    /// The label given at construction (typically a file name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The full source text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Resolves a byte offset to a 1-based line/column pair.
    ///
    /// Offsets past the end of the text resolve to the final position.
    pub fn lookup(&self, offset: u32) -> LineCol {
        let offset = offset.min(self.text.len() as u32);
        let line_idx = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        LineCol {
            line: line_idx as u32 + 1,
            col: offset - self.line_starts[line_idx] + 1,
        }
    }

    /// The position of `offset` in the file, or `None` when it lies in the
    /// prelude.
    pub fn file_lookup(&self, offset: u32) -> Option<LineCol> {
        let lc = self.lookup(offset);
        (lc.line > self.prelude_lines).then(|| LineCol {
            line: lc.line - self.prelude_lines,
            col: lc.col,
        })
    }

    /// `name:line:col` of `offset` in the file, or `<wrappers>:line:col`,
    /// counted from the start of the prelude, for an offset inside it.
    pub fn locate(&self, offset: u32) -> String {
        match self.file_lookup(offset) {
            Some(lc) => format!("{}:{lc}", self.name),
            None => format!("<wrappers>:{}", self.lookup(offset)),
        }
    }

    /// The source text covered by `span`.
    pub fn snippet(&self, span: Span) -> &str {
        let lo = (span.lo as usize).min(self.text.len());
        let hi = (span.hi as usize).min(self.text.len());
        &self.text[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_join_covers_both() {
        let a = Span::new(3, 7);
        let b = Span::new(10, 12);
        assert_eq!(a.to(b), Span::new(3, 12));
        assert_eq!(b.to(a), Span::new(3, 12));
    }

    #[test]
    fn span_len_and_empty() {
        assert_eq!(Span::new(2, 5).len(), 3);
        assert!(Span::new(4, 4).is_empty());
        assert!(!Span::new(4, 5).is_empty());
    }

    #[test]
    fn lookup_first_line() {
        let sm = SourceMap::new("t.c", "int x;\nint y;\n");
        assert_eq!(sm.lookup(0), LineCol { line: 1, col: 1 });
        assert_eq!(sm.lookup(4), LineCol { line: 1, col: 5 });
    }

    #[test]
    fn lookup_later_lines() {
        let sm = SourceMap::new("t.c", "int x;\nint y;\nchar c;\n");
        assert_eq!(sm.lookup(7), LineCol { line: 2, col: 1 });
        assert_eq!(sm.lookup(14), LineCol { line: 3, col: 1 });
        assert_eq!(sm.lookup(20), LineCol { line: 3, col: 7 });
    }

    #[test]
    fn lookup_past_end_clamps() {
        let sm = SourceMap::new("t.c", "ab");
        assert_eq!(sm.lookup(100), LineCol { line: 1, col: 3 });
    }

    #[test]
    fn prelude_lines_are_shifted_out_of_the_file() {
        let sm = SourceMap::with_prelude("t.c", "w1\nw2\nint x;\n", 2);
        assert_eq!(sm.locate(3), "<wrappers>:2:1");
        assert_eq!(sm.file_lookup(3), None);
        assert_eq!(sm.locate(10), "t.c:1:5");
        assert_eq!(
            SourceMap::new("t.c", "w1\nw2\nint x;\n").locate(10),
            "t.c:3:5"
        );
    }

    #[test]
    fn snippet_extracts_text() {
        let sm = SourceMap::new("t.c", "int x = 42;");
        assert_eq!(sm.snippet(Span::new(8, 10)), "42");
    }

    #[test]
    fn snippet_clamps_out_of_range() {
        let sm = SourceMap::new("t.c", "ab");
        assert_eq!(sm.snippet(Span::new(1, 99)), "b");
    }
}
