//! Source-span diagnostics: the shared vocabulary of every front end.
//!
//! A [`Diagnostic`] is one finding about a piece of source text — a
//! parse error, a lint, a well-formedness violation — carrying a
//! machine-readable code (`F004`, `D001`, …), an optional byte-offset
//! [`Span`], and an optional note. The type lives here, below both
//! `fmt-logic` and `fmt-queries`, so that the formula parser, the
//! Datalog parser, and `fmt-lint`'s analyses can all produce the same
//! currency without dependency cycles; `fmt-lint` re-exports it as its
//! diagnostics core.
//!
//! Rendering comes in two interchangeable forms:
//!
//! * [`Diagnostic::render`] — a human-readable block with a caret line
//!   pointing into the source;
//! * [`Diagnostic::to_json`] / [`Diagnostic::from_json`] — a lossless
//!   JSON object (`fmtk lint --format json` emits arrays of these via
//!   [`diags_to_json`], and [`diags_from_json`] parses them back).

use std::fmt;

/// A half-open byte range `[start, end)` into some source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// Byte offset of the first byte covered.
    pub start: usize,
    /// Byte offset one past the last byte covered.
    pub end: usize,
}

impl Span {
    /// A span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Span {
        Span {
            start,
            end: end.max(start),
        }
    }

    /// A zero-width span at `offset` (a point, e.g. "unexpected EOF").
    pub fn point(offset: usize) -> Span {
        Span {
            start: offset,
            end: offset,
        }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// The number of bytes covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` for point spans.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The covered slice of `src`, clamped to the text.
    pub fn slice<'a>(&self, src: &'a str) -> &'a str {
        let start = self.start.min(src.len());
        let end = self.end.min(src.len()).max(start);
        &src[start..end]
    }

    /// 1-based `(line, column)` of the span start within `src`.
    pub fn line_col(&self, src: &str) -> (usize, usize) {
        let upto = self.start.min(src.len());
        let line = src[..upto].bytes().filter(|&b| b == b'\n').count() + 1;
        let line_start = src[..upto].rfind('\n').map_or(0, |i| i + 1);
        (line, upto - line_start + 1)
    }
}

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A code smell or likely mistake; the input is still usable.
    Warning,
    /// The input is invalid and will be rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding about a piece of source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Stable machine-readable code (`F001`–`F006`, `D001`–`D005`, …).
    pub code: String,
    /// Byte range in the source, when the finding has a location.
    /// `None` for findings about programmatically built ASTs.
    pub span: Option<Span>,
    /// One-line human-readable description.
    pub message: String,
    /// Optional elaboration (the "why", a theorem citation, a fix hint).
    pub note: Option<String>,
}

impl Diagnostic {
    /// An error diagnostic with no span or note.
    pub fn error(code: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            code: code.into(),
            span: None,
            message: message.into(),
            note: None,
        }
    }

    /// A warning diagnostic with no span or note.
    pub fn warning(code: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    /// Attaches a source span.
    pub fn with_span(mut self, span: Span) -> Diagnostic {
        self.span = Some(span);
        self
    }

    /// Attaches a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.note = Some(note.into());
        self
    }

    /// Renders the diagnostic against its source with a caret line:
    ///
    /// ```text
    /// warning[F001]: quantified variable x is never used in its scope
    ///  --> query:1:8
    ///   |
    /// 1 | exists x. E(y, y)
    ///   |        ^
    ///   = note: drop the quantifier or use the variable
    /// ```
    ///
    /// `origin` names the source (a file path, `<expr>`, …).
    pub fn render(&self, src: &str, origin: &str) -> String {
        let mut out = format!("{}[{}]: {}\n", self.severity, self.code, self.message);
        if let Some(span) = self.span {
            let (line, col) = span.line_col(src);
            out.push_str(&format!(" --> {origin}:{line}:{col}\n"));
            let line_start = src[..span.start.min(src.len())]
                .rfind('\n')
                .map_or(0, |i| i + 1);
            let line_text: &str = src[line_start..].lines().next().unwrap_or("");
            let gutter = line.to_string();
            let pad = " ".repeat(gutter.len());
            out.push_str(&format!("{pad} |\n"));
            out.push_str(&format!("{gutter} | {line_text}\n"));
            // Caret run: from the start column to the span end, clamped
            // to this line; always at least one caret.
            let width = span
                .len()
                .min(line_text.len().saturating_sub(col - 1))
                .max(1);
            out.push_str(&format!(
                "{pad} | {}{}\n",
                " ".repeat(col - 1),
                "^".repeat(width)
            ));
        } else {
            out.push_str(&format!(" --> {origin}\n"));
        }
        if let Some(note) = &self.note {
            out.push_str(&format!("  = note: {note}\n"));
        }
        out
    }

    /// Serializes the diagnostic as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"severity\":{}",
            json_string(&self.severity.to_string())
        ));
        out.push_str(&format!(",\"code\":{}", json_string(&self.code)));
        match self.span {
            Some(s) => out.push_str(&format!(
                ",\"span\":{{\"start\":{},\"end\":{}}}",
                s.start, s.end
            )),
            None => out.push_str(",\"span\":null"),
        }
        out.push_str(&format!(",\"message\":{}", json_string(&self.message)));
        match &self.note {
            Some(n) => out.push_str(&format!(",\"note\":{}", json_string(n))),
            None => out.push_str(",\"note\":null"),
        }
        out.push('}');
        out
    }

    /// Parses one JSON object produced by [`Diagnostic::to_json`].
    pub fn from_json(text: &str) -> Result<Diagnostic, String> {
        let mut p = JsonParser::new(text);
        let d = p.diagnostic()?;
        p.skip_ws();
        if !p.at_end() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(d)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// Serializes a list of diagnostics as a JSON array (one object per
/// line, so text tooling can still grep it).
pub fn diags_to_json(diags: &[Diagnostic]) -> String {
    if diags.is_empty() {
        return "[]".to_owned();
    }
    let body: Vec<String> = diags.iter().map(|d| format!("  {}", d.to_json())).collect();
    format!("[\n{}\n]", body.join(",\n"))
}

/// Parses a JSON array produced by [`diags_to_json`].
pub fn diags_from_json(text: &str) -> Result<Vec<Diagnostic>, String> {
    let mut p = JsonParser::new(text);
    p.skip_ws();
    p.expect(b'[')?;
    let mut out = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b']') {
        p.pos += 1;
    } else {
        loop {
            out.push(p.diagnostic()?);
            p.skip_ws();
            match p.next()? {
                b',' => continue,
                b']' => break,
                other => return Err(format!("expected ',' or ']', got {:?}", other as char)),
            }
        }
    }
    p.skip_ws();
    if !p.at_end() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(out)
}

fn json_string(s: &str) -> String {
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

/// A minimal JSON reader for exactly the schema [`Diagnostic::to_json`]
/// emits (objects with known keys, strings, numbers, null).
struct JsonParser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(src: &'a str) -> JsonParser<'a> {
        JsonParser {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn next(&mut self) -> Result<u8, String> {
        let b = self.peek().ok_or("unexpected end of JSON")?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        let got = self.next()?;
        if got != b {
            return Err(format!("expected {:?}, got {:?}", b as char, got as char));
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next()? {
                b'"' => return Ok(out),
                b'\\' => match self.next()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let mut v = 0u32;
                        for _ in 0..4 {
                            let d = self.next()?;
                            v = v * 16
                                + (d as char)
                                    .to_digit(16)
                                    .ok_or("invalid \\u escape in JSON string")?;
                        }
                        out.push(char::from_u32(v).ok_or("invalid \\u code point")?);
                    }
                    other => return Err(format!("unknown escape \\{}", other as char)),
                },
                b => {
                    // Re-assemble multi-byte UTF-8 sequences verbatim.
                    let start = self.pos - 1;
                    let len = match b {
                        _ if b < 0x80 => 1,
                        _ if b >= 0xF0 => 4,
                        _ if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    self.pos = start + len;
                    let chunk = self
                        .src
                        .get(start..start + len)
                        .ok_or("truncated UTF-8 in JSON string")?;
                    out.push_str(
                        std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8 in JSON string")?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<usize, String> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err("expected a number".into());
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|_| "number out of range".to_owned())
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        self.skip_ws();
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected {word} at byte {}", self.pos))
        }
    }

    fn diagnostic(&mut self) -> Result<Diagnostic, String> {
        self.expect(b'{')?;
        let mut severity: Option<Severity> = None;
        let mut code = None;
        let mut span = None;
        let mut message = None;
        let mut note = None;
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            self.skip_ws();
            match key.as_str() {
                "severity" => {
                    severity = Some(match self.string()?.as_str() {
                        "warning" => Severity::Warning,
                        "error" => Severity::Error,
                        other => return Err(format!("unknown severity {other:?}")),
                    });
                }
                "code" => code = Some(self.string()?),
                "message" => message = Some(self.string()?),
                "note" => {
                    if self.peek() == Some(b'n') {
                        self.literal("null")?;
                    } else {
                        note = Some(self.string()?);
                    }
                }
                "span" => {
                    if self.peek() == Some(b'n') {
                        self.literal("null")?;
                    } else {
                        self.expect(b'{')?;
                        let (mut start, mut end) = (0usize, 0usize);
                        loop {
                            self.skip_ws();
                            let k = self.string()?;
                            self.expect(b':')?;
                            match k.as_str() {
                                "start" => start = self.number()?,
                                "end" => end = self.number()?,
                                other => return Err(format!("unknown span key {other:?}")),
                            }
                            self.skip_ws();
                            match self.next()? {
                                b',' => continue,
                                b'}' => break,
                                other => {
                                    return Err(format!(
                                        "expected ',' or '}}' in span, got {:?}",
                                        other as char
                                    ))
                                }
                            }
                        }
                        span = Some(Span::new(start, end));
                    }
                }
                other => return Err(format!("unknown diagnostic key {other:?}")),
            }
            self.skip_ws();
            match self.next()? {
                b',' => continue,
                b'}' => break,
                other => return Err(format!("expected ',' or '}}', got {:?}", other as char)),
            }
        }
        Ok(Diagnostic {
            severity: severity.ok_or("diagnostic is missing \"severity\"")?,
            code: code.ok_or("diagnostic is missing \"code\"")?,
            span,
            message: message.ok_or("diagnostic is missing \"message\"")?,
            note,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic::warning("F001", "quantified variable x is never used in its scope")
            .with_span(Span::new(7, 8))
            .with_note("drop the quantifier or use the variable")
    }

    #[test]
    fn span_arithmetic() {
        let s = Span::new(3, 7);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.to(Span::new(10, 12)), Span::new(3, 12));
        assert_eq!(s.slice("0123456789"), "3456");
        assert!(Span::point(5).is_empty());
        // end < start is clamped.
        assert_eq!(Span::new(5, 2), Span::new(5, 5));
    }

    #[test]
    fn line_col_counts_newlines() {
        let src = "ab\ncd\nef";
        assert_eq!(Span::point(0).line_col(src), (1, 1));
        assert_eq!(Span::point(4).line_col(src), (2, 2));
        assert_eq!(Span::point(6).line_col(src), (3, 1));
    }

    #[test]
    fn render_has_caret_under_span() {
        let src = "exists x. E(y, y)";
        let r = sample().render(src, "query");
        assert!(r.contains("warning[F001]"), "{r}");
        assert!(r.contains("--> query:1:8"), "{r}");
        assert!(r.contains("1 | exists x. E(y, y)"), "{r}");
        let caret_line = r.lines().find(|l| l.contains('^')).unwrap();
        // Caret sits under column 8 of the source line.
        assert_eq!(caret_line.find('^').unwrap(), "1 | ".len() + 7, "{r}");
        assert!(r.contains("= note:"), "{r}");
    }

    #[test]
    fn render_without_span_still_names_origin() {
        let d = Diagnostic::error("F004", "relation id 7 out of range");
        let r = d.render("", "<ast>");
        assert!(r.contains("--> <ast>"), "{r}");
        assert!(!r.contains('^'), "{r}");
    }

    #[test]
    fn json_roundtrip_single() {
        let d = sample();
        let back = Diagnostic::from_json(&d.to_json()).unwrap();
        assert_eq!(d, back);
        // Escapes and missing optionals survive too.
        let tricky = Diagnostic::error("D000", "bad \"quote\" and\nnewline\tand \\ slash");
        let back = Diagnostic::from_json(&tricky.to_json()).unwrap();
        assert_eq!(tricky, back);
    }

    #[test]
    fn json_roundtrip_array() {
        let ds = vec![
            sample(),
            Diagnostic::error("F004", "unknown relation R").with_span(Span::new(0, 1)),
        ];
        let text = diags_to_json(&ds);
        assert_eq!(diags_from_json(&text).unwrap(), ds);
        assert_eq!(diags_from_json("[]").unwrap(), Vec::new());
        assert_eq!(diags_from_json(&diags_to_json(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(Diagnostic::from_json("{}").is_err());
        assert!(Diagnostic::from_json("").is_err());
        assert!(diags_from_json("[{},]").is_err());
        assert!(diags_from_json("nope").is_err());
        assert!(Diagnostic::from_json("{\"severity\":\"fatal\"}").is_err());
    }

    #[test]
    fn display_is_one_line() {
        assert_eq!(
            sample().to_string(),
            "warning[F001]: quantified variable x is never used in its scope"
        );
    }
}
