//! Self-contained, replayable repro cases.
//!
//! A [`ReproCase`] captures everything an oracle needs to re-run a
//! disagreement: the oracle name, the `(seed, case)` provenance, an
//! explicit signature (so empty relations survive — the inferring
//! structure parser would drop them), labeled structure blocks in the
//! `fmt_structures::parse` text format, an optional formula in the
//! parser's canonical syntax, and free-form parameters. Cases are
//! written to `tests/corpus/*.case` when the hunter finds a bug and
//! replayed forever after by `tests/conform_corpus.rs`.
//!
//! The format is line-oriented and human-editable:
//!
//! ```text
//! # found by `fmtk conform --seed 42 --cases 1000`
//! oracle: games-orders
//! seed: 42
//! case: 17
//! note: solver=true closed_form=false
//! param: m = 3
//! param: k = 7
//! param: n = 2
//! ```
//!
//! Structure blocks are introduced by `structure <label>:` and
//! terminated by `end`; the formula (if any) follows `formula:`.

use fmt_structures::{parse as sparse, Signature, Structure};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A serialized counterexample: the oracle that found it plus every
/// input needed to re-run the disagreement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReproCase {
    /// Name of the oracle that produced (and can replay) the case.
    pub oracle: String,
    /// Seed of the `fmtk conform` run that found it.
    pub seed: u64,
    /// Index of the failing case within that run.
    pub case: u64,
    /// Human-readable description of the disagreement.
    pub note: String,
    /// Explicit relation declarations `(name, arity)`.
    pub sig: Vec<(String, usize)>,
    /// Free-form named parameters (game sizes, radii, program text…).
    pub params: Vec<(String, String)>,
    /// Labeled structures in the `fmt_structures::parse` text format.
    pub structures: Vec<(String, String)>,
    /// A sentence in the FO text syntax, if the case involves one.
    pub formula: Option<String>,
}

impl ReproCase {
    /// The declared signature as an interned [`Signature`].
    pub fn signature(&self) -> Arc<Signature> {
        let mut b = Signature::builder();
        for (name, arity) in &self.sig {
            b = b.relation(name, *arity);
        }
        b.finish_arc()
    }

    /// Parses the structure block with the given label against the
    /// declared signature.
    pub fn structure(&self, label: &str) -> Result<Structure, String> {
        let (_, text) = self
            .structures
            .iter()
            .find(|(l, _)| l == label)
            .ok_or_else(|| format!("case has no structure {label:?}"))?;
        sparse::parse_with(self.signature(), text).map_err(|e| format!("structure {label}: {e}"))
    }

    /// Looks up a named parameter.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Looks up a parameter the case cannot do without.
    pub fn param_str(&self, name: &str) -> Result<&str, String> {
        self.param(name)
            .ok_or_else(|| format!("case is missing parameter {name:?}"))
    }

    /// Looks up and parses a numeric parameter.
    pub fn param_u64(&self, name: &str) -> Result<u64, String> {
        self.param_str(name)?
            .parse()
            .map_err(|_| format!("parameter {name:?} is not a number"))
    }

    /// Renders the case in the textual format parsed by [`ReproCase::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# fmt-conform repro case — replay: fmtk conform --replay <this file>"
        );
        let _ = writeln!(out, "oracle: {}", self.oracle);
        let _ = writeln!(out, "seed: {}", self.seed);
        let _ = writeln!(out, "case: {}", self.case);
        if !self.note.is_empty() {
            let _ = writeln!(out, "note: {}", self.note);
        }
        for (name, arity) in &self.sig {
            let _ = writeln!(out, "rel: {name}/{arity}");
        }
        for (name, value) in &self.params {
            let _ = writeln!(out, "param: {name} = {value}");
        }
        for (label, text) in &self.structures {
            let _ = writeln!(out, "structure {label}:");
            let _ = write!(out, "{text}");
            if !text.ends_with('\n') {
                out.push('\n');
            }
            let _ = writeln!(out, "end");
        }
        if let Some(f) = &self.formula {
            let _ = writeln!(out, "formula: {f}");
        }
        out
    }

    /// Parses the textual format produced by [`ReproCase::to_text`].
    pub fn from_text(text: &str) -> Result<ReproCase, String> {
        let mut case = ReproCase::default();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((no, raw)) = lines.next() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |msg: String| format!("line {}: {msg}", no + 1);
            if let Some(label) = line
                .strip_prefix("structure ")
                .and_then(|r| r.strip_suffix(':'))
            {
                let mut block = String::new();
                let mut closed = false;
                for (_, body) in lines.by_ref() {
                    if body.trim() == "end" {
                        closed = true;
                        break;
                    }
                    block.push_str(body);
                    block.push('\n');
                }
                if !closed {
                    return Err(err(format!("structure {label:?} has no `end`")));
                }
                case.structures.push((label.trim().to_owned(), block));
                continue;
            }
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| err(format!("unrecognized line {line:?}")))?;
            let value = value.trim();
            match key.trim() {
                "oracle" => case.oracle = value.to_owned(),
                "seed" => {
                    case.seed = value
                        .parse()
                        .map_err(|_| err(format!("invalid seed {value:?}")))?;
                }
                "case" => {
                    case.case = value
                        .parse()
                        .map_err(|_| err(format!("invalid case index {value:?}")))?;
                }
                "note" => case.note = value.to_owned(),
                "rel" => {
                    let (name, arity) = value
                        .split_once('/')
                        .ok_or_else(|| err(format!("expected NAME/ARITY, got {value:?}")))?;
                    let arity: usize = arity
                        .trim()
                        .parse()
                        .map_err(|_| err(format!("invalid arity in {value:?}")))?;
                    case.sig.push((name.trim().to_owned(), arity));
                }
                "param" => {
                    let (name, v) = value
                        .split_once('=')
                        .ok_or_else(|| err(format!("expected NAME = VALUE, got {value:?}")))?;
                    case.params
                        .push((name.trim().to_owned(), v.trim().to_owned()));
                }
                "formula" => case.formula = Some(value.to_owned()),
                other => return Err(err(format!("unknown key {other:?}"))),
            }
        }
        if case.oracle.is_empty() {
            return Err("case has no `oracle:` line".to_owned());
        }
        Ok(case)
    }

    /// The deterministic file name for this case.
    pub fn file_name(&self) -> String {
        format!("{}-s{}-c{}.case", self.oracle, self.seed, self.case)
    }

    /// Writes the case into `dir` (created if needed); returns the path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_text())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReproCase {
        ReproCase {
            oracle: "games-orders".into(),
            seed: 42,
            case: 17,
            note: "solver=true closed_form=false".into(),
            sig: vec![("E".into(), 2), ("Mark".into(), 1)],
            params: vec![("m".into(), "3".into()), ("n".into(), "2".into())],
            structures: vec![
                ("A".into(), "size: 3\nE(0,1)\nE(1,2)\n".into()),
                ("B".into(), "size: 2\n".into()),
            ],
            formula: Some("forall x0. exists x1. E(x0, x1)".into()),
        }
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let c = sample();
        let back = ReproCase::from_text(&c.to_text()).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn declared_signature_preserves_empty_relations() {
        let c = sample();
        // `Mark/1` has no tuples anywhere, but the explicit declaration
        // keeps it in the parsed structures' signature.
        let a = c.structure("A").unwrap();
        assert!(a.signature().relation("Mark").is_some());
        let b = c.structure("B").unwrap();
        assert_eq!(b.size(), 2);
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn errors_are_reported() {
        assert!(ReproCase::from_text("").is_err()); // no oracle
        assert!(ReproCase::from_text("oracle: x\nseed: many\n").is_err());
        assert!(ReproCase::from_text("oracle: x\nstructure A:\nsize: 1\n").is_err()); // no end
        assert!(ReproCase::from_text("oracle: x\nrel: E\n").is_err()); // no arity
        assert!(ReproCase::from_text("mystery: 1\n").is_err());
    }

    #[test]
    fn params_and_missing_lookups() {
        let c = sample();
        assert_eq!(c.param_u64("m").unwrap(), 3);
        assert!(c.param_u64("absent").is_err());
        assert!(c.structure("Z").is_err());
    }
}
