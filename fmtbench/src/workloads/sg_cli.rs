//! `sg_cli`: one `fmtk datalog` process per operation, same-generation
//! on a label-shuffled full binary tree of depth 9, two threads.
//!
//! The child writes to a file rather than a pipe, so the harness never
//! drains output inside the timed window. The file is checked against
//! the library's output, rendered once at set-up. Every operation is the
//! same invocation, so the operation list has one entry.

use super::{parse_program, parse_structure, Ctx, EvalTally, Op, Workload, INPUT_STREAM};
use crate::gen::{self, Rng};
use crate::trace::Trace;
use fmt_queries::datalog::Output;
use fmt_structures::Budget;
use std::fmt::Write as _;
use std::fs::{self, File};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const DEPTH: u32 = 9;
const THREADS: &str = "2";

#[derive(Debug)]
pub struct SgCli {
    fmtk: PathBuf,
    structure: PathBuf,
    program: PathBuf,
    out: PathBuf,
    text: String,
    expect: Expected,
    eval: EvalTally,
    output_bytes: u64,
    /// Sum over traced operations of wall time minus replay time, in ms.
    cli_self_ms: f64,
}

/// What a correct run prints: header count, footer counters, and the
/// FNV hash and length of the tuple lines between them.
#[derive(Debug, PartialEq, Eq)]
struct Expected {
    tuples: usize,
    iterations: usize,
    derivations: u64,
    body_hash: u64,
    bytes: usize,
}

impl SgCli {
    pub fn setup(ctx: &Ctx, tr: &mut Trace) -> SgCli {
        let g = gen::labelled_tree(&mut Rng::new(ctx.seed, INPUT_STREAM), DEPTH);
        let text = g.to_text();
        fs::create_dir_all(&ctx.work).expect("create work directory");
        let structure = ctx.work.join("tree.st");
        let program = ctx.work.join("sg.dl");
        fs::write(&structure, &text).expect("write structure");
        fs::write(&program, gen::SG).expect("write program");

        let s = parse_structure(tr, &text);
        let p = parse_program(tr, &s, gen::SG);
        let out = tr
            .layer("queries.eval", || {
                p.try_eval_seminaive_with(&s, 2, &Budget::unlimited())
            })
            .expect("reference evaluation");
        let rendered = render(&out);
        let expect = summarize(&rendered).expect("reference output is well-formed");
        // sg on a full binary tree pairs every two nodes of one level.
        assert_eq!(expect.tuples, ((1usize << (2 * DEPTH + 2)) - 1) / 3);
        SgCli {
            fmtk: ctx.fmtk.clone(),
            structure,
            program,
            out: ctx.work.join("out.txt"),
            text,
            expect,
            eval: EvalTally::default(),
            output_bytes: 0,
            cli_self_ms: 0.0,
        }
    }

    /// Replays the child's parse and eval calls in-process, so the
    /// CLI's own share (start-up, rendering, writing) is the remainder.
    /// The program's counters stay off, as they are in the child; the
    /// remainder is kept signed, so a replay slower than the child shows.
    fn replay(&mut self, wall: Duration, tr: &mut Trace) {
        let counting = fmt_obs::enabled();
        fmt_obs::disable();
        let t = Instant::now();
        let s = parse_structure(tr, &self.text);
        let p = parse_program(tr, &s, gen::SG);
        let out = tr.layer("queries.eval", || {
            p.try_eval_seminaive_with(&s, 2, &Budget::unlimited())
        });
        let replayed = t.elapsed();
        if counting {
            fmt_obs::enable();
        }
        if let Ok(out) = out {
            self.eval.add(&out, p.num_idbs());
        }
        self.cli_self_ms += (wall.as_secs_f64() - replayed.as_secs_f64()) * 1e3;
    }
}

impl Workload for SgCli {
    fn ops(&self) -> usize {
        1
    }

    fn op(&mut self, _i: usize, tr: &mut Trace) -> Op {
        let out = File::create(&self.out).expect("create output file");
        let t = Instant::now();
        let status = Command::new(&self.fmtk)
            .arg("datalog")
            .arg(&self.structure)
            .arg(&self.program)
            .args(["--threads", THREADS])
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(Stdio::null())
            .status();
        let wall = t.elapsed();
        let printed = fs::read_to_string(&self.out).unwrap_or_default();
        let ok = status.is_ok_and(|s| s.success())
            && summarize(&printed).is_some_and(|e| e == self.expect);
        if tr.on {
            self.output_bytes += printed.len() as u64;
            self.replay(wall, tr);
        }
        Op { wall, ok }
    }

    fn extras(&mut self) -> Vec<(&'static str, f64)> {
        let mut v = self.eval.metrics();
        let s = fmt_structures::parse::parse(&self.text).expect("generated structure parses");
        let p = fmt_queries::datalog::Program::parse(s.signature(), gen::SG)
            .expect("benchmark program parses");
        let expect = (self.expect.tuples, self.expect.derivations);
        v.extend(super::thread_scaling(&p, &s, |o| {
            (o.relation(0).len(), o.derivations) == expect
        }));
        let traced = self.eval.ops.max(1) as f64;
        v.push(("cli.output_bytes", self.output_bytes as f64 / traced));
        v.push(("cli.self_ms", self.cli_self_ms / traced));
        v
    }

    fn peak_rss_mb(&self, _harness: f64) -> f64 {
        crate::stats::children_peak_rss_mb()
    }
}

/// The text `fmtk datalog` prints for a goal-free program.
fn render(out: &Output) -> String {
    let mut tuples: Vec<Vec<u32>> = out.relation(0).iter().collect();
    tuples.sort();
    let mut s = String::with_capacity(tuples.len() * 16);
    writeln!(s, "sg/2: {} tuples", tuples.len()).expect("write to String");
    for t in tuples {
        writeln!(s, "  sg({}, {})", t[0], t[1]).expect("write to String");
    }
    writeln!(
        s,
        "({} iterations, {} derivations)",
        out.iterations, out.derivations
    )
    .expect("write to String");
    s
}

/// Parses header, footer and body hash of a printed result.
fn summarize(text: &str) -> Option<Expected> {
    let (header, rest) = text.split_once('\n')?;
    let tuples = header
        .strip_prefix("sg/2: ")?
        .strip_suffix(" tuples")?
        .parse()
        .ok()?;
    let body_end = rest.trim_end_matches('\n').rfind('\n').map_or(0, |i| i + 1);
    let (body, footer) = rest.split_at(body_end);
    let (iterations, derivations) = footer
        .trim_end()
        .strip_prefix('(')?
        .strip_suffix(" derivations)")?
        .split_once(" iterations, ")?;
    Some(Expected {
        tuples,
        iterations: iterations.parse().ok()?,
        derivations: derivations.parse().ok()?,
        body_hash: gen::fnv(body.as_bytes()),
        bytes: text.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reads_header_footer_and_body() {
        let text = "sg/2: 2 tuples\n  sg(0, 0)\n  sg(1, 1)\n(3 iterations, 4 derivations)\n";
        let e = summarize(text).expect("well-formed");
        assert_eq!((e.tuples, e.iterations, e.derivations), (2, 3, 4));
        assert_eq!(e.body_hash, gen::fnv(b"  sg(0, 0)\n  sg(1, 1)\n"));
        let changed = text.replace("sg(1, 1)", "sg(1, 2)");
        assert_ne!(summarize(&changed), Some(e));
        assert_eq!(summarize("garbage"), None);
    }
}
