//! `fmtk` — the finite model theory toolbox, on the command line.
//!
//! ```text
//! fmtk check  <structure> "<sentence>"        A ⊨ φ?
//! fmtk eval   <structure> "<query φ(x̄)>"     answer set of an open query
//! fmtk game   <A> <B> [--rounds N]           EF game rank and optimal trace
//! fmtk mu     "<sentence>" [--rel R:k ...]   μ(φ) via the 0-1 law
//! fmtk census <structure> [--radius r]       neighborhood-type census
//! fmtk datalog <structure> <program>         run a Datalog program
//! fmtk lint   [FILE|--expr φ|--program P]    static analysis (fmt-lint)
//! fmtk conform [--seed N] [--cases K]        differential-test the engines
//! fmtk sample                                 print an example structure file
//! ```
//!
//! Structures use the line format of `fmt_structures::parse`
//! (`size: 5`, `E(0,1)`, `c = 3`); `-` reads from stdin. The default
//! signature for `mu` and `lint` is the graph vocabulary `E/2`; add
//! relations with `--rel NAME:ARITY`. Parse errors are rendered with a
//! caret under the offending byte range.

use fmt_core::eval::{naive, relalg};
use fmt_core::games::play::optimal_play;
use fmt_core::games::solver::try_rank;
use fmt_core::lint::{self, LintConfig};
use fmt_core::locality::{TypeCensus, TypeRegistry};
use fmt_core::logic::{parser as fo_parser, Query, QueryError};
use fmt_core::queries::datalog::{EvalError, ParsedProgram, Program};
use fmt_core::queries::magic::{self, Goal, MagicError};
use fmt_core::structures::budget::{Budget, Exhausted};
use fmt_core::structures::{
    parse as sparse, Diagnostic, Severity, Signature, Structure, TupleStore,
};
use fmt_core::zeroone;
use std::io::{Read, Write};
use std::process::ExitCode;
use std::sync::Arc;

/// A failed `fmtk` invocation, classified for the exit-code table:
///
/// | code | meaning                                            |
/// |------|----------------------------------------------------|
/// | 0    | success                                            |
/// | 1    | usage, parse, I/O, or lint failure (including     |
/// |      | output that could not be written)                  |
/// | 2    | conformance failure (hunt disagreement or a replay |
/// |      | that still reproduces)                             |
/// | 3    | budget exhausted (`--fuel` / `--timeout-ms`)       |
#[derive(Debug)]
enum CliFailure {
    /// Generic error: exit code 1.
    Error(String),
    /// Conformance failure: exit code 2.
    Conform(String),
    /// Budget exhaustion: exit code 3.
    Exhausted(String),
}

impl From<String> for CliFailure {
    fn from(msg: String) -> CliFailure {
        CliFailure::Error(msg)
    }
}

/// Maps an engine's [`Exhausted`] error onto exit code 3.
fn exhausted(e: Exhausted) -> CliFailure {
    CliFailure::Exhausted(e.to_string())
}

/// Renders a static evaluation error (unstratifiable program, unsafe
/// negation) as the caret diagnostic `fmtk lint` emits for the same
/// defect — D006/D007 with the span of the offending negated atom —
/// and maps budget exhaustion onto exit code 3.
fn render_eval_error(e: EvalError, parsed: &ParsedProgram, src: &str, origin: &str) -> CliFailure {
    let spanned = |code: &str, msg: String, rule: usize, atom: usize| {
        CliFailure::Error(
            Diagnostic::error(code, msg)
                .with_span(parsed.spans[rule].body[atom].span)
                .render(src, origin)
                .trim_end()
                .to_owned(),
        )
    };
    match e {
        EvalError::Exhausted(ex) => exhausted(ex),
        EvalError::Unstratifiable {
            rule,
            atom,
            ref pred,
            ref cycle,
        } => spanned(
            "D006",
            format!(
                "program is not stratifiable: {pred} is negated inside the recursive component \
                 {{{}}}",
                cycle.join(", ")
            ),
            rule,
            atom,
        ),
        EvalError::UnsafeNegation { rule, atom, .. } => spanned("D007", e.to_string(), rule, atom),
    }
}

type CliResult = Result<String, CliFailure>;

fn usage() -> String {
    "usage:\n  \
     fmtk check  <structure> \"<sentence>\"\n  \
     fmtk eval   <structure> \"<query>\"\n  \
     fmtk game   <A> <B> [--rounds N]\n  \
     fmtk mu     \"<sentence>\" [--rel NAME:ARITY ...]\n  \
     fmtk census <structure> [--radius R]\n  \
     fmtk datalog <structure> <program-file> [--engine scan|indexed] [--threads N] [--explain]\n          \
     [--query \"GOAL?\"]   goal-directed (magic-sets) evaluation; the program file may\n          \
     end in a goal clause `tc(\"a\", y)?` instead\n          \
     [--incremental --updates FILE]   maintain the fixpoint under +E(u,v) / -E(u,v) / poll updates\n  \
     fmtk lint   [FILE | --expr \"<formula>\" | --program \"<rules>\"] [--format text|json]\n          \
     [--deny CODE|warnings ...] [--rel NAME:ARITY ...] [--sentence] [--rank-budget N] [--goal PRED]\n  \
     fmtk lint   --explain CODE   print the long-form description of a lint code\n  \
     fmtk conform [--seed N] [--cases K] [--oracle NAME] [--corpus DIR] [--replay FILE]\n  \
     fmtk sample\n\
     global flags:\n  \
     --stats [text|json]   print engine counters after the command\n  \
     --metrics-text        print counters in Prometheus exposition format\n  \
     --trace FILE          record a structured trace of the command\n  \
     --trace-format chrome|folded   trace file format (default chrome)\n\
     (structure files use the text format; '-' reads stdin;\n \
     lint FILEs: .dl = Datalog program, .case = conform repro case, else formula)"
        .to_owned()
}

/// Renders an FO parse error as a caret diagnostic against its source.
fn render_fo_error(src: &str, origin: &str, e: &fo_parser::LogicParseError) -> String {
    let code = match e.kind {
        fo_parser::LogicParseErrorKind::Syntax => "F000",
        fo_parser::LogicParseErrorKind::UnknownRelation
        | fo_parser::LogicParseErrorKind::ArityMismatch => "F004",
    };
    Diagnostic::error(code, e.message.clone())
        .with_span(e.span)
        .render(src, origin)
        .trim_end()
        .to_owned()
}

fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    }
}

fn load_structure(path: &str) -> Result<Structure, String> {
    let text = read_input(path)?;
    sparse::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Extracts `name VALUE` from `args`. `Ok(None)` when absent; an error
/// when the flag is present but its value is missing.
fn flag_value(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{name} requires a value\n{}", usage()));
    }
    let v = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(v))
}

/// Rejects any leftover `--flag` a subcommand did not consume, so typos
/// like `--stat` fail loudly instead of being silently ignored.
fn reject_unknown_flags(args: &[String]) -> Result<(), String> {
    if let Some(f) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unrecognized flag {f}\n{}", usage()));
    }
    Ok(())
}

fn cmd_check(args: &[String], budget: &Budget) -> CliResult {
    reject_unknown_flags(args)?;
    let [spath, sentence] = args else {
        return Err(usage().into());
    };
    let s = load_structure(spath)?;
    let f = fo_parser::parse_formula(s.signature(), sentence)
        .map_err(|e| render_fo_error(sentence, "<expr>", &e))?;
    if !f.is_sentence() {
        return Err(CliFailure::Error(
            "sentence required (use `eval` for open queries)".into(),
        ));
    }
    let v = naive::check_sentence_budgeted(&s, &f, budget).map_err(exhausted)?;
    Ok((if v { "true" } else { "false" }).to_string())
}

fn cmd_eval(args: &[String], budget: &Budget) -> CliResult {
    reject_unknown_flags(args)?;
    let [spath, query] = args else {
        return Err(usage().into());
    };
    let s = load_structure(spath)?;
    let q = Query::parse(s.signature(), query).map_err(|e| match e {
        QueryError::Parse(pe) => render_fo_error(query, "<expr>", &pe),
        other => other.to_string(),
    })?;
    let answers = relalg::answers_budgeted(&s, &q, budget).map_err(exhausted)?;
    let mut out = format!("arity {}, {} answers\n", q.arity(), answers.len());
    for row in answers {
        let cells: Vec<String> = row.iter().map(u32::to_string).collect();
        out.push_str(&format!("({})\n", cells.join(", ")));
    }
    Ok(out.trim_end().to_owned())
}

fn cmd_game(mut args: Vec<String>, budget: &Budget) -> CliResult {
    let rounds: u32 = flag_value(&mut args, "--rounds")?
        .map(|v| v.parse().map_err(|_| "invalid --rounds".to_owned()))
        .transpose()?
        .unwrap_or(4);
    reject_unknown_flags(&args)?;
    let [apath, bpath] = args.as_slice() else {
        return Err(usage().into());
    };
    let a = load_structure(apath)?;
    let b = load_structure(bpath)?;
    if a.signature() != b.signature() {
        return Err(CliFailure::Error(
            "structures have different signatures".into(),
        ));
    }
    let r = try_rank(&a, &b, rounds, budget).map_err(exhausted)?;
    let mut out = format!(
        "rank(A, B) capped at {rounds}: {r} — duplicator {} the {rounds}-round game\n",
        if r >= rounds { "wins" } else { "loses" }
    );
    let trace = optimal_play(&a, &b, r + 1);
    out.push_str(&format!(
        "optimal {}-round game ({}):\n",
        r + 1,
        if trace.duplicator_survived {
            "duplicator survives"
        } else {
            "spoiler wins"
        }
    ));
    for (i, m) in trace.rounds.iter().enumerate() {
        out.push_str(&format!(
            "  round {}: spoiler plays {} in {:?}; duplicator answers {}\n",
            i + 1,
            m.spoiler,
            m.side,
            m.duplicator
        ));
    }
    Ok(out.trim_end().to_owned())
}

fn cmd_mu(mut args: Vec<String>) -> CliResult {
    let sig = signature_from_rels(&mut args)?;
    reject_unknown_flags(&args)?;
    let [sentence] = args.as_slice() else {
        return Err(usage().into());
    };
    let f = fo_parser::parse_formula(&sig, sentence)
        .map_err(|e| render_fo_error(sentence, "<expr>", &e))?;
    if !f.is_sentence() {
        return Err(CliFailure::Error("mu requires a sentence".into()));
    }
    let mu = zeroone::decide_mu(&sig, &f);
    Ok(format!("mu = {}", u8::from(mu)))
}

fn cmd_census(mut args: Vec<String>) -> CliResult {
    let radius: u32 = flag_value(&mut args, "--radius")?
        .map(|v| v.parse().map_err(|_| "invalid --radius".to_owned()))
        .transpose()?
        .unwrap_or(1);
    reject_unknown_flags(&args)?;
    let [spath] = args.as_slice() else {
        return Err(usage().into());
    };
    let s = load_structure(spath)?;
    let mut reg = TypeRegistry::new();
    let census = TypeCensus::compute(&s, radius, &mut reg);
    let mut rows: Vec<(usize, u32, usize)> = census
        .iter()
        .map(|(t, c)| (c, reg.representative(t).size(), t.0 as usize))
        .collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.0));
    let mut out = format!(
        "{} radius-{radius} neighborhood types over {} elements\n",
        census.num_types(),
        census.total()
    );
    out.push_str("count  ball-size  type-id\n");
    for (c, sz, id) in rows {
        out.push_str(&format!("{c:<6} {sz:<10} {id}\n"));
    }
    Ok(out.trim_end().to_owned())
}

fn cmd_datalog(args: &[String], budget: &Budget) -> CliResult {
    let mut args = args.to_vec();
    let threads: usize = flag_value(&mut args, "--threads")?
        .map(|v| v.parse().map_err(|_| format!("bad thread count {v:?}")))
        .transpose()?
        .unwrap_or(0);
    let engine = flag_value(&mut args, "--engine")?.unwrap_or_else(|| "indexed".to_owned());
    let updates = flag_value(&mut args, "--updates")?;
    let query_flag = flag_value(&mut args, "--query")?;
    let incremental = if let Some(pos) = args.iter().position(|a| a == "--incremental") {
        args.remove(pos);
        true
    } else {
        false
    };
    let explain = if let Some(pos) = args.iter().position(|a| a == "--explain") {
        args.remove(pos);
        true
    } else {
        false
    };
    reject_unknown_flags(&args)?;
    let [spath, ppath] = &args[..] else {
        return Err(usage().into());
    };
    let s = load_structure(spath)?;
    let src = read_input(ppath)?;
    let render_d000 = |e: fmt_core::queries::datalog::DatalogParseError| {
        Diagnostic::error("D000", e.message)
            .with_span(e.span)
            .render(&src, ppath)
            .trim_end()
            .to_owned()
    };
    // A program file may end in a query goal clause `tc("a", y)?`; the
    // rule prefix is a byte-prefix of `src`, so all spans still render
    // against the original file.
    let split = magic::split_query(&src).map_err(render_d000)?;
    let body = split.as_ref().map_or(src.as_str(), |(len, _)| &src[..*len]);
    let parsed = Program::parse_spanned(s.signature(), body).map_err(render_d000)?;
    let prog = &parsed.program;
    if incremental || updates.is_some() {
        if !incremental {
            return Err(CliFailure::Error("--updates requires --incremental".into()));
        }
        if explain {
            return Err(CliFailure::Error(
                "--explain is not supported with --incremental".into(),
            ));
        }
        // The incremental runtime maintains the *full* fixpoint; a
        // query goal would be silently ignored, so reject it loudly.
        if let Some((_, goal)) = &split {
            return Err(CliFailure::Error(
                Diagnostic::error(
                    "I002",
                    format!("the incremental runtime does not support query goals ({goal})"),
                )
                .with_span(goal.span)
                .with_note(
                    "goal-directed (magic-sets) evaluation is batch-only: drop the trailing \
                     goal clause, or run `fmtk datalog --query` without --incremental",
                )
                .render(&src, ppath)
                .trim_end()
                .to_owned(),
            ));
        }
        if query_flag.is_some() {
            return Err(CliFailure::Error(
                "--query is not supported with --incremental (goal-directed evaluation is \
                 batch-only)"
                    .into(),
            ));
        }
        let upath = updates.ok_or_else(|| "--incremental requires --updates FILE".to_owned())?;
        let usrc = read_input(&upath)?;
        return run_incremental(&s, &parsed, &src, ppath, &usrc, &upath, threads, budget);
    }
    // Resolve the goal: embedded clause or --query flag, not both. The
    // (source, origin) pair is whatever text the goal's spans index.
    let goal: Option<(Goal, String, String)> = match (query_flag, split) {
        (Some(_), Some(_)) => {
            return Err(CliFailure::Error(
                "the program ends in a query goal and --query was also given; use one".into(),
            ));
        }
        (Some(q), None) => {
            let g = magic::parse_goal(&q).map_err(|e| {
                Diagnostic::error("D000", e.message)
                    .with_span(e.span)
                    .render(&q, "<query>")
                    .trim_end()
                    .to_owned()
            })?;
            Some((g, q, "<query>".to_owned()))
        }
        (None, Some((_, g))) => Some((g, src.clone(), ppath.to_string())),
        (None, None) => None,
    };
    if explain && goal.is_some() {
        return Err(CliFailure::Error(
            "--explain is not supported with a query goal (the profile spans index the \
             original rules, not the rewritten ones)"
                .into(),
        ));
    }
    if let Some((goal, gsrc, gorigin)) = goal {
        return run_query(
            &s, prog, &parsed, &src, ppath, &goal, &gsrc, &gorigin, &engine, threads, budget,
        );
    }
    // --explain reads span fields back out of the trace journal. A live
    // --trace session is reused (and peeked, not drained, so the trace
    // file still gets the events); otherwise a private one is opened.
    let tracing_was_on = fmt_core::obs::trace::enabled();
    if explain && !tracing_was_on {
        fmt_core::obs::trace::start();
    }
    let out = match engine.as_str() {
        "indexed" => prog.try_eval_seminaive_with(&s, threads, budget),
        "scan" => prog.try_eval_seminaive_scan(&s, budget),
        other => {
            if explain && !tracing_was_on {
                fmt_core::obs::trace::stop();
            }
            return Err(CliFailure::Error(format!(
                "unknown engine {other:?} (use scan|indexed)"
            )));
        }
    };
    let explain_trace = if explain {
        let t = fmt_core::obs::trace::peek();
        if !tracing_was_on {
            fmt_core::obs::trace::stop();
        }
        Some(t)
    } else {
        None
    };
    let out = out.map_err(|e| render_eval_error(e, &parsed, &src, ppath))?;
    let mut text = String::new();
    for i in 0..prog.num_idbs() {
        let (name, arity) = prog.idb_info(i);
        render_extent(&mut text, name, arity, out.relation(i));
    }
    text.push_str(&format!(
        "({} iterations, {} derivations)",
        out.iterations, out.derivations
    ));
    if let Some(trace) = explain_trace {
        text.push('\n');
        text.push_str(&explain_table(&trace, &parsed, &src));
    }
    Ok(text)
}

/// Appends one IDB block to `text`: a `name/arity: N tuples` header and
/// a `  name(a, b)` line per tuple, in lexicographic order of element
/// ids. Capacity is reserved once, from the widest value per column;
/// nothing is allocated per tuple.
fn render_extent(text: &mut String, name: &str, arity: usize, store: &TupleStore) {
    let rows = store.sorted_rows();
    text.push_str(&format!("{name}/{arity}: {} tuples\n", rows.len()));
    let widest: usize = (0..arity)
        .map(|c| store.col(c).iter().max().map_or(1, |m| m.to_string().len()))
        .sum();
    text.reserve(rows.len() * (name.len() + 5 + widest + 2 * arity));
    for r in rows {
        push_tuple_line(text, name, (0..arity).map(|c| store.value(r, c)));
    }
}

/// Appends `  name(a, b, ...)\n` to `text`.
fn push_tuple_line(text: &mut String, name: &str, tuple: impl IntoIterator<Item = u32>) {
    text.push_str("  ");
    text.push_str(name);
    text.push('(');
    for (i, v) in tuple.into_iter().enumerate() {
        if i > 0 {
            text.push_str(", ");
        }
        push_u32(text, v);
    }
    text.push_str(")\n");
}

/// Appends the decimal digits of `v` to `text` without allocating.
fn push_u32(text: &mut String, v: u32) {
    if v >= 10 {
        push_u32(text, v / 10);
    }
    text.push(char::from(b'0' + (v % 10) as u8));
}

/// Goal-directed (magic-sets) evaluation: rewrites the program for the
/// goal, evaluates the rewritten program on the requested engine, and
/// prints its extents and counters followed by the goal's answer rows.
/// With an all-free goal the rewrite is the identity, so everything up
/// to the `query …` line is byte-identical to a goal-less run.
#[allow(clippy::too_many_arguments)]
fn run_query(
    s: &Structure,
    prog: &Program,
    parsed: &ParsedProgram,
    src: &str,
    ppath: &str,
    goal: &Goal,
    gsrc: &str,
    gorigin: &str,
    engine: &str,
    threads: usize,
    budget: &Budget,
) -> CliResult {
    let mq = magic::rewrite(prog, goal).map_err(|e| {
        match e {
        MagicError::Original(oe) => render_eval_error(oe, parsed, src, ppath),
        MagicError::Unstratifiable { .. } => CliFailure::Error(
            Diagnostic::error("D006", e.to_string())
                .with_span(goal.span)
                .with_note(
                    "the original program stratifies; it is the goal's demand rules that close \
                     the negative cycle — evaluate without the goal (full materialization)",
                )
                .render(gsrc, gorigin)
                .trim_end()
                .to_owned(),
        ),
        // The D010 resolution family carries a goal span.
        other => CliFailure::Error(
            Diagnostic::error("D010", other.to_string())
                .with_span(other.goal_span().expect("resolution errors have goal spans"))
                .render(gsrc, gorigin)
                .trim_end()
                .to_owned(),
        ),
    }
    })?;
    let es = mq.prepare(s);
    let rprog = &mq.program;
    let out = match engine {
        "indexed" => rprog.try_eval_seminaive_with(&es, threads, budget),
        "scan" => rprog.try_eval_seminaive_scan(&es, budget),
        other => {
            return Err(CliFailure::Error(format!(
                "unknown engine {other:?} (use scan|indexed)"
            )))
        }
    };
    // `rewrite` already stratification-checked both programs, so the
    // only runtime failure left is budget exhaustion.
    let out = out.map_err(|e| match e {
        EvalError::Exhausted(ex) => exhausted(ex),
        other => CliFailure::Error(other.to_string()),
    })?;
    let mut text = String::new();
    for i in 0..rprog.num_idbs() {
        let (name, arity) = rprog.idb_info(i);
        render_extent(&mut text, name, arity, out.relation(i));
    }
    text.push_str(&format!(
        "({} iterations, {} derivations)\n",
        out.iterations, out.derivations
    ));
    let answers = mq.answers(s, &out);
    text.push_str(&format!("query {goal}: {} answers\n", answers.len()));
    for row in answers {
        push_tuple_line(&mut text, &goal.pred, row);
    }
    text.truncate(text.trim_end().len());
    Ok(text)
}

/// Drives a [`fmt_core::queries::incremental::DatalogRuntime`] from an
/// updates file: whitespace-separated tokens `+E(0,1)` (insert),
/// `-E(0,1)` (retract), and `poll`, with `#` comments to end of line.
/// The runtime is seeded from the structure and polled once up front;
/// a trailing poll is implied when updates are left pending. Prints a
/// maintenance summary per poll and the final IDB extents.
#[allow(clippy::too_many_arguments)]
fn run_incremental(
    s: &Structure,
    parsed: &ParsedProgram,
    src: &str,
    ppath: &str,
    usrc: &str,
    upath: &str,
    threads: usize,
    budget: &Budget,
) -> CliResult {
    use fmt_core::queries::incremental::DatalogRuntime;
    let prog = &parsed.program;
    // The runtime is stratification-free (DRed under negation is out
    // of scope); reject negated programs up front with the span of the
    // first negated atom rather than panicking mid-maintenance.
    let mut rt = DatalogRuntime::from_structure(prog.clone(), s).map_err(|e| {
        CliFailure::Error(
            Diagnostic::error("I001", e.to_string())
                .with_span(parsed.spans[e.rule].body[e.atom].span)
                .with_note(
                    "batch evaluation (`fmtk datalog` without --incremental) supports stratified \
                     negation; the incremental runtime does not yet",
                )
                .render(src, ppath)
                .trim_end()
                .to_owned(),
        )
    })?;
    rt.set_threads(threads.max(1));
    let mut text = String::new();
    let mut polls = 0u64;
    let mut do_poll = |rt: &mut DatalogRuntime, text: &mut String| -> Result<(), CliFailure> {
        let stats = rt.try_poll(budget).map_err(exhausted)?;
        polls += 1;
        text.push_str(&format!(
            "poll {polls}: +{} -{} edb, {} derived, {} overdeleted, {} rederived, {} rounds{}\n",
            stats.inserted,
            stats.retracted,
            stats.derived,
            stats.overdeleted,
            stats.rederived,
            stats.rounds,
            if stats.rebuilt { " (rebuild)" } else { "" },
        ));
        Ok(())
    };
    do_poll(&mut rt, &mut text)?; // materialize the seed structure
    for (lineno, line) in usrc.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("");
        for word in line.split_whitespace() {
            let fail = |msg: String| CliFailure::Error(format!("{upath}:{}: {msg}", lineno + 1));
            if word == "poll" {
                do_poll(&mut rt, &mut text)?;
                continue;
            }
            let (rel, t, insert) = parse_update_token(s, word).map_err(fail)?;
            if insert {
                rt.insert(rel, &t);
            } else {
                rt.retract(rel, &t);
            }
        }
    }
    if rt.pending_ops() > 0 {
        do_poll(&mut rt, &mut text)?;
    }
    for i in 0..prog.num_idbs() {
        let (name, arity) = prog.idb_info(i);
        render_extent(&mut text, name, arity, rt.query(i));
    }
    text.push_str(&format!("({polls} polls)"));
    Ok(text)
}

/// Parses one updates-file token `+E(0,1)` / `-E(0,1)` into its
/// relation, tuple, and insert/retract sense, validating against the
/// structure's signature and domain.
fn parse_update_token(
    s: &Structure,
    word: &str,
) -> Result<(fmt_core::structures::RelId, Vec<u32>, bool), String> {
    let bad = || format!("bad update {word:?} (want +REL(v, ...) | -REL(v, ...) | poll)");
    let (sign, rest) = word.split_at_checked(1).ok_or_else(bad)?;
    let insert = match sign {
        "+" => true,
        "-" => false,
        _ => return Err(bad()),
    };
    let (name, rest) = rest.split_once('(').ok_or_else(bad)?;
    let inner = rest.strip_suffix(')').ok_or_else(bad)?;
    let rel = s
        .signature()
        .relation(name)
        .ok_or_else(|| format!("unknown relation {name:?} in update {word:?}"))?;
    let mut t = Vec::new();
    if !inner.trim().is_empty() {
        for cell in inner.split(',') {
            let v: u32 = cell
                .trim()
                .parse()
                .map_err(|e| format!("bad vertex in update {word:?}: {e}"))?;
            t.push(v);
        }
    }
    if t.len() != s.signature().arity(rel) {
        return Err(format!(
            "update {word:?} has arity {}, relation {name} wants {}",
            t.len(),
            s.signature().arity(rel)
        ));
    }
    if let Some(&v) = t.iter().find(|&&v| v >= s.size()) {
        return Err(format!(
            "vertex {v} in update {word:?} is outside the domain 0..{}",
            s.size()
        ));
    }
    Ok((rel, t, insert))
}

/// Aggregates the `datalog.rule` spans of `trace` into a per-rule
/// profile table: derivations, index probes, rounds the rule fired in,
/// and total time spent applying it.
fn explain_table(
    trace: &fmt_core::obs::trace::Trace,
    parsed: &fmt_core::queries::datalog::ParsedProgram,
    src: &str,
) -> String {
    use std::collections::BTreeSet;
    let n = parsed.spans.len();
    let mut derived = vec![0u64; n];
    let mut probes = vec![0u64; n];
    let mut probe_allocs = vec![0u64; n];
    let mut arena_bytes = vec![0u64; n];
    let mut nanos = vec![0u64; n];
    let mut rounds: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); n];
    for ev in &trace.events {
        if ev.name != "datalog.rule" {
            continue;
        }
        let Some(ri) = ev
            .field("rule")
            .and_then(fmt_core::obs::trace::FieldValue::as_u64)
        else {
            continue;
        };
        let ri = ri as usize;
        if ri >= n {
            continue;
        }
        let field = |name: &str| {
            ev.field(name)
                .and_then(fmt_core::obs::trace::FieldValue::as_u64)
                .unwrap_or(0)
        };
        derived[ri] += field("derived");
        probes[ri] += field("probes");
        probe_allocs[ri] += field("probe_allocs");
        arena_bytes[ri] += field("arena_bytes");
        nanos[ri] += ev.dur_ns.unwrap_or(0);
        if let Some(r) = ev
            .field("round")
            .and_then(fmt_core::obs::trace::FieldValue::as_u64)
        {
            rounds[ri].insert(r);
        }
    }
    let mut rows: Vec<Vec<String>> = Vec::with_capacity(n);
    for ri in 0..n {
        let label = parsed.spans[ri].span.slice(src).trim().to_owned();
        rows.push(vec![
            ri.to_string(),
            derived[ri].to_string(),
            probes[ri].to_string(),
            probe_allocs[ri].to_string(),
            arena_bytes[ri].to_string(),
            rounds[ri].len().to_string(),
            (nanos[ri] / 1000).to_string(),
            label,
        ]);
    }
    let header = [
        "rule",
        "derived",
        "probes",
        "probe_allocs",
        "arena_bytes",
        "rounds",
        "total_us",
        "text",
    ];
    let mut out = String::from("per-rule profile (from datalog.rule spans):\n");
    out.push_str(fmt_core::report::table(&header, &rows).trim_end());
    out
}

/// Parses repeated `--rel NAME:ARITY` flags into a signature
/// (default: the graph vocabulary `E/2`).
fn signature_from_rels(args: &mut Vec<String>) -> Result<Arc<Signature>, String> {
    let mut rels: Vec<(String, usize)> = Vec::new();
    while let Some(spec) = flag_value(args, "--rel")? {
        let (name, arity) = spec
            .split_once(':')
            .ok_or_else(|| format!("bad --rel {spec}, expected NAME:ARITY"))?;
        let arity: usize = arity.parse().map_err(|_| format!("bad arity in {spec}"))?;
        rels.push((name.to_owned(), arity));
    }
    if rels.is_empty() {
        return Ok(Signature::graph());
    }
    let mut b = Signature::builder();
    for (name, arity) in &rels {
        b = b.relation(name, *arity);
    }
    Ok(b.finish_arc())
}

fn cmd_lint(mut args: Vec<String>) -> CliResult {
    // `--explain CODE` is a standalone mode: print the registry's
    // long-form description (rustc-style) and exit.
    if let Some(code) = flag_value(&mut args, "--explain")? {
        reject_unknown_flags(&args)?;
        if !args.is_empty() {
            return Err(usage().into());
        }
        let code = code.to_uppercase();
        return match lint::explain(&code) {
            Some(text) => {
                let (_, summary) = lint::CODES
                    .iter()
                    .find(|(c, _)| *c == code)
                    .expect("every explained code is registered");
                Ok(format!("{code}: {summary}\n\n{text}"))
            }
            None => Err(format!(
                "unknown lint code {code:?}; registered codes: {}",
                lint::CODES
                    .iter()
                    .map(|(c, _)| *c)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
            .into()),
        };
    }
    let format = flag_value(&mut args, "--format")?.unwrap_or_else(|| "text".to_owned());
    if format != "text" && format != "json" {
        return Err(format!("unknown --format {format:?} (use text|json)").into());
    }
    let mut deny: Vec<String> = Vec::new();
    while let Some(code) = flag_value(&mut args, "--deny")? {
        deny.push(code);
    }
    let rank_budget: Option<u32> = flag_value(&mut args, "--rank-budget")?
        .map(|v| v.parse().map_err(|_| format!("bad --rank-budget {v:?}")))
        .transpose()?;
    let goal = flag_value(&mut args, "--goal")?;
    let sig = signature_from_rels(&mut args)?;
    let mut exprs: Vec<String> = Vec::new();
    while let Some(e) = flag_value(&mut args, "--expr")? {
        exprs.push(e);
    }
    let mut programs: Vec<String> = Vec::new();
    while let Some(p) = flag_value(&mut args, "--program")? {
        programs.push(p);
    }
    let expect_sentence = if let Some(pos) = args.iter().position(|a| a == "--sentence") {
        args.remove(pos);
        true
    } else {
        false
    };
    reject_unknown_flags(&args)?;
    let files = args;
    if exprs.is_empty() && programs.is_empty() && files.is_empty() {
        return Err(format!("lint needs a FILE, --expr, or --program\n{}", usage()).into());
    }
    let mut cfg = LintConfig {
        expect_sentence,
        goal,
        ..LintConfig::default()
    };
    if let Some(b) = rank_budget {
        cfg.rank_budget = b;
    }

    // One (origin, source, diagnostics) triple per linted input. A
    // `.case` file can contribute two: its formula and its program.
    let mut results: Vec<(String, String, Vec<Diagnostic>)> = Vec::new();
    for src in exprs {
        let diags = lint::lint_formula_src(&sig, &src, &cfg);
        results.push(("<expr>".to_owned(), src, diags));
    }
    for src in programs {
        let diags = lint::lint_program_src(&sig, &src, &cfg);
        results.push(("<program>".to_owned(), src, diags));
    }
    for path in files {
        if path.ends_with(".case") {
            let text = read_input(&path)?;
            let case =
                fmt_conform::ReproCase::from_text(&text).map_err(|e| format!("{path}: {e}"))?;
            let csig = case.signature();
            if let Some(f) = &case.formula {
                let diags = lint::lint_formula_src(&csig, f, &cfg);
                results.push((format!("{path}#formula"), f.clone(), diags));
            }
            if let Some(p) = case.param("program") {
                let diags = lint::lint_program_src(&csig, p, &cfg);
                results.push((format!("{path}#program"), p.to_owned(), diags));
            }
        } else if path.ends_with(".dl") {
            let src = read_input(&path)?;
            let diags = lint::lint_program_src(&sig, &src, &cfg);
            results.push((path, src, diags));
        } else {
            let src = read_input(&path)?.trim_end().to_owned();
            let diags = lint::lint_formula_src(&sig, &src, &cfg);
            results.push((path, src, diags));
        }
    }

    // --deny escalates matching warnings (or all of them) to errors.
    let denied = |code: &str| deny.iter().any(|d| d == code || d == "warnings");
    let (mut n_warn, mut n_err) = (0usize, 0usize);
    for (_, _, diags) in &mut results {
        for d in diags.iter_mut() {
            if d.severity == Severity::Warning && denied(&d.code) {
                d.severity = Severity::Error;
            }
            match d.severity {
                Severity::Error => n_err += 1,
                Severity::Warning => n_warn += 1,
            }
        }
    }

    let out = if format == "json" {
        let all: Vec<Diagnostic> = results
            .iter()
            .flat_map(|(_, _, diags)| diags.iter().cloned())
            .collect();
        lint::diag::diags_to_json(&all)
    } else {
        let mut text = String::new();
        for (origin, src, diags) in &results {
            for d in diags {
                text.push_str(d.render(src, origin).trim_end());
                text.push_str("\n\n");
            }
        }
        let n_inputs = results.len();
        if n_warn + n_err == 0 {
            text.push_str(&format!("clean: {n_inputs} input(s), no diagnostics"));
        } else {
            text.push_str(&format!(
                "{} diagnostic(s) across {n_inputs} input(s): {n_err} error(s), {n_warn} warning(s)",
                n_warn + n_err
            ));
        }
        text.trim_end().to_owned()
    };
    if n_err > 0 {
        // Keep the report (including JSON) on stdout; only the verdict
        // goes to stderr with the failing exit code.
        write_stdout(out + "\n")?;
        return Err(CliFailure::Error(format!(
            "lint failed with {n_err} error(s)"
        )));
    }
    Ok(out)
}

fn cmd_conform(mut args: Vec<String>, budget: &Budget) -> CliResult {
    if let Some(path) = flag_value(&mut args, "--replay")? {
        reject_unknown_flags(&args)?;
        if !args.is_empty() {
            return Err(usage().into());
        }
        let text = read_input(&path)?;
        // A malformed case file is an ordinary error (exit 1); a case
        // that parses but still reproduces its disagreement is a
        // conformance failure (exit 2).
        let case = fmt_conform::ReproCase::from_text(&text).map_err(|e| format!("{path}: {e}"))?;
        return match fmt_conform::runner::replay_case(&case) {
            Ok(()) => Ok(format!("{path}: engines agree (case replays clean)")),
            Err(e) => Err(CliFailure::Conform(format!(
                "{path}: disagreement reproduces: {e}"
            ))),
        };
    }
    let seed: u64 = flag_value(&mut args, "--seed")?
        .map(|v| v.parse().map_err(|_| format!("bad seed {v:?}")))
        .transpose()?
        .unwrap_or(42);
    let cases: u64 = flag_value(&mut args, "--cases")?
        .map(|v| v.parse().map_err(|_| format!("bad case count {v:?}")))
        .transpose()?
        .unwrap_or(500);
    let oracle = flag_value(&mut args, "--oracle")?;
    let corpus = flag_value(&mut args, "--corpus")?;
    reject_unknown_flags(&args)?;
    if !args.is_empty() {
        return Err(usage().into());
    }
    let cfg = fmt_conform::RunConfig {
        seed,
        cases,
        oracle,
        corpus_dir: corpus.map(std::path::PathBuf::from),
        budget: budget.clone(),
    };
    let report = fmt_conform::run(&cfg).map_err(|e| match e {
        fmt_conform::runner::RunError::Budget(b) => exhausted(b),
        fmt_conform::runner::RunError::Other(msg) => CliFailure::Error(msg),
    })?;
    let mut out = format!("conform: seed {seed}, {} cases\n", report.cases_run);
    for (name, n) in &report.per_oracle {
        out.push_str(&format!("  {name}: {n} cases\n"));
    }
    if report.clean() {
        out.push_str("all oracles agree");
        return Ok(out.trim_end().to_owned());
    }
    out.push_str(&format!("{} DISAGREEMENT(S):\n", report.failures.len()));
    for f in &report.failures {
        out.push_str(&format!("  [{} case {}] {}\n", f.oracle, f.case, f.note));
    }
    for p in &report.written {
        out.push_str(&format!("  wrote {}\n", p.display()));
    }
    Err(CliFailure::Conform(out.trim_end().to_owned()))
}

fn cmd_sample() -> String {
    "# a directed 4-cycle with a chord\n\
     size: 4\n\
     E(0,1)\n\
     E(1,2)\n\
     E(2,3)\n\
     E(3,0)\n\
     E(0,2)\n"
        .to_owned()
}

/// How `--stats` output should be rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StatsMode {
    Off,
    Text,
    Json,
}

/// Extracts the global `--stats [text|json]` flag from anywhere in the
/// argument list. The mode word is optional and defaults to `text`.
fn extract_stats(argv: &mut Vec<String>) -> StatsMode {
    let Some(pos) = argv.iter().position(|a| a == "--stats") else {
        return StatsMode::Off;
    };
    argv.remove(pos);
    match argv.get(pos).map(String::as_str) {
        Some("text") => {
            argv.remove(pos);
            StatsMode::Text
        }
        Some("json") => {
            argv.remove(pos);
            StatsMode::Json
        }
        _ => StatsMode::Text,
    }
}

/// Renders the instrumentation snapshot for `cmd`; `None` if nothing
/// was recorded.
fn render_stats(mode: StatsMode, cmd: &str) -> Option<String> {
    let snap = fmt_core::obs::snapshot();
    match mode {
        StatsMode::Off => None,
        StatsMode::Json => Some(format!("{{\"command\":\"{cmd}\",{}}}", snap.json_body())),
        StatsMode::Text => {
            if snap.is_empty() {
                return Some("(no engine counters recorded)".to_owned());
            }
            let t = fmt_core::report::table(&["metric", "value"], &snap.rows());
            Some(t.trim_end().to_owned())
        }
    }
}

/// The trace format selected by `--trace-format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Chrome,
    Folded,
}

/// Extracts the global `--trace FILE` and `--trace-format chrome|folded`
/// flags. `--trace-format` without `--trace` is an error.
fn extract_trace(argv: &mut Vec<String>) -> Result<Option<(String, TraceFormat)>, String> {
    let path = flag_value(argv, "--trace")?;
    let format = match flag_value(argv, "--trace-format")?.as_deref() {
        None | Some("chrome") => TraceFormat::Chrome,
        Some("folded") => TraceFormat::Folded,
        Some(other) => {
            return Err(format!(
                "unknown --trace-format {other:?} (use chrome|folded)"
            ))
        }
    };
    match path {
        Some(p) => Ok(Some((p, format))),
        None if format == TraceFormat::Folded => {
            Err("--trace-format requires --trace FILE".to_owned())
        }
        None => Ok(None),
    }
}

/// Extracts the global `--metrics-text` flag (Prometheus exposition of
/// every engine counter and histogram after the command).
fn extract_metrics_text(argv: &mut Vec<String>) -> bool {
    let Some(pos) = argv.iter().position(|a| a == "--metrics-text") else {
        return false;
    };
    argv.remove(pos);
    true
}

/// Extracts the global `--fuel N` and `--timeout-ms M` flags from
/// anywhere in the argument list and builds the command's [`Budget`]
/// (unlimited when neither flag is given).
fn extract_budget(argv: &mut Vec<String>) -> Result<Budget, String> {
    let fuel: Option<u64> = flag_value(argv, "--fuel")?
        .map(|v| v.parse().map_err(|_| format!("bad --fuel {v:?}")))
        .transpose()?;
    let timeout: Option<u64> = flag_value(argv, "--timeout-ms")?
        .map(|v| v.parse().map_err(|_| format!("bad --timeout-ms {v:?}")))
        .transpose()?;
    Ok(Budget::new(
        fuel,
        timeout.map(std::time::Duration::from_millis),
    ))
}

fn run() -> CliResult {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let stats = extract_stats(&mut argv);
    let metrics_text = extract_metrics_text(&mut argv);
    let trace_to = extract_trace(&mut argv)?;
    let budget = extract_budget(&mut argv)?;
    if argv.is_empty() {
        return Err(usage().into());
    }
    if stats != StatsMode::Off || metrics_text {
        fmt_core::obs::enable();
    }
    if trace_to.is_some() {
        fmt_core::obs::trace::start();
    }
    let cmd = argv.remove(0);
    let out = match cmd.as_str() {
        "check" => cmd_check(&argv, &budget),
        "eval" => cmd_eval(&argv, &budget),
        "game" => cmd_game(argv, &budget),
        "mu" => cmd_mu(argv),
        "census" => cmd_census(argv),
        "datalog" => cmd_datalog(&argv, &budget),
        "lint" => cmd_lint(argv),
        "conform" => cmd_conform(argv, &budget),
        "sample" => Ok(cmd_sample()),
        "--help" | "-h" | "help" => Ok(usage()),
        other => Err(CliFailure::Error(format!(
            "unknown command {other}\n{}",
            usage()
        ))),
    };
    // The trace is written even when the command failed: traces of
    // budget-exhausted or erroring runs are exactly the interesting ones.
    if let Some((path, format)) = trace_to {
        let trace = fmt_core::obs::trace::stop();
        let data = match format {
            TraceFormat::Chrome => trace.to_chrome_json(),
            TraceFormat::Folded => trace.to_folded(),
        };
        std::fs::write(&path, data).map_err(|e| format!("{path}: {e}"))?;
    }
    let mut out = out?;
    if let Some(stats_out) = render_stats(stats, &cmd) {
        out.push('\n');
        out.push_str(&stats_out);
    }
    if metrics_text {
        out.push('\n');
        out.push_str(&fmt_core::obs::snapshot().to_prometheus());
    }
    out.truncate(out.trim_end().len());
    out.push('\n');
    Ok(out)
}

/// Writes `out` to stdout in one call. A closed pipe or a full device
/// is an ordinary I/O failure (exit 1), not a panic.
fn write_stdout(out: String) -> Result<(), CliFailure> {
    let mut stdout = std::io::stdout().lock();
    stdout
        .write_all(out.as_bytes())
        .and_then(|()| stdout.flush())
        .map_err(|e| CliFailure::Error(format!("writing output: {e}")))
}

fn main() -> ExitCode {
    let (code, msg) = match run().and_then(write_stdout) {
        Ok(()) => return ExitCode::SUCCESS,
        Err(CliFailure::Error(e)) => (1, e),
        Err(CliFailure::Conform(e)) => (2, e),
        Err(CliFailure::Exhausted(e)) => (3, e),
    };
    // Best effort: there is nowhere left to report a failing stderr.
    let _ = writeln!(std::io::stderr(), "fmtk: {msg}");
    ExitCode::from(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(args: &[&str]) -> Result<String, String> {
        cmd_lint(args.iter().map(|s| (*s).to_owned()).collect()).map_err(|e| match e {
            CliFailure::Error(m) | CliFailure::Conform(m) | CliFailure::Exhausted(m) => m,
        })
    }

    #[test]
    fn lint_reports_with_carets() {
        let out = lint(&["--expr", "exists x. E(y, y)"]).unwrap();
        assert!(out.contains("warning[F001]"), "{out}");
        assert!(out.contains("exists x. E(y, y)"), "{out}");
        assert!(out.contains('^'), "{out}");
        assert!(out.contains("1 warning(s)"), "{out}");
    }

    #[test]
    fn lint_deny_escalates_to_failure() {
        let err = lint(&["--expr", "exists x. E(y, y)", "--deny", "warnings"]).unwrap_err();
        assert!(err.contains("1 error(s)"), "{err}");
        let err = lint(&["--expr", "exists x. E(y, y)", "--deny", "F001"]).unwrap_err();
        assert!(err.contains("1 error(s)"), "{err}");
        // Denying an unrelated code does not escalate.
        let out = lint(&["--expr", "exists x. E(y, y)", "--deny", "F002"]).unwrap();
        assert!(out.contains("1 warning(s)"), "{out}");
    }

    #[test]
    fn lint_json_round_trips() {
        let out = lint(&["--format", "json", "--expr", "exists x. E(y, y)"]).unwrap();
        let diags = fmt_core::structures::diag::diags_from_json(&out).unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "F001");
        assert_eq!(
            diags[0].span.unwrap(),
            fmt_core::structures::Span::new(7, 8)
        );
    }

    #[test]
    fn lint_classifies_dl_files_by_extension() {
        let path = std::env::temp_dir().join("fmtk_lint_cli_test.dl");
        std::fs::write(&path, "p(x) :- e(x, x). p(y) :- e(y, y).").unwrap();
        let out = lint(&[path.to_str().unwrap()]).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("D004"), "{out}");
    }

    #[test]
    fn lint_flag_validation() {
        assert!(lint(&["--format", "yaml", "--expr", "true"]).is_err());
        assert!(lint(&[]).is_err());
        assert!(lint(&["--rank-budget", "lots", "--expr", "true"]).is_err());
    }

    #[test]
    fn lint_sentence_and_rel_flags() {
        let err = lint(&["--sentence", "--expr", "E(x, y)"]).unwrap_err();
        assert!(err.contains("1 error(s)"), "{err}");
        let out = lint(&["--rel", "R:1", "--expr", "forall x. R(x)"]).unwrap();
        assert!(out.contains("clean"), "{out}");
    }

    fn datalog(args: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        cmd_datalog(&argv, &Budget::unlimited()).map_err(|e| match e {
            CliFailure::Error(m) | CliFailure::Conform(m) | CliFailure::Exhausted(m) => m,
        })
    }

    /// Writes `name` under a fresh temp path and returns it as a String.
    fn temp_file(name: &str, contents: &str) -> String {
        let p = std::env::temp_dir().join(format!("fmtk-cli-{}-{name}", std::process::id()));
        std::fs::write(&p, contents).unwrap();
        p.to_str().unwrap().to_owned()
    }

    const PATH4: &str = "size: 4\nE(0,1)\nE(1,2)\nE(2,3)\n";
    const TC: &str = "tc(x, y) :- e(x, y). tc(x, z) :- e(x, y), tc(y, z).";

    #[test]
    fn datalog_query_flag_prunes_and_answers() {
        let s = temp_file("q.structure", PATH4);
        let p = temp_file("q.dl", TC);
        let out = datalog(&[&s, &p, "--query", "tc(2, y)?"]).unwrap();
        assert!(out.contains("query tc(2, y)?: 1 answers"), "{out}");
        assert!(out.contains("  tc(2, 3)"), "{out}");
        // The rewritten program's extents are printed — adorned and
        // magic predicates included — and prune below the full closure.
        assert!(out.contains("magic_tc_bf/1"), "{out}");
        assert!(
            !out.contains("tc(0, 1)"),
            "pruned derivations leaked: {out}"
        );
        std::fs::remove_file(&s).ok();
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn datalog_embedded_goal_matches_flag_and_conflicts_are_rejected() {
        let s = temp_file("g.structure", PATH4);
        let p = temp_file("g.dl", &format!("{TC} tc(2, y)?"));
        let embedded = datalog(&[&s, &p]).unwrap();
        assert!(
            embedded.contains("query tc(2, y)?: 1 answers"),
            "{embedded}"
        );
        let err = datalog(&[&s, &p, "--query", "tc(2, y)?"]).unwrap_err();
        assert!(err.contains("use one"), "{err}");
        std::fs::remove_file(&s).ok();
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn datalog_query_transparency_for_all_free_goals() {
        let s = temp_file("t.structure", PATH4);
        let p = temp_file("t.dl", TC);
        let plain = datalog(&[&s, &p]).unwrap();
        let queried = datalog(&[&s, &p, "--query", "tc(x, y)?"]).unwrap();
        assert!(
            queried.starts_with(&plain),
            "all-free goal output is not a byte-extension:\n{plain}\n---\n{queried}"
        );
        assert!(queried.contains("query tc(x, y)?: 6 answers"), "{queried}");
        std::fs::remove_file(&s).ok();
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn datalog_bad_goals_render_d010_carets() {
        let s = temp_file("b.structure", PATH4);
        let p = temp_file("b.dl", TC);
        let err = datalog(&[&s, &p, "--query", "ghost(0, y)?"]).unwrap_err();
        assert!(err.contains("error[D010]"), "{err}");
        assert!(err.contains('^'), "{err}");
        std::fs::remove_file(&s).ok();
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn incremental_rejects_query_goals_with_i002() {
        let s = temp_file("i.structure", PATH4);
        let p = temp_file("i.dl", &format!("{TC} tc(0, y)?"));
        let u = temp_file("i.updates", "+E(3,0) poll\n");
        let err = datalog(&[&s, &p, "--incremental", "--updates", &u]).unwrap_err();
        assert!(err.contains("error[I002]"), "{err}");
        assert!(
            err.contains("--query"),
            "note must point at batch --query: {err}"
        );
        assert!(
            err.contains('^'),
            "diagnostic must carry the goal span: {err}"
        );
        // The --query flag combined with --incremental is a plain error.
        let p2 = temp_file("i2.dl", TC);
        let err = datalog(&[
            &s,
            &p2,
            "--incremental",
            "--updates",
            &u,
            "--query",
            "tc(0, y)?",
        ])
        .unwrap_err();
        assert!(
            err.contains("--query is not supported with --incremental"),
            "{err}"
        );
        for f in [&s, &p, &u, &p2] {
            std::fs::remove_file(f).ok();
        }
    }

    /// The extent renderer `render_extent` replaced, kept as the
    /// reference: materialize every tuple, comparison-sort, then
    /// `format!` and `join` each line.
    fn reference_extents<'a>(prog: &Program, store: impl Fn(usize) -> &'a TupleStore) -> String {
        let mut text = String::new();
        for i in 0..prog.num_idbs() {
            let (name, arity) = prog.idb_info(i);
            let mut tuples: Vec<Vec<u32>> = store(i).iter().collect();
            tuples.sort();
            text.push_str(&format!("{name}/{arity}: {} tuples\n", tuples.len()));
            for t in tuples {
                let cells: Vec<String> = t.iter().map(u32::to_string).collect();
                text.push_str(&format!("  {name}({})\n", cells.join(", ")));
            }
        }
        text
    }

    /// Element ids on both sides of the 255/256 byte boundary; `loop`
    /// stays empty (no self-loops), `src` has arity 1 and `tri` arity 3.
    const WIDE: &str = "size: 300\nE(0,1)\nE(1,2)\nE(2,0)\nE(255,256)\nE(256,10)\n\
                        E(10,255)\nE(299,5)\nE(5,100)\nE(100,299)\nE(3,257)\n";
    const SHAPES: &str = "tc(x, y) :- e(x, y). tc(x, z) :- e(x, y), tc(y, z). \
                          src(x) :- e(x, y). tri(x, y, z) :- e(x, y), e(y, z), tc(z, x). \
                          loop(x) :- e(x, x).";

    #[test]
    fn rendering_is_byte_identical_to_the_reference_in_every_mode() {
        let sp = temp_file("r.structure", WIDE);
        let pp = temp_file("r.dl", SHAPES);
        let up = temp_file("r.updates", "+E(257,3) -E(2,0) +E(3,4)\n");
        let s = sparse::parse(WIDE).unwrap();
        let prog = Program::parse(s.signature(), SHAPES).unwrap();
        let out = prog
            .try_eval_seminaive_with(&s, 0, &Budget::unlimited())
            .unwrap();
        let want = reference_extents(&prog, |i| out.relation(i));
        assert!(want.contains("loop/1: 0 tuples\n") && want.contains("  tri(255, 256, 10)\n"));
        assert_eq!(
            datalog(&[&sp, &pp]).unwrap(),
            format!(
                "{want}({} iterations, {} derivations)",
                out.iterations, out.derivations
            )
        );

        let goal = magic::parse_goal("tc(255, y)?").unwrap();
        let mq = magic::rewrite(&prog, &goal).unwrap();
        let out = mq
            .program
            .try_eval_seminaive_with(&mq.prepare(&s), 0, &Budget::unlimited())
            .unwrap();
        let mut want = reference_extents(&mq.program, |i| out.relation(i));
        let answers = mq.answers(&s, &out);
        want.push_str(&format!(
            "({} iterations, {} derivations)\nquery {goal}: {} answers\n",
            out.iterations,
            out.derivations,
            answers.len()
        ));
        for row in answers {
            let cells: Vec<String> = row.iter().map(u32::to_string).collect();
            want.push_str(&format!("  tc({})\n", cells.join(", ")));
        }
        assert_eq!(
            datalog(&[&sp, &pp, "--query", "tc(255, y)?"]).unwrap(),
            want.trim_end()
        );

        let e = s.signature().relation("E").unwrap();
        let mut rt =
            fmt_core::queries::incremental::DatalogRuntime::from_structure(prog.clone(), &s)
                .unwrap();
        rt.insert(e, &[257, 3]);
        rt.retract(e, &[2, 0]);
        rt.insert(e, &[3, 4]);
        rt.poll();
        let want = reference_extents(&prog, |i| rt.query(i));
        let got = datalog(&[&sp, &pp, "--incremental", "--updates", &up]).unwrap();
        let (polls, extents) = got.split_at(got.find("tc/2:").unwrap());
        assert_eq!(polls.lines().count(), 2, "{polls}");
        assert!(polls.lines().all(|l| l.starts_with("poll ")), "{polls}");
        assert_eq!(extents, format!("{want}(2 polls)"));
        for f in [&sp, &pp, &up] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn parse_errors_render_carets() {
        let src = "E(x, y) & R(x)";
        let e = fo_parser::parse_formula_spanned(&Signature::graph(), src).unwrap_err();
        let r = render_fo_error(src, "<expr>", &e);
        assert!(r.contains("error[F004]"), "{r}");
        assert!(r.contains('^'), "{r}");
        assert!(r.contains("<expr>:1:11"), "{r}");
    }
}
