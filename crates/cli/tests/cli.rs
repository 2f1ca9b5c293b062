//! End-to-end tests of the `fmtk` binary: each subcommand run as a real
//! process on real files.

use std::io::Write;
use std::process::{Command, Stdio};

fn fmtk() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fmtk"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("fmtk-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

const CYCLE4: &str = "size: 4\nE(0,1)\nE(1,2)\nE(2,3)\nE(3,0)\n";

#[test]
fn check_sentence() {
    let p = write_temp("c4.st", CYCLE4);
    let out = fmtk()
        .args(["check", p.to_str().unwrap(), "forall x. exists y. E(x, y)"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "true");

    let out = fmtk()
        .args(["check", p.to_str().unwrap(), "exists x. E(x, x)"])
        .output()
        .unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "false");
}

#[test]
fn eval_query() {
    let p = write_temp("c4b.st", CYCLE4);
    let out = fmtk()
        .args(["eval", p.to_str().unwrap(), "exists z. E(x, z) & E(z, y)"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("arity 2, 4 answers"), "{text}");
    assert!(text.contains("(0, 2)"), "{text}");
}

#[test]
fn game_between_sets() {
    let a = write_temp("s3.st", "size: 3\n");
    let b = write_temp("s4.st", "size: 4\n");
    let out = fmtk()
        .args([
            "game",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--rounds",
            "4",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rank(A, B) capped at 4: 3"), "{text}");
    assert!(text.contains("spoiler wins"), "{text}");
}

#[test]
fn mu_decision() {
    let out = fmtk().args(["mu", "exists x. E(x, x)"]).output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "mu = 1");
    let out = fmtk().args(["mu", "forall x. E(x, x)"]).output().unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "mu = 0");
    // Custom signature.
    let out = fmtk()
        .args(["mu", "exists x. P(x)", "--rel", "P:1"])
        .output()
        .unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "mu = 1");
}

#[test]
fn census_counts_types() {
    let p = write_temp(
        "path5.st",
        "size: 5\nE(0,1)\nE(1,0)\nE(1,2)\nE(2,1)\nE(2,3)\nE(3,2)\nE(3,4)\nE(4,3)\n",
    );
    let out = fmtk()
        .args(["census", p.to_str().unwrap(), "--radius", "1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // Endpoint type (2 elements) + interior type (3 elements).
    assert!(
        text.contains("2 radius-1 neighborhood types over 5 elements"),
        "{text}"
    );
}

#[test]
fn datalog_tc() {
    let s = write_temp("p3.st", "size: 3\nE(0,1)\nE(1,2)\n");
    let prog = write_temp("tc.dl", "tc(x,y) :- e(x,y). tc(x,z) :- e(x,y), tc(y,z).");
    let out = fmtk()
        .args(["datalog", s.to_str().unwrap(), prog.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tc/2: 3 tuples"), "{text}");
    assert!(text.contains("tc(0, 2)"), "{text}");
}

#[test]
fn datalog_engine_and_threads_flags() {
    let s = write_temp("p4.st", "size: 4\nE(0,1)\nE(1,2)\nE(2,3)\n");
    let prog = write_temp("tc2.dl", "tc(x,y) :- e(x,y). tc(x,z) :- e(x,y), tc(y,z).");
    let mut outputs = Vec::new();
    for extra in [
        &["--engine", "scan"][..],
        &["--engine", "indexed"][..],
        &["--threads", "2"][..],
    ] {
        let out = fmtk()
            .args(["datalog", s.to_str().unwrap(), prog.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        outputs.push(String::from_utf8_lossy(&out.stdout).into_owned());
    }
    // Same program, same answers and counters, whatever the engine.
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[1], outputs[2]);
    assert!(outputs[0].contains("tc/2: 6 tuples"), "{}", outputs[0]);

    let out = fmtk()
        .args([
            "datalog",
            s.to_str().unwrap(),
            prog.to_str().unwrap(),
            "--engine",
            "quantum",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown engine"));
}

#[test]
fn datalog_incremental_maintains_under_updates() {
    let s = write_temp("incr-seed.st", "size: 4\nE(0,1)\n");
    let prog = write_temp(
        "incr-tc.dl",
        "tc(x,y) :- e(x,y). tc(x,z) :- e(x,y), tc(y,z).",
    );
    let upd = write_temp(
        "incr.upd",
        "+E(1,2) +E(2,3) poll\n# drop the middle edge\n-E(1,2)\npoll\n",
    );
    let out = fmtk()
        .args([
            "datalog",
            s.to_str().unwrap(),
            prog.to_str().unwrap(),
            "--incremental",
            "--updates",
            upd.to_str().unwrap(),
            "--stats",
            "json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Poll 1 materializes the seed structure from scratch; the final
    // poll runs DRed: retracting E(1,2) kills the 4 closure pairs that
    // crossed it, leaving tc = {(0,1), (2,3)}.
    assert!(text.contains("poll 1: +1 -0 edb, 1 derived"), "{text}");
    assert!(text.contains("(rebuild)"), "{text}");
    assert!(
        text.contains("poll 3: +0 -1 edb, 0 derived, 4 overdeleted"),
        "{text}"
    );
    assert!(text.contains("tc/2: 2 tuples"), "{text}");
    assert!(text.contains("tc(0, 1)"), "{text}");
    assert!(text.contains("tc(2, 3)"), "{text}");
    assert!(text.contains("(3 polls)"), "{text}");
    let line = stats_json_line(&out.stdout);
    assert!(line.contains("\"queries.incr.polls\":3"), "{line}");
    assert!(line.contains("\"queries.incr.overdeleted\":4"), "{line}");
}

#[test]
fn datalog_incremental_flag_and_file_errors() {
    let s = write_temp("incr-err.st", "size: 3\nE(0,1)\n");
    let prog = write_temp("incr-err.dl", "tc(x,y) :- e(x,y).");
    // --updates without --incremental.
    let upd = write_temp("incr-err.upd", "poll\n");
    let out = fmtk()
        .args([
            "datalog",
            s.to_str().unwrap(),
            prog.to_str().unwrap(),
            "--updates",
            upd.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --incremental"));
    // --incremental without --updates.
    let out = fmtk()
        .args([
            "datalog",
            s.to_str().unwrap(),
            prog.to_str().unwrap(),
            "--incremental",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --updates"));
    // Malformed tokens are reported with file and line.
    for (bad, msg) in [
        ("+E(0,1) frobnicate\n", "bad update"),
        ("+Q(0,1)\n", "unknown relation"),
        ("+E(0)\n", "arity"),
        ("+E(0,9)\n", "outside the domain"),
    ] {
        let upd = write_temp("incr-bad.upd", bad);
        let out = fmtk()
            .args([
                "datalog",
                s.to_str().unwrap(),
                prog.to_str().unwrap(),
                "--incremental",
                "--updates",
                upd.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(msg), "{bad:?}: {err}");
        assert!(err.contains("incr-bad.upd:1"), "{bad:?}: {err}");
    }
    // Budget exhaustion inside a poll is exit code 3, like batch mode.
    let upd = write_temp("incr-fuel.upd", "+E(1,2) poll\n");
    let out = fmtk()
        .args([
            "--fuel",
            "2",
            "datalog",
            s.to_str().unwrap(),
            prog.to_str().unwrap(),
            "--incremental",
            "--updates",
            upd.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn stdin_structure() {
    let mut child = fmtk()
        .args(["check", "-", "exists x y. E(x, y)"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"size: 2\nE(0,1)\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "true");
}

#[test]
fn errors_are_reported() {
    // Unknown command.
    let out = fmtk().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    // Bad structure file.
    let p = write_temp("bad.st", "E(0,1)\n"); // missing size
    let out = fmtk()
        .args(["check", p.to_str().unwrap(), "true"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // Open formula passed to check.
    let p2 = write_temp("ok.st", CYCLE4);
    let out = fmtk()
        .args(["check", p2.to_str().unwrap(), "E(x, y)"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("sentence required"));
}

/// Extracts the single-line JSON stats object from a command's stdout.
fn stats_json_line(stdout: &[u8]) -> String {
    let text = String::from_utf8_lossy(stdout);
    let line = text
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON stats line in {text:?}"))
        .to_owned();
    assert!(line.ends_with('}'), "{line}");
    assert!(!line.contains('\n'));
    line
}

#[test]
fn stats_json_game() {
    let p = write_temp("stats-c4.st", CYCLE4);
    let out = fmtk()
        .args([
            "game",
            p.to_str().unwrap(),
            p.to_str().unwrap(),
            "--stats",
            "json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stats_json_line(&out.stdout);
    assert!(line.contains("\"command\":\"game\""), "{line}");
    assert!(
        line.contains("\"games.solver.positions_expanded\":"),
        "{line}"
    );
    assert!(
        !line.contains("\"games.solver.positions_expanded\":0"),
        "{line}"
    );
    assert!(line.contains("\"games.play.games\":1"), "{line}");
}

#[test]
fn stats_json_eval() {
    let p = write_temp("stats-c4e.st", CYCLE4);
    let out = fmtk()
        .args(["eval", p.to_str().unwrap(), "E(x, y)", "--stats", "json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let line = stats_json_line(&out.stdout);
    assert!(line.contains("\"command\":\"eval\""), "{line}");
    assert!(line.contains("\"eval.relalg.operators\":1"), "{line}");
    assert!(line.contains("\"eval.relalg.op_rows\":{"), "{line}");
}

#[test]
fn stats_json_datalog() {
    let s = write_temp("stats-p3.st", "size: 3\nE(0,1)\nE(1,2)\n");
    let prog = write_temp(
        "stats-tc.dl",
        "tc(x,y) :- e(x,y). tc(x,z) :- e(x,y), tc(y,z).",
    );
    let out = fmtk()
        .args([
            "datalog",
            s.to_str().unwrap(),
            prog.to_str().unwrap(),
            "--stats",
            "json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let line = stats_json_line(&out.stdout);
    assert!(line.contains("\"command\":\"datalog\""), "{line}");
    assert!(line.contains("\"queries.datalog.rounds\":"), "{line}");
    assert!(line.contains("\"queries.datalog.delta_facts\":"), "{line}");
}

#[test]
fn stats_json_census() {
    let p = write_temp("stats-c4c.st", CYCLE4);
    let out = fmtk()
        .args(["census", p.to_str().unwrap(), "--stats", "json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let line = stats_json_line(&out.stdout);
    assert!(line.contains("\"command\":\"census\""), "{line}");
    assert!(line.contains("\"locality.balls_expanded\":4"), "{line}");
    assert!(line.contains("\"locality.censuses\":1"), "{line}");
}

#[test]
fn stats_text_mode() {
    let p = write_temp("stats-c4t.st", CYCLE4);
    // Bare `--stats` (no mode word) defaults to the text table; the flag
    // is position-independent.
    let out = fmtk()
        .args([
            "--stats",
            "check",
            p.to_str().unwrap(),
            "exists x y. E(x, y)",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("metric"), "{text}");
    assert!(text.contains("eval.naive.quantifier_nodes"), "{text}");
}

#[test]
fn stats_off_by_default() {
    let p = write_temp("stats-c4o.st", CYCLE4);
    let out = fmtk()
        .args(["check", p.to_str().unwrap(), "exists x y. E(x, y)"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("metric"), "{text}");
    assert!(!text.contains('{'), "{text}");
}

#[test]
fn unknown_flags_rejected() {
    let p = write_temp("stats-c4u.st", CYCLE4);
    for args in [
        vec!["game", "x", "y", "--stat"],
        vec!["check", "x", "t", "--verbose"],
        vec!["census", "x", "--radios", "2"],
    ] {
        let out = fmtk().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unrecognized flag"), "{args:?}: {err}");
    }
    // A flag with a missing value is also an error, not a silent skip.
    let out = fmtk()
        .args(["game", p.to_str().unwrap(), p.to_str().unwrap(), "--rounds"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--rounds requires a value"));
}

#[test]
fn sample_roundtrips() {
    let out = fmtk().args(["sample"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let p = write_temp("sample.st", &text);
    let out2 = fmtk()
        .args(["check", p.to_str().unwrap(), "exists x y. E(x, y)"])
        .output()
        .unwrap();
    assert_eq!(String::from_utf8_lossy(&out2.stdout).trim(), "true");
}

#[test]
fn conform_clean_hunt() {
    let out = fmtk()
        .args(["conform", "--seed", "42", "--cases", "60"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("all oracles agree"), "{text}");
    assert!(text.contains("games-orders"), "{text}");
}

#[test]
fn conform_replay_and_bad_oracle() {
    // A hand-minimal games-orders case: L_3 vs L_4 at n = 2 (both at
    // the 2^2 - 1 threshold, so the engines agree and replay is clean).
    let case = write_temp(
        "orders.case",
        "oracle: games-orders\nseed: 0\ncase: 0\nnote: t\nrel: </2\n\
         param: m = 3\nparam: k = 4\nparam: n = 2\n",
    );
    let out = fmtk()
        .args(["conform", "--replay", case.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("engines agree"));

    let out = fmtk()
        .args(["conform", "--oracle", "astrology", "--cases", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown oracle"));
}

/// A budget-fault case that replays clean on a correct build: every
/// engine either finishes or exhausts deterministically, and the
/// finishers agree. Setting [`fmt_conform::oracle::INJECT_ENV`] to
/// `budget-fault` makes the budgeted runs panic, so the same case then
/// *reproduces*.
const BUDGET_FAULT_CASE: &str = "oracle: budget-fault\nseed: 0\ncase: 0\nnote: t\nrel: E/2\n\
     param: kind = formula\nparam: fuel = 3\n\
     structure A:\nsize: 2\nE(0,1)\nend\nformula: exists x. E(x, x)\n";

#[test]
fn exit_code_0_on_success_and_1_on_errors() {
    let p = write_temp("exit-c4.st", CYCLE4);
    let out = fmtk()
        .args(["check", p.to_str().unwrap(), "exists x y. E(x, y)"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));

    // Generic failures — unknown flag, bad budget value, malformed case
    // file — are all exit code 1, never 2 or 3.
    let out = fmtk()
        .args(["check", p.to_str().unwrap(), "true", "--verbose"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let out = fmtk()
        .args(["--fuel", "lots", "check", p.to_str().unwrap(), "true"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --fuel"));
    let bad = write_temp("exit-bad.case", "no such key: x\n");
    let out = fmtk()
        .args(["conform", "--replay", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

/// Output that cannot be written — here stdout is a full device — is an
/// ordinary I/O failure: exit code 1 with a message, never a panic.
#[test]
#[cfg(target_os = "linux")]
fn exit_code_1_when_output_cannot_be_written() {
    let p = write_temp("exit-full.st", CYCLE4);
    let dl = write_temp(
        "exit-full.dl",
        "t(x, y) :- e(x, y). t(x, z) :- e(x, y), t(y, z).",
    );
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .unwrap();
    let out = fmtk()
        .args(["datalog", p.to_str().unwrap(), dl.to_str().unwrap()])
        .stdout(full)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("fmtk: writing output: "), "{stderr}");
}

#[test]
fn exit_code_2_when_replay_reproduces() {
    let case = write_temp("exit-bf.case", BUDGET_FAULT_CASE);
    // On a correct build the case replays clean.
    let out = fmtk()
        .args(["conform", "--replay", case.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // With the fault injected, the replay reproduces: exit code 2.
    let out = fmtk()
        .args(["conform", "--replay", case.to_str().unwrap()])
        .env(fmt_conform::oracle::INJECT_ENV, "budget-fault")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("disagreement reproduces"), "{err}");
}

/// Same exit-code contract for the magic oracle: a well-formed case
/// replays clean (0) on a correct build and reproduces (2) with
/// [`fmt_conform::oracle::INJECT_ENV`] set to `magic`; malformed case
/// files stay ordinary errors (1, covered above).
#[test]
fn exit_code_2_when_magic_replay_reproduces() {
    let case = write_temp(
        "exit-magic.case",
        "oracle: magic\nseed: 0\ncase: 0\nnote: t\nrel: E/2\n\
         param: fuel = 16\nparam: goal = t(0, gy)?\n\
         param: program = t(x, y) :- e(x, y). t(x, z) :- e(x, y), t(y, z).\n\
         structure A:\nsize: 3\nE(0,1)\nE(1,2)\nend\n",
    );
    let out = fmtk()
        .args(["conform", "--replay", case.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = fmtk()
        .args(["conform", "--replay", case.to_str().unwrap()])
        .env(fmt_conform::oracle::INJECT_ENV, "magic")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("disagreement reproduces"), "{err}");
}

#[test]
fn exit_code_2_when_hunt_finds_disagreements() {
    let out = fmtk()
        .args(["conform", "--oracle", "budget-fault", "--cases", "2"])
        .env(fmt_conform::oracle::INJECT_ENV, "budget-fault")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("DISAGREEMENT"));
}

#[test]
fn exit_code_3_when_budget_exhausts() {
    let p = write_temp("exit-c4b.st", CYCLE4);
    let prog = write_temp(
        "exit-tc.dl",
        "tc(x,y) :- e(x,y). tc(x,z) :- e(x,y), tc(y,z).",
    );
    let runs: &[&[&str]] = &[
        &["--fuel", "1", "check", "@S", "forall x. exists y. E(x, y)"],
        &["--timeout-ms", "0", "eval", "@S", "E(x, y)"],
        &["--fuel", "2", "datalog", "@S", "@P"],
        &["--fuel", "1", "game", "@S", "@S"],
        &["--fuel", "3", "conform", "--cases", "8"],
    ];
    for args in runs {
        let args: Vec<&str> = args
            .iter()
            .map(|a| match *a {
                "@S" => p.to_str().unwrap(),
                "@P" => prog.to_str().unwrap(),
                other => other,
            })
            .collect();
        let out = fmtk().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(3), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("fuel exhausted") || err.contains("deadline exceeded"),
            "{args:?}: {err}"
        );
    }
    // An ample budget changes nothing: same answer, exit 0.
    let out = fmtk()
        .args([
            "--fuel",
            "100000",
            "check",
            p.to_str().unwrap(),
            "forall x. exists y. E(x, y)",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "true");
}

const TC_PROG: &str = "t(x,y) :- e(x,y).\nt(x,z) :- t(x,y), e(y,z).\n";

#[test]
fn trace_flag_writes_valid_chrome_json() {
    let s = write_temp("trace-c4.st", CYCLE4);
    let prog = write_temp("trace-tc.dl", TC_PROG);
    let tracefile = std::env::temp_dir().join("fmtk-cli-tests/trace-out.json");
    let out = fmtk()
        .args([
            "--trace",
            tracefile.to_str().unwrap(),
            "datalog",
            s.to_str().unwrap(),
            prog.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&tracefile).unwrap();
    let json = fmt_core::obs::json::parse(&text).expect("chrome trace must be valid JSON");
    let events = json
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    assert!(names.contains(&"datalog.eval"), "{names:?}");
    assert!(names.contains(&"datalog.round"), "{names:?}");
    assert!(names.contains(&"datalog.rule"), "{names:?}");
}

#[test]
fn trace_folded_format_nests_phases() {
    let s = write_temp("folded-c4.st", CYCLE4);
    let prog = write_temp("folded-tc.dl", TC_PROG);
    let tracefile = std::env::temp_dir().join("fmtk-cli-tests/trace-out.folded");
    let out = fmtk()
        .args([
            "--trace",
            tracefile.to_str().unwrap(),
            "--trace-format",
            "folded",
            "datalog",
            s.to_str().unwrap(),
            prog.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&tracefile).unwrap();
    assert!(
        text.lines()
            .any(|l| l.starts_with("datalog.eval;datalog.round;datalog.join;datalog.rule ")),
        "{text}"
    );
    // Every line is "stack count".
    for line in text.lines() {
        let (_, count) = line.rsplit_once(' ').expect("stack + self-time");
        count.parse::<u64>().unwrap();
    }
}

#[test]
fn trace_format_without_trace_is_an_error() {
    let out = fmtk()
        .args(["--trace-format", "folded", "sample"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --trace"));
}

#[test]
fn datalog_explain_prints_per_rule_table() {
    let s = write_temp("explain-c4.st", CYCLE4);
    let prog = write_temp("explain-tc.dl", TC_PROG);
    let out = fmtk()
        .args([
            "datalog",
            s.to_str().unwrap(),
            prog.to_str().unwrap(),
            "--explain",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("per-rule profile"), "{text}");
    assert!(text.contains("t(x,y) :- e(x,y)"), "{text}");
    assert!(text.contains("t(x,z) :- t(x,y), e(y,z)"), "{text}");
    // The linear rule derives 4 base edges in round 1 only.
    let rule0 = text
        .lines()
        .find(|l| l.trim_start().starts_with("0 "))
        .unwrap();
    let cells: Vec<&str> = rule0.split_whitespace().collect();
    assert_eq!(cells[1], "4", "derived: {rule0}");
    // The storage columns from the columnar engine's rule spans: no
    // head tuple of arity 2 spills a stack buffer, and the linear rule
    // stages 4 two-column rows into the arenas.
    assert!(text.contains("probe_allocs"), "{text}");
    assert!(text.contains("arena_bytes"), "{text}");
    assert_eq!(cells[3], "0", "probe_allocs: {rule0}");
    assert_eq!(cells[4], "32", "arena_bytes: {rule0}");
}

#[test]
fn metrics_text_exposes_prometheus_counters() {
    let s = write_temp("prom-c4.st", CYCLE4);
    let prog = write_temp("prom-tc.dl", TC_PROG);
    let out = fmtk()
        .args([
            "--metrics-text",
            "datalog",
            s.to_str().unwrap(),
            prog.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("# TYPE queries_datalog_rounds counter"),
        "{text}"
    );
    assert!(
        text.contains("queries_datalog_delta_size_bucket{le=\"+Inf\"}"),
        "{text}"
    );
}

#[test]
fn trace_written_even_when_budget_exhausts() {
    let s = write_temp("exh-c4.st", CYCLE4);
    let prog = write_temp("exh-tc.dl", TC_PROG);
    let tracefile = std::env::temp_dir().join("fmtk-cli-tests/trace-exhausted.json");
    let out = fmtk()
        .args([
            "--fuel",
            "2",
            "--trace",
            tracefile.to_str().unwrap(),
            "datalog",
            s.to_str().unwrap(),
            prog.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let text = std::fs::read_to_string(&tracefile).unwrap();
    let json = fmt_core::obs::json::parse(&text).expect("trace of a failed run still parses");
    let events = json.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    // The budget.exhausted instant is in the journal.
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("budget.exhausted")),
        "{text}"
    );
}

#[test]
fn datalog_stratified_negation_end_to_end() {
    // `t` (stratum 0) feeds the anti-join in `nt` (stratum 1): the only
    // edge whose reversal is unreachable is (1, 2).
    let s = write_temp("strat.st", "size: 3\nE(0,1)\nE(1,0)\nE(1,2)\n");
    let prog = write_temp(
        "strat.dl",
        "t(x,y) :- e(x,y). t(x,z) :- e(x,y), t(y,z). nt(x,y) :- e(x,y), !t(y,x).",
    );
    for extra in [
        &[][..],
        &["--engine", "scan"][..],
        &["--engine", "indexed"][..],
        &["--threads", "3"][..],
    ] {
        let out = fmtk()
            .args(["datalog", s.to_str().unwrap(), prog.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("nt/2: 1 tuples"), "{extra:?}: {text}");
        assert!(text.contains("nt(1, 2)"), "{extra:?}: {text}");
    }
}

#[test]
fn datalog_rejects_bad_negation_with_rendered_diagnostics() {
    let s = write_temp("strat-bad.st", "size: 2\nE(0,1)\n");
    // Unstratifiable: `p` negated inside its own recursive component.
    let prog = write_temp("strat-d006.dl", "p(x) :- e(x, y), !p(y).");
    let out = fmtk()
        .args(["datalog", s.to_str().unwrap(), prog.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("D006"), "{err}");
    assert!(err.contains("not stratifiable"), "{err}");
    assert!(
        err.contains("strat-d006.dl"),
        "span points into the file: {err}"
    );
    // Unsafe: negated atom binds a variable no positive atom binds.
    let prog = write_temp(
        "strat-d007.dl",
        "q(x) :- e(x, x), !p(y, y). p(x, y) :- e(x, y).",
    );
    let out = fmtk()
        .args(["datalog", s.to_str().unwrap(), prog.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("D007"), "{err}");
    assert!(err.contains("unsafe negation"), "{err}");
}

#[test]
fn datalog_incremental_rejects_negation_with_i001() {
    let s = write_temp("strat-incr.st", "size: 3\nE(0,1)\n");
    let prog = write_temp(
        "strat-incr.dl",
        "t(x,y) :- e(x,y). nt(x,y) :- e(x,y), !t(y,x).",
    );
    let upd = write_temp("strat-incr.upd", "+E(1,2) poll\n");
    let out = fmtk()
        .args([
            "datalog",
            s.to_str().unwrap(),
            prog.to_str().unwrap(),
            "--incremental",
            "--updates",
            upd.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("I001"), "{err}");
    assert!(err.contains("does not support negation"), "{err}");
    // The same program runs fine in batch mode — the note's claim.
    assert!(err.contains("batch evaluation"), "{err}");
    let out = fmtk()
        .args(["datalog", s.to_str().unwrap(), prog.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
}

#[test]
fn lint_explain_prints_long_form_text() {
    let out = fmtk().args(["lint", "--explain", "d006"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("D006:"), "{text}");
    assert!(text.len() > 100, "explanation is long-form: {text}");

    let out = fmtk().args(["lint", "--explain", "Z999"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown lint code"), "{err}");
    assert!(err.contains("D006"), "lists registered codes: {err}");
}
