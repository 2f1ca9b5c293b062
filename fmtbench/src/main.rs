//! # fmtbench
//!
//! End-to-end and per-layer benchmark of the Datalog stack. One run:
//!
//! ```text
//! fmtbench --workload <sg_cli|point_query|incr_churn> --seed N --seconds S --trace 0|1
//! ```
//!
//! sets the workload up, which fixes a list of distinct operations drawn
//! from the seed, runs the list once as a checked warm-up, then runs it
//! pass after pass in a closed loop with one client for `S` seconds,
//! checking every answer outside the timed window. An operation's time
//! is the lowest of its repetitions: the machine the bounds were set on
//! alternates between fast phases and phases about 1.5 times slower,
//! and a repetition that lands in a slow phase measures the neighbours,
//! not the program. The timings are the median of those per-operation
//! times and the throughput of one pass at them; with 64 distinct
//! operations no higher percentile has ten operations beyond it, so the
//! tail is reported only on the summary line, over every execution.
//! Set-up is timed in [`SETUP_SAMPLES`] samples spread over the run,
//! each repeating set-up back to back for at least [`SETUP_SAMPLE`];
//! `setup_s` is the lowest sample's time per set-up. The last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. In a traced run
//! every second pass is traced, so `trace.overhead` compares each
//! operation's best traced time with its best untraced time.

mod gen;
mod stats;
mod trace;
mod workloads;

use stats::{median, quantile, PeakRss};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Parent, Trace};
use workloads::{Ctx, Workload};

/// Set-up samples per run, spread evenly over the run.
const SETUP_SAMPLES: usize = 7;
/// Least time one set-up sample spends setting up, back to back, so a
/// short set-up is not timed from a single call.
const SETUP_SAMPLE: Duration = Duration::from_millis(200);

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_ms.p50", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("cli.self_ms", "ms"),
    ("cli.output_bytes", "bytes"),
    ("structures.parse_ms", "ms"),
    ("queries.parse_ms", "ms"),
    ("queries.eval_ms", "ms"),
    ("queries.eval.derivations", "count"),
    ("queries.eval.iterations", "count"),
    ("queries.eval.output_tuples", "count"),
    ("queries.eval.dup_ratio", "ratio"),
    ("queries.eval_ms.t1", "ms"),
    ("queries.eval.speedup_t2", "ratio"),
    ("queries.store.rehashes", "count"),
    ("queries.store.probe_allocs", "count"),
    ("queries.store.tombstones", "count"),
    ("queries.store.compactions", "count"),
    ("queries.index.build_tuples", "count"),
    ("queries.datalog.parallel_jobs", "count"),
    ("queries.magic.rewrite_ms", "ms"),
    ("queries.magic.prepare_ms", "ms"),
    ("queries.magic.answers_ms", "ms"),
    ("queries.magic.prepared_tuples", "count"),
    ("queries.magic.answers_per_derivation", "ratio"),
    ("queries.incremental.update_ms", "ms"),
    ("queries.incremental.poll_ms", "ms"),
    ("queries.incremental.read_ms", "ms"),
    ("queries.incremental.setup_poll_ms", "ms"),
    ("queries.incremental.derived", "count"),
    ("queries.incremental.overdeleted", "count"),
    ("queries.incremental.rederived", "count"),
    ("queries.incremental.rounds", "count"),
    ("queries.incremental.rebuilds", "count"),
    ("queries.incremental.rederive_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Program counters read through `fmt_obs::snapshot()`, per traced op.
const COUNTERS: [&str; 6] = [
    "queries.store.rehashes",
    "queries.store.probe_allocs",
    "queries.store.tombstones",
    "queries.store.compactions",
    "queries.index.build_tuples",
    "queries.datalog.parallel_jobs",
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fmtbench: {e}");
            return ExitCode::from(2);
        }
    };
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    let fmtk = PathBuf::from(target).join("release/fmtk");
    let work = PathBuf::from(".bench_work").join(std::process::id().to_string());
    let report = run(&args, &fmtk, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    // A wrong answer is reported in the result (`correct`, `failed`),
    // not by the exit code.
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

#[derive(Debug)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Builds set-up number `i` of the run's workload.
fn build(args: &Args, fmtk: &Path, work: &Path, i: u32, tr: &mut Trace) -> Box<dyn Workload> {
    let ctx = Ctx {
        seed: args.seed,
        work: work.join(i.to_string()),
        fmtk: fmtk.to_owned(),
    };
    tr.enter(Parent::Setup(i));
    workloads::setup(&args.workload, &ctx, tr).expect("workload name was validated")
}

fn run(args: &Args, fmtk: &Path, work: &Path) -> Report {
    let mut tr = Trace::new();
    tr.on = args.trace;
    let mut w = build(args, fmtk, work, 0, &mut tr);
    let mut built = 1;
    assert!(w.audit(), "set-up state matches the harness's reference");
    // Times one set-up sample: back-to-back set-ups until SETUP_SAMPLE
    // has passed, each instance dropped before the next is built.
    let mut setup_sample = |tr: &mut Trace| -> f64 {
        tr.on = args.trace;
        let (mut total, mut count) = (Duration::ZERO, 0u32);
        while count == 0 || total < SETUP_SAMPLE {
            let t = Instant::now();
            let extra = build(args, fmtk, work, built, tr);
            total += t.elapsed();
            drop(extra);
            built += 1;
            count += 1;
        }
        total.as_secs_f64() / f64::from(count)
    };

    let n = w.ops();
    let (mut attempted, mut failed) = (0u64, 0u64);
    tr.on = false;
    for i in 0..n {
        attempted += 1;
        failed += u64::from(!w.op(i, &mut tr).ok);
    }
    failed += u64::from(!w.audit());

    fmt_obs::reset();
    // best[traced][i]: operation i's lowest time, in ms.
    let mut best = [vec![f64::INFINITY; n], vec![f64::INFINITY; n]];
    let mut plain_ms = Vec::new();
    let mut traced_ops = Vec::new();
    let mut setups = Vec::new();
    let mut peak = PeakRss::default();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut k = 0u64;
    peak.resume();
    'run: for pass in 0u64.. {
        let traced = args.trace && pass % 2 == 1;
        for (i, b) in best[usize::from(traced)].iter_mut().enumerate() {
            if start.elapsed() >= budget {
                break 'run;
            }
            let due = budget.mul_f64((setups.len() as f64 + 0.5) / SETUP_SAMPLES as f64);
            if setups.len() < SETUP_SAMPLES && start.elapsed() >= due {
                peak.pause();
                setups.push(setup_sample(&mut tr));
                peak.resume();
            }
            tr.on = traced;
            tr.enter(Parent::Op(k));
            if traced {
                fmt_obs::enable();
            }
            let op = w.op(i, &mut tr);
            let ms = op.wall.as_secs_f64() * 1e3;
            if traced {
                fmt_obs::disable();
                traced_ops.push((k, op.wall));
            } else {
                plain_ms.push(ms);
            }
            *b = b.min(ms);
            attempted += 1;
            failed += u64::from(!op.ok);
            k += 1;
        }
        peak.pause();
        failed += u64::from(!w.audit());
        peak.resume();
    }
    peak.pause();
    while setups.len() < SETUP_SAMPLES {
        setups.push(setup_sample(&mut tr));
    }
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let [plain_best, traced_best] = &best;
    let best_ms: Vec<f64> = plain_best
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .collect();

    eprintln!(
        "fmtbench {}: seed {} | {} ops ({} distinct, {} traced), {} failed | every op: p50 {:.3} \
         p90 {:.3} p99 {:.3} ms | best of each: p50 {:.3} p90 {:.3} ms | setup {:.4} s",
        args.workload,
        args.seed,
        attempted,
        n,
        traced_ops.len(),
        failed,
        quantile(&plain_ms, 0.5),
        quantile(&plain_ms, 0.9),
        quantile(&plain_ms, 0.99),
        median(&best_ms),
        quantile(&best_ms, 0.9),
        setup_s,
    );

    let metrics = if args.trace {
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (layer, v) in tr.layer_ms() {
            if let Some((name, _)) = PER_LAYER
                .iter()
                .find(|(n, _)| n.strip_suffix("_ms") == Some(layer))
            {
                m.insert(name, v);
            }
        }
        let snap = fmt_obs::snapshot();
        let traced_n = traced_ops.len().max(1) as f64;
        for c in COUNTERS {
            m.insert(c, snap.counter(c).unwrap_or(0) as f64 / traced_n);
        }
        let covered: Duration = traced_ops.iter().map(|&(k, _)| tr.op_covered(k)).sum();
        let total: Duration = traced_ops.iter().map(|&(_, wall)| wall).sum();
        m.insert(
            "trace.coverage",
            covered.as_secs_f64() / total.as_secs_f64().max(f64::MIN_POSITIVE),
        );
        let both: Vec<(f64, f64)> = plain_best
            .iter()
            .zip(traced_best)
            .map(|(&p, &t)| (p, t))
            .filter(|(p, t)| p.is_finite() && t.is_finite())
            .collect();
        let sum = |f: fn(&(f64, f64)) -> f64| both.iter().map(f).sum::<f64>();
        m.insert("trace.overhead", sum(|b| b.1) / sum(|b| b.0));
        m.extend(w.extras());
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, m.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let values = [
            median(&best_ms),
            best_ms.len() as f64 / best_ms.iter().sum::<f64>() * 1e3,
            setup_s,
            w.peak_rss_mb(peak.mb()),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmt_obs::json::{self, Json};

    /// The metric tables here are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let src = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&src).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect("string").to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
        for w in doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
        {
            let name = w.get("name").and_then(Json::as_str).expect("name");
            assert!(workloads::NAMES.contains(&name), "unknown workload {name}");
        }
    }
}
