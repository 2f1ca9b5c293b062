//! Cross-engine tests of the Datalog evaluator: the naive reference,
//! the indexed/parallel semi-naive engine (at several thread counts),
//! and the written-order scan engine must compute identical fixpoints —
//! on the canned programs and on random programs over random graphs.
//!
//! Also pins the exact `iterations`/`derivations` of the canonical
//! workloads, so a change in join planning or delta handling that
//! silently alters the amount of work (not just the answers) fails
//! loudly.

use fmt_core::queries::datalog::Program;
use fmt_core::queries::incremental::DatalogRuntime;
use fmt_core::structures::{builders, Signature, Structure, StructureBuilder};
use proptest::prelude::*;

fn graph_sig() -> std::sync::Arc<Signature> {
    Signature::graph()
}

/// A random graph with up to 5 vertices.
fn arb_graph() -> impl Strategy<Value = Structure> {
    (0u32..5, proptest::collection::vec(any::<bool>(), 25)).prop_map(|(n, bits)| {
        let sig = graph_sig();
        let e = sig.relation("E").unwrap();
        let mut b = StructureBuilder::new(sig, n);
        let mut k = 0usize;
        for u in 0..n {
            for v in 0..n {
                if bits[k % bits.len()] {
                    b.add(e, &[u, v]).unwrap();
                }
                k += 1;
            }
        }
        b.build().unwrap()
    })
}

const VARS: [&str; 4] = ["x", "y", "z", "w"];

/// A random atom over `e/2`, `p/2`, or `q/1` with variables from a
/// 4-name pool.
fn arb_atom() -> impl Strategy<Value = String> {
    (0usize..3, 0usize..4, 0usize..4).prop_map(|(pred, a, b)| match pred {
        0 => format!("e({}, {})", VARS[a], VARS[b]),
        1 => format!("p({}, {})", VARS[a], VARS[b]),
        _ => format!("q({})", VARS[a]),
    })
}

/// A random well-formed program: fixed base rules anchor `p/2` and
/// `q/1` (so every body predicate is defined), followed by up to four
/// random — possibly mutually recursive — rules.
fn arb_program() -> impl Strategy<Value = String> {
    // The vendored proptest's `collection::vec` is fixed-length, so
    // variable-length lists are a fixed pool plus a prefix length.
    let rule = (
        (0usize..2, 0usize..4, 0usize..4),
        (0usize..3, proptest::collection::vec(arb_atom(), 2)),
    )
        .prop_map(|((head, a, b), (nbody, body))| {
            let head = match head {
                0 => format!("p({}, {})", VARS[a], VARS[b]),
                _ => format!("q({})", VARS[a]),
            };
            if nbody == 0 {
                format!("{head}.")
            } else {
                format!("{head} :- {}.", body[..nbody].join(", "))
            }
        });
    (0usize..5, proptest::collection::vec(rule, 4)).prop_map(|(nextra, extra)| {
        let mut src = String::from("p(x, y) :- e(x, y). q(x) :- e(x, x). ");
        for r in &extra[..nextra.min(extra.len())] {
            src.push_str(r);
            src.push(' ');
        }
        src
    })
}

fn assert_same_fixpoint(prog: &Program, s: &Structure) {
    let naive = prog.eval_naive(s);
    let scan = prog.eval_seminaive_scan(s);
    for threads in 1..=3 {
        let indexed = prog.eval_seminaive_with(s, threads);
        for i in 0..prog.num_idbs() {
            assert_eq!(
                naive.relation(i),
                indexed.relation(i),
                "IDB {i}, {threads} threads"
            );
            assert_eq!(scan.relation(i), indexed.relation(i), "IDB {i} vs scan");
        }
        assert_eq!(scan.iterations, indexed.iterations);
        assert_eq!(scan.derivations, indexed.derivations);
        assert_eq!(scan.delta_history, indexed.delta_history);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All engines and thread counts agree on random programs over
    /// random graphs — answers, iterations, derivations, and per-round
    /// delta sizes.
    #[test]
    fn engines_agree_on_random_programs(src in arb_program(), s in arb_graph()) {
        let prog = Program::parse(s.signature(), &src)
            .unwrap_or_else(|e| panic!("generated program must parse: {e}\n{src}"));
        assert_same_fixpoint(&prog, &s);
    }
}

#[test]
fn engines_agree_on_canned_programs() {
    let tc = Program::transitive_closure();
    let sg = Program::same_generation();
    for s in [
        builders::directed_path(9),
        builders::full_binary_tree(4),
        builders::directed_cycle(7),
        builders::grid(3, 4),
        builders::empty_graph(5),
    ] {
        assert_same_fixpoint(&tc, &s);
        assert_same_fixpoint(&sg, &s);
    }
}

/// Adversarial corner cases hunted by `fmtk conform --oracle
/// datalog-engines`, pinned here as ordinary regressions: empty EDBs,
/// size-0 domains, nullary (0-arity) atoms in heads and bodies,
/// variable-headed facts, and self-joins — each against every engine
/// and thread count.
#[test]
fn engines_agree_on_adversarial_inputs() {
    let programs = [
        // Nullary IDB chain: existential trigger, then propagation.
        "hit :- e(x, y). flag :- hit. p(x, y) :- e(x, y), hit.",
        // Nullary fact (paren form) joined with itself.
        "hit(). both :- hit, hit.",
        // Self-joins and a triangle detector over derived relations.
        "p(x, y) :- e(x, y). q(x) :- p(x, x). p(x, z) :- p(x, y), p(y, z), q(x).",
        "q(x) :- e(x, y), e(y, z), e(z, x).",
        // Variable-headed fact (grounds over the whole domain) plus a
        // nullary fact feeding a nullary rule.
        "p(x, x). a. b :- a. q(y) :- p(y, y), b.",
    ];
    let structures = [
        builders::empty_graph(0), // empty domain
        builders::empty_graph(4), // empty EDB, nonempty domain
        builders::directed_cycle(3),
        builders::complete_graph(3),
    ];
    for src in &programs {
        for s in &structures {
            let prog = Program::parse(s.signature(), src)
                .unwrap_or_else(|e| panic!("program must parse: {e}\n{src}"));
            assert_same_fixpoint(&prog, s);
        }
    }
}

/// Samples recorded so far on `queries.datalog.shard_imbalance`, one
/// per job a round splits across workers.
fn shard_samples() -> u64 {
    (fmt_obs::snapshot().histogram("queries.datalog.shard_imbalance")).map_or(0, |h| h.count)
}

/// The sharded round. Rounds below 512 driver rows run inline, so the
/// small inputs above (and every `fmtk conform` case) never split a
/// job across workers. Same-generation over the depth-6 binary tree
/// does: its deepest rounds drive thousands of pair rows. Every thread
/// count must reproduce the one-thread fixpoint and work counters, and
/// the incremental runtime's rebuild poll, which runs the same rounds,
/// must too.
#[test]
fn sharded_rounds_agree_with_inline_rounds() {
    // This binary's only metrics user: samples are only ever added, so
    // a before/after difference is this test's own.
    fmt_obs::enable();
    let sg = Program::same_generation();
    let s = builders::full_binary_tree(6);
    let one = sg.eval_seminaive_with(&s, 1);
    for threads in [2, 3] {
        let before = shard_samples();
        let out = sg.eval_seminaive_with(&s, threads);
        if threads == 3 {
            assert!(shard_samples() > before, "3 threads never sharded a round");
        }
        assert_eq!(out.relation(0), one.relation(0), "{threads} threads");
        assert_eq!(out.iterations, one.iterations, "{threads} threads");
        assert_eq!(out.derivations, one.derivations, "{threads} threads");
        assert_eq!(out.delta_history, one.delta_history, "{threads} threads");
    }

    let mut rt1 = DatalogRuntime::from_structure(sg.clone(), &s).unwrap();
    let mut rt3 = DatalogRuntime::from_structure(sg, &s).unwrap();
    rt3.set_threads(3);
    let poll1 = rt1.poll();
    let before = shard_samples();
    let poll3 = rt3.poll();
    assert!(
        shard_samples() > before,
        "the 3-thread rebuild never sharded a round"
    );
    assert!(poll1.rebuilt);
    assert_eq!(poll3, poll1);
    assert_eq!(rt3.query(0), rt1.query(0));
    assert_eq!(rt1.query(0), one.relation(0));
}

#[test]
fn pinned_work_counts() {
    // TC over the directed path 0 → ⋯ → 5: the 5 edges seed Δ, and each
    // round extends every path by one edge — Δ shrinks 5, 4, 3, 2, 1, 0.
    let tc = Program::transitive_closure();
    let out = tc.eval_seminaive(&builders::directed_path(6));
    assert_eq!(out.iterations, 6);
    assert_eq!(out.derivations, 15);
    assert_eq!(out.delta_history, vec![5, 4, 3, 2, 1, 0]);

    // Same-generation over the full binary tree of depth 3 (15 nodes):
    // the diagonal seeds Δ with 15 facts, then each round lifts pairs
    // one level down both branches.
    let sg = Program::same_generation();
    let out = sg.eval_seminaive(&builders::full_binary_tree(3));
    assert_eq!(out.iterations, 5);
    assert_eq!(out.derivations, 99);
    assert_eq!(out.delta_history, vec![15, 14, 24, 32, 0]);

    // TC over the 4×4 grid: longest path has 6 edges, so 7 rounds.
    let out = tc.eval_seminaive(&builders::grid(4, 4));
    assert_eq!(out.iterations, 7);
    assert_eq!(out.derivations, 816);
    assert_eq!(out.delta_history, vec![48, 84, 64, 40, 16, 4, 0]);
}
