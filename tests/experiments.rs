//! The experiment suite: one test per experiment of DESIGN.md §5,
//! asserting the paper's claims end to end across crates (fast
//! variants; the examples print the full tables).

use fmt_core::eval::bounded_degree::{BoundedDegreeEvaluator, HanfParameters};
use fmt_core::eval::qbf::{self, Qbf};
use fmt_core::eval::{circuit, naive, relalg};
use fmt_core::games::closed_form;
use fmt_core::games::solver::{rank, EfSolver};
use fmt_core::locality::hanf;
use fmt_core::logic::{library, parser::parse_formula};
use fmt_core::proofs::{
    BndpCertificate, GaifmanCertificate, GameFamilyCertificate, HanfCertificate,
};
use fmt_core::queries::datalog::Program;
use fmt_core::queries::{graph, reductions};
use fmt_core::structures::{builders, Elem, Signature, Structure};
use fmt_core::zeroone;
use std::collections::HashSet;

/// E1 — combined complexity: work is exponential in quantifier rank,
/// polynomial in data size (operation counts of the naive evaluator).
#[test]
fn e1_combined_complexity_shape() {
    let sig = Signature::graph();
    let e = sig.relation("E").unwrap();
    let ops = |k: u32, n: u32| {
        let f = library::k_clique(e, k);
        let s = builders::complete_graph(n);
        let mut ev = naive::NaiveEvaluator::new(&s);
        let mut env = naive::Env::for_formula(&f);
        ev.eval(&f, &mut env);
        ev.ops
    };
    // Fixing n, each +1 in k multiplies work by ≈ n (here clique search
    // succeeds immediately on complete graphs, so probe the failing
    // side with an empty graph via k-path on empty graphs instead).
    let ops_path = |k: u32, n: u32| {
        let f = library::k_path(e, k);
        let s = builders::empty_graph(n);
        let mut ev = naive::NaiveEvaluator::new(&s);
        let mut env = naive::Env::for_formula(&f);
        ev.eval(&f, &mut env);
        ev.ops
    };
    // k-path on an empty graph fails after scanning x0, x1: O(n^2)
    // regardless of k — so use nested ∀ instead for the k-blowup.
    let deep = |k: u32, n: u32| {
        let mut f =
            fmt_core::logic::Formula::atom(e, &[fmt_core::logic::Var(0), fmt_core::logic::Var(0)])
                .not();
        for i in (0..k).rev() {
            f = fmt_core::logic::Formula::forall(fmt_core::logic::Var(i), f);
        }
        // rebind innermost var usage
        let s = builders::empty_graph(n);
        let mut ev = naive::NaiveEvaluator::new(&s);
        let mut env = naive::Env::for_formula(&f);
        ev.eval(&f, &mut env);
        ev.ops
    };
    // Data-polynomial: doubling n with fixed k multiplies work ≈ 2^k.
    let r1 = deep(2, 16) as f64 / deep(2, 8) as f64;
    let r2 = deep(3, 16) as f64 / deep(3, 8) as f64;
    assert!(r1 > 3.0 && r1 < 5.0, "quadratic ratio ≈ 4, got {r1}");
    assert!(r2 > 6.0 && r2 < 10.5, "cubic ratio ≈ 8, got {r2}");
    // Query-exponential: +1 rank multiplies work by ≈ n.
    let q = deep(3, 16) as f64 / deep(2, 16) as f64;
    assert!(
        q > 10.0,
        "rank bump should multiply work by ≈ n = 16, got {q}"
    );
    let _ = (ops, ops_path);
}

/// E2 — AC⁰: circuit depth constant in n, size polynomial; outputs
/// agree with direct evaluation.
#[test]
fn e2_ac0_circuits() {
    let sig = Signature::graph();
    let f = parse_formula(&sig, "forall x. exists y. E(x, y) & !E(y, x)").unwrap();
    let depths: Vec<usize> = [2u32, 5, 9, 17]
        .iter()
        .map(|&n| circuit::compile(&sig, &f, n).0.depth())
        .collect();
    assert!(depths.windows(2).all(|w| w[0] == w[1]), "{depths:?}");
    let sizes: Vec<usize> = [4u32, 8, 16]
        .iter()
        .map(|&n| circuit::compile(&sig, &f, n).0.size())
        .collect();
    // Quadratic growth: ratio ≈ 4 when n doubles.
    assert!(sizes[1] as f64 / (sizes[0] as f64) > 3.0);
    assert!(sizes[2] as f64 / (sizes[1] as f64) > 3.0);
    assert!(sizes[2] as f64 / (sizes[1] as f64) < 5.0);
    // Agreement on a structure suite.
    let (c, layout) = circuit::compile(&sig, &f, 5);
    for s in [
        builders::directed_cycle(5),
        builders::complete_graph(5),
        builders::empty_graph(5),
        builders::directed_path(5),
    ] {
        assert_eq!(c.eval(&layout.encode(&s)), naive::check_sentence(&s, &f));
    }
}

/// E3 — Theorem 3.1: L_m ≡_n L_k iff m = k or both ≥ 2^n − 1, checked
/// by the game solver; the paper's sufficient condition follows.
#[test]
fn e3_theorem_3_1() {
    for m in 1..=9u32 {
        for k in 1..=9u32 {
            for n in 1..=3u32 {
                let a = builders::linear_order(m);
                let b = builders::linear_order(k);
                assert_eq!(
                    EfSolver::new(&a, &b).duplicator_wins(n),
                    closed_form::orders_equivalent(m as u64, k as u64, n),
                    "L_{m} vs L_{k} at {n}"
                );
            }
        }
    }
    // Paper's instance for EVEN: L_{2^n} ≡_n L_{2^n + 1}.
    for n in 1..=4u32 {
        let m = 1u32 << n;
        assert_eq!(
            rank(
                &builders::linear_order(m),
                &builders::linear_order(m + 1),
                n
            ),
            n
        );
    }
}

/// E4 — EVEN over sets: certificate to depth 5.
#[test]
fn e4_even_sets_certificate() {
    let cert = GameFamilyCertificate::build(
        "EVEN(∅)",
        |n| (builders::set(2 * n), builders::set(2 * n + 1)),
        |s| s.size() % 2 == 0,
        5,
    )
    .unwrap();
    assert!(cert.check_with(|s| s.size() % 2 == 0));
}

/// E5 — Corollary 3.2 via the reduction tricks.
#[test]
fn e5_reduction_tricks() {
    assert!(reductions::verify_conn_correspondence(3, 30).is_ok());
    assert!(reductions::verify_acycl_correspondence(3, 30).is_ok());
    let suite = vec![
        builders::undirected_cycle(6),
        builders::copies(&builders::undirected_cycle(3), 3),
        builders::full_binary_tree(3),
        builders::empty_graph(4),
    ];
    assert_eq!(reductions::verify_conn_via_tc(&suite), Ok(4));
}

/// E6 — BNDP violation of transitive closure on successor chains.
#[test]
fn e6_tc_bndp() {
    let family: Vec<Structure> = (4..=11).map(builders::successor_chain).collect();
    let in_rel = family[0].signature().relation("S").unwrap();
    let out_rel = Signature::graph().relation("E").unwrap();
    let cert =
        BndpCertificate::build("TC", family, in_rel, out_rel, graph::transitive_closure).unwrap();
    assert!(cert.check_with(graph::transitive_closure));
    // The paper's numbers: degs(S_n) ⊆ {0,1}, |degs(TC(S_n))| = n.
    for o in &cert.profile {
        assert!(o.input_max_degree <= 1);
        assert_eq!(o.output_spectrum_size as u32, o.input_size);
    }
}

/// E7 — same-generation on full binary trees realizes degrees 2^0..2^d.
#[test]
fn e7_same_generation_bndp() {
    let prog = Program::same_generation();
    for d in 1..=5u32 {
        let s = builders::full_binary_tree(d);
        let out = prog.eval_seminaive(&s);
        let sg = prog.idb("sg").unwrap();
        // Degrees realized: out-degree of a node at level i is 2^i.
        let mut degs: HashSet<usize> = HashSet::new();
        let mut counts = vec![0usize; s.size() as usize];
        for t in out.relation(sg) {
            counts[t[0] as usize] += 1;
        }
        for c in counts {
            degs.insert(c);
        }
        let expected: HashSet<usize> = (0..=d).map(|i| 1usize << i).collect();
        assert_eq!(degs, expected, "depth {d}");
    }
}

/// E8 — Gaifman-locality violation of TC at every radius.
#[test]
fn e8_tc_gaifman() {
    let tc_pairs = |s: &Structure| -> HashSet<Vec<Elem>> {
        let t = graph::transitive_closure(s);
        let e = t.signature().relation("E").unwrap();
        t.rel(e).iter().map(<[u32]>::to_vec).collect()
    };
    let cert =
        GaifmanCertificate::build("TC", 2, |r| builders::directed_path(6 * r + 8), tc_pairs, 3)
            .unwrap();
    assert!(cert.check());
    // The discovered pairs have the paper's (a,b)/(b,a) structure: the
    // in-tuple is ordered along the chain, the out-tuple against it.
    for (_, out, v) in &cert.rows {
        assert!(out.contains(&v.tuple_in));
        assert!(!out.contains(&v.tuple_out));
    }
}

/// E9 — Hanf-locality violations: connectivity (cycles) and tree test.
#[test]
fn e9_hanf_violations() {
    let conn = HanfCertificate::build(
        "connectivity",
        |r| {
            let m = 2 * r + 2;
            (
                builders::copies(&builders::undirected_cycle(m), 2),
                builders::undirected_cycle(2 * m),
            )
        },
        graph::is_connected,
        4,
    )
    .unwrap();
    assert!(conn.check());
    let tree = HanfCertificate::build(
        "tree",
        |r| {
            let m = 2 * r + 2;
            (
                builders::undirected_path(2 * m),
                builders::undirected_path(m)
                    .disjoint_union(&builders::undirected_cycle(m))
                    .unwrap(),
            )
        },
        graph::is_tree,
        3,
    )
    .unwrap();
    assert!(tree.check());
    // The bound m > 2r + 1 is sharp: at m = 2r + 1 the equivalence
    // fails.
    let r = 3u32;
    let m = 2 * r + 1;
    assert!(!hanf::hanf_equivalent(
        &builders::copies(&builders::undirected_cycle(m), 2),
        &builders::undirected_cycle(2 * m),
        r
    ));
}

/// E10 — Theorem 3.9's hierarchy, empirically: every query defeated by
/// Hanf is defeated by Gaifman-style reasoning, and BNDP is the
/// weakest.
#[test]
fn e10_hierarchy_consistency() {
    // TC fails BNDP (weakest) — so by Thm 3.9 it must also fail
    // Gaifman; we verified both independently (E6, E8).
    // Connectivity is Boolean: BNDP/Gaifman don't apply (arity 0), Hanf
    // catches it (E9). Here: a query that *is* FO-definable must pass
    // all checkers on a probe suite.
    let sig = Signature::graph();
    let q = fmt_core::logic::Query::parse(&sig, "exists z. E(x, z) & E(z, y)").unwrap();
    for s in [
        builders::undirected_cycle(10),
        builders::undirected_path(11),
        builders::full_binary_tree(3),
    ] {
        let out: HashSet<Vec<Elem>> = relalg::answers(&s, &q).into_iter().collect();
        // FO-definable ⇒ Gaifman-local at radius qr (here 2 suffices).
        assert!(fmt_core::locality::gaifman_local::is_local_at(
            &s, &out, 2, 2
        ));
    }
}

/// E11 — bounded-degree linear-time evaluation agrees with the
/// reference evaluators across a mixed family.
#[test]
fn e11_bounded_degree_correctness() {
    let sig = Signature::graph();
    let f = parse_formula(
        &sig,
        "forall x. exists y. E(x, y) & (exists z. E(y, z) & !(z = x))",
    )
    .unwrap();
    let params = HanfParameters {
        radius: 2,
        threshold: 8,
    };
    let mut ev = BoundedDegreeEvaluator::with_parameters(sig.clone(), f.clone(), 4, params);
    let mut family: Vec<Structure> = vec![
        builders::undirected_cycle(5),
        builders::undirected_cycle(40),
        builders::undirected_path(17),
        builders::grid(4, 5),
        builders::copies(&builders::undirected_cycle(7), 2),
        builders::empty_graph(6),
    ];
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..3 {
        family.push(builders::random_bounded_degree_graph(20, 3, &mut rng));
    }
    for s in &family {
        assert_eq!(
            ev.evaluate(s),
            naive::check_sentence(s, &f),
            "n = {}",
            s.size()
        );
    }
    assert!(ev.stats.table_hits > 0, "some census reuse expected");
}

/// E12 — Gaifman normal form: basic local sentence vs direct FO.
#[test]
fn e12_basic_local_sentences() {
    let sig = Signature::graph();
    let has_two_neighbors =
        parse_formula(&sig, "x = x & exists y z. !(y = z) & E(x,y) & E(x,z)").unwrap();
    let b = fmt_core::eval::local::BasicLocalSentence::new(2, 1, has_two_neighbors).unwrap();
    // Direct FO: two branch vertices at distance > 2.
    let direct = parse_formula(
        &sig,
        "exists a b. !(a = b) & !(E(a,b) | E(b,a)) \
         & !(exists m. (E(a,m) | E(m,a)) & (E(m,b) | E(b,m))) \
         & (exists y z. !(y = z) & E(a,y) & E(a,z)) \
         & (exists y z. !(y = z) & E(b,y) & E(b,z))",
    )
    .unwrap();
    for s in [
        builders::undirected_cycle(12),
        builders::undirected_cycle(5),
        builders::undirected_path(8),
        builders::full_binary_tree(2),
        builders::empty_graph(5),
    ] {
        assert_eq!(
            b.evaluate(&s),
            relalg::check_sentence(&s, &direct),
            "n = {}",
            s.size()
        );
    }
}

/// E13 — 0-1 law: decided limits match the paper and the sampled
/// trends; EVEN oscillates.
#[test]
fn e13_zero_one_law() {
    let sig = Signature::graph();
    let e = sig.relation("E").unwrap();
    assert!(!zeroone::decide_mu(
        &sig,
        &library::q1_all_pairs_adjacent(e)
    ));
    assert!(zeroone::decide_mu(
        &sig,
        &library::q2_distinguishing_neighbor(e)
    ));
    // μ_n(Q1) exact at tiny n decreases fast.
    let q1 = library::q1_all_pairs_adjacent(e);
    let m2 = zeroone::mu_exact(&sig, 2, &q1);
    let m3 = zeroone::mu_exact(&sig, 3, &q1);
    let m4 = zeroone::mu_exact(&sig, 4, &q1);
    assert!(m2 > m3 && m3 > m4);
    assert!((m2 - 0.25).abs() < 1e-12);
    // EVEN's "μ_n" is the parity function — no limit.
    assert!(graph::even(&builders::set(4)) != graph::even(&builders::set(5)));
}

/// E14 — extension axioms: probability grows to ≈ 1, witnesses certify.
#[test]
fn e14_extension_axioms() {
    let sig = Signature::graph();
    let p_small = zeroone::extension::extension_axiom_probability(&sig, 8, 0, 50, 3);
    let p_large = zeroone::extension::extension_axiom_probability(&sig, 48, 0, 50, 3);
    assert!(p_large >= p_small);
    assert!(p_large > 0.95, "{p_large}");
    let w = zeroone::extension::find_generic_witness(&sig, 1, 4).unwrap();
    assert!(w.check());
}

/// E15 — PSPACE-hardness: the QBF reduction agrees with the QBF solver.
#[test]
fn e15_qbf_reduction() {
    let v = |i: u32| Qbf::Var(i);
    let cases = vec![
        Qbf::Forall(0, Box::new(Qbf::Or(vec![v(0), v(0).not()]))),
        Qbf::Exists(0, Box::new(Qbf::And(vec![v(0), v(0).not()]))),
        Qbf::Forall(
            0,
            Box::new(Qbf::Exists(
                1,
                Box::new(Qbf::And(vec![
                    Qbf::Or(vec![v(0), v(1)]),
                    Qbf::Or(vec![v(0).not(), v(1).not()]),
                ])),
            )),
        ),
    ];
    for q in cases {
        let (s, f) = qbf::to_model_checking(&q);
        assert_eq!(qbf::solve(&q), naive::check_sentence(&s, &f));
    }
}

/// E16 — solver ablation: every configuration computes the same game
/// values, and on `L_10` vs `L_11` at n = 3 each optimization's effect
/// is pinned as the positions the solver expands.
#[test]
fn e16_solver_ablation_agreement() {
    use fmt_core::games::solver::SolverConfig;
    let full = SolverConfig::default();
    let ablations = [
        (full, 1319),
        (
            SolverConfig {
                memoization: false,
                ..full
            },
            1956,
        ),
        (
            SolverConfig {
                fresh_move_pruning: false,
                ..full
            },
            1370,
        ),
        (
            SolverConfig {
                profile_ordering: false,
                ..full
            },
            1319,
        ),
    ];
    let (a, b) = (builders::linear_order(10), builders::linear_order(11));
    for (cfg, expanded) in ablations {
        let mut solver = EfSolver::with_config(&a, &b, cfg);
        assert!(solver.duplicator_wins(3));
        assert_eq!(solver.stats.expanded, expanded, "{cfg:?}");
    }

    let pairs = [
        (builders::linear_order(5), builders::linear_order(7)),
        (builders::undirected_cycle(5), builders::undirected_cycle(6)),
    ];
    for (a, b) in &pairs {
        for n in 1..=3 {
            let reference = EfSolver::new(a, b).duplicator_wins(n);
            for memo in [false, true] {
                for fresh in [false, true] {
                    for prof in [false, true] {
                        let cfg = SolverConfig {
                            memoization: memo,
                            fresh_move_pruning: fresh,
                            profile_ordering: prof,
                        };
                        assert_eq!(
                            EfSolver::with_config(a, b, cfg).duplicator_wins(n),
                            reference
                        );
                    }
                }
            }
        }
    }
}

/// Finite compactness fails (the lecture's Exercise 2.2.3): every λ_k
/// is satisfiable in a finite structure, but their "limit" (enforced by
/// all of them at once) is not — witnessed here by the fact that any
/// fixed finite structure falsifies λ_{n+1}.
#[test]
fn finite_compactness_counterexample() {
    for n in 0..6u32 {
        let s = builders::set(n);
        // s satisfies λ_k exactly for k ≤ n.
        for k in 0..=n {
            assert!(naive::check_sentence(&s, &library::at_least(k)));
        }
        assert!(!naive::check_sentence(&s, &library::at_least(n + 1)));
    }
}

/// Datalog engines agree with the reference TC and with each other.
#[test]
fn datalog_cross_validation() {
    let prog = Program::transitive_closure();
    let tc = prog.idb("tc").unwrap();
    for s in [
        builders::directed_path(8),
        builders::directed_cycle(7),
        builders::full_binary_tree(3),
    ] {
        let a = prog.eval_naive(&s);
        let b = prog.eval_seminaive(&s);
        assert_eq!(a.relation(tc), b.relation(tc));
        let reference = graph::transitive_closure(&s);
        let e = reference.signature().relation("E").unwrap();
        let expected: HashSet<Vec<Elem>> = reference.rel(e).iter().map(<[u32]>::to_vec).collect();
        assert_eq!(a.relation(tc), &expected);
    }
}
