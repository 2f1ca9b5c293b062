//! Computing and estimating `μₙ(Q)`.
//!
//! `μₙ(Q) = |{A ∈ STRUC(σ, n) : A ⊨ Q}| / |STRUC(σ, n)|`. For tiny `n`
//! we enumerate the space exactly; for moderate `n` we estimate by
//! parallel Monte-Carlo sampling (`par::fan_out` workers, one seeded
//! RNG per sample, so the estimate depends on the base seed alone).
//! Experiment E13 produces the convergence tables `μₙ(Q₁) → 0` and
//! `μₙ(Q₂) → 1`.

use crate::sample;
use fmt_logic::Formula;
use fmt_structures::budget::{Budget, BudgetResult};
use fmt_structures::par::{fan_out, resolve_threads};
use fmt_structures::Signature;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Budget tick site label for the μ engines.
const AT: &str = "zeroone.mu";

/// Exact `μₙ` by enumerating all of `STRUC(σ, n)`.
///
/// # Panics
/// Panics if `f` is not a sentence or the space exceeds 2²⁴ structures
/// (see [`sample::enumerate_structures`]).
pub fn mu_exact(sig: &Arc<Signature>, n: u32, f: &Formula) -> f64 {
    try_mu_exact(sig, n, f, &Budget::unlimited()).expect("unlimited budget cannot exhaust")
}

/// Budgeted [`mu_exact`]: ticks once per enumerated structure and
/// threads the budget into the inner relalg evaluation.
///
/// # Panics
/// Panics if `f` is not a sentence or the space exceeds 2²⁴ structures.
pub fn try_mu_exact(
    sig: &Arc<Signature>,
    n: u32,
    f: &Formula,
    budget: &Budget,
) -> BudgetResult<f64> {
    assert!(f.is_sentence(), "mu requires a Boolean query");
    let mut span = fmt_obs::trace_span!("zeroone.mu_exact", n = n);
    let all = sample::enumerate_structures(sig, n);
    let total = all.len();
    let mut hits = 0usize;
    for s in &all {
        budget.tick(AT)?;
        if fmt_eval::relalg::check_sentence_budgeted(s, f, budget)? {
            hits += 1;
        }
    }
    span.record_field("structures", total);
    span.record_field("hits", hits);
    Ok(hits as f64 / total as f64)
}

/// Monte-Carlo estimate of `μₙ` from `samples` uniform structures,
/// deterministic given `seed` and the same at any thread count (see
/// [`try_mu_estimate`]); samples run on the automatic thread count.
///
/// # Panics
/// Panics if `f` is not a sentence or `samples == 0`.
pub fn mu_estimate(sig: &Arc<Signature>, n: u32, f: &Formula, samples: u32, seed: u64) -> f64 {
    try_mu_estimate(sig, n, f, samples, seed, 0, &Budget::unlimited())
        .expect("unlimited budget cannot exhaust")
}

/// Budgeted [`mu_estimate`] over `threads` workers (`0` = automatic,
/// [`resolve_threads`]). Sample `i` draws its structure from its own
/// RNG, seeded from `(seed, i)`, so the estimate depends on `seed`
/// alone, never on how the samples are split. All workers share
/// `budget`, so exhaustion or cancellation stops every worker; when
/// several exhaust, the earliest (fewest ticks spent) is reported.
///
/// # Panics
/// Panics if `f` is not a sentence or `samples == 0`.
pub fn try_mu_estimate(
    sig: &Arc<Signature>,
    n: u32,
    f: &Formula,
    samples: u32,
    seed: u64,
    threads: usize,
    budget: &Budget,
) -> BudgetResult<f64> {
    assert!(f.is_sentence(), "mu requires a Boolean query");
    assert!(samples > 0);
    let threads = resolve_threads(threads).min(samples as usize);
    let mut span = fmt_obs::trace_span!(
        "zeroone.mu_estimate",
        n = n,
        samples = samples,
        threads = threads
    );
    let indices: Vec<u32> = (0..samples).collect();
    let outcomes = fan_out(threads, &indices, |chunk| -> BudgetResult<u32> {
        let mut chunk_span =
            fmt_obs::trace_span!("zeroone.mu_estimate.chunk", samples = chunk.len());
        let mut hits = 0u32;
        for &i in chunk {
            budget.tick(AT)?;
            let mut rng = StdRng::seed_from_u64(sample_seed(seed, i));
            let s = sample::uniform_structure(sig, n, &mut rng);
            if fmt_eval::relalg::check_sentence_budgeted(&s, f, budget)? {
                hits += 1;
            }
        }
        chunk_span.record_field("hits", hits);
        Ok(hits)
    });
    // Several workers can exhaust the shared budget at once; report the
    // earliest, so the error does not depend on scheduling.
    let earliest = outcomes.iter().filter_map(|o| o.as_ref().err());
    if let Some(e) = earliest.min_by_key(|e| e.spent) {
        return Err(e.clone());
    }
    let hits: u32 = outcomes.into_iter().flatten().sum();
    span.record_field("hits", hits);
    Ok(f64::from(hits) / f64::from(samples))
}

/// The RNG seed of sample `i` under base seed `seed`.
fn sample_seed(seed: u64, i: u32) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(i) + 1)
}

/// Monte-Carlo estimate of `μₙ` under the **biased** product measure
/// where every tuple is present independently with probability `p`.
///
/// The FO 0-1 law holds for every fixed `p ∈ (0, 1)` — and the limit is
/// the *same* as for `p = ½`, because the extension axioms hold almost
/// surely under every such measure. [`crate::decide_mu`] therefore
/// decides the biased limits too; the test below checks the estimates
/// trend to the same value at `p = 0.25` and `p = 0.75`.
pub fn mu_estimate_biased(
    sig: &Arc<Signature>,
    n: u32,
    f: &Formula,
    p: f64,
    samples: u32,
    seed: u64,
) -> f64 {
    assert!(f.is_sentence(), "mu requires a Boolean query");
    assert!((0.0..=1.0).contains(&p));
    assert!(samples > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hits = 0u32;
    for _ in 0..samples {
        let s = sample::structure_with_density(sig, n, p, &mut rng);
        if fmt_eval::relalg::check_sentence(&s, f) {
            hits += 1;
        }
    }
    hits as f64 / samples as f64
}

/// A convergence series: `μₙ` (exact where feasible, estimated
/// otherwise) over a range of sizes.
#[derive(Debug, Clone)]
pub struct ConvergenceSeries {
    /// The sizes sampled.
    pub ns: Vec<u32>,
    /// The corresponding `μₙ` values.
    pub values: Vec<f64>,
}

impl ConvergenceSeries {
    /// Computes the series for `f` at the given sizes, using exact
    /// enumeration when the space has at most 2¹⁶ structures and
    /// `samples`-sized estimation otherwise.
    pub fn compute(
        sig: &Arc<Signature>,
        ns: &[u32],
        f: &Formula,
        samples: u32,
        seed: u64,
    ) -> ConvergenceSeries {
        let values = ns
            .iter()
            .map(|&n| {
                let bits: u64 = sig
                    .relations()
                    .map(|(_, _, a)| (n as u64).pow(a as u32))
                    .sum();
                if bits <= 16 {
                    mu_exact(sig, n, f)
                } else {
                    mu_estimate(sig, n, f, samples, seed)
                }
            })
            .collect();
        ConvergenceSeries {
            ns: ns.to_vec(),
            values,
        }
    }

    /// The last value of the series (the best available approximation
    /// of the limit).
    pub fn last(&self) -> f64 {
        *self.values.last().expect("nonempty series")
    }

    /// `true` if the series is monotonically approaching `limit` with
    /// final distance below `tol`.
    pub fn converges_to(&self, limit: f64, tol: f64) -> bool {
        (self.last() - limit).abs() < tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmt_logic::{library, parser::parse_formula};

    #[test]
    fn exact_loop_probability() {
        // P[∃x E(x,x)] on n=3: 1 − (1/2)³ = 0.875.
        let sig = Signature::graph();
        let f = parse_formula(&sig, "exists x. E(x, x)").unwrap();
        let v = mu_exact(&sig, 3, &f);
        assert!((v - 0.875).abs() < 1e-12, "{v}");
        // n = 1: probability 1/2.
        assert!((mu_exact(&sig, 1, &f) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exact_trivial_sentences() {
        let sig = Signature::graph();
        assert_eq!(mu_exact(&sig, 2, &fmt_logic::Formula::True), 1.0);
        assert_eq!(mu_exact(&sig, 2, &fmt_logic::Formula::False), 0.0);
        // λ2 on 2-element structures is always true.
        assert_eq!(mu_exact(&sig, 2, &library::at_least(2)), 1.0);
        assert_eq!(mu_exact(&sig, 2, &library::at_least(3)), 0.0);
    }

    #[test]
    fn estimate_matches_exact() {
        let sig = Signature::graph();
        let f = parse_formula(&sig, "exists x. E(x, x)").unwrap();
        let exact = mu_exact(&sig, 3, &f);
        let est = mu_estimate(&sig, 3, &f, 4000, 42);
        assert!((est - exact).abs() < 0.04, "est {est} vs exact {exact}");
    }

    #[test]
    fn estimate_deterministic_per_seed() {
        let sig = Signature::graph();
        let f = parse_formula(&sig, "exists x y. E(x, y)").unwrap();
        let a = mu_estimate(&sig, 5, &f, 500, 7);
        let b = mu_estimate(&sig, 5, &f, 500, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn estimate_is_the_same_at_any_thread_count() {
        let sig = Signature::graph();
        let f = parse_formula(&sig, "exists x y. E(x, y) & E(y, x) & !E(x, x)").unwrap();
        let budget = Budget::unlimited();
        let at = |threads| try_mu_estimate(&sig, 4, &f, 301, 9, threads, &budget).unwrap();
        let one = at(1);
        assert!(0.0 < one && one < 1.0, "{one}");
        assert_eq!(one, at(3));
        assert_eq!(one, mu_estimate(&sig, 4, &f, 301, 9));
    }

    #[test]
    fn exhaustion_is_reported_at_any_thread_count() {
        let sig = Signature::graph();
        let f = parse_formula(&sig, "exists x. E(x, x)").unwrap();
        let run = |threads| {
            try_mu_estimate(&sig, 3, &f, 50, 1, threads, &Budget::with_fuel(20))
                .expect_err("20 ticks cannot check 50 samples")
        };
        // One thread exhausts at the same tick every time; more report
        // the earliest of their workers' exhaustions.
        assert_eq!(run(1), run(1));
        assert_eq!(run(1).spent, 21);
        assert!(run(3).spent >= 21);
    }

    #[test]
    fn biased_measures_share_the_limit() {
        // The 0-1 law is insensitive to the edge probability p ∈ (0,1):
        // μ_n(∃x E(x,x)) tends to 1 under p = 0.25 and p = 0.75 alike,
        // and the symbolic decision (tied to no particular p) agrees.
        let sig = Signature::graph();
        let f = parse_formula(&sig, "exists x. E(x, x)").unwrap();
        for p in [0.25, 0.75] {
            let est = mu_estimate_biased(&sig, 24, &f, p, 200, 5);
            assert!(est > 0.95, "p = {p}: {est}");
        }
        assert!(crate::extension::decide_mu(&sig, &f));
        // And a μ = 0 sentence vanishes under both.
        let g = parse_formula(&sig, "forall x. E(x, x)").unwrap();
        for p in [0.25, 0.75] {
            let est = mu_estimate_biased(&sig, 24, &g, p, 200, 5);
            assert!(est < 0.05, "p = {p}: {est}");
        }
    }

    #[test]
    fn q1_vanishes_q2_fills() {
        let sig = Signature::graph();
        let e = sig.relation("E").unwrap();
        let q1 = library::q1_all_pairs_adjacent(e);
        let q2 = library::q2_distinguishing_neighbor(e);
        let s1 = ConvergenceSeries::compute(&sig, &[2, 3, 4, 8, 14], &q1, 400, 11);
        assert!(s1.converges_to(0.0, 0.02), "{:?}", s1.values);
        // Q2's limit is 1 but convergence is slow (the violation
        // probability per pair decays like (3/4)^n): measure at n large
        // enough for the trend to be unmistakable.
        let s2 = ConvergenceSeries::compute(&sig, &[8, 24, 56], &q2, 150, 11);
        assert!(s2.converges_to(1.0, 0.15), "{:?}", s2.values);
        // And the trend is in the right direction.
        assert!(s1.values.first().unwrap() >= s1.values.last().unwrap());
        assert!(s2.values.first().unwrap() <= s2.values.last().unwrap());
    }
}
