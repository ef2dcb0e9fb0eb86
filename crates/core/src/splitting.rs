//! Uneven-split synthesis: fractions → ECMP slot counts.
//!
//! Fibbing realizes a fractional split at a router by giving each
//! next-hop an integer number of ECMP slots (fake nodes resolving to
//! distinct gateway addresses). The synthesis problem: given target
//! fractions and a slot budget, pick integer weights whose normalized
//! shares best approximate the targets. More slots = better accuracy
//! but more lies (and FIB entries) — the accuracy/state trade-off is
//! one of the benchmarks (ablation of the paper's "no data-plane
//! overhead" claim).
//!
//! The search enumerates slot totals and apportions each with the
//! largest-remainder method, which minimizes L∞ error for a fixed
//! total; the best total within budget wins.

use std::fmt;

/// An integer apportionment of ECMP slots approximating fractions.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitPlan {
    /// Slot counts, parallel to the input fractions. Every entry >= 1.
    pub weights: Vec<u32>,
    /// Total slots (sum of weights).
    pub total: u32,
    /// Maximum absolute error |weight/total - fraction|.
    pub max_error: f64,
}

impl fmt::Display for SplitPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.weights.iter().map(|w| w.to_string()).collect();
        write!(
            f,
            "{} (total {}, err {:.4})",
            parts.join(":"),
            self.total,
            self.max_error
        )
    }
}

/// Errors from split planning.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitError {
    /// Fractions were empty, non-positive, or did not sum to ~1.
    BadFractions,
    /// The slot budget cannot cover one slot per next-hop.
    BudgetTooSmall {
        /// Next-hops requested.
        need: usize,
        /// Budget given.
        budget: u32,
    },
}

impl fmt::Display for SplitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplitError::BadFractions => write!(f, "fractions must be positive and sum to 1"),
            SplitError::BudgetTooSmall { need, budget } => {
                write!(f, "budget {budget} cannot cover {need} next-hops")
            }
        }
    }
}

impl std::error::Error for SplitError {}

/// Largest-remainder apportionment of `total` slots to `fractions`,
/// guaranteeing at least one slot each.
pub fn apportion(fractions: &[f64], total: u32) -> Vec<u32> {
    let n = fractions.len() as u32;
    assert!(total >= n, "total must cover one slot per entry");
    // Reserve one slot each, apportion the rest by largest remainder
    // of the *excess* ideal share.
    let spare = total - n;
    let ideals: Vec<f64> = fractions
        .iter()
        .map(|f| (f * total as f64 - 1.0).max(0.0))
        .collect();
    let mut base: Vec<u32> = ideals.iter().map(|i| i.floor() as u32).collect();
    let assigned: u32 = base.iter().sum();
    let spare_left = spare.saturating_sub(assigned);
    // Rank by remainder, stable on index for determinism.
    let mut order: Vec<usize> = (0..fractions.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = ideals[a] - ideals[a].floor();
        let rb = ideals[b] - ideals[b].floor();
        rb.partial_cmp(&ra)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    for i in 0..(spare_left as usize).min(order.len()) {
        base[order[i]] += 1;
    }
    // Distribute any residual round-off (can happen with degenerate
    // fractions) deterministically.
    let mut sum: u32 = base.iter().sum::<u32>() + n;
    let mut idx = 0;
    while sum < total {
        base[order[idx % order.len()]] += 1;
        sum += 1;
        idx += 1;
    }
    while sum > total {
        let i = order[idx % order.len()];
        if base[i] > 0 {
            base[i] -= 1;
            sum -= 1;
        }
        idx += 1;
    }
    base.iter().map(|b| b + 1).collect()
}

fn linf_error(fractions: &[f64], weights: &[u32]) -> f64 {
    let total: u32 = weights.iter().sum();
    fractions
        .iter()
        .zip(weights)
        .map(|(f, w)| (*w as f64 / total as f64 - f).abs())
        .fold(0.0, f64::max)
}

/// Find the best slot plan for `fractions` within a total-slot budget.
///
/// Ties on error prefer fewer slots (fewer lies).
pub fn plan_split(fractions: &[f64], budget: u32) -> Result<SplitPlan, SplitError> {
    if fractions.is_empty() || fractions.iter().any(|f| *f <= 0.0) {
        return Err(SplitError::BadFractions);
    }
    let sum: f64 = fractions.iter().sum();
    if (sum - 1.0).abs() > 1e-6 {
        return Err(SplitError::BadFractions);
    }
    let n = fractions.len() as u32;
    if budget < n {
        return Err(SplitError::BudgetTooSmall {
            need: fractions.len(),
            budget,
        });
    }
    let mut best: Option<SplitPlan> = None;
    for total in n..=budget {
        let weights = apportion(fractions, total);
        debug_assert_eq!(weights.iter().sum::<u32>(), total);
        let err = linf_error(fractions, &weights);
        let better = match &best {
            None => true,
            Some(b) => err < b.max_error - 1e-12,
        };
        if better {
            best = Some(SplitPlan {
                weights,
                total,
                max_error: err,
            });
        }
    }
    Ok(best.expect("at least one total examined"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Runs `check` on `n` cases, each on its own seeded generator, and
    /// names the case and seed that fail.
    fn cases(n: u64, mut check: impl FnMut(&mut StdRng)) {
        for case in 0..n {
            let seed = 0x5EED_F1BB_0001 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let run = catch_unwind(AssertUnwindSafe(|| check(&mut StdRng::seed_from_u64(seed))));
            assert!(run.is_ok(), "case {case}/{n} failed (seed {seed:#x})");
        }
    }

    #[test]
    fn exact_thirds() {
        let plan = plan_split(&[1.0 / 3.0, 2.0 / 3.0], 8).unwrap();
        assert_eq!(plan.weights, vec![1, 2]);
        assert_eq!(plan.total, 3);
        assert!(plan.max_error < 1e-9);
    }

    #[test]
    fn even_split_needs_two() {
        let plan = plan_split(&[0.5, 0.5], 16).unwrap();
        assert_eq!(plan.weights, vec![1, 1]);
        assert!(plan.max_error < 1e-9);
    }

    #[test]
    fn budget_too_small() {
        assert!(matches!(
            plan_split(&[0.2, 0.3, 0.5], 2),
            Err(SplitError::BudgetTooSmall { need: 3, budget: 2 })
        ));
    }

    #[test]
    fn bad_fractions_rejected() {
        assert!(plan_split(&[], 4).is_err());
        assert!(plan_split(&[0.5, 0.4], 4).is_err());
        assert!(plan_split(&[1.2, -0.2], 4).is_err());
    }

    #[test]
    fn awkward_fraction_improves_with_budget() {
        let fr = [0.45, 0.55];
        let small = plan_split(&fr, 4).unwrap();
        let large = plan_split(&fr, 32).unwrap();
        assert!(large.max_error <= small.max_error);
        assert!(large.max_error < 0.03);
    }

    /// Apportionment always sums to the requested total, gives
    /// everyone at least one slot, and bounded error shrinks with total
    /// (sanity: L∞ ≤ 1).
    #[test]
    fn prop_apportion_sums() {
        cases(64, |rng| {
            let raw: Vec<f64> = (0..rng.gen_range(1..6))
                .map(|_| rng.gen_range(0.05..1.0))
                .collect();
            let extra: u32 = rng.gen_range(0..24);
            let sum: f64 = raw.iter().sum();
            let fractions: Vec<f64> = raw.iter().map(|v| v / sum).collect();
            let total = fractions.len() as u32 + extra;
            let w = apportion(&fractions, total);
            assert_eq!(w.iter().sum::<u32>(), total);
            assert!(w.iter().all(|x| *x >= 1));
        });
    }

    /// plan_split respects the budget and never errs worse than the
    /// trivial uniform plan.
    #[test]
    fn prop_plan_within_budget() {
        cases(64, |rng| {
            let raw: Vec<f64> = (0..rng.gen_range(2..5))
                .map(|_| rng.gen_range(0.05..1.0))
                .collect();
            let sum: f64 = raw.iter().sum();
            let fractions: Vec<f64> = raw.iter().map(|v| v / sum).collect();
            let budget = 12u32;
            let plan = plan_split(&fractions, budget).unwrap();
            assert!(plan.total <= budget);
            let uniform = apportion(&fractions, fractions.len() as u32);
            let uniform_err = super::linf_error(&fractions, &uniform);
            assert!(plan.max_error <= uniform_err + 1e-12);
        });
    }
}
