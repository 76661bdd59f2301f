//! Monte-Carlo estimation of `μᵏ`.
//!
//! Exhaustive enumeration of `Vᵏ(D)` costs `kᵐ`; the estimator samples
//! valuations uniformly instead, giving an unbiased estimate. The
//! standard error uses the Agresti–Coull shrunk proportion
//! `p̃ = (hits + 2)/(n + 4)` so the interval never degenerates to zero
//! width at `p̂ ∈ {0, 1}` — at `p̂ = 1` the two-standard-error bound is
//! roughly the classical rule of three `3/n`. The benchmarks compare the
//! three routes to the measure: exhaustive, sampled, and the exact
//! closed form from the polynomial engine.

use crate::support::{enumeration_for, SuppEvent};
use caz_idb::{Cst, Database, NullId, Valuation};
use caz_testutil::{Rng, RngExt};
use std::fmt;

/// A Monte-Carlo estimate of `μᵏ(event, D)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// Point estimate (fraction of sampled valuations in the support).
    pub value: f64,
    /// Standard error of the estimate (Agresti–Coull; strictly positive
    /// for any finite sample, even when every draw agreed).
    pub std_error: f64,
    /// Number of samples drawn.
    pub samples: u32,
}

impl Estimate {
    /// A symmetric two-standard-error interval, clamped to [0, 1].
    pub fn interval(&self) -> (f64, f64) {
        let lo = (self.value - 2.0 * self.std_error).max(0.0);
        let hi = (self.value + 2.0 * self.std_error).min(1.0);
        (lo, hi)
    }

    /// True iff `x` lies within two standard errors of the estimate.
    pub fn consistent_with(&self, x: f64) -> bool {
        let (lo, hi) = self.interval();
        let eps = 1e-9;
        x >= lo - eps && x <= hi + eps
    }
}

fn estimate_from_counts(hits: u64, samples: u64) -> Estimate {
    let n = samples as f64;
    let p = hits as f64 / n;
    // Agresti–Coull shrinkage: the error bar comes from the shrunk
    // proportion, the point estimate stays unbiased.
    let p_tilde = (hits as f64 + 2.0) / (n + 4.0);
    Estimate {
        value: p,
        std_error: (p_tilde * (1.0 - p_tilde) / (n + 4.0)).sqrt(),
        samples: u32::try_from(samples).unwrap_or(u32::MAX),
    }
}

/// Why an estimate could not be produced. Degenerate parameters are a
/// caller error on the wire, not a programming error — they surface as
/// `err …` replies instead of burning a worker panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplingError {
    /// `k = 0` with at least one null: `Vᵏ(D)` is empty, nothing to draw.
    EmptyValuationSpace,
    /// A zero sample budget cannot support an estimate.
    ZeroSamples,
}

impl fmt::Display for SamplingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplingError::EmptyValuationSpace => {
                write!(f, "k must be positive: V^0(D) is empty")
            }
            SamplingError::ZeroSamples => write!(f, "sample budget must be positive"),
        }
    }
}

impl std::error::Error for SamplingError {}

/// Estimate `μᵏ(event, D)` from `samples` uniformly drawn valuations.
pub fn estimate_mu_k<R: Rng + ?Sized>(
    rng: &mut R,
    event: &dyn SuppEvent,
    db: &Database,
    k: usize,
    samples: u32,
) -> Result<Estimate, SamplingError> {
    if k == 0 {
        return Err(SamplingError::EmptyValuationSpace);
    }
    if samples == 0 {
        return Err(SamplingError::ZeroSamples);
    }
    let en = enumeration_for(event, db);
    let pool: Vec<_> = en.prefix(k);
    let nulls: Vec<NullId> = db.nulls().into_iter().collect();
    let mut hits = 0u64;
    for _ in 0..samples {
        if draw(rng, event, db, &nulls, &pool) {
            hits += 1;
        }
    }
    Ok(estimate_from_counts(hits, samples as u64))
}

fn draw<R: Rng + ?Sized>(
    rng: &mut R,
    event: &dyn SuppEvent,
    db: &Database,
    nulls: &[NullId],
    pool: &[Cst],
) -> bool {
    let v = Valuation::from_pairs(
        nulls.iter().map(|&n| (n, pool[rng.random_range(0..pool.len())])),
    );
    event.holds(&v, &v.apply_db(db))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::mu_k;
    use crate::support::BoolQueryEvent;
    use caz_idb::parse_database;
    use caz_logic::parse_query;
    use caz_testutil::rngs::StdRng;
    use caz_testutil::SeedableRng;

    #[test]
    fn estimator_is_consistent_with_exact() {
        let db = parse_database("R(c1, _x). R(c2, _y).").unwrap().db;
        let q = parse_query("Col := exists p. R(c1, p) & R(c2, p)").unwrap();
        let ev = BoolQueryEvent::new(q);
        let mut rng = StdRng::seed_from_u64(99);
        for k in [2usize, 5, 10] {
            let exact = mu_k(&ev, &db, k).to_f64();
            let est = estimate_mu_k(&mut rng, &ev, &db, k, 4000).unwrap();
            assert!(
                est.consistent_with(exact),
                "k={k}: estimate {} ± {} vs exact {exact}",
                est.value,
                est.std_error
            );
        }
    }

    #[test]
    fn deterministic_events_keep_a_positive_error_bar() {
        let db = parse_database("R(c1, _x).").unwrap().db;
        let q = parse_query("T := exists u, v. R(u, v)").unwrap();
        let ev = BoolQueryEvent::new(q);
        let mut rng = StdRng::seed_from_u64(1);
        let est = estimate_mu_k(&mut rng, &ev, &db, 4, 200).unwrap();
        // Every sample hit, but 200 agreeing samples are still only
        // rule-of-three evidence — the interval must not collapse.
        assert_eq!(est.value, 1.0);
        assert!(est.std_error > 0.0, "p̂ = 1 must not give a zero-width interval");
        assert!(est.std_error < 0.05);
        assert!(est.consistent_with(1.0));
        assert!(!est.consistent_with(0.5));
    }

    #[test]
    fn error_bar_shrinks_with_more_samples() {
        let db = parse_database("R(c1, _x).").unwrap().db;
        let q = parse_query("T := exists u, v. R(u, v)").unwrap();
        let ev = BoolQueryEvent::new(q);
        let small = estimate_mu_k(&mut StdRng::seed_from_u64(7), &ev, &db, 4, 50).unwrap();
        let large = estimate_mu_k(&mut StdRng::seed_from_u64(7), &ev, &db, 4, 5000).unwrap();
        assert!(large.std_error < small.std_error);
    }

    #[test]
    fn degenerate_parameters_are_errors_not_panics() {
        let db = parse_database("R(c1, _x).").unwrap().db;
        let q = parse_query("T := exists u, v. R(u, v)").unwrap();
        let ev = BoolQueryEvent::new(q);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            estimate_mu_k(&mut rng, &ev, &db, 0, 10).unwrap_err(),
            SamplingError::EmptyValuationSpace
        );
        assert_eq!(
            estimate_mu_k(&mut rng, &ev, &db, 3, 0).unwrap_err(),
            SamplingError::ZeroSamples
        );
    }
}
