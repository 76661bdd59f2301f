//! The support-polynomial engine: exact closed forms for the measures.
//!
//! Following the proof of Theorem 3, `|Suppᵏ(event, D)|` is — for every
//! `k ≥ |A|` under the canonical enumeration, where `A = Const(D) ∪ C` —
//! a polynomial in `k`:
//!
//! Classify each valuation `v ∈ Vᵏ(D)` by (i) its *kernel* — the
//! partition `ρ` of `Null(D)` with `v(⊥ᵢ) = v(⊥ⱼ)` iff same block — and
//! (ii) the partial injection `f` mapping some blocks to named constants
//! in `A` (the remaining blocks take pairwise-distinct *fresh* values
//! outside `A`). By genericity the event's truth depends only on
//! `(ρ, f)`, and the class `(ρ, f)` contains exactly
//! `(k − c)(k − c − 1)⋯(k − c − j + 1)` valuations (`c = |A|`, `j` =
//! number of fresh blocks). Summing the falling factorials of the classes
//! where the event holds gives the polynomial; limits of measure
//! sequences are then ratios of leading coefficients.
//!
//! The 0–1 law (Theorem 1) is visible directly: the only degree-`m`
//! class is (all singletons, all fresh) — precisely the `C`-bijective
//! valuations of naïve evaluation — so `μ(Q, D) ∈ {0, 1}` with value 1
//! iff naïve evaluation succeeds.
//!
//! The same class pass gives every finite row at once:
//! [`mu_k_series_classes`] buckets the true classes by the named
//! constants and fresh blocks they use, and reads `|Suppᵏ|` for each
//! `k ≤ k_max` off those buckets — also below `|A|`, where the
//! polynomial does not yet apply.

use crate::measure::Series;
use crate::support::{enumeration_for, SuppEvent};
use caz_arith::{Poly, Ratio};
use caz_idb::{ConstEnum, Cst, Database, NullId, Valuation};
use std::sync::atomic::{AtomicBool, Ordering};

/// Guard against accidentally exponential inputs: the engine enumerates
/// `Bell(m)` partitions times the partial injections into `A`.
pub const MAX_NULLS: usize = 10;

/// Visit one representative valuation per class `(ρ, f)`, together with
/// `h` (one past the highest named index the class uses, 0 if none) and
/// `j` (its number of fresh blocks). Blocks mapped by `f` take their
/// constant from `named`; fresh blocks take `fresh[0]`, `fresh[1]`, …
/// in order of first appearance, so at most `fresh.len()` of them occur.
/// Each null either joins a block already used by an earlier null or
/// opens a new one, so every class is visited exactly once. `visit`
/// returns `false` to stop the walk; the walker then returns `false`.
fn for_each_class(
    nulls: &[NullId],
    named: &[Cst],
    fresh: &[Cst],
    visit: &mut dyn FnMut(&Valuation, usize, usize) -> bool,
) -> bool {
    fn rec(
        i: usize,
        nulls: &[NullId],
        pool: (&[Cst], &[Cst]),
        (h, j): (usize, usize),
        v: &mut Valuation,
        visit: &mut dyn FnMut(&Valuation, usize, usize) -> bool,
    ) -> bool {
        let Some(&null) = nulls.get(i) else {
            return visit(v, h, j);
        };
        let (named, fresh) = pool;
        for (t, &c) in named.iter().enumerate() {
            v.bind(null, c);
            if !rec(i + 1, nulls, pool, (h.max(t + 1), j), v, visit) {
                return false;
            }
        }
        for (f, &c) in fresh.iter().enumerate().take(j + 1) {
            v.bind(null, c);
            if !rec(i + 1, nulls, pool, (h, j.max(f + 1)), v, visit) {
                return false;
            }
        }
        true
    }
    rec(0, nulls, (named, fresh), (0, 0), &mut Valuation::new(), visit)
}

/// The exact support polynomial of an event over a database, together
/// with the class census (for diagnostics and the FP^{#P} experiment).
#[derive(Clone, Debug)]
pub struct SupportPoly {
    /// `|Suppᵏ(event, D)|` as a polynomial in `k`, valid for all
    /// `k ≥ named_count` under the canonical enumeration.
    pub poly: Poly,
    /// `m`: number of nulls of the database.
    pub nulls: usize,
    /// `c = |A|`: number of named constants (`Const(D) ∪ C`).
    pub named_count: usize,
    /// Number of (partition, injection) classes where the event holds.
    pub true_classes: u64,
    /// Total number of classes inspected.
    pub total_classes: u64,
}

impl SupportPoly {
    /// The exact limit `μ(event, D) = limₖ |Suppᵏ|/kᵐ`. By the 0–1 law
    /// this is 0 or 1 for every generic event.
    pub fn mu_limit(&self) -> Ratio {
        Poly::limit_ratio(&self.poly, &Poly::x_pow(self.nulls))
            .expect("support degree cannot exceed m")
    }

    /// Evaluate the polynomial at a concrete `k` (exact `|Suppᵏ|` for
    /// `k ≥ named_count`).
    pub fn count_at(&self, k: usize) -> Ratio {
        self.poly.eval_int(&caz_arith::BigInt::from(k))
    }
}

/// Compute the support polynomial of `event` over `db`.
///
/// ```
/// use caz_core::{support_poly, BoolQueryEvent};
/// use caz_idb::parse_database;
/// use caz_logic::parse_query;
///
/// let db = parse_database("R(c1, _x). R(c2, _y).").unwrap().db;
/// let q = parse_query("Collide := exists p. R(c1, p) & R(c2, p)").unwrap();
/// let sp = support_poly(&BoolQueryEvent::new(q), &db);
/// // Exactly k of the k² valuations collide the two nulls:
/// assert_eq!(sp.poly.to_string(), "k");
/// assert!(sp.mu_limit().is_zero()); // degree 1 < m = 2
/// ```
pub fn support_poly(event: &dyn SuppEvent, db: &Database) -> SupportPoly {
    let nulls: Vec<NullId> = db.nulls().into_iter().collect();
    let m = nulls.len();
    assert!(
        m <= MAX_NULLS,
        "support-polynomial engine caps at {MAX_NULLS} nulls (got {m})"
    );
    let en = enumeration_for(event, db);
    let c = en.named_count();
    // Fresh blocks take reserved constants, pairwise distinct and
    // outside A by construction.
    let fresh: Vec<Cst> = (0..m).map(|i| Cst::fresh_in("pe", i)).collect();

    let mut poly = Poly::zero();
    let mut true_classes = 0u64;
    let mut total_classes = 0u64;
    for_each_class(&nulls, en.named(), &fresh, &mut |v, _, j| {
        total_classes += 1;
        if event.holds(v, &v.apply_db(db)) {
            true_classes += 1;
            poly += &Poly::falling_factorial(c as i64, j);
        }
        true
    });

    SupportPoly { poly, nulls: m, named_count: c, true_classes, total_classes }
}

/// The exact sequence `μᵏ(event, D)` for `k = 1..=k_max` from one pass
/// over the classes `(ρ, f)` — the same values, rendered the same way,
/// as [`crate::mu_k_series`], which enumerates all `Σₖ kᵐ` valuations.
///
/// Only classes that `V^{k_max}(D)` reaches are walked: `f` maps into
/// the first `min(|A|, k_max)` named constants and at most
/// `k_max − |A|` blocks are fresh, so the pass never visits more classes
/// than `V^{k_max}(D)` has valuations. Each true class is bucketed by
/// `(h, j)` — one past its highest named index, and its number of fresh
/// blocks — and then, with `c = |A|`,
///
/// * for `k ≥ c`: `|Suppᵏ| = Σ n(h, j) · (k − c)(k − c − 1)⋯(k − c − j + 1)`;
/// * for `k < c`: `Vᵏ(D)` uses the named constants `c₁..c_k` only, so
///   `|Suppᵏ| = Σ_{h ≤ k} n(h, 0)`.
///
/// `cancel` is polled every 1024 classes; `None` means it was set and
/// the pass was abandoned.
pub fn mu_k_series_classes(
    event: &dyn SuppEvent,
    db: &Database,
    k_max: usize,
    cancel: &AtomicBool,
) -> Option<Series> {
    let nulls: Vec<NullId> = db.nulls().into_iter().collect();
    let m = nulls.len();
    let en = enumeration_for(event, db);
    let c = en.named_count();
    let named = &en.named()[..c.min(k_max)];
    let fresh: Vec<Cst> = (c..c + k_max.saturating_sub(c).min(m)).map(|i| en.nth(i)).collect();
    // by_class[h][j]: true classes with that (h, j).
    let mut by_class = vec![vec![0u128; fresh.len() + 1]; named.len() + 1];
    let mut visited = 0u64;
    let finished = for_each_class(&nulls, named, &fresh, &mut |v, h, j| {
        visited += 1;
        if visited.is_multiple_of(1024) && cancel.load(Ordering::Relaxed) {
            return false;
        }
        if event.holds(v, &v.apply_db(db)) {
            by_class[h][j] += 1;
        }
        true
    });
    if !finished {
        return None;
    }
    let ks: Vec<usize> = (1..=k_max).collect();
    let values = ks
        .iter()
        .map(|&k| {
            let total = ConstEnum::count_valuations(k, m)
                .expect("valuation space too large to enumerate");
            let hits: u128 = if k >= c {
                by_class
                    .iter()
                    .flat_map(|row| row.iter().enumerate())
                    .map(|(j, &n)| n * falling_factorial(k - c, j))
                    .sum()
            } else {
                by_class[..=k].iter().map(|row| row[0]).sum()
            };
            Ratio::from_frac(hits, total)
        })
        .collect();
    Some(Series { ks, values })
}

/// `n(n − 1)⋯(n − j + 1)`: the number of injections of `j` fresh blocks
/// into `n` fresh constants (0 when `j > n`).
fn falling_factorial(n: usize, j: usize) -> u128 {
    (0..j).map(|i| n.saturating_sub(i) as u128).product()
}

/// The exact limit measure `μ(event, D)` (Theorem 1: always 0 or 1).
pub fn mu_exact(event: &dyn SuppEvent, db: &Database) -> Ratio {
    support_poly(event, db).mu_limit()
}

/// The exact conditional measure
/// `μ(q | σ, D) = limₖ |Suppᵏ(σ ∧ q)| / |Suppᵏ(σ)|` (Theorem 3: always
/// exists, rational in [0, 1]; 0 by convention when `σ` is unsatisfiable
/// in `D`).
pub fn mu_conditional_exact(
    q_event: &dyn SuppEvent,
    sigma_event: &dyn SuppEvent,
    db: &Database,
) -> Ratio {
    let (num, den) = conditional_polys(q_event, sigma_event, db);
    Poly::limit_ratio(&num.poly, &den.poly)
        .expect("Supp(σ∧q) ⊆ Supp(σ): the ratio cannot diverge")
}

/// The two polynomials behind the conditional measure (numerator
/// `Σ ∧ Q`, denominator `Σ`), sharing one named-constant pool so the
/// falling factorials line up.
pub fn conditional_polys(
    q_event: &dyn SuppEvent,
    sigma_event: &dyn SuppEvent,
    db: &Database,
) -> (SupportPoly, SupportPoly) {
    // Wrap so both polynomials see the union of the constant sets: the
    // class decomposition must be computed over the same pool `A`.
    struct WithConsts<'a> {
        inner: &'a dyn SuppEvent,
        consts: std::collections::BTreeSet<Cst>,
    }
    impl SuppEvent for WithConsts<'_> {
        fn holds(&self, v: &Valuation, vdb: &Database) -> bool {
            self.inner.holds(v, vdb)
        }
        fn constants(&self) -> std::collections::BTreeSet<Cst> {
            self.consts.clone()
        }
        fn label(&self) -> String {
            self.inner.label()
        }
    }
    struct Both<'a> {
        q: &'a dyn SuppEvent,
        s: &'a dyn SuppEvent,
        consts: std::collections::BTreeSet<Cst>,
    }
    impl SuppEvent for Both<'_> {
        fn holds(&self, v: &Valuation, vdb: &Database) -> bool {
            self.s.holds(v, vdb) && self.q.holds(v, vdb)
        }
        fn constants(&self) -> std::collections::BTreeSet<Cst> {
            self.consts.clone()
        }
        fn label(&self) -> String {
            format!("{} ∧ {}", self.s.label(), self.q.label())
        }
    }
    let mut consts = q_event.constants();
    consts.extend(sigma_event.constants());
    let num = support_poly(
        &Both { q: q_event, s: sigma_event, consts: consts.clone() },
        db,
    );
    let den = support_poly(&WithConsts { inner: sigma_event, consts }, db);
    (num, den)
}

/// Consistency check on the engine itself: summing the class counts over
/// *all* classes must give exactly `kᵐ`. Returns the total polynomial.
pub fn census_poly(db: &Database, extra_consts: &std::collections::BTreeSet<Cst>) -> Poly {
    struct Always(std::collections::BTreeSet<Cst>);
    impl SuppEvent for Always {
        fn holds(&self, _: &Valuation, _: &Database) -> bool {
            true
        }
        fn constants(&self) -> std::collections::BTreeSet<Cst> {
            self.0.clone()
        }
        fn label(&self) -> String {
            "⊤".into()
        }
    }
    support_poly(&Always(extra_consts.clone()), db).poly
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::{BoolQueryEvent, ConstraintEvent, NotEvent, TupleAnswerEvent};
    use caz_idb::{parse_database, Tuple, Value};
    use caz_logic::{naive_eval_bool, parse_query};

    #[test]
    fn the_walk_visits_every_class_once() {
        // Σ over partitions into b blocks of the partial injections of
        // those blocks into A = {c1, c2, c3}.
        use caz_arith::combinatorics::{count_partial_injections, stirling2};
        use caz_arith::BigInt;
        for src in ["R(c1, _x). R(c2, _y). R(c3, _z).", "R(_a, _b). S(_b, c1). S(_c, _d)."] {
            let db = parse_database(src).unwrap().db;
            let (m, c) = (db.nulls().len(), db.consts().len());
            // Every class is inspected, whatever the event.
            let ev = BoolQueryEvent::new(parse_query("T := exists u, v. R(u, v)").unwrap());
            let want = (0..=m).fold(BigInt::zero(), |acc, b| {
                &acc + &(&stirling2(m, b) * &count_partial_injections(b, c))
            });
            assert_eq!(BigInt::from(support_poly(&ev, &db).total_classes), want, "{src}");
        }
    }

    #[test]
    fn census_is_k_to_the_m() {
        for src in ["R(c1, _x). R(c2, _y).", "R(_a, _b). S(_b, _c).", "U(a)."] {
            let db = parse_database(src).unwrap().db;
            let m = db.nulls().len();
            assert_eq!(
                census_poly(&db, &Default::default()),
                Poly::x_pow(m),
                "census for {src}"
            );
        }
    }

    #[test]
    fn zero_one_law_matches_naive_eval() {
        // The collision query: almost certainly false; its negation
        // almost certainly true.
        let db = parse_database("R(c1, _x). R(c2, _y).").unwrap().db;
        let col = parse_query("Col := exists p. R(c1, p) & R(c2, p)").unwrap();
        let ev = BoolQueryEvent::new(col.clone());
        let sp = support_poly(&ev, &db);
        // |Suppᵏ| = k (the diagonal): degree 1 < m = 2 ⇒ μ = 0.
        assert_eq!(sp.mu_limit(), Ratio::zero());
        assert!(!naive_eval_bool(&col, &db));
        let neg = NotEvent::new(Box::new(BoolQueryEvent::new(col.clone())));
        assert_eq!(mu_exact(&neg, &db), Ratio::one());
        assert!(naive_eval_bool(&col.negated(), &db));
    }

    #[test]
    fn support_poly_counts_match_enumeration() {
        let db = parse_database("R(c1, _x). R(c2, _y).").unwrap().db;
        let q = parse_query("Col := exists p. R(c1, p) & R(c2, p)").unwrap();
        let ev = BoolQueryEvent::new(q);
        let sp = support_poly(&ev, &db);
        for k in sp.named_count..8 {
            let exact = crate::support::supp_k_count(&ev, &db, k);
            assert_eq!(
                sp.count_at(k),
                Ratio::from_int(exact as i64),
                "polynomial vs enumeration at k={k}"
            );
        }
    }

    #[test]
    fn tuple_events_obey_the_law() {
        // Intro example: (c1,⊥1) is an almost certainly true answer to
        // R1(x,y) ∧ ¬R2(x,y) though not certain.
        let p = parse_database(
            "R1(c1, _p1). R1(c2, _p1). R1(c2, _p2).
             R2(c1, _p2). R2(c2, _p1). R2(_c3, _p1).",
        )
        .unwrap();
        let q = parse_query("Q(x, y) := R1(x, y) & !R2(x, y)").unwrap();
        let a = Tuple::new(vec![caz_idb::cst("c1"), Value::Null(p.nulls["p1"])]);
        let ev = TupleAnswerEvent::new(q.clone(), a);
        assert_eq!(mu_exact(&ev, &p.db), Ratio::one());
        // A tuple that is not even possible is almost certainly false.
        let bad = Tuple::new(vec![caz_idb::cst("zz"), caz_idb::cst("zz")]);
        let ev_bad = TupleAnswerEvent::new(q, bad);
        assert_eq!(mu_exact(&ev_bad, &p.db), Ratio::zero());
    }

    #[test]
    fn conditional_reproduces_the_paper_example() {
        // §4: R = {(2,1),(⊥,⊥)}, U = {1,2,3}, Σ: π₁(R) ⊆ U.
        // μ(R(1,1)|Σ) = 1/3 and μ(R(2,2)-ish|Σ) = 2/3.
        let db = parse_database("R(2, 1). R(_b, _b). U(1). U(2). U(3).").unwrap().db;
        let sigma = ConstraintEvent::new(
            caz_constraints::parse_constraints("ind R[1] <= U[1]").unwrap(),
        );
        let qa = BoolQueryEvent::new(parse_query("Qa := R(1, 1)").unwrap());
        assert_eq!(mu_conditional_exact(&qa, &sigma, &db), Ratio::from_frac(1, 3));
        // ā = (1,⊥) and b̄ = (2,⊥) as tuple events: supports of size 1
        // and 2 among the three Σ-valuations (v(⊥) ∈ {1,2,3}).
        let p = parse_database("R(2, 1). R(_b, _b). U(1). U(2). U(3).").unwrap();
        let q_rel = parse_query("Q(x, y) := R(x, y)").unwrap();
        let b_tuple = Tuple::new(vec![caz_idb::cst("2"), Value::Null(p.nulls["b"])]);
        let sigma2 = ConstraintEvent::new(
            caz_constraints::parse_constraints("ind R[1] <= U[1]").unwrap(),
        );
        let ev_b = TupleAnswerEvent::new(q_rel.clone(), b_tuple);
        assert_eq!(
            mu_conditional_exact(&ev_b, &sigma2, &p.db),
            Ratio::from_frac(2, 3)
        );
        let a_tuple = Tuple::new(vec![caz_idb::cst("1"), Value::Null(p.nulls["b"])]);
        let ev_a = TupleAnswerEvent::new(q_rel, a_tuple);
        assert_eq!(
            mu_conditional_exact(&ev_a, &sigma2, &p.db),
            Ratio::from_frac(1, 3)
        );
    }

    #[test]
    fn unsatisfiable_sigma_gives_zero() {
        let db = parse_database("R(a, b). R(a, c). ").unwrap().db;
        let sigma = ConstraintEvent::new(
            caz_constraints::parse_constraints("fd R: 1 -> 2").unwrap(),
        );
        let q = BoolQueryEvent::new(parse_query("T := exists x, y. R(x, y)").unwrap());
        assert_eq!(mu_conditional_exact(&q, &sigma, &db), Ratio::zero());
    }

    #[test]
    fn conditional_polys_share_pool() {
        let db = parse_database("R(_x, 1). U(1). U(2).").unwrap().db;
        let sigma = ConstraintEvent::new(
            caz_constraints::parse_constraints("ind R[1] <= U[1]").unwrap(),
        );
        let q = BoolQueryEvent::new(parse_query("Q1 := R(1, 1)").unwrap());
        let (num, den) = conditional_polys(&q, &sigma, &db);
        assert_eq!(num.named_count, den.named_count);
        // Σ: v(⊥) ∈ {1,2} → |Suppᵏ(Σ)| = 2 (constant), |Suppᵏ(Σ∧Q)| = 1.
        assert_eq!(den.count_at(5), Ratio::from_int(2));
        assert_eq!(num.count_at(5), Ratio::from_int(1));
        assert_eq!(
            mu_conditional_exact(&q, &sigma, &db),
            Ratio::from_frac(1, 2)
        );
    }
}
