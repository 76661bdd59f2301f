//! Seeded differential suite: the class-based series
//! (`mu_k_series_classes`, one pass over the classes `(ρ, f)` of the
//! proof of Theorem 3) against the enumeration oracle (`mu_k_series`,
//! every valuation of `V¹..Vᵏ`), byte for byte.
//!
//! Every case derives its randomness from `CAZ_TEST_SEED` (decimal,
//! default [`DEFAULT_SEED`]); the seed and case index are embedded in
//! every assertion message, so a counterexample reproduces offline with
//! `CAZ_TEST_SEED=<seed> cargo test -p caz-core --test series_classes`.
//!
//! Ranges: `k ≤ 9`, `m ≤ 6` nulls; events are Boolean (U)CQs, FO
//! queries with negation and `∀`, and tuple events whose entries
//! include nulls; databases without nulls appear too. `|A|` (the named
//! constants) is drawn on both sides of `k`, so rows below and above
//! `|A|` are both pinned.

use caz_core::{
    mu_k_series, mu_k_series_classes, BoolQueryEvent, NotEvent, SuppEvent, TupleAnswerEvent,
};
use caz_idb::{random_database, Cst, Database, DbGenConfig, Schema, Tuple, Value};
use caz_logic::random::{random_query, random_ucq, QueryGenConfig};
use caz_testutil::rngs::StdRng;
use caz_testutil::{RngExt, SeedableRng};
use std::sync::atomic::AtomicBool;

/// Default seed for the whole suite; override with `CAZ_TEST_SEED`.
const DEFAULT_SEED: u64 = 3707;

/// Seeded cases per event family.
const CASES: usize = 150;

/// Largest `Σₖ kᵐ` the enumeration oracle is asked for in one case;
/// `k_max` shrinks to fit. A release build affords `m = 6` at `k = 9`
/// (`Σₖ k⁶ = 978,405`); a debug build stays near a second per family.
const ORACLE_BUDGET: u128 = if cfg!(debug_assertions) {
    40_000
} else {
    1_000_000
};

fn base_seed() -> u64 {
    match std::env::var("CAZ_TEST_SEED") {
        Ok(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("CAZ_TEST_SEED={s:?} is not a u64: {e}")),
        Err(_) => DEFAULT_SEED,
    }
}

fn schema() -> Schema {
    Schema::from_pairs([("R", 2), ("S", 1)])
}

/// A random database with at most `max_nulls` nulls over `R/2, S/1`.
fn database(rng: &mut StdRng, max_nulls: usize) -> Database {
    let cfg = DbGenConfig {
        relations: vec![("R".into(), 2), ("S".into(), 1)],
        tuples_per_relation: rng.random_range(1..=4),
        num_constants: rng.random_range(1..=6),
        num_nulls: max_nulls,
        null_prob: if max_nulls == 0 { 0.0 } else { 0.5 },
    };
    random_database(rng, &cfg)
}

/// Query constants: sometimes none, sometimes shared with the database
/// (`d0`, `d1`), sometimes outside it (`q0`).
fn query_constants(rng: &mut StdRng) -> Vec<Cst> {
    let pool = ["d0", "d1", "q0"];
    (0..rng.random_range(0..=2))
        .map(|_| Cst::new(pool[rng.random_range(0..pool.len())]))
        .collect()
}

/// The largest `k ≤ want` whose oracle cost fits [`ORACLE_BUDGET`].
fn fit_k(want: usize, m: usize) -> usize {
    let mut k = want;
    while k > 1 && (1..=k as u128).map(|j| j.pow(m as u32)).sum::<u128>() > ORACLE_BUDGET {
        k -= 1;
    }
    k
}

/// Compare the class pass with the oracle on one case; returns the
/// `k_max` checked.
fn check(event: &dyn SuppEvent, db: &Database, want_k: usize, ctx: &str) -> usize {
    let k = fit_k(want_k, db.nulls().len());
    let live = AtomicBool::new(false);
    let classes = mu_k_series_classes(event, db, k, &live).expect("never cancelled");
    let oracle = mu_k_series(event, db, k);
    assert_eq!(
        classes.to_string(),
        oracle.to_string(),
        "{ctx}: k_max={k} event={} db={db}",
        event.label()
    );
    assert_eq!(classes, oracle, "{ctx}");
    k
}

/// Run `CASES` cases of one family, asserting that rows below and at or
/// above `|A|` both occurred.
fn family(
    name: &str,
    salt: u64,
    mut case: impl FnMut(&mut StdRng) -> (Box<dyn SuppEvent>, Database),
) {
    let seed = base_seed();
    let mut rng = StdRng::seed_from_u64(seed ^ salt);
    let (mut below, mut above) = (0, 0);
    for i in 0..CASES {
        let (event, db) = case(&mut rng);
        let want_k = rng.random_range(1..=9);
        let ctx = format!("{name} case {i} (CAZ_TEST_SEED={seed})");
        let k = check(event.as_ref(), &db, want_k, &ctx);
        let mut named = db.consts();
        named.extend(event.constants());
        below += usize::from(named.len() > 1);
        above += usize::from(named.len() <= k);
    }
    assert!(
        below > 0 && above > 0,
        "{name}: regimes not both covered ({below}/{above})"
    );
}

#[test]
fn boolean_ucqs_match_enumeration() {
    family("ucq", 0x5C0, |rng| {
        let m = rng.random_range(0..=6);
        let cfg = QueryGenConfig {
            schema: schema(),
            max_depth: 3,
            constants: query_constants(rng),
            ..QueryGenConfig::default()
        };
        let q = random_ucq(rng, &cfg);
        (Box::new(BoolQueryEvent::new(q)), database(rng, m))
    });
}

#[test]
fn fo_with_negation_matches_enumeration() {
    family("fo", 0xF0, |rng| {
        let m = rng.random_range(0..=6);
        let cfg = QueryGenConfig {
            schema: schema(),
            max_depth: 3,
            allow_negation: true,
            allow_forall: true,
            constants: query_constants(rng),
            ..QueryGenConfig::default()
        };
        let q = random_query(rng, &cfg);
        let event: Box<dyn SuppEvent> = if rng.random_bool(0.3) {
            Box::new(NotEvent::new(Box::new(BoolQueryEvent::new(q))))
        } else {
            Box::new(BoolQueryEvent::new(q))
        };
        (event, database(rng, m))
    });
}

#[test]
fn tuple_events_with_nulls_match_enumeration() {
    family("tuple", 0x7B1E, |rng| {
        let m = rng.random_range(1..=6);
        let db = database(rng, m);
        let arity = rng.random_range(1..=2);
        let cfg = QueryGenConfig {
            schema: schema(),
            arity,
            max_depth: 3,
            allow_negation: rng.random_bool(0.5),
            constants: query_constants(rng),
            ..QueryGenConfig::default()
        };
        let q = random_query(rng, &cfg);
        // Entries from adom(D) — nulls included — plus an outsider.
        let mut pool: Vec<Value> = db.adom().into_iter().collect();
        pool.push(Value::Const(Cst::new("zz")));
        let t = Tuple::new(
            (0..arity)
                .map(|_| pool[rng.random_range(0..pool.len())])
                .collect(),
        );
        (Box::new(TupleAnswerEvent::new(q, t)), db)
    });
}

#[test]
fn complete_databases_match_enumeration() {
    family("complete", 0xC0DE, |rng| {
        let cfg = QueryGenConfig {
            schema: schema(),
            max_depth: 3,
            constants: query_constants(rng),
            ..QueryGenConfig::default()
        };
        let q = random_query(rng, &cfg);
        (Box::new(BoolQueryEvent::new(q)), database(rng, 0))
    });
}

#[test]
fn many_named_constants_stay_below_k() {
    // Up to ten named constants: |A| often exceeds every k ≤ 9, so
    // whole series live in the named-only regime.
    let seed = base_seed();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA);
    for i in 0..20 {
        let cfg = DbGenConfig {
            relations: vec![("R".into(), 2), ("S".into(), 1)],
            tuples_per_relation: 6,
            num_constants: 10,
            num_nulls: 3,
            null_prob: 0.3,
        };
        let db = random_database(&mut rng, &cfg);
        let q = random_query(
            &mut rng,
            &QueryGenConfig {
                schema: schema(),
                ..QueryGenConfig::default()
            },
        );
        let ctx = format!("many-named case {i} (CAZ_TEST_SEED={seed})");
        check(&BoolQueryEvent::new(q), &db, rng.random_range(1..=9), &ctx);
    }
}

#[test]
fn a_set_cancel_token_abandons_the_pass() {
    let facts: Vec<String> = (0..6).map(|i| format!("R(c{i}, _x{i}).")).collect();
    let db = caz_idb::parse_database(&facts.join(" ")).unwrap().db;
    let q = caz_logic::parse_query("Q := exists u, v. R(u, v)").unwrap();
    let cancelled = AtomicBool::new(true);
    assert!(mu_k_series_classes(&BoolQueryEvent::new(q), &db, 9, &cancelled).is_none());
}
