//! Expected replies, computed in-process before the server starts.
//!
//! Engine jobs are answered straight from `caz-core` enumeration
//! (`mu_k_series`, and `support_poly` through `mu_conditional_exact`),
//! not through the service, so the served reply is checked against the
//! engine every later engine is measured against. Routed `mu`/`cond`
//! jobs are answered by an in-process `Session` through the planner
//! (`Session::eval_planned`), like the server; set-up lines and
//! `compare`/`best` by `Session::execute`.

use crate::gen::{Class, Job, Plan};
use caz_constraints::parse_constraints;
use caz_core::{mu_conditional_exact, mu_k_series, BoolQueryEvent, ConstraintEvent};
use caz_idb::parse_database;
use caz_logic::parse_query;
use caz_service::proto::{encode_frame, WireFrame, WireReply};
use caz_service::{Reply, Request, Session};
use std::collections::HashMap;

/// Expected frame lines (approx chunks excluded) for every job.
pub struct Expected {
    /// For the lines every connection sends when it opens.
    pub session: Vec<String>,
    /// Per warm-up job.
    pub warmup: Vec<Vec<String>>,
    /// Per measured job.
    pub jobs: Vec<Vec<String>>,
}

fn final_frame(result: Result<String, String>) -> String {
    encode_frame(&WireFrame::Final(match result {
        Ok(t) => WireReply::Ok(t),
        Err(e) => WireReply::Err(e),
    }))
}

/// The chunked reply group of a series aggregate: one `k`-tagged chunk
/// per row, then `ok done <k>`.
pub fn series_frames(aggregate: &str) -> Vec<String> {
    let mut frames: Vec<String> = aggregate
        .lines()
        .enumerate()
        .map(|(i, row)| {
            encode_frame(&WireFrame::Chunk {
                tag: (i + 1).to_string(),
                payload: row.to_string(),
            })
        })
        .collect();
    frames.push(final_frame(Ok(format!("done {}", frames.len()))));
    frames
}

fn execute(session: &mut Session, line: &str) -> String {
    final_frame(match session.execute(line) {
        Ok(Reply::Text(t)) => Ok(t),
        Ok(Reply::Quit) => Err("unexpected quit".into()),
        Err(e) => Err(e),
    })
}

/// The source text defining the job's database, query and constraints:
/// the job's own lines first, else the connection's session lines.
pub fn definitions<'a>(plan: &'a Plan, job: &'a Job) -> (&'a str, &'a str, &'a str) {
    let find = |prefix: &str| {
        job.lines
            .iter()
            .chain(&plan.session)
            .find_map(|l| l.strip_prefix(prefix))
            .unwrap_or("")
    };
    let query_def = format!("query {} :=", job.query);
    let query = job
        .lines
        .iter()
        .chain(&plan.session)
        .find(|l| l.starts_with(&query_def))
        .map(|l| &l["query ".len()..])
        .unwrap_or("");
    (find("fact "), query, find("constraint "))
}

fn engine_answer(plan: &Plan, job: &Job) -> Vec<String> {
    let (facts, query, constraints) = definitions(plan, job);
    let db = parse_database(facts).expect("generated facts parse").db;
    let q = parse_query(query).expect("generated query parses");
    let event = BoolQueryEvent::new(q);
    match job.class {
        Class::Series => {
            let k: usize = job
                .eval_line()
                .rsplit(' ')
                .next()
                .and_then(|k| k.parse().ok())
                .expect("k");
            series_frames(&mu_k_series(&event, &db, k).to_string())
        }
        Class::CondInd => {
            let sigma =
                ConstraintEvent::new(parse_constraints(constraints).expect("generated Σ parses"));
            let v = mu_conditional_exact(&event, &sigma, &db);
            vec![final_frame(Ok(format!("μ(Q | Σ, D) = {v}")))]
        }
        _ => unreachable!("only series and IND cond are engine jobs"),
    }
}

/// Expected frames of one job, starting from `base` (the connection's
/// session after its opening lines; every job that changes state starts
/// with `clear`, so jobs are independent of each other).
fn expect_job(plan: &Plan, base: &Session, job: &Job) -> Vec<String> {
    let mut session = base.clone();
    let mut out = Vec::new();
    let (setup, eval) = job.lines.split_at(job.lines.len() - 1);
    for line in setup {
        out.push(execute(&mut session, line));
    }
    match job.class {
        Class::Series | Class::CondInd => out.extend(engine_answer(plan, job)),
        Class::Mu | Class::Cond => out.push(final_frame(match Request::parse(&eval[0]) {
            Ok(Some(Request::Eval(ev))) => session.eval_planned(&ev, &mut |_| {}),
            _ => Err(format!("not an evaluation: {}", eval[0])),
        })),
        Class::Compare | Class::Best => out.push(execute(&mut session, &eval[0])),
    }
    out
}

/// Compute the expected replies of every job of `plan` on two threads.
/// Identical jobs (hot-hits repeats its working set) are answered once.
pub fn expected(plan: &Plan) -> Expected {
    let mut base = Session::new();
    let session = plan.session.iter().map(|l| execute(&mut base, l)).collect();
    let all: Vec<&Job> = plan.warmup.iter().chain(&plan.jobs).collect();
    let mut distinct: HashMap<&[String], usize> = HashMap::new();
    let mut unique: Vec<&Job> = Vec::new();
    let index: Vec<usize> = all
        .iter()
        .map(|job| {
            *distinct.entry(job.lines.as_slice()).or_insert_with(|| {
                unique.push(job);
                unique.len() - 1
            })
        })
        .collect();
    let answers: Vec<Vec<String>> = std::thread::scope(|s| {
        let halves: Vec<_> = (0..2)
            .map(|t| {
                let (unique, base) = (&unique, &base);
                s.spawn(move || {
                    unique
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % 2 == t)
                        .map(|(i, job)| (i, expect_job(plan, base, job)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut answers = vec![Vec::new(); unique.len()];
        for h in halves {
            for (i, a) in h.join().expect("oracle thread") {
                answers[i] = a;
            }
        }
        answers
    });
    let mut per_job = index.into_iter().map(|i| answers[i].clone());
    Expected {
        session,
        warmup: per_job.by_ref().take(plan.warmup.len()).collect(),
        jobs: per_job.collect(),
    }
}
