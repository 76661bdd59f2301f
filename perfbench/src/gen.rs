//! Seeded, deterministic job generators for the three workloads.
//!
//! A run is a fixed number of jobs, never a time window: the job count
//! is a pure function of the workload and `--seconds`, and the job text
//! a pure function of the seed. Cache insertions, evictions, store
//! appends and compactions therefore repeat exactly from run to run.
//! The seed changes constant names, query shapes and job order, never
//! the multiset of job classes, so the work a run does is the same for
//! every seed.

/// SplitMix64: small, fast and good enough to pick names and orders.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The three traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cache misses that fall back to enumeration: engine-bound.
    CliffMiss,
    /// Cache hits over a warm working set: serving-path-bound.
    HotHits,
    /// A fresh database per job: cache inserts, evictions, WAL appends.
    MissWrites,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 3] = [Workload::CliffMiss, Workload::HotHits, Workload::MissWrites];

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CliffMiss => "cliff-miss",
            Workload::HotHits => "hot-hits",
            Workload::MissWrites => "miss-writes",
        }
    }

    /// How each of the two client connections talks to the server.
    pub fn transports(self) -> [Transport; 2] {
        match self {
            Workload::HotHits => [Transport::Line, Transport::Http],
            _ => [Transport::Line, Transport::Line],
        }
    }

    /// Whether one client thread sends every job, one at a time,
    /// alternating between the connections. Cliff-miss jobs run from a
    /// fraction of a millisecond to a second, and each `series` spreads
    /// over both of the server's workers: with two jobs in flight a
    /// cheap job's latency would depend on what the other connection
    /// happened to be running.
    pub fn one_client_thread(self) -> bool {
        self == Workload::CliffMiss
    }

    /// Rounds the measured window is split into (see `main.rs`).
    /// Cliff-miss jobs take up to a second, so it has few long rounds;
    /// the sub-millisecond workloads have many short ones.
    pub fn rounds(self) -> usize {
        match self {
            Workload::CliffMiss => 5,
            Workload::HotHits | Workload::MissWrites => 100,
        }
    }

    /// Whether the client and the server share one CPU. The serving
    /// path hands every job between four threads (client, reactor,
    /// worker, reactor, client); spread over the cores of a virtual
    /// machine each hand-off wakes another virtual CPU, whose cost
    /// follows the host's load rather than the program. Cliff-miss
    /// keeps every core so the pool runs two engine jobs at once.
    pub fn one_cpu(self) -> bool {
        self != Workload::CliffMiss
    }

    /// Jobs per run for `seconds` of measuring. The per-second rates
    /// are constants sized on a 2-core runner, not measured per run, so
    /// the count (and everything that depends on it) is fixed.
    pub fn job_count(self, seconds: u64) -> usize {
        let s = seconds.max(1) as usize;
        match self {
            // Whole blocks (cycles) per connection in every window
            // round, so every class keeps its share in each round.
            Workload::CliffMiss => whole(28 * self.rounds(), s * CLIFF_JOBS_PER_S),
            Workload::HotHits => whole(2 * self.rounds(), s * HOT_JOBS_PER_S),
            Workload::MissWrites => whole(16 * self.rounds(), s * MISS_JOBS_PER_S),
        }
    }
}

/// `n` rounded up to a multiple of `block`.
fn whole(block: usize, n: usize) -> usize {
    block * n.div_ceil(block)
}

const CLIFF_JOBS_PER_S: usize = 14;
const HOT_JOBS_PER_S: usize = 6500;
const MISS_JOBS_PER_S: usize = 3900;

/// Hot-hits working set: distinct cached jobs. Every job of one
/// session shares one canonical database, and the cache shards by the
/// database's canonical hash, so the whole working set lands in one
/// shard; it must stay below the per-shard capacity (1024 / 8 = 128).
pub const HOT_WORKING_SET: usize = 96;
const HOT_ZIPF_S: f64 = 1.1;

/// A connection's wire protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// The line protocol.
    Line,
    /// HTTP/1.1 keep-alive, `POST /eval`.
    Http,
}

/// What a job evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// E21-cliff `series` (m = 5 nulls): enumeration fallback.
    Series,
    /// `cond` under an inclusion dependency: the `support_poly` fallback.
    CondInd,
    /// FO-with-negation `compare`: witness search.
    Compare,
    /// FO-with-negation `best`: witness search.
    Best,
    /// `mu` routed by the planner.
    Mu,
    /// `cond` routed by the planner.
    Cond,
}

impl Class {
    /// Whether `Session::cache_key` gives the job a key.
    pub fn cacheable(self) -> bool {
        !matches!(self, Class::Compare | Class::Best)
    }
}

/// One job: command lines sent together, the last one the evaluation
/// whose reply group is timed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    /// Unique within a run (warm-up jobs count from [`WARMUP_ID0`]).
    pub id: usize,
    /// Which of the two client connections sends it.
    pub conn: usize,
    /// What the evaluation line computes.
    pub class: Class,
    /// The lines, in order; set-up lines first, evaluation last.
    pub lines: Vec<String>,
    /// The query the evaluation asks about.
    pub query: String,
}

impl Job {
    /// The evaluation line.
    pub fn eval_line(&self) -> &str {
        self.lines.last().expect("a job has an evaluation line")
    }
}

/// First id of warm-up jobs, far above any window job id.
pub const WARMUP_ID0: usize = 1_000_000;

/// Everything one run sends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Lines every connection sends once when it opens.
    pub session: Vec<String>,
    /// Jobs sent before the window, as part of set-up.
    pub warmup: Vec<Job>,
    /// The measured jobs.
    pub jobs: Vec<Job>,
}

/// Build the plan for `workload` from `seed`.
pub fn plan(workload: Workload, seed: u64, seconds: u64) -> Plan {
    let n = workload.job_count(seconds);
    match workload {
        Workload::CliffMiss => cliff_miss(seed, n),
        Workload::HotHits => hot_hits(seed, n),
        Workload::MissWrites => miss_writes(seed, n),
    }
}

/// A constant unique to job `id`, of fixed length for every seed.
fn fresh(rng: &mut Rng, id: usize, tag: char) -> String {
    format!("{tag}{id:07}r{:05}", rng.below(100_000))
}

/// A cliff-miss job of `class`: a `series` up to `k`, or for the other
/// classes the query shape numbered `k`.
fn cliff_job(rng: &mut Rng, id: usize, conn: usize, class: Class, k: usize) -> Job {
    let junk = fresh(rng, id, 'j');
    let (lines, query) = match class {
        Class::Series => {
            let i = rng.below(5);
            let j = (i + 1 + rng.below(4)) % 5;
            (
                vec![
                    format!(
                        "fact R(c0,_x0). R(c1,_x1). R(c2,_x2). R(c3,_x3). R(c4,_x4). J({junk})."
                    ),
                    format!("query Z := exists p. R(c{i}, p) & R(c{j}, p)"),
                    format!("series Z {k}"),
                ],
                "Z",
            )
        }
        Class::CondInd => {
            let body = [
                "exists u, v. R(u, v) & S(v)",
                "exists u. R(u, u)",
                "exists u, v. R(u, v) & S(u)",
            ][k % 3];
            (
                vec![
                    format!(
                        "fact R(c0,_a). R(c1,_b). R(_c,c2). R(c3,_d). S(c0). S(_e). J({junk})."
                    ),
                    "constraint ind R[2] <= S[1]".to_string(),
                    format!("query Q := {body}"),
                    "cond Q".to_string(),
                ],
                "Q",
            )
        }
        Class::Compare | Class::Best => {
            let (a, b) = [("c0", "c1"), ("c0", "c2"), ("c1", "c2")][k % 3];
            let eval = if class == Class::Compare {
                format!("compare N ({a}) ({b})")
            } else {
                "best N".to_string()
            };
            (
                vec![
                    format!("fact R(c0,_a). R(c1,_b). R(_c,c2). S(c0). J({junk})."),
                    "query N(x) := exists y. R(x, y) & !S(y)".to_string(),
                    eval,
                ],
                "N",
            )
        }
        Class::Mu | Class::Cond => unreachable!("routed classes are not cliff jobs"),
    };
    let mut all = vec!["clear".to_string()];
    all.extend(lines);
    Job {
        id,
        conn,
        class,
        lines: all,
        query: query.to_string(),
    }
}

/// The 14-job block each cliff-miss connection repeats, shuffled per
/// block. `series` (one each of k = 6, 7, 8 and two of k = 9) takes
/// most of the CPU; five IND `cond` sit between four cheap
/// `compare`/`best` and the `series`. The shares put the median in the
/// middle of the `cond` latencies and the p90 inside the k = 9
/// `series`, never on a boundary between classes, where a quantile
/// would jump with the seed. Both connections get the same multiset,
/// so which jobs overlap changes with the seed but the load does not.
const CLIFF_BLOCK: [(Class, usize); 14] = [
    (Class::Series, 6),
    (Class::Series, 7),
    (Class::Series, 8),
    (Class::Series, 9),
    (Class::Series, 9),
    (Class::CondInd, 0),
    (Class::CondInd, 0),
    (Class::CondInd, 0),
    (Class::CondInd, 0),
    (Class::CondInd, 0),
    (Class::Compare, 0),
    (Class::Compare, 0),
    (Class::Best, 0),
    (Class::Best, 0),
];

fn cliff_miss(seed: u64, n: usize) -> Plan {
    let mut rng = Rng::new(seed, 1);
    let per_conn: Vec<Vec<(Class, usize)>> = (0..2)
        .map(|_| {
            let mut seq = Vec::with_capacity(n / 2);
            while seq.len() < n / 2 {
                let mut block = CLIFF_BLOCK;
                rng.shuffle(&mut block);
                seq.extend(block);
            }
            seq
        })
        .collect();
    // Query shapes take turns within each class, from a seeded start,
    // so every seed sends each shape equally often.
    let start = rng.below(3);
    let mut turns = std::collections::HashMap::new();
    let mut jobs = Vec::with_capacity(n);
    for i in 0..n / 2 {
        for (conn, seq) in per_conn.iter().enumerate() {
            let (class, mut k) = seq[i];
            if class != Class::Series {
                let turn = turns.entry(class).or_insert(start);
                k = *turn;
                *turn += 1;
            }
            jobs.push(cliff_job(&mut rng, jobs.len(), conn, class, k));
        }
    }
    // One job per class, spread over both connections.
    let warmup = [
        (Class::Series, 6),
        (Class::CondInd, 0),
        (Class::Compare, 0),
        (Class::Best, 0),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (class, k))| cliff_job(&mut rng, WARMUP_ID0 + i, i % 2, class, k))
    .collect();
    Plan {
        workload: Workload::CliffMiss,
        session: Vec::new(),
        warmup,
        jobs,
    }
}

/// E21-cliff `series` jobs at k = 6 for probing the anytime layer's
/// first frame on workloads whose window sends no `series`.
pub fn probe_series(seed: u64, count: usize) -> Vec<Job> {
    let mut rng = Rng::new(seed, 4);
    (0..count)
        .map(|i| cliff_job(&mut rng, 2 * WARMUP_ID0 + i, 0, Class::Series, 6))
        .collect()
}

fn hot_job(rank: usize, id: usize, conn: usize) -> Job {
    let (class, line) = match rank % 3 {
        0 => (Class::Mu, format!("mu A{rank}")),
        1 => (Class::Cond, format!("cond A{rank}")),
        _ => (Class::Series, format!("series A{rank} 3")),
    };
    Job {
        id,
        conn,
        class,
        lines: vec![line],
        query: format!("A{rank}"),
    }
}

fn hot_hits(seed: u64, n: usize) -> Plan {
    let mut rng = Rng::new(seed, 2);
    let mut session = vec![
        "fact R(c0,_n0). R(c1,_n1). R(c2,_n2). R(c3,_n3). R(c4,c6). R(c5,c7).".to_string(),
        "constraint fd R: 1 -> 2".to_string(),
    ];
    for rank in 0..HOT_WORKING_SET {
        let i = rng.below(6);
        let j = (i + 1 + rng.below(5)) % 6;
        session.push(format!(
            "query A{rank} := exists p. R(c{i}, p) & R(c{j}, p)"
        ));
    }
    // Zipf(s) over ranks; rank r's class is r mod 3, so every class
    // keeps a fixed expected share.
    let weights: Vec<f64> = (0..HOT_WORKING_SET)
        .map(|r| 1.0 / ((r + 1) as f64).powf(HOT_ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in weights {
        acc += w / total;
        cdf.push(acc);
    }
    let jobs = (0..n)
        .map(|id| {
            let u = rng.unit();
            let rank = cdf.partition_point(|&c| c < u).min(HOT_WORKING_SET - 1);
            hot_job(rank, id, id % 2)
        })
        .collect();
    // The warm-up fills the cache with the whole working set from the
    // line connection; the HTTP connection only loads its session.
    let warmup = (0..HOT_WORKING_SET)
        .map(|rank| hot_job(rank, WARMUP_ID0 + rank, 0))
        .collect();
    Plan {
        workload: Workload::HotHits,
        session,
        warmup,
        jobs,
    }
}

/// The evaluations miss-writes cycles through per connection: three
/// `mu` (Theorem 1) per `cond`, which alternates between a database
/// that satisfies the FD naïvely (Theorem 4) and one that violates it
/// (Theorem 5). Three to one puts the median inside the `mu` latencies
/// and the p90 inside the `cond` ones.
const MISS_CYCLE: [(Class, bool); 8] = [
    (Class::Mu, false),
    (Class::Mu, false),
    (Class::Cond, false),
    (Class::Mu, false),
    (Class::Mu, false),
    (Class::Mu, true),
    (Class::Cond, true),
    (Class::Mu, false),
];

/// A miss-writes job: `clear`, a fresh five-fact database, an FD, a
/// positive query and a routed `mu`/`cond`; `violate` makes the
/// database break the FD naïvely.
fn miss_job(rng: &mut Rng, id: usize, conn: usize, (class, violate): (Class, bool)) -> Job {
    let [a, b, c, d] = ['a', 'b', 'c', 'd'].map(|t| fresh(rng, id, t));
    let second = if violate { &a } else { &b };
    let body = [
        "exists u, v. R(u, v) & S(u, v)",
        "exists u, v, w. R(u, v) & S(v, w)",
    ][rng.below(2)];
    let eval = if class == Class::Mu { "mu Q" } else { "cond Q" };
    Job {
        id,
        conn,
        class,
        lines: vec![
            "clear".to_string(),
            format!("fact R({a},_a). R({second},_b). R(_c,{c}). S({a}, _a). S(_b, {d})."),
            "constraint fd R: 1 -> 2".to_string(),
            format!("query Q := {body}"),
            eval.to_string(),
        ],
        query: "Q".to_string(),
    }
}

fn miss_writes(seed: u64, n: usize) -> Plan {
    let mut rng = Rng::new(seed, 3);
    let jobs = (0..n)
        .map(|id| miss_job(&mut rng, id, id % 2, MISS_CYCLE[(id / 2) % 8]))
        .collect();
    let warmup = [(Class::Mu, false), (Class::Cond, false)]
        .into_iter()
        .enumerate()
        .map(|(i, shape)| miss_job(&mut rng, WARMUP_ID0 + i, 0, shape))
        .collect();
    Plan {
        workload: Workload::MissWrites,
        session: Vec::new(),
        warmup,
        jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caz_service::{Reply, Session};

    #[test]
    fn same_seed_same_jobs_other_seed_other_jobs() {
        for w in Workload::ALL {
            let a = plan(w, 7, 2);
            assert_eq!(a, plan(w, 7, 2), "{}", w.name());
            assert_ne!(a, plan(w, 8, 2), "{}", w.name());
            assert_eq!(a.jobs.len(), w.job_count(2));
        }
    }

    #[test]
    fn class_mix_does_not_depend_on_the_seed() {
        for w in [Workload::CliffMiss, Workload::MissWrites] {
            let mix = |seed| {
                let mut m: Vec<(usize, String)> = plan(w, seed, 2)
                    .jobs
                    .iter()
                    .map(|j| (j.conn, format!("{:?} {}", j.class, j.eval_line().len())))
                    .collect();
                m.sort();
                m
            };
            assert_eq!(mix(1), mix(2), "{}", w.name());
        }
    }

    #[test]
    fn every_generated_line_is_accepted_by_a_session() {
        for w in Workload::ALL {
            let p = plan(w, 11, 1);
            let mut sessions = [Session::new(), Session::new()];
            for s in &mut sessions {
                for line in &p.session {
                    assert!(s.execute(line).is_ok(), "{line}");
                }
            }
            // Series and the engine classes are checked on every line
            // but evaluated only on the warm-up (the window's are the
            // same shapes at larger k).
            for (i, job) in p.warmup.iter().chain(&p.jobs).enumerate() {
                let s = &mut sessions[job.conn];
                let evaluate = i < p.warmup.len() + 16;
                for line in &job.lines {
                    let is_eval = line == job.eval_line();
                    if is_eval && !evaluate {
                        let parsed = caz_service::Request::parse(line);
                        assert!(
                            matches!(parsed, Ok(Some(caz_service::Request::Eval(_)))),
                            "{line}"
                        );
                        assert!(s.plan_for(line).is_ok(), "{line}");
                        continue;
                    }
                    match s.execute(line) {
                        Ok(Reply::Text(_)) => {}
                        other => panic!("{} rejected {line:?}: {:?}", w.name(), other.err()),
                    }
                }
            }
        }
    }
}
