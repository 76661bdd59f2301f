//! The traced run: per-layer metrics from outside-in server probes and
//! from an in-process replay of the same jobs through each layer's
//! public functions, with a span around every call.
//!
//! The replay mirrors the server's path for one job: the reactor parses
//! each line (`Request::parse`) and applies set-up lines to the
//! connection's session (`Session::apply`); an evaluation is handed to
//! the worker pool (`WorkerPool::run`), whose closure canonicalizes the
//! cache key (`Session::cache_key`), looks it up (`ShardedCache::get`),
//! and on a miss evaluates (`Session::eval_series_chunks` or
//! `Session::eval_planned`) and inserts the result; the reply frames
//! are encoded (`proto::encode_frame`) and, client side, decoded. Spans
//! of layers a job's path never crosses — the planner alone, the
//! per-valuation split, the store — are recorded under a separate
//! `probe` root on the same inputs and kept out of the coverage sum.

use crate::client::Conn;
use crate::gen::{self, Class, Job, Plan, Transport, Workload};
use crate::oracle::{definitions, series_frames};
use crate::report::{quantile, Metric};
use crate::server::{self, Stats};
use crate::{Live, Outcome};
use caz_core::support::enumeration_for;
use caz_core::BoolQueryEvent;
use caz_idb::parse_database;
use caz_logic::{eval_bool, parse_query};
use caz_planner::Route;
use caz_service::proto::{decode_frame, encode_frame, WireFrame, WireReply};
use caz_service::{EvalKind, Request, Session, ShardedCache, WorkerPool};
use caz_store::{Entry, FsyncPolicy, Store};
use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One per-layer metric: what it measures on and what it should move.
pub struct Layer {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The end-to-end metrics (by workload) a change to this layer
    /// should move.
    pub moves: &'static str,
    /// The workloads whose end-to-end metrics it should leave flat.
    pub flat_on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    flat_on: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        moves,
        flat_on,
    }
}

const ENGINE: &str = "cliff-miss latency_p50_ms, latency_p90_ms, jobs_per_s, server_cpu_ms_per_job";
const SERVING: &str = "hot-hits jobs_per_s, latency_p50_ms";
const LOOKUP: &str = "hot-hits server_cpu_ms_per_job, jobs_per_s; miss-writes latency_p50_ms";
const WRITES: &str = "miss-writes latency_p50_ms, jobs_per_s";
const STORE: &str =
    "miss-writes setup_s (recover), server_cpu_ms_per_job, latency_p90_ms (compaction)";

/// Every per-layer metric, in report order.
pub const LAYERS: [Layer; 32] = [
    layer("core.series_ms", "ms", ENGINE, "hot-hits"),
    layer("core.ns_per_valuation", "ns", ENGINE, "hot-hits"),
    layer("idb.iterate_ns_per_valuation", "ns", ENGINE, "hot-hits"),
    layer("idb.apply_ns_per_valuation", "ns", ENGINE, "hot-hits"),
    layer("logic.eval_ns_per_valuation", "ns", ENGINE, "hot-hits"),
    layer(
        "core.fallback_ms",
        "ms",
        "cliff-miss latency_p90_ms",
        "hot-hits, miss-writes",
    ),
    layer(
        "anytime.first_frame_p50_ms",
        "ms",
        "cliff-miss server_cpu_ms_per_job, latency_p50_ms",
        "miss-writes",
    ),
    layer(
        "anytime.chunks_per_job",
        "count",
        "cliff-miss server_cpu_ms_per_job, latency_p50_ms",
        "miss-writes",
    ),
    layer(
        "pool.stolen_per_job",
        "count",
        "cliff-miss server_cpu_ms_per_job, latency_p50_ms",
        "miss-writes",
    ),
    layer("reactor.rtt_us", "us", SERVING, "cliff-miss"),
    layer("http.rtt_overhead_us", "us", SERVING, "cliff-miss"),
    layer(
        "proto.encode_ns_per_frame",
        "ns",
        "hot-hits latency_p50_ms",
        "cliff-miss",
    ),
    layer(
        "proto.decode_ns_per_frame",
        "ns",
        "hot-hits latency_p50_ms",
        "cliff-miss",
    ),
    layer(
        "session.parse_ns_per_line",
        "ns",
        "hot-hits latency_p50_ms",
        "cliff-miss",
    ),
    layer("idb.canonical_us", "us", LOOKUP, "cliff-miss"),
    layer("cache.get_ns", "ns", LOOKUP, "cliff-miss"),
    layer("cache.hit_ratio", "frac", LOOKUP, "cliff-miss"),
    layer("pool.handoff_us", "us", LOOKUP, "cliff-miss"),
    layer("session.setup_us_per_job", "us", WRITES, "cliff-miss"),
    layer(
        "session.snapshot_us",
        "us",
        "hot-hits server_cpu_ms_per_job, jobs_per_s; miss-writes latency_p50_ms",
        "cliff-miss",
    ),
    layer("planner.plan_us", "us", WRITES, "cliff-miss"),
    layer("core.routed_us", "us", WRITES, "cliff-miss"),
    layer("planner.routed_frac", "frac", WRITES, "cliff-miss"),
    layer(
        "cache.insert_ns",
        "ns",
        "miss-writes server_cpu_ms_per_job",
        "hot-hits",
    ),
    layer(
        "cache.evictions_per_job",
        "count",
        "miss-writes server_cpu_ms_per_job",
        "hot-hits",
    ),
    layer(
        "store.append_us_per_entry",
        "us",
        STORE,
        "cliff-miss, hot-hits",
    ),
    layer(
        "store.wal_bytes_per_entry",
        "bytes",
        STORE,
        "cliff-miss, hot-hits",
    ),
    layer("store.compactions", "count", STORE, "cliff-miss, hot-hits"),
    layer("store.compact_ms", "ms", STORE, "cliff-miss, hot-hits"),
    layer("store.recover_ms", "ms", STORE, "cliff-miss, hot-hits"),
    layer("trace.coverage_frac", "frac", "-", "-"),
    layer("trace.overhead_frac", "frac", "-", "-"),
];

/// A per-layer metric with its unit from [`LAYERS`].
fn metric(name: &'static str, value: f64) -> Metric {
    let unit = LAYERS
        .iter()
        .find(|l| l.name == name)
        .map_or("", |l| l.unit);
    Metric::new(name, value, unit)
}

/// Jobs of the window the replay repeats, per workload: enough for
/// stable means, few enough that two replays stay a small part of a run.
fn replay_len(w: Workload) -> usize {
    match w {
        Workload::CliffMiss => 16,
        Workload::HotHits => 3000,
        Workload::MissWrites => 1500,
    }
}

/// Samples per round-trip probe.
const RTT_SAMPLES: usize = 200;

/// Layer probes per workload (planner, engine fill-ins, valuation split).
const PROBE_JOBS: usize = 8;

/// One recorded span.
#[derive(Clone, Debug)]
struct Span {
    id: usize,
    parent: Option<usize>,
    job: usize,
    name: &'static str,
    start: Instant,
    end: Instant,
    /// Work items the span covered (lines, frames, valuations).
    units: u64,
}

/// An open span.
struct Open {
    id: usize,
    job: usize,
    parent: Option<usize>,
    start: Option<Instant>,
}

/// In-memory span store; disabled, it records and times nothing.
struct Recorder {
    enabled: bool,
    next: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            next: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn enter(&self, job: usize, parent: Option<usize>) -> Open {
        let id = if self.enabled {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            job,
            parent,
            start: self.enabled.then(Instant::now),
        }
    }

    fn exit(&self, open: Open, name: &'static str, units: u64) {
        if let Some(start) = open.start {
            let span = Span {
                id: open.id,
                parent: open.parent,
                job: open.job,
                name,
                start,
                end: Instant::now(),
                units,
            };
            self.spans.lock().expect("span store poisoned").push(span);
        }
    }

    fn span<T>(
        &self,
        name: &'static str,
        job: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> (T, u64),
    ) -> T {
        let open = self.enter(job, parent);
        let (out, units) = f();
        self.exit(open, name, units);
        out
    }

    fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.lock().expect("span store poisoned"))
    }
}

/// Nulls (`_name` tokens) in a fact source.
fn null_count(facts: &str) -> u32 {
    let nulls: BTreeSet<&str> = facts
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|t| t.starts_with('_'))
        .collect();
    nulls.len() as u32
}

/// |V¹| + … + |Vᵏ| = Σ jᵐ for a series up to `k` over `m` nulls.
fn valuations(k: usize, m: u32) -> u64 {
    (1..=k as u64).map(|j| j.pow(m)).sum()
}

fn series_k(line: &str) -> usize {
    line.rsplit(' ')
        .next()
        .and_then(|k| k.parse().ok())
        .unwrap_or(0)
}

/// The state one replay evaluates against.
struct Replay<'a> {
    plan: &'a Plan,
    rec: Arc<Recorder>,
    pool: WorkerPool,
    cache: Arc<ShardedCache>,
    sessions: Vec<Session>,
    entries: Arc<Mutex<Vec<Entry>>>,
}

impl Replay<'_> {
    fn new(plan: &Plan, rec: Arc<Recorder>) -> Replay<'_> {
        Replay {
            plan,
            rec,
            pool: WorkerPool::new(2, 64),
            cache: Arc::new(ShardedCache::new(1024, 8)),
            sessions: vec![Session::new(), Session::new()],
            entries: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Apply the connection-opening lines, recorded under a warm-up root.
    fn open_sessions(&mut self) {
        let lines = self.plan.session.clone();
        for c in 0..self.sessions.len() {
            let root = self.rec.enter(usize::MAX, None);
            for line in &lines {
                self.line(c, line, usize::MAX, Some(root.id), 0);
            }
            self.rec.exit(root, "warmup", 0);
        }
    }

    fn job(&mut self, job: &Job, root_name: &'static str) {
        let root = self.rec.enter(job.id, None);
        let m = null_count(definitions(self.plan, job).0);
        for line in &job.lines {
            self.line(job.conn, line, job.id, Some(root.id), m);
        }
        self.rec.exit(root, root_name, 0);
    }

    /// One line through the layers it crosses on the server.
    fn line(&mut self, conn: usize, line: &str, job: usize, root: Option<usize>, nulls: u32) {
        let rec = Arc::clone(&self.rec);
        let req = rec.span("session.parse", job, root, || (Request::parse(line), 1));
        let frames = match req {
            Ok(Some(Request::Eval(ev))) => {
                // The reactor hands each evaluation a snapshot of the
                // connection's whole session.
                let session = rec.span("session.snapshot", job, root, || {
                    (self.sessions[conn].clone(), 1)
                });
                let handoff = rec.enter(job, root);
                let parent = Some(handoff.id);
                let (cache, entries, r) = (
                    Arc::clone(&self.cache),
                    Arc::clone(&self.entries),
                    Arc::clone(&rec),
                );
                let (result, _) = self.pool.run(Box::new(move || {
                    let key = r.span("idb.canonical", job, parent, || (session.cache_key(&ev), 1));
                    if let Some(k) = &key {
                        if let Some(text) = r.span("cache.get", job, parent, || (cache.get(k), 1)) {
                            return Ok(text);
                        }
                    }
                    let open = r.enter(job, parent);
                    let (result, name, units) = if ev.kind == EvalKind::Series {
                        let units = valuations(series_k(&ev.args), nulls);
                        (
                            session.eval_series_chunks(&ev.args, &mut |_, _| {}),
                            "core.series",
                            units,
                        )
                    } else {
                        let mut route = Route::EnumerationFallback;
                        let res = session.eval_planned(&ev, &mut |rt| route = rt);
                        let name = if route == Route::EnumerationFallback {
                            "core.fallback"
                        } else {
                            "core.routed"
                        };
                        (res, name, 1)
                    };
                    r.exit(open, name, units);
                    if let (Some(k), Ok(text)) = (key, &result) {
                        r.span("cache.insert", job, parent, || {
                            (cache.insert(&k, text.clone()), 1)
                        });
                        let entry = Entry {
                            key: k.text,
                            shard_hash: k.shard_hash,
                            value: text.clone(),
                        };
                        entries.lock().expect("entries poisoned").push(entry);
                    }
                    result
                }));
                rec.exit(handoff, "pool.handoff", 1);
                let series = line.trim_start().starts_with("series");
                rec.span("proto.encode", job, root, || {
                    let frames = match (&result, series) {
                        (Ok(text), true) => series_frames(text),
                        (r, _) => vec![final_line(r.clone())],
                    };
                    let n = frames.len() as u64;
                    (frames, n)
                })
            }
            Ok(Some(other)) => {
                let reply = rec.span("session.setup", job, root, || {
                    (self.sessions[conn].apply(&other), 1)
                });
                let text = reply.map(|r| match r {
                    caz_service::Reply::Text(t) => t,
                    caz_service::Reply::Quit => String::new(),
                });
                rec.span("proto.encode", job, root, || (vec![final_line(text)], 1))
            }
            Ok(None) | Err(_) => Vec::new(),
        };
        rec.span("proto.decode", job, root, || {
            let n = frames.len() as u64;
            (
                frames.iter().map(|f| decode_frame(f)).collect::<Vec<_>>(),
                n,
            )
        });
    }

    fn finish(self) -> Vec<Entry> {
        self.pool.shutdown();
        std::mem::take(&mut self.entries.lock().expect("entries poisoned"))
    }
}

fn final_line(result: Result<String, String>) -> String {
    encode_frame(&WireFrame::Final(match result {
        Ok(t) => WireReply::Ok(t),
        Err(e) => WireReply::Err(e),
    }))
}

/// Replay the warm-up, then time the first `n` window jobs.
fn replay(plan: &Plan, n: usize, rec: Arc<Recorder>) -> (Duration, Vec<Entry>) {
    let mut r = Replay::new(plan, rec);
    r.open_sessions();
    for job in &plan.warmup {
        r.job(job, "warmup");
    }
    let t0 = Instant::now();
    for job in &plan.jobs[..n] {
        r.job(job, "job");
    }
    let elapsed = t0.elapsed();
    (elapsed, r.finish())
}

/// A session in the state the job's evaluation line sees.
fn session_for(plan: &Plan, job: &Job) -> Session {
    let mut s = Session::new();
    for line in plan.session.iter().chain(&job.lines[..job.lines.len() - 1]) {
        let _ = s.execute(line);
    }
    s
}

/// Probes of layers the replayed path skips, on the workload's inputs.
fn probes(plan: &Plan, jobs: &[Job], rec: &Recorder, have: &HashMap<&'static str, Agg>) {
    let root = rec.enter(usize::MAX, None);
    let parent = Some(root.id);
    for job in jobs.iter().take(PROBE_JOBS * 4) {
        let s = session_for(plan, job);
        let _ = black_box(rec.span("planner.plan", job.id, parent, || {
            (s.plan_for(job.eval_line()), 1)
        }));
    }
    let missing = |name| have.get(name).is_none_or(|a| a.count == 0);
    for job in jobs.iter().take(PROBE_JOBS) {
        let s = session_for(plan, job);
        let m = null_count(definitions(plan, job).0);
        if missing("core.series") {
            let args = format!("{} 6", job.query);
            let _ = black_box(rec.span("core.series", job.id, parent, || {
                (
                    s.eval_series_chunks(&args, &mut |_, _| {}),
                    valuations(6, m),
                )
            }));
        }
        if missing("core.routed") {
            let ev = caz_service::EvalRequest {
                kind: EvalKind::Mu,
                args: job.query.clone(),
            };
            let open = rec.enter(job.id, parent);
            let mut route = Route::EnumerationFallback;
            let _ = black_box(s.eval_planned(&ev, &mut |r| route = r));
            if route != Route::EnumerationFallback {
                rec.exit(open, "core.routed", 1);
            }
        }
        if missing("core.fallback") {
            if let Ok(Some(Request::Eval(ev))) = Request::parse(job.eval_line()) {
                let _ = black_box(rec.span("core.fallback", job.id, parent, || (s.eval(&ev), 1)));
            }
        }
    }
    rec.exit(root, "probe", 0);
}

/// ns per valuation to iterate `Vᵏ`, to apply each valuation to `D`,
/// and to evaluate the query on `v(D)`, over series-shaped jobs.
fn valuation_split(plan: &Plan, jobs: &[Job]) -> (f64, f64, f64) {
    let picked: Vec<&Job> = {
        let series: Vec<&Job> = jobs
            .iter()
            .filter(|j| j.class == Class::Series)
            .take(3)
            .collect();
        if series.is_empty() {
            jobs.iter().take(3).collect()
        } else {
            series
        }
    };
    let (mut n, mut t_iter, mut t_apply, mut t_eval) = (0u64, 0.0, 0.0, 0.0);
    for job in picked {
        let (facts, query, _) = definitions(plan, job);
        let (Ok(db), Ok(q)) = (parse_database(facts), parse_query(query)) else {
            continue;
        };
        if !q.is_boolean() {
            continue;
        }
        let db = db.db;
        let k = if job.class == Class::Series {
            series_k(job.eval_line())
        } else {
            6
        };
        let en = enumeration_for(&BoolQueryEvent::new(q.clone()), &db);
        let nulls = db.nulls();
        for k in 1..=k {
            let t = Instant::now();
            for v in en.valuations(&nulls, k) {
                black_box(&v);
                n += 1;
            }
            t_iter += t.elapsed().as_secs_f64();
            let t = Instant::now();
            for v in en.valuations(&nulls, k) {
                black_box(v.apply_db(&db));
            }
            t_apply += t.elapsed().as_secs_f64();
            let t = Instant::now();
            for v in en.valuations(&nulls, k) {
                black_box(eval_bool(&q, &v.apply_db(&db)));
            }
            t_eval += t.elapsed().as_secs_f64();
        }
    }
    let per = |t: f64| t * 1e9 / n.max(1) as f64;
    (per(t_iter), per(t_apply - t_iter), per(t_eval - t_apply))
}

/// Store probes on the entries the replay computed: append in 256-entry
/// batches, compact, reopen. Miss-writes starts from its prepared store.
fn store_probe(
    entries: &[Entry],
    base: Option<&Path>,
    dir: &Path,
) -> Result<(f64, f64, f64, f64), String> {
    let err = |e: std::io::Error| format!("store probe: {e}");
    let _ = std::fs::remove_dir_all(dir);
    match base {
        Some(b) => crate::store::copy(b, dir).map_err(err)?,
        None => std::fs::create_dir_all(dir).map_err(err)?,
    }
    let (mut store, _, _) = Store::open(dir, FsyncPolicy::Never).map_err(err)?;
    let wal0 = store.wal_len();
    let t = Instant::now();
    for batch in entries.chunks(256) {
        store.append_batch(batch).map_err(err)?;
    }
    let append_us = t.elapsed().as_secs_f64() * 1e6 / entries.len().max(1) as f64;
    let wal_bytes = (store.wal_len() - wal0) as f64 / entries.len().max(1) as f64;
    let t = Instant::now();
    store.compact().map_err(err)?;
    let compact_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(store);
    let t = Instant::now();
    let reopened = Store::open(dir, FsyncPolicy::Never).map_err(err)?;
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(reopened);
    let _ = std::fs::remove_dir_all(dir);
    Ok((append_us, wal_bytes, compact_ms, recover_ms))
}

/// Per-name totals over spans.
#[derive(Default, Clone, Copy)]
struct Agg {
    count: u64,
    units: u64,
    total: f64,
    self_total: f64,
}

/// Self time of every span: its duration minus its children's.
fn self_times(spans: &[Span]) -> HashMap<usize, f64> {
    let mut child: HashMap<usize, f64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child.entry(p).or_default() += (s.end - s.start).as_secs_f64();
        }
    }
    spans
        .iter()
        .map(|s| {
            (
                s.id,
                (s.end - s.start).as_secs_f64() - child.get(&s.id).copied().unwrap_or(0.0),
            )
        })
        .collect()
}

fn aggregate(spans: &[Span], selfs: &HashMap<usize, f64>) -> HashMap<&'static str, Agg> {
    let mut out: HashMap<&'static str, Agg> = HashMap::new();
    for s in spans {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.units += s.units;
        a.total += (s.end - s.start).as_secs_f64();
        a.self_total += selfs[&s.id];
    }
    out
}

fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let Some(t0) = spans.iter().map(|s| s.start).min() else {
        return Ok(());
    };
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "id\tparent\tjob\tname\tstart_ns\tend_ns\tunits")?;
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let ns = |t: Instant| (t - t0).as_nanos();
        writeln!(
            f,
            "{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.job,
            s.name,
            ns(s.start),
            ns(s.end),
            s.units
        )?;
    }
    f.flush()
}

/// Round-trip p50 (µs) of `sigma`, answered inline by the reactor.
fn rtt_p50(conn: &mut Conn) -> Result<f64, String> {
    let line = vec!["sigma".to_string()];
    let mut v = Vec::with_capacity(RTT_SAMPLES);
    for _ in 0..RTT_SAMPLES {
        let t = Instant::now();
        conn.exchange(&line)
            .map_err(|e| format!("rtt probe: {e}"))?;
        v.push(t.elapsed().as_secs_f64() * 1e6);
    }
    v.sort_by(f64::total_cmp);
    Ok(quantile(&v, 0.5))
}

/// Inputs of the traced run.
pub struct Context<'a> {
    /// The run's plan.
    pub plan: &'a Plan,
    /// The measured window's outcomes, indexed like `plan.jobs`.
    pub outcomes: &'a [Outcome],
    /// `stats` before the window.
    pub before: &'a Stats,
    /// `stats` after the window.
    pub after: &'a Stats,
}

/// Run the probes against the live server, then the in-process replay.
pub fn run(ctx: &Context, live: &mut Live, run_dir: &Path) -> Result<Vec<Metric>, String> {
    let plan = ctx.plan;
    let n = plan.jobs.len() as f64;
    let d = |k: &str| ctx.after.delta(ctx.before, k) as f64;

    // Outside in: reactor and HTTP round trips, anytime first frames.
    let mut http =
        Conn::connect(&live.server.addr, Transport::Http).map_err(|e| format!("connect: {e}"))?;
    let line_rtt = rtt_p50(&mut live.probe)?;
    let http_rtt = rtt_p50(&mut http)?;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut first: Vec<f64> = ctx
        .outcomes
        .iter()
        .filter(|o| plan.jobs[o.index].class == Class::Series)
        .filter_map(|o| o.first_approx.or(o.first_frame).map(ms))
        .collect();
    if first.is_empty() {
        for job in gen::probe_series(plan.jobs.len() as u64, PROBE_JOBS) {
            let t = Instant::now();
            let ex = live
                .probe
                .exchange(&job.lines)
                .map_err(|e| format!("series probe: {e}"))?;
            first.push(ms(ex.first_approx.unwrap_or(ex.first_frame) - t));
        }
    }
    first.sort_by(f64::total_cmp);

    // In process: the same jobs without spans, then with them.
    let r = replay_len(plan.workload).min(plan.jobs.len());
    // Alternate untraced and traced replays so warming effects fall on
    // both sides; the last traced replay's spans are the ones reported.
    let (mut t_off, mut t_on) = (Duration::ZERO, Duration::ZERO);
    let rec = Arc::new(Recorder::new(true));
    let mut entries = Vec::new();
    for _ in 0..2 {
        t_off += replay(plan, r, Arc::new(Recorder::new(false))).0;
        rec.take();
        let (t, e) = replay(plan, r, Arc::clone(&rec));
        t_on += t;
        entries = e;
    }
    let path_spans = rec.take();
    let path_selfs = self_times(&path_spans);
    // Coverage: layer self time of the replayed window jobs against the
    // timed run's latency of the same jobs (warm-up spans carry warm-up
    // job ids, so the id filter leaves them out).
    let replayed: BTreeSet<usize> = plan.jobs[..r].iter().map(|j| j.id).collect();
    let covered: f64 = path_spans
        .iter()
        .filter(|s| replayed.contains(&s.job) && s.name != "job")
        .map(|s| path_selfs[&s.id])
        .sum();
    probes(
        plan,
        &plan.jobs[..r],
        &rec,
        &aggregate(&path_spans, &path_selfs),
    );
    let mut spans = path_spans;
    spans.extend(rec.take());
    let selfs = self_times(&spans);
    let agg = aggregate(&spans, &selfs);
    let (iter_ns, apply_ns, eval_ns) = valuation_split(plan, &plan.jobs[..r]);
    let base = (plan.workload == Workload::MissWrites).then(|| run_dir.join("store-template"));
    let (append_us, wal_bytes, compact_ms, recover_ms) =
        store_probe(&entries, base.as_deref(), &run_dir.join("trace-store"))?;
    let latency: f64 = ctx.outcomes[..r]
        .iter()
        .filter_map(|o| o.latency)
        .map(|l| l.as_secs_f64())
        .sum();

    std::fs::create_dir_all(crate::WORK_DIR).map_err(|e| format!("{e}"))?;
    let spans_path = Path::new(crate::WORK_DIR).join(format!("spans-{}.tsv", plan.workload.name()));
    write_spans(&spans, &spans_path).map_err(|e| format!("spans: {e}"))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        spans.len(),
        spans_path.display()
    );

    let get = |name: &str| agg.get(name).copied().unwrap_or_default();
    let mean = |name: &str| get(name).total / get(name).count.max(1) as f64;
    let per_unit = |name: &str| get(name).total / get(name).units.max(1) as f64;
    let replayed_jobs = (r + plan.warmup.len()) as f64;
    let routed: f64 = server::ROUTED.iter().map(|k| d(k)).sum();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    Ok(vec![
        metric("core.series_ms", mean("core.series") * 1e3),
        metric("core.ns_per_valuation", per_unit("core.series") * 1e9),
        metric("idb.iterate_ns_per_valuation", iter_ns),
        metric("idb.apply_ns_per_valuation", apply_ns),
        metric("logic.eval_ns_per_valuation", eval_ns),
        metric("core.fallback_ms", mean("core.fallback") * 1e3),
        Metric::new("anytime.first_frame_p50_ms", quantile(&first, 0.5), "ms"),
        metric("anytime.chunks_per_job", d("anytime_chunks_total") / n),
        metric("pool.stolen_per_job", d("subtasks_stolen_total") / n),
        metric("reactor.rtt_us", line_rtt),
        metric("http.rtt_overhead_us", http_rtt - line_rtt),
        metric("proto.encode_ns_per_frame", per_unit("proto.encode") * 1e9),
        metric("proto.decode_ns_per_frame", per_unit("proto.decode") * 1e9),
        metric("session.parse_ns_per_line", per_unit("session.parse") * 1e9),
        metric("idb.canonical_us", mean("idb.canonical") * 1e6),
        metric("cache.get_ns", mean("cache.get") * 1e9),
        metric(
            "cache.hit_ratio",
            ratio(d("cache_hits"), d("cache_hits") + d("cache_misses")),
        ),
        metric(
            "pool.handoff_us",
            get("pool.handoff").self_total / get("pool.handoff").count.max(1) as f64 * 1e6,
        ),
        metric(
            "session.setup_us_per_job",
            get("session.setup").total / replayed_jobs * 1e6,
        ),
        metric("session.snapshot_us", mean("session.snapshot") * 1e6),
        metric("planner.plan_us", mean("planner.plan") * 1e6),
        metric("core.routed_us", mean("core.routed") * 1e6),
        metric(
            "planner.routed_frac",
            ratio(routed, d("jobs_executed_total")),
        ),
        metric("cache.insert_ns", mean("cache.insert") * 1e9),
        metric("cache.evictions_per_job", d("cache_evictions") / n),
        metric("store.append_us_per_entry", append_us),
        metric("store.wal_bytes_per_entry", wal_bytes),
        metric(
            "store.compactions",
            ctx.after.get("store_compactions") as f64,
        ),
        metric("store.compact_ms", compact_ms),
        metric("store.recover_ms", recover_ms),
        metric("trace.coverage_frac", ratio(covered, latency)),
        metric(
            "trace.overhead_frac",
            ratio(t_on.as_secs_f64(), t_off.as_secs_f64()) - 1.0,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the per-layer metrics a traced run
    /// reports, with the same units.
    #[test]
    fn per_layer_metrics_match_the_benchmark_definition() {
        let def =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let per_layer = &def[def.find("\"per_layer\"").expect("per_layer")..];
        assert_eq!(per_layer.matches("\"name\"").count(), LAYERS.len());
        for l in &LAYERS {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", l.name, l.unit);
            assert!(per_layer.contains(&entry), "{entry}");
        }
    }
}
