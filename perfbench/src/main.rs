//! Closed-loop benchmark of `caz serve`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cliff-miss|hot-hits|miss-writes --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! Run from the repository root. It builds the release `caz` binary,
//! generates the workload's fixed, seeded job sequence, computes every
//! expected reply in-process, spawns `caz serve --workers 2` as its own
//! process, sets it up several times (reporting the median set-up
//! time), then drives the jobs as closed loops over two connections
//! and checks every reply. The last line of standard output is one JSON
//! object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced in-process replay of the same jobs
//! (`--trace 1`). See `perfbench/README.md`.

mod client;
mod gen;
mod oracle;
mod report;
mod server;
mod store;
mod trace;

use client::Conn;
use gen::{Job, Plan, Workload};
use oracle::Expected;
use report::{quantile, Metric};
use server::{Server, Stats};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The end-to-end metrics and their units, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_frac", "frac"),
    ("server_cpu_ms_per_job", "ms"),
    ("server_rss_mb", "MiB"),
];

fn e2e(name: &'static str, value: f64) -> Metric {
    let unit = END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u);
    Metric::new(name, value, unit)
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Scratch space inside the checkout.
const WORK_DIR: &str = ".perfbench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required (cliff-miss, hot-hits, miss-writes)")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Build the release `caz` binary from the checkout in the working
/// directory and return its path.
fn build_caz() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates").is_dir() {
        return Err("run from the repository root (no Cargo.toml/crates here)".into());
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "caz"])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("caz");
    if !bin.is_file() {
        return Err(format!("{} was not built", bin.display()));
    }
    Ok(bin)
}

/// What happened to one measured job.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The job's index in the plan.
    pub index: usize,
    /// Send to the terminal frame of the evaluation's reply group.
    pub latency: Option<Duration>,
    /// Send to the first `ok* approx` chunk, for anytime series.
    pub first_approx: Option<Duration>,
    /// Send to the evaluation group's first frame.
    pub first_frame: Option<Duration>,
    /// Every frame equal to the expected one.
    pub ok: bool,
    /// The window round it ran in.
    pub round: usize,
}

fn send(conn: &mut Conn, job: &Job, expected: &[String]) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let ex = conn
        .exchange(&job.lines)
        .map_err(|e| format!("job {}: {e}", job.id))?;
    let ok = ex.frames == expected;
    if !ok {
        eprintln!(
            "perfbench: job {} reply mismatch:\n  got  {:?}\n  want {:?}",
            job.id, ex.frames, expected
        );
    }
    Ok(Outcome {
        index: job.id,
        latency: Some(ex.end - t0),
        first_approx: ex.first_approx.map(|t| t - t0),
        first_frame: Some(ex.first_frame - t0),
        ok,
        round: 0,
    })
}

/// A server that has finished its set-up, with its open connections.
pub struct Live {
    /// The server process.
    pub server: Server,
    /// The two load connections.
    pub conns: Vec<Conn>,
    /// The stats probe connection.
    pub probe: Conn,
}

/// Spawn the server, open the connections, send the session lines and
/// the warm-up jobs. Returns the live server and the set-up time.
fn set_up(
    bin: &Path,
    extra: &[String],
    plan: &Plan,
    expected: &Expected,
) -> Result<(Live, f64), String> {
    let t0 = Instant::now();
    let server = Server::spawn(bin, extra).map_err(|e| format!("spawn: {e}"))?;
    let connect = |t| Conn::connect(&server.addr, t).map_err(|e| format!("connect: {e}"));
    let mut conns = plan
        .workload
        .transports()
        .into_iter()
        .map(connect)
        .collect::<Result<Vec<_>, _>>()?;
    let probe = connect(gen::Transport::Line)?;
    for conn in &mut conns {
        if !plan.session.is_empty() {
            let ex = conn
                .exchange(&plan.session)
                .map_err(|e| format!("session: {e}"))?;
            if ex.frames != expected.session {
                return Err(format!("session set-up replies differ: {:?}", ex.frames));
            }
        }
    }
    for (job, want) in plan.warmup.iter().zip(&expected.warmup) {
        let out = send(&mut conns[job.conn], job, want)?;
        if !out.ok {
            return Err(format!("warm-up job {} answered wrongly", job.id));
        }
    }
    Ok((
        Live {
            server,
            conns,
            probe,
        },
        t0.elapsed().as_secs_f64(),
    ))
}

/// The share of rounds dropped at each end before a run's figures are
/// taken: the quarter with the least wall time per job and the quarter
/// with the most. Load from other machines on a shared host comes and
/// goes in bursts of a few seconds, in both directions; the middle half
/// of the rounds moves with the program and hardly with its
/// neighbours.
const TRIM_SHARE: f64 = 0.25;

/// One round of the measured window.
struct Round {
    jobs: usize,
    wall: Duration,
    cpu_ms: f64,
    /// Sorted latencies (ms) of the round's answered jobs.
    latencies: Vec<f64>,
}

impl Round {
    fn secs_per_job(&self) -> f64 {
        self.wall.as_secs_f64() / self.jobs as f64
    }
}

/// The middle rounds by wall time per job: `rounds` without the
/// [`TRIM_SHARE`] at either end.
fn middle(rounds: &[Round]) -> Vec<&Round> {
    let mut by_pace: Vec<&Round> = rounds.iter().collect();
    by_pace.sort_by(|a, b| a.secs_per_job().total_cmp(&b.secs_per_job()));
    let trim = (rounds.len() as f64 * TRIM_SHARE) as usize;
    by_pace[trim..rounds.len() - trim].to_vec()
}

fn lost(index: usize, round: usize) -> Outcome {
    Outcome {
        index,
        round,
        latency: None,
        first_approx: None,
        first_frame: None,
        ok: false,
    }
}

/// Drive every measured job in `plan.workload.rounds()` rounds, each
/// the same share of the fixed job sequence: one closed loop per
/// connection with the rounds starting together on both, or, where
/// the workload sends from one client thread, one closed loop over
/// both connections in plan order.
fn window(
    live: &mut Live,
    plan: &Plan,
    expected: &Expected,
) -> Result<(Vec<Outcome>, Vec<Round>), String> {
    let rounds = plan.workload.rounds();
    // The connections each client thread owns, by connection number.
    let mut lanes: Vec<Vec<Option<&mut Conn>>> = if plan.workload.one_client_thread() {
        vec![live.conns.iter_mut().map(Some).collect()]
    } else {
        let count = live.conns.len();
        live.conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mut lane: Vec<Option<&mut Conn>> = (0..count).map(|_| None).collect();
                lane[c] = Some(conn);
                lane
            })
            .collect()
    };
    let barrier = Barrier::new(lanes.len() + 1);
    let server = &live.server;
    std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mine: Vec<usize> = (0..plan.jobs.len())
                        .filter(|&i| lane[plan.jobs[i].conn].is_some())
                        .collect();
                    let mut out = Vec::new();
                    let mut dead = vec![false; lane.len()];
                    for r in 0..rounds {
                        barrier.wait();
                        for &i in &mine[r * mine.len() / rounds..(r + 1) * mine.len() / rounds] {
                            let c = plan.jobs[i].conn;
                            if dead[c] {
                                out.push(lost(i, r));
                                continue;
                            }
                            let conn = lane[c].as_mut().expect("the lane owns the job's connection");
                            match send(conn, &plan.jobs[i], &expected.jobs[i]) {
                                Ok(o) => out.push(Outcome { round: r, ..o }),
                                Err(e) => {
                                    eprintln!("perfbench: {e}; the connection's remaining jobs count as lost");
                                    dead[c] = true;
                                    out.push(lost(i, r));
                                }
                            }
                        }
                    }
                    barrier.wait();
                    out
                })
            })
            .collect();
        let mut marks = Vec::with_capacity(rounds + 1);
        for _ in 0..=rounds {
            barrier.wait();
            marks.push((Instant::now(), server.cpu_ms()));
        }
        let mut all: Vec<Outcome> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        all.sort_by_key(|o| o.index);
        let mut rounds = Vec::with_capacity(rounds);
        for (r, pair) in marks.windows(2).enumerate() {
            let ((t0, c0), (t1, c1)) = (&pair[0], &pair[1]);
            let cpu =
                |c: &std::io::Result<f64>| c.as_ref().map(|v| *v).map_err(|e| format!("cpu: {e}"));
            let in_round = || all.iter().filter(|o| o.round == r);
            let mut latencies: Vec<f64> = in_round()
                .filter_map(|o| o.latency)
                .map(|l| l.as_secs_f64() * 1e3)
                .collect();
            latencies.sort_by(f64::total_cmp);
            rounds.push(Round {
                jobs: in_round().count(),
                wall: *t1 - *t0,
                cpu_ms: cpu(c1)? - cpu(c0)?,
                latencies,
            });
        }
        describe_window(plan, &all, &rounds);
        Ok((all, rounds))
    })
}

/// Per-class latency and per-round figures on standard error: where a
/// run's time went.
fn describe_window(plan: &Plan, outcomes: &[Outcome], rounds: &[Round]) {
    let mut by_class: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for o in outcomes {
        if let Some(l) = o.latency {
            by_class
                .entry(format!("{:?}", plan.jobs[o.index].class))
                .or_default()
                .push(l.as_secs_f64() * 1e3);
        }
    }
    for (class, mut v) in by_class {
        v.sort_by(f64::total_cmp);
        eprintln!(
            "perfbench:   {class:<8} n={:<6} p50={:.3}ms p90={:.3}ms max={:.3}ms",
            v.len(),
            quantile(&v, 0.5),
            quantile(&v, 0.9),
            v[v.len() - 1]
        );
    }
    for (r, round) in rounds.iter().enumerate() {
        eprintln!(
            "perfbench:   round {r}: {:.1} jobs/s, {:.4} server ms/job, p50 {:.3}ms, p90 {:.3}ms",
            round.jobs as f64 / round.wall.as_secs_f64(),
            round.cpu_ms / round.jobs as f64,
            quantile(&round.latencies, 0.5),
            quantile(&round.latencies, 0.9)
        );
    }
}

/// `stats`, once the server's write-behind flusher (which runs behind
/// the replies) has appended at least `appends` entries in total.
fn settled_stats(probe: &mut Conn, appends: u64) -> Result<Stats, String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = server::stats(probe).map_err(|e| format!("stats: {e}"))?;
        if s.get("store_appends") >= appends || Instant::now() > deadline {
            return Ok(s);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Per-run assertions that the workload exercised the layers it claims.
/// Returns the claims that failed, with the observed values.
fn check_claims(plan: &Plan, before: &Stats, after: &Stats) -> Vec<String> {
    let n = plan.jobs.len() as u64;
    let cacheable = plan.jobs.iter().filter(|j| j.class.cacheable()).count() as u64;
    let d = |k: &str| after.delta(before, k);
    let routed: u64 = server::ROUTED.iter().map(|k| after.get(k)).sum();
    let mut claims = vec![
        (
            "errors_total + panics_total delta".to_string(),
            d("errors_total") + d("panics_total"),
            0,
        ),
        (
            "route counters − jobs_executed_total".to_string(),
            routed + after.get(server::FALLBACK),
            after.get("jobs_executed_total"),
        ),
    ];
    let mut eq = |what: &str, got: u64, want: u64| claims.push((what.to_string(), got, want));
    match plan.workload {
        Workload::CliffMiss => {
            eq("cache_hits delta", d("cache_hits"), 0);
            eq(
                "cache_misses delta (cacheable jobs)",
                d("cache_misses"),
                cacheable,
            );
            eq("jobs_executed_total delta", d("jobs_executed_total"), n);
        }
        Workload::HotHits => {
            eq("cache_misses delta", d("cache_misses"), 0);
            eq("cache_hits delta", d("cache_hits"), n);
            eq(
                "cache_misses total (warm-up jobs)",
                after.get("cache_misses"),
                gen::HOT_WORKING_SET as u64,
            );
            eq("jobs_executed_total delta", d("jobs_executed_total"), 0);
        }
        Workload::MissWrites => {
            for k in [
                "cache_misses",
                "cache_insertions",
                "cache_evictions",
                "store_appends",
                "jobs_executed_total",
            ] {
                eq(&format!("{k} delta"), d(k), n);
            }
            eq("cache_hits delta", d("cache_hits"), 0);
            eq("store_compactions", after.get("store_compactions"), 1);
            eq("planner_fallback_total delta", d(server::FALLBACK), 0);
        }
    }
    claims
        .into_iter()
        .filter(|(_, got, want)| got != want)
        .map(|(what, got, want)| format!("{what} = {got}, expected {want}"))
        .collect()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

fn run(args: &Args) -> Result<report::Report, String> {
    let bin = build_caz()?;
    let plan = gen::plan(args.workload, args.seed, args.seconds);
    let t = Instant::now();
    let expected = oracle::expected(&plan);
    eprintln!(
        "perfbench: {} seed {}: {} jobs, expected replies computed in {:.1}s",
        plan.workload.name(),
        args.seed,
        plan.jobs.len(),
        t.elapsed().as_secs_f64()
    );
    let run_dir = PathBuf::from(WORK_DIR).join(format!("run-{}", std::process::id()));
    let _cleanup = RemoveOnDrop(run_dir.clone());
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;

    let template = run_dir.join("store-template");
    if plan.workload == Workload::MissWrites {
        let entries = |jobs: &[Job], want: &[Vec<String>]| -> Vec<caz_store::Entry> {
            jobs.iter()
                .zip(want)
                .filter_map(|(j, f)| store::entry_for(&plan, j, f))
                .collect()
        };
        let warm = entries(&plan.warmup, &expected.warmup);
        let win = entries(&plan.jobs, &expected.jobs);
        store::prepare(&template, &warm[0], plan.warmup[0].id, &warm, &win)
            .map_err(|e| format!("store: {e}"))?;
    }

    if plan.workload.one_cpu() {
        let cpu = server::pin_to_one_cpu().map_err(|e| format!("pin to one CPU: {e}"))?;
        eprintln!("perfbench: client and server pinned to CPU {cpu}");
    }
    let mut setup_times = Vec::new();
    let mut live = None;
    for rep in 0..SETUPS {
        let mut extra = Vec::new();
        if plan.workload == Workload::MissWrites {
            let dir = run_dir.join(format!("store-{rep}"));
            store::copy(&template, &dir).map_err(|e| format!("store copy: {e}"))?;
            extra = vec![
                "--cache-path".into(),
                dir.display().to_string(),
                "--fsync".into(),
                "off".into(),
            ];
        }
        let (l, secs) = set_up(&bin, &extra, &plan, &expected)?;
        setup_times.push(secs);
        if rep + 1 < SETUPS {
            l.server.stop();
            // Unlinked before write-back, its appends never reach disk.
            let _ = std::fs::remove_dir_all(run_dir.join(format!("store-{rep}")));
        } else {
            live = Some(l);
        }
    }
    let mut live = live.expect("at least one set-up");

    let stored = |jobs: &[Job]| jobs.iter().filter(|j| j.class.cacheable()).count() as u64;
    let persists = plan.workload == Workload::MissWrites;
    let warm_appends = if persists { stored(&plan.warmup) } else { 0 };
    let before = settled_stats(&mut live.probe, warm_appends)?;
    let (outcomes, rounds) = window(&mut live, &plan, &expected)?;
    let window_appends = if persists { stored(&plan.jobs) } else { 0 };
    let after = settled_stats(&mut live.probe, warm_appends + window_appends)?;
    let rss = live.server.peak_rss_mb().map_err(|e| format!("rss: {e}"))?;

    let n = plan.jobs.len();
    let ok = outcomes.iter().filter(|o| o.ok).count();
    let failed_claims = check_claims(&plan, &before, &after);
    for c in &failed_claims {
        eprintln!("perfbench: claim failed: {c}");
    }
    // Throughput, CPU and latency quantiles pooled over the middle rounds.
    let middle = middle(&rounds);
    let sum = |f: &dyn Fn(&Round) -> f64| middle.iter().map(|r| f(r)).sum::<f64>();
    let middle_jobs = sum(&|r| r.jobs as f64);
    let mut latencies: Vec<f64> = middle
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    latencies.sort_by(f64::total_cmp);

    let metrics = if args.trace {
        let ctx = trace::Context {
            plan: &plan,
            outcomes: &outcomes,
            before: &before,
            after: &after,
        };
        let m = trace::run(&ctx, &mut live, &run_dir)?;
        live.server.stop();
        m
    } else {
        live.server.stop();
        vec![
            e2e("setup_s", median(setup_times)),
            e2e("jobs_per_s", middle_jobs / sum(&|r| r.wall.as_secs_f64())),
            e2e("latency_p50_ms", quantile(&latencies, 0.5)),
            e2e("latency_p90_ms", quantile(&latencies, 0.9)),
            e2e("ok_frac", ok as f64 / n as f64),
            e2e("server_cpu_ms_per_job", sum(&|r| r.cpu_ms) / middle_jobs),
            e2e("server_rss_mb", rss),
        ]
    };
    Ok(report::Report {
        correct: ok == n && failed_claims.is_empty(),
        attempted: n,
        failed: n - ok,
        metrics,
    })
}

struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print_table(args.workload, args.trace);
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_metrics_match_the_benchmark_definition() {
        let def =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let e2e = &def[def.find("\"end_to_end\"").expect("end_to_end")
            ..def.find("\"per_layer\"").expect("per_layer")];
        assert_eq!(e2e.matches("\"name\"").count(), END_TO_END.len());
        for (name, unit) in END_TO_END {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(e2e.contains(&entry), "{entry}");
        }
    }
}
