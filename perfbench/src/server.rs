//! The server under test in its own process, and outside-in probes of
//! it: `/proc/<pid>` for CPU and memory, `stats` for counters.

use crate::client::Conn;
use caz_service::proto::{decode_frame, WireFrame, WireReply};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

extern "C" {
    fn prctl(option: i32, arg2: u64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// Restrict the calling thread, and every thread and process it starts
/// from now on, to the lowest-numbered CPU it may run on. Returns that
/// CPU.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: the kernel writes at most `size` bytes into `mask`.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or_else(|| io::Error::other("no CPU in the affinity mask"))?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size` bytes from `one`.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

/// `/proc/<pid>/stat` counts CPU time in USER_HZ ticks, 100 per second
/// on every Linux ABI.
const TICKS_PER_S: f64 = 100.0;

/// A running `caz serve`.
pub struct Server {
    child: Child,
    /// The address it listens on.
    pub addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn `bin serve` on an ephemeral port with two workers plus
    /// `extra` flags, and wait until it listens.
    pub fn spawn(bin: &Path, extra: &[String]) -> io::Result<Server> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        // SAFETY: the hook runs in the forked child before exec and only
        // calls prctl(2), which is async-signal-safe and touches no
        // memory of this process.
        unsafe {
            cmd.pre_exec(|| {
                // A benchmark killed by a signal never leaves its server
                // running: the kernel kills the child with its parent.
                if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut child = cmd.spawn()?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let line = line?;
            if let Some(rest) = line.strip_prefix("caz-service listening on ") {
                addr = rest.split_whitespace().next().map(str::to_string);
                break;
            }
            eprintln!("[caz] {line}");
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("caz serve exited before listening"));
        };
        // Keep draining stderr so the server never blocks on it.
        let stderr = std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                eprintln!("[caz] {line}");
            }
        });
        Ok(Server {
            child,
            addr,
            stderr: Some(stderr),
        })
    }

    /// Server CPU time (user + system, all threads) in milliseconds.
    pub fn cpu_ms(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = &stat[stat
            .rfind(')')
            .ok_or_else(|| io::Error::other("bad stat"))?
            + 2..];
        let f: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| {
            f.get(i)
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| io::Error::other("bad stat"))
        };
        Ok((tick(11)? + tick(12)?) as f64 * 1000.0 / TICKS_PER_S)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .ok_or_else(|| io::Error::other("no VmHWM"))?;
        Ok(kb as f64 / 1024.0)
    }

    /// Kill the server and wait for it and its stderr reader.
    pub fn stop(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// The server's `stats` counters, read over `conn`.
pub fn stats(conn: &mut Conn) -> io::Result<Stats> {
    let ex = conn.exchange(&["stats".to_string()])?;
    let text = match ex.frames.last().and_then(|f| decode_frame(f)) {
        Some(WireFrame::Final(WireReply::Ok(text))) => text,
        _ => return Err(io::Error::other("stats did not answer ok")),
    };
    Ok(Stats(
        text.lines()
            .filter_map(|l| l.split_once(' '))
            .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
            .collect(),
    ))
}

/// One `stats` snapshot.
#[derive(Clone, Debug, Default)]
pub struct Stats(pub BTreeMap<String, u64>);

impl Stats {
    /// A counter (0 when absent).
    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    /// `self − before` for one counter.
    pub fn delta(&self, before: &Stats, key: &str) -> u64 {
        self.get(key).saturating_sub(before.get(key))
    }
}

/// The route counters that partition `jobs_executed_total`.
pub const ROUTED: [&str; 4] = [
    "planner_route_theorem1_direct_total",
    "planner_route_theorem4_unconditional_total",
    "planner_route_theorem5_chase_then_measure_total",
    "planner_route_theorem8_ucq_total",
];

/// The fallback route counter.
pub const FALLBACK: &str = "planner_fallback_total";
