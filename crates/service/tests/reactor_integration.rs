//! Integration tests of the evented reactor: many simultaneous
//! connections on one serving thread, vectorized `eval*` fan-out, slow
//! readers, and clients that vanish while their job runs.

use caz_service::proto::{decode_frame, decode_reply, join_jobs, WireFrame, WireReply};
use caz_service::{Server, ServerConfig, ShutdownHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

fn spawn_server(workers: usize) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        ..ServerConfig::default()
    };
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle().unwrap();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Write a command line without waiting for the reply (pipelining).
    fn push(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
    }

    fn read_frame(&mut self) -> WireFrame {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        decode_frame(reply.trim_end_matches('\n'))
            .unwrap_or_else(|| panic!("malformed frame {reply:?}"))
    }

    /// Read frames until (and including) the group's terminal line.
    fn read_group(&mut self) -> (Vec<WireFrame>, WireReply) {
        let mut chunks = Vec::new();
        loop {
            match self.read_frame() {
                WireFrame::Final(terminal) => return (chunks, terminal),
                chunk => chunks.push(chunk),
            }
        }
    }

    fn send(&mut self, line: &str) -> WireReply {
        self.push(line);
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        decode_reply(reply.trim_end_matches('\n')).expect("well-formed wire reply")
    }

    fn send_ok(&mut self, line: &str) -> String {
        match self.send(line) {
            WireReply::Ok(t) => t,
            other => panic!("expected ok for {line:?}, got {other:?}"),
        }
    }
}

/// This process's live thread count, from `/proc/self/status`. The
/// server runs inside the test process, so this bounds how many
/// serving threads the reactor architecture uses.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads line")
        .trim()
        .parse()
        .expect("thread count")
}

fn stats_field(stats: &str, name: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(name).map(|v| v.trim().parse().unwrap()))
        .unwrap_or_else(|| panic!("missing {name} in:\n{stats}"))
}

#[test]
fn one_reactor_thread_serves_64_concurrent_connections() {
    const CONNS: usize = 64;
    let (addr, handle, join) = spawn_server(4);

    // 64 simultaneous connections, each with its own session state.
    let mut clients: Vec<Client> = (0..CONNS).map(|_| Client::connect(addr)).collect();
    for (i, client) in clients.iter_mut().enumerate() {
        client.send_ok(&format!("fact R(a{i}, _x). R(b{i}, _x)."));
        client.send_ok("query Q := exists u, v. R(u, v)");
        client.send_ok(&format!("query Col := exists p. R(a{i}, p) & R(b{i}, p)"));
    }

    // Pipeline work onto every connection without reading replies, so
    // the server holds 64 active connections with in-flight jobs at
    // once: a vectorized eval* everywhere, plus a streamed series on
    // every eighth connection.
    let eval_star = format!("eval* {}", join_jobs(["mu Q", "mu Nope", "mu Col"]));
    for (i, client) in clients.iter_mut().enumerate() {
        client.push(&eval_star);
        if i % 8 == 0 {
            client.push("series Col 3");
        }
    }

    // The core claim of the reactor architecture: with 64 connections
    // mid-request, this whole process — test harness, reactor, and the
    // 4 workers — runs far fewer threads than one-thread-per-connection
    // would need.
    let threads = thread_count();
    assert!(
        threads < CONNS,
        "expected a thread count well below {CONNS} while {CONNS} connections are active, got {threads}"
    );

    // Every connection gets correct, index-tagged group replies.
    for (i, client) in clients.iter_mut().enumerate() {
        let (chunks, terminal) = client.read_group();
        assert_eq!(terminal, WireReply::Ok("done 3".into()), "conn {i}");
        assert_eq!(chunks.len(), 3, "conn {i}: {chunks:?}");
        let by_tag = |tag: &str| {
            chunks
                .iter()
                .find(|c| {
                    matches!(c,
                        WireFrame::Chunk { tag: t, .. } | WireFrame::ChunkErr { tag: t, .. }
                        if t == tag)
                })
                .unwrap_or_else(|| panic!("conn {i}: no chunk {tag}: {chunks:?}"))
        };
        assert!(
            matches!(by_tag("0"), WireFrame::Chunk { payload, .. } if payload == "μ(Q, D) = 1"),
            "conn {i}: {chunks:?}"
        );
        assert!(
            matches!(by_tag("1"), WireFrame::ChunkErr { payload, .. } if payload.contains("Nope")),
            "conn {i}: {chunks:?}"
        );
        assert!(matches!(by_tag("2"), WireFrame::Chunk { .. }), "conn {i}: {chunks:?}");
        if i % 8 == 0 {
            let (rows, terminal) = client.read_group();
            assert_eq!(terminal, WireReply::Ok("done 3".into()), "conn {i} series");
            for (r, row) in rows.iter().enumerate() {
                assert!(
                    matches!(row, WireFrame::Chunk { tag, payload }
                        if tag == &(r + 1).to_string() && payload.starts_with("k=")),
                    "conn {i} series row {r}: {row:?}"
                );
            }
        }
    }

    let mut probe = Client::connect(addr);
    let stats = probe.send_ok("stats");
    assert!(
        stats_field(&stats, "connections_total") > CONNS as u64,
        "{stats}"
    );
    assert_eq!(probe.send("quit"), WireReply::Bye);
    for mut client in clients {
        assert_eq!(client.send("quit"), WireReply::Bye);
    }
    handle.shutdown();
    join.join().unwrap();
}

/// Resize a socket's receive buffer: tiny to simulate a slow reader
/// (the peer's writes hit flow control almost immediately), large to
/// let the backlog drain at full speed afterwards.
fn set_rcvbuf(stream: &TcpStream, bytes: i32) {
    extern "C" {
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&bytes as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

#[test]
fn slow_reader_stalls_only_its_own_connection() {
    const PIPELINED: usize = 4000;
    let (addr, handle, join) = spawn_server(2);

    // The slow reader: a tiny receive buffer, thousands of pipelined
    // commands, and no reading for a while. The replies (hundreds of
    // bytes each) vastly exceed the socket buffers, so the reactor's
    // write path must hit WouldBlock and park the backlog under
    // EPOLLOUT instead of blocking the serving thread.
    let mut slow = Client::connect(addr);
    set_rcvbuf(&slow.writer, 4096);
    for _ in 0..PIPELINED {
        slow.push("help");
    }

    // While the slow connection is saturated, other clients must be
    // served promptly by the same reactor thread.
    std::thread::sleep(Duration::from_millis(100));
    let mut other = Client::connect(addr);
    other
        .writer
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    other.send_ok("fact R(a, _x).");
    other.send_ok("query Q := exists u, v. R(u, v)");
    assert_eq!(other.send_ok("mu Q"), "μ(Q, D) = 1");
    assert_eq!(other.send("quit"), WireReply::Bye);

    // Now drain the slow connection: every reply must arrive, intact
    // and in order. (Re-grow the receive buffer first — the tiny
    // window was for stalling the server, not for making this test
    // crawl through zero-window probes.)
    set_rcvbuf(&slow.writer, 1 << 20);
    let reference = {
        let mut c = Client::connect(addr);
        let text = c.send_ok("help");
        assert_eq!(c.send("quit"), WireReply::Bye);
        text
    };
    for i in 0..PIPELINED {
        let mut reply = String::new();
        slow.reader.read_line(&mut reply).expect("read pipelined reply");
        match decode_reply(reply.trim_end_matches('\n')) {
            Some(WireReply::Ok(text)) => {
                assert_eq!(text, reference, "reply {i} corrupted under backpressure")
            }
            other => panic!("reply {i}: {other:?}"),
        }
    }
    assert_eq!(slow.send("quit"), WireReply::Bye);

    handle.shutdown();
    join.join().unwrap();
}

/// Nine nulls over nine named constants: `series Q 24` walks more than
/// 9⁹ classes — many minutes of work — unless cancelled.
fn heavy_session() -> Vec<String> {
    let rows: Vec<String> = (0..9).map(|i| format!("R(c{i}, _x{i}).")).collect();
    vec![format!("fact {}", rows.join(" ")), "query Q := exists u, v. R(u, v)".into()]
}

/// Start `series Q 24` on a fresh connection, then vanish without the
/// server ever writing to it mid-job: the `help` reply queued ahead of
/// the series is left unread, so closing the socket makes the kernel
/// send a reset, which the reactor sees as an error event.
fn start_heavy_series_and_reset(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut script = heavy_session().join("\n");
    script.push_str("\nhelp\nseries Q 24\n");
    stream.write_all(script.as_bytes()).unwrap();
    // Let every line arrive and the series reach a worker.
    std::thread::sleep(Duration::from_millis(300));
}

/// Poll `stats` until `jobs_executed_total` reaches `n`, failing after
/// `within` — far shorter than an uncancelled pass.
fn wait_executed(probe: &mut Client, n: u64, within: Duration) -> String {
    let deadline = Instant::now() + within;
    loop {
        let stats = probe.send_ok("stats");
        if stats_field(&stats, "jobs_executed_total") >= n {
            return stats;
        }
        assert!(Instant::now() < deadline, "cancelled job never settled:\n{stats}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn abrupt_disconnect_cancels_the_job_and_leaves_the_server_healthy() {
    let (addr, handle, join) = spawn_server(2);
    let mut probe = Client::connect(addr);
    let settle = Duration::from_secs(20);

    // The job settles promptly once its client resets — long before
    // the class pass could have finished — and counts as executed (the
    // route counters partition executed jobs) but not as an error.
    start_heavy_series_and_reset(addr);
    let stats = wait_executed(&mut probe, 1, settle);
    assert_eq!(stats_field(&stats, "errors_total"), 0, "{stats}");
    assert_eq!(stats_field(&stats, "jobs_cached_total"), 0, "{stats}");

    // A cancelled job must never cache a partial result: the identical
    // request is a miss that starts the whole pass again (a hit would
    // have been answered, and counted, at once).
    start_heavy_series_and_reset(addr);
    let stats = wait_executed(&mut probe, 2, settle);
    assert_eq!(stats_field(&stats, "jobs_cached_total"), 0, "{stats}");
    assert_eq!(stats_field(&stats, "errors_total"), 0, "{stats}");

    // The server stays fully functional.
    for line in heavy_session() {
        probe.send_ok(&line);
    }
    assert_eq!(probe.send_ok("mu Q"), "μ(Q, D) = 1");
    probe.push("series Q 3");
    let (rows, terminal) = probe.read_group();
    assert_eq!(terminal, WireReply::Ok("done 3".into()));
    assert_eq!(rows.len(), 3, "{rows:?}");

    assert_eq!(probe.send("quit"), WireReply::Bye);
    // Shutdown joins every worker: a pass that ignored its cancel token
    // would hold this for minutes.
    handle.shutdown();
    join.join().unwrap();
}
