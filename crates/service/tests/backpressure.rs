//! Regression tests for the two reactor write-path bugs this suite
//! pins down:
//!
//! 1. **Bounded write buffers.** A peer that pipelines work and then
//!    stops reading used to grow the per-connection write buffer
//!    without limit (the drained `wpos` prefix was never compacted
//!    either). Now unsent bytes are capped by `max_wbuf_bytes`; on
//!    breach the connection is dropped and
//!    `slow_reader_disconnects_total` counts it.
//!
//! 2. **Oversize lines stay well-framed.** A line longer than the 1 MiB
//!    limit used to tear the connection down around whatever was in
//!    flight. Now the terminal `err request line too long` is queued
//!    *behind* everything already admitted, so a streamed `series` or
//!    `eval*` group completes intact before the error and the close.

use caz_service::proto::{decode_frame, decode_reply, join_jobs, WireFrame, WireReply};
use caz_service::{Server, ServerConfig, ShutdownHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

fn spawn_cfg(cfg: ServerConfig) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
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
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn push(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        self.writer.flush().unwrap();
    }

    fn read_raw_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read reply");
        assert!(n > 0, "unexpected EOF");
        line.trim_end_matches('\n').to_string()
    }

    fn read_frame(&mut self) -> WireFrame {
        let line = self.read_raw_line();
        decode_frame(&line).unwrap_or_else(|| panic!("malformed frame {line:?}"))
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
        decode_reply(&self.read_raw_line()).expect("well-formed wire reply")
    }

    fn send_ok(&mut self, line: &str) -> String {
        match self.send(line) {
            WireReply::Ok(t) => t,
            other => panic!("expected ok for {line:?}, got {other:?}"),
        }
    }

    fn setup(&mut self) {
        self.send_ok("fact R(c0,_x0). R(c1,_x1). R(c2,_x2). R(c3,_x3). R(c4,_x4).");
        self.send_ok("query Q(x, y) := R(x, y)");
        self.send_ok("query S := exists u, v. R(u, v)");
    }
}

fn stats_field(stats: &str, name: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .filter(|v| v.starts_with(' '))
                .map(|v| v.trim().parse().unwrap())
        })
        .unwrap_or_else(|| panic!("missing {name} in:\n{stats}"))
}

/// Shrink a socket's receive buffer so the server's writes hit flow
/// control almost immediately.
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

// -------------------------------------------------------------------
// Satellite 1: the write-buffer cap.
// -------------------------------------------------------------------

#[test]
fn deliberately_unread_pipeline_is_disconnected_at_the_wbuf_cap() {
    let (addr, handle, join) = spawn_cfg(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        max_wbuf_bytes: 64 * 1024,
        ..ServerConfig::default()
    });

    // The victim pipelines thousands of `stats` commands (each reply is
    // a couple of KiB) and never reads a byte. Its tiny receive buffer
    // keeps the TCP window closed, so the kernel absorbs very little:
    // the reactor's write buffer takes the rest — and must not.
    let mut victim = Client::connect(addr);
    set_rcvbuf(&victim.writer, 4096);
    let script = "stats\n".repeat(4000);
    victim.writer.write_all(script.as_bytes()).unwrap();
    victim.writer.flush().unwrap();

    // An observer polls until the reactor reports the disconnect. The
    // reactor itself stays responsive the whole time.
    let mut probe = Client::connect(addr);
    let deadline = Instant::now() + Duration::from_secs(30);
    let disconnects = loop {
        let stats = probe.send_ok("stats");
        let n = stats_field(&stats, "slow_reader_disconnects_total");
        if n > 0 {
            break n;
        }
        assert!(
            Instant::now() < deadline,
            "write-buffer cap never tripped; last stats:\n{stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(disconnects, 1, "exactly one victim");

    // The victim's connection is gone: reading eventually hits EOF or a
    // reset, never a clean full set of 4000 replies. Reopen the receive
    // window first so whatever the kernel absorbed before the breach
    // drains at full speed instead of through a 4 KiB trickle.
    set_rcvbuf(&victim.writer, 1 << 20);
    victim
        .writer
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sink = vec![0u8; 1 << 16];
    let mut total = 0usize;
    loop {
        match victim.reader.read(&mut sink) {
            Ok(0) => break,
            Ok(n) => total += n,
            Err(_) => break, // ECONNRESET is as good as EOF here
        }
    }
    assert!(
        total < 4000 * 1024,
        "victim cannot have received the full backlog ({total} bytes)"
    );

    // A fresh well-behaved client is unaffected.
    assert_eq!(probe.send("quit"), WireReply::Bye);
    let mut after = Client::connect(addr);
    after.send_ok("help");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn zero_cap_disables_the_wbuf_bound() {
    let (addr, handle, join) = spawn_cfg(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        max_wbuf_bytes: 0,
        ..ServerConfig::default()
    });

    // Same pressure as above, smaller scale: with the cap disabled the
    // reactor buffers everything and the late reader gets every reply.
    const N: usize = 500;
    let mut slow = Client::connect(addr);
    set_rcvbuf(&slow.writer, 4096);
    let script = "help\n".repeat(N);
    slow.writer.write_all(script.as_bytes()).unwrap();
    slow.writer.flush().unwrap();
    std::thread::sleep(Duration::from_millis(300));

    set_rcvbuf(&slow.writer, 1 << 20);
    for i in 0..N {
        let line = slow.read_raw_line();
        assert!(line.starts_with("ok "), "reply {i}: {line:?}");
    }
    let stats = slow.send_ok("stats");
    assert_eq!(stats_field(&stats, "slow_reader_disconnects_total"), 0);

    handle.shutdown();
    join.join().unwrap();
}

// -------------------------------------------------------------------
// Satellite 2: oversize lines leave the protocol well-framed.
// -------------------------------------------------------------------

/// Push >1 MiB of bytes with no newline, after `lines` already queued.
fn push_oversize(client: &mut Client) {
    let garbage = vec![b'a'; (1 << 20) + 4096];
    client.writer.write_all(&garbage).unwrap();
    client.writer.flush().unwrap();
}

/// After the error line, the server closes: reads drain to EOF (or a
/// reset once the kernel notices).
fn assert_eof(client: &mut Client) {
    let mut rest = Vec::new();
    // A read error (connection reset) proves the close just as well.
    if client.reader.read_to_end(&mut rest).is_ok() {
        assert!(rest.is_empty(), "no frames after the terminal error: {rest:?}");
    }
}

#[test]
fn oversize_line_alone_gets_a_terminal_error_before_close() {
    let (addr, handle, join) = spawn_cfg(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServerConfig::default()
    });

    let mut client = Client::connect(addr);
    push_oversize(&mut client);
    assert_eq!(client.read_raw_line(), "err request line too long");
    assert_eof(&mut client);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn oversize_line_mid_series_completes_the_streamed_group_first() {
    let (addr, handle, join) = spawn_cfg(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        planner: false,
        ..ServerConfig::default()
    });

    let mut client = Client::connect(addr);
    client.setup();
    // The series is admitted first; the oversize bytes arrive while it
    // streams. The group must complete before the terminal error.
    client.push("series S 6");
    push_oversize(&mut client);

    let (rows, terminal) = client.read_group();
    assert_eq!(rows.len(), 6, "all six exact rows arrive: {rows:?}");
    assert_eq!(terminal, WireReply::Ok("done 6".into()));
    assert_eq!(client.read_raw_line(), "err request line too long");
    assert_eof(&mut client);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn oversize_line_mid_eval_star_completes_the_group_first() {
    let (addr, handle, join) = spawn_cfg(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        planner: false,
        ..ServerConfig::default()
    });

    let mut client = Client::connect(addr);
    client.setup();
    client.push(&format!(
        "eval* {}",
        join_jobs(["mu Q (c0, _x0)", "certain S", "mu Nope"])
    ));
    push_oversize(&mut client);

    let (chunks, terminal) = client.read_group();
    assert_eq!(chunks.len(), 3, "every job answers: {chunks:?}");
    assert_eq!(terminal, WireReply::Ok("done 3".into()));
    assert_eq!(client.read_raw_line(), "err request line too long");
    assert_eof(&mut client);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn bytes_after_an_oversize_line_are_never_interpreted() {
    let (addr, handle, join) = spawn_cfg(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServerConfig::default()
    });

    // The tail of the oversize write *ends with a newline and a valid
    // command*; none of it may execute — input stops at the fatal.
    let mut client = Client::connect(addr);
    let mut garbage = vec![b'a'; (1 << 20) + 4096];
    garbage.extend_from_slice(b"\nshutdown\n");
    client.writer.write_all(&garbage).unwrap();
    client.writer.flush().unwrap();

    assert_eq!(client.read_raw_line(), "err request line too long");
    assert_eof(&mut client);

    // The smuggled shutdown did not run: the server still answers.
    let mut check = Client::connect(addr);
    check.send_ok("help");

    handle.shutdown();
    join.join().unwrap();
}
