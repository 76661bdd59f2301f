//! A blocking client for both wire protocols: send a job's lines in one
//! write, read back one reply group per line.

use crate::gen::Transport;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long a reply may take before the job counts as lost.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// The reply groups of one exchange.
pub struct Exchange {
    /// Every frame line of every group, in order, except the advisory
    /// `ok* approx` chunks.
    pub frames: Vec<String>,
    /// When the first frame of the last group (the evaluation) arrived.
    pub first_frame: Instant,
    /// When the first `ok* approx` chunk arrived, if any did.
    pub first_approx: Option<Instant>,
    /// When the terminal frame of the last group arrived.
    pub end: Instant,
}

/// Collects frames into groups as they arrive.
struct Groups {
    want: usize,
    done: usize,
    out: Exchange,
    seen_last_group_frame: bool,
}

impl Groups {
    fn new(want: usize) -> Groups {
        let now = Instant::now();
        Groups {
            want,
            done: 0,
            out: Exchange {
                frames: Vec::new(),
                first_frame: now,
                first_approx: None,
                end: now,
            },
            seen_last_group_frame: false,
        }
    }

    /// Take one frame line; true once every group is terminated.
    fn push(&mut self, line: &str) -> bool {
        let now = Instant::now();
        if self.done + 1 == self.want && !self.seen_last_group_frame {
            self.seen_last_group_frame = true;
            self.out.first_frame = now;
        }
        if line.starts_with("ok* approx ") {
            self.out.first_approx.get_or_insert(now);
            return false;
        }
        self.out.frames.push(line.to_string());
        if !(line.starts_with("ok* ") || line.starts_with("err* ")) {
            self.done += 1;
            self.out.end = now;
        }
        self.done == self.want
    }
}

/// One client connection.
pub struct Conn {
    transport: Transport,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connect to `addr` over `transport`.
    pub fn connect(addr: &str, transport: Transport) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn {
            transport,
            writer,
            reader,
        })
    }

    /// Send `lines` as one request and read their reply groups.
    pub fn exchange(&mut self, lines: &[String]) -> io::Result<Exchange> {
        let mut body = String::new();
        for line in lines {
            body.push_str(line);
            body.push('\n');
        }
        let mut groups = Groups::new(lines.len());
        match self.transport {
            Transport::Line => {
                self.writer.write_all(body.as_bytes())?;
                let mut line = String::new();
                loop {
                    line.clear();
                    if self.reader.read_line(&mut line)? == 0 {
                        return Err(io::ErrorKind::UnexpectedEof.into());
                    }
                    if groups.push(line.trim_end_matches('\n')) {
                        break;
                    }
                }
            }
            Transport::Http => {
                let head = format!(
                    "POST /eval HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                );
                self.writer.write_all(format!("{head}{body}").as_bytes())?;
                self.read_http_body(&mut groups)?;
            }
        }
        Ok(groups.out)
    }

    /// Read one chunked HTTP response; each chunk is one frame line.
    fn read_http_body(&mut self, groups: &mut Groups) -> io::Result<()> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        let mut chunked = false;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if l.eq_ignore_ascii_case("transfer-encoding: chunked") {
                chunked = true;
            }
        }
        if !chunked {
            return Err(bad("response is not chunked"));
        }
        let mut data = Vec::new();
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let size = usize::from_str_radix(line.trim_end(), 16).map_err(|_| bad("chunk size"))?;
            data.resize(size + 2, 0);
            if size == 0 {
                self.reader.read_exact(&mut data)?;
                return Ok(());
            }
            self.reader.read_exact(&mut data)?;
            let frame = std::str::from_utf8(&data[..size]).map_err(|_| bad("utf-8"))?;
            groups.push(frame.trim_end_matches('\n'));
        }
    }
}
