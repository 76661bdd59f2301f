//! Wire-level differential suite for `series`: the frames a live server
//! answers — computed by one pass over the genericity classes, or
//! replayed from the cache — must be byte-identical to the frames
//! rendered from the enumeration oracle `caz_core::mu_k_series`.
//!
//! A seeded random catalog (`CAZ_TEST_SEED`, fixed default) of small
//! sessions drives one server: facts over `R/2` and `S/1` with up to
//! four nulls, a Boolean FO query, a tuple query, or a Datalog program,
//! and a `series` sent twice (a miss, then a cache hit).

use caz_core::{mu_k_series, BoolQueryEvent, SuppEvent, TupleAnswerEvent};
use caz_datalog::{parse_program, DatalogEvent};
use caz_idb::{parse_database, Cst, ParsedDb, Tuple, Value};
use caz_logic::parse_query;
use caz_service::proto::{decode_frame, encode_frame, WireFrame, WireReply};
use caz_service::{Server, ServerConfig};
use caz_testutil::{rngs::StdRng, RngExt, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn seed() -> u64 {
    std::env::var("CAZ_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3707)
}

const CONSTS: [&str; 4] = ["a", "b", "c", "d"];
const NULLS: [&str; 4] = ["_x", "_y", "_z", "_w"];

/// What a `series` line asks about.
enum Target {
    /// A Boolean FO query.
    Bool(&'static str),
    /// A query with a head, asked about one tuple literal.
    Tuple(&'static str, Vec<&'static str>),
    /// A Datalog program (`;`-separated rules), asked about one tuple.
    Datalog(&'static str, Vec<&'static str>),
}

/// One random session: its fact source, its target, and `k`.
struct Script {
    facts: String,
    target: Target,
    k: usize,
}

fn term(rng: &mut StdRng) -> &'static str {
    if rng.random_bool(0.5) {
        NULLS[rng.random_range(0..NULLS.len())]
    } else {
        CONSTS[rng.random_range(0..CONSTS.len())]
    }
}

fn random_script(rng: &mut StdRng) -> Script {
    let mut parts = Vec::new();
    for _ in 0..rng.random_range(2..6) {
        parts.push(format!("R({}, {}).", term(rng), term(rng)));
    }
    for _ in 0..rng.random_range(0..3) {
        parts.push(format!("S({}).", term(rng)));
    }
    let facts = parts.join(" ");
    // Tuple entries must name nulls the facts bind.
    let mut bound: Vec<&'static str> = CONSTS.to_vec();
    bound.extend(NULLS.iter().filter(|n| facts.contains(*n)));
    let pick = |rng: &mut StdRng| bound[rng.random_range(0..bound.len())];
    let target = match rng.random_range(0..7) {
        0 => Target::Bool("Q := exists u, v. R(u, v)"),
        1 => Target::Bool("Q := exists u. R(u, u)"),
        2 => Target::Bool("Q := exists u. S(u) & !R(u, u)"),
        3 => Target::Bool("Q := forall u. S(u) -> exists v. R(u, v)"),
        4 => Target::Tuple("Q(u) := exists v. R(u, v) & !S(v)", vec![pick(rng)]),
        5 => Target::Tuple("Q(u, v) := R(u, v) | R(v, u)", vec![pick(rng), pick(rng)]),
        _ => Target::Datalog(
            "Q(x, y) :- R(x, y); Q(x, z) :- Q(x, y), R(y, z)",
            vec![pick(rng), pick(rng)],
        ),
    };
    Script {
        facts,
        target,
        k: rng.random_range(1..10),
    }
}

impl Script {
    /// The command lines a client sends, `series` last.
    fn lines(&self) -> Vec<String> {
        let (def, tuple) = match &self.target {
            Target::Bool(q) => (format!("query {q}"), String::new()),
            Target::Tuple(q, t) => (format!("query {q}"), format!(" ({})", t.join(", "))),
            Target::Datalog(p, t) => (format!("datalog {p}"), format!(" ({})", t.join(", "))),
        };
        vec![
            "clear".into(),
            format!("fact {}", self.facts),
            def,
            format!("series Q{tuple} {}", self.k),
        ]
    }

    /// The reply group rendered from the enumeration oracle.
    fn oracle_frames(&self) -> Vec<String> {
        let parsed = parse_database(&self.facts).expect("facts parse");
        let tuple = |entries: &[&str], p: &ParsedDb| {
            Tuple::new(
                entries
                    .iter()
                    .map(|e| match e.strip_prefix('_') {
                        Some(n) => Value::Null(p.nulls[n]),
                        None => Value::Const(Cst::new(e)),
                    })
                    .collect(),
            )
        };
        let event: Box<dyn SuppEvent> = match &self.target {
            Target::Bool(q) => Box::new(BoolQueryEvent::new(parse_query(q).unwrap())),
            Target::Tuple(q, t) => Box::new(TupleAnswerEvent::new(
                parse_query(q).unwrap(),
                tuple(t, &parsed),
            )),
            Target::Datalog(p, t) => {
                let program = parse_program(&p.replace(';', "\n")).unwrap();
                Box::new(DatalogEvent::new(program, tuple(t, &parsed)))
            }
        };
        let table = mu_k_series(event.as_ref(), &parsed.db, self.k).to_string();
        let mut frames: Vec<String> = table
            .lines()
            .enumerate()
            .map(|(i, row)| {
                encode_frame(&WireFrame::Chunk {
                    tag: (i + 1).to_string(),
                    payload: row.into(),
                })
            })
            .collect();
        frames.push(encode_frame(&WireFrame::Final(WireReply::Ok(format!(
            "done {}",
            self.k
        )))));
        frames
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn push(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
    }

    /// One reply group as raw wire lines, terminal included.
    fn read_raw_group(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read reply");
            let raw = line.trim_end_matches('\n').to_string();
            let frame = decode_frame(&raw).unwrap_or_else(|| panic!("malformed frame {raw:?}"));
            lines.push(raw);
            if matches!(frame, WireFrame::Final(_)) {
                return lines;
            }
        }
    }
}

#[test]
fn served_series_frames_match_the_enumeration_oracle() {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle().unwrap();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    let stream = TcpStream::connect(addr).expect("connect");
    let mut client = Client {
        reader: BufReader::new(stream.try_clone().unwrap()),
        writer: stream,
    };

    let seed = seed();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E21E5);
    for round in 0..40 {
        let script = random_script(&mut rng);
        let lines = script.lines();
        let (setup, series) = lines.split_at(lines.len() - 1);
        for line in setup {
            client.push(line);
            let reply = client.read_raw_group();
            assert!(
                matches!(
                    decode_frame(&reply[0]),
                    Some(WireFrame::Final(WireReply::Ok(_)))
                ),
                "{line:?} -> {reply:?}"
            );
        }
        let want = script.oracle_frames();
        for pass in ["miss", "hit"] {
            client.push(&series[0]);
            assert_eq!(
                client.read_raw_group(),
                want,
                "CAZ_TEST_SEED={seed} round={round} ({pass}): {lines:?}"
            );
        }
    }
    // Every second pass was answered from the cache.
    client.push("stats");
    let Some(WireFrame::Final(WireReply::Ok(stats))) = decode_frame(&client.read_raw_group()[0])
    else {
        panic!("stats failed")
    };
    let cached: u64 = stats
        .lines()
        .find_map(|l| l.strip_prefix("jobs_cached_total "))
        .and_then(|v| v.parse().ok())
        .expect("jobs_cached_total");
    assert!(cached >= 40, "{stats}");

    handle.shutdown();
    join.join().unwrap();
}
