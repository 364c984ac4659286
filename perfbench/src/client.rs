//! A blocking line-JSON client for the service's TCP protocol: one
//! outstanding request per connection, as the protocol allows.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;

use serde_json::Value;

use crate::stats::{ratio, Dist, Metrics};

pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
            line: String::new(),
        })
    }

    /// Sends one frame (which must end in `\n`) and reads the reply line.
    pub fn send(&mut self, frame: &str) -> io::Result<&str> {
        self.writer.write_all(frame.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }

    /// Sends one frame and parses the reply.
    pub fn call(&mut self, frame: &str) -> io::Result<Value> {
        let line = self.send(frame)?;
        serde_json::from_str(line)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, format!("bad reply {line}")))
    }
}

/// How a reply ended: success, or the error code the server sent.
pub enum Outcome {
    Ok,
    Err(String),
}

pub fn outcome(reply: &Value) -> Outcome {
    match reply["ok"].as_bool() {
        Some(true) => Outcome::Ok,
        _ => Outcome::Err(
            reply["error"]["code"]
                .as_str()
                .unwrap_or("malformed_reply")
                .to_string(),
        ),
    }
}

/// Error replies of one client, by kind.  Every one counts as failed.
#[derive(Default, Clone, Copy)]
pub struct ErrorCounts {
    pub overloaded: u64,
    pub deadline: u64,
    pub other: u64,
}

impl ErrorCounts {
    pub fn count(&mut self, code: &str) {
        match code {
            "overloaded" => self.overloaded += 1,
            "deadline_exceeded" => self.deadline += 1,
            _ => self.other += 1,
        }
    }

    pub fn total(&self) -> u64 {
        self.overloaded + self.deadline + self.other
    }

    pub fn add(&mut self, o: &ErrorCounts) {
        self.overloaded += o.overloaded;
        self.deadline += o.deadline;
        self.other += o.other;
    }
}

/// Reads the server's `stats` reply.
pub fn stats(addr: SocketAddr) -> io::Result<Value> {
    Client::connect(addr)?.call("{\"op\":\"stats\"}\n")
}

/// A counter of a `stats` reply section (`service` or `engine`).
pub fn stat(stats: &Value, section: &str, name: &str) -> f64 {
    stats[section][name].as_u64().unwrap_or(0) as f64
}

/// Runs `clients` client threads, released together by a barrier each
/// passes to `drive` once connected, and returns their results in order.
pub fn run_clients<L: Send>(
    clients: usize,
    drive: impl Fn(usize, &Barrier) -> Result<L, String> + Sync,
) -> Result<Vec<L>, String> {
    let barrier = Barrier::new(clients);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (barrier, drive) = (&barrier, &drive);
                scope.spawn(move || drive(c, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    })
}

/// The per-layer metrics a TCP run yields: the service share of each round
/// trip (round trip minus the server's `eval_us` stamp), error replies by
/// kind, and engine counters from `delta(section, counter)`, the change of
/// a `stats` counter over the timed run.  `distinct` is the number of
/// distinct (query, revision) pairs the replies saw.
pub fn tcp_metrics(
    m: &mut Metrics,
    overhead_us: Vec<f64>,
    errors: &ErrorCounts,
    delta: impl Fn(&str, &str) -> f64,
    distinct: f64,
) {
    let overhead = Dist::new(overhead_us);
    m.percentile("service.overhead_p50_us", &overhead, 0.5, 1.0, "us");
    m.percentile("service.overhead_p99_us", &overhead, 0.99, 1.0, "us");
    m.value("service.rejected", errors.overloaded as f64, "count");
    m.value("service.timed_out", errors.deadline as f64, "count");
    m.value(
        "service.protocol_errors",
        delta("service", "protocol_errors"),
        "count",
    );
    m.value(
        "service.writer_overflows",
        delta("service", "writer_overflows"),
        "count",
    );
    let hit_ratio = |hits: &str, misses: &str| {
        let (h, x) = (delta("engine", hits), delta("engine", misses));
        ratio(h, h + x)
    };
    m.value(
        "engine.answer_hit_ratio",
        hit_ratio("answer_hits", "answer_misses"),
        "ratio",
    );
    m.value(
        "engine.point_hit_ratio",
        hit_ratio("point_hits", "point_misses"),
        "ratio",
    );
    m.value(
        "engine.compile_hit_ratio",
        hit_ratio("compile_hits", "compile_misses"),
        "ratio",
    );
    // Above 1: concurrent clients repeated the same cold evaluation.
    m.value(
        "engine.cold_evals_per_invalidation",
        ratio(delta("engine", "answer_misses"), distinct),
        "ratio",
    );
    m.value(
        "engine.steals_per_parallel_eval",
        ratio(
            delta("engine", "parallel_steals"),
            delta("engine", "parallel_evals"),
        ),
        "ratio",
    );
}
