//! `point_reads`: the interactive read path.  Two closed-loop connections
//! send `single_pair` (primary) and `reachable_from` with `limit` 100
//! (secondary) requests over a |V| = 10⁵, |E| = 4·10⁵ power-law graph.
//! Sources are Zipf-skewed over a pool far larger than the engine's
//! 256-entry point cache, so a hot set repeats without fitting.  No writes,
//! so full evaluation, the answer cache, repair and the rewriter stay idle.

use std::sync::Barrier;
use std::time::Instant;

use automata::{Alphabet, DenseNfa};
use engine::{EngineConfig, QueryEngine};
use graphdb::{
    eval_csr, eval_csr_from, eval_csr_pair_budgeted, power_law_graph, EvalScratch, GraphDb,
    PairScratch, PairTimings, PowerLawGraphConfig, SortedPairs, SweepBudget, SweepState,
};
use serde_json::Value;
use service::{Server, ServiceConfig};

use crate::client::{self, outcome, Client, ErrorCounts, Outcome};
use crate::stats::{median, Dist, Metrics};
use crate::trace::Tracer;
use crate::util::{Rng, Zipf};
use crate::{check_clients, repeated_setup, trace_summary, Opts, Report};

const CLIENTS: usize = 2;
const NODES: usize = 100_000;
const EDGES: usize = 400_000;
const LABELS: [char; 8] = ['a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'];
/// Share of `single_pair` requests; the rest are `reachable_from`.
const PAIR_SHARE: f64 = 0.7;
/// Share of pair targets drawn from the source's true answers (early
/// meets); the rest are uniform nodes, mostly misses that drain a cone.
const TRUE_TARGET_SHARE: f64 = 0.5;
const FROM_LIMIT: usize = 100;
/// Zipf exponent of source popularity within each query's source pool.
const SOURCE_SKEW: f64 = 0.9;
const SETUPS: usize = 3;
const WARMUP_OPS: usize = 400;
const REPLAY_OPS: usize = 20_000;
const PARSE_FRAMES: usize = 4_000;

/// The selective queries, with the labels a matching path can start with:
/// sources are drawn from nodes with an out-edge on one of them.  `h` is the
/// rarest label and `a` the most frequent.
const QUERIES: [(&str, &[char]); 4] = [
    ("h·(f+g)*·e", &['h']),
    ("a·b·(c+d)", &['a']),
    ("(b+c)·h*·a", &['b', 'c']),
    ("g·(e+h)*·f", &['g']),
];

#[derive(Clone, Copy)]
enum Op {
    Pair { q: usize, s: usize, t: usize },
    From { q: usize, s: usize },
}

/// Everything the op streams are drawn from, fixed by the seed: the full
/// answer of every query (the oracle) and each query's ranked source pool.
struct Inputs {
    answers: Vec<SortedPairs>,
    pools: Vec<Vec<usize>>,
    popularity: Vec<Zipf>,
}

impl Inputs {
    fn build(db: &GraphDb, seed: u64) -> Result<Inputs, String> {
        let csr = db.csr_out();
        let mut answers = Vec::new();
        let mut pools = Vec::new();
        let mut rng = Rng::stream(seed, 1);
        for (text, first) in QUERIES {
            let expr = regexlang::parse(text).map_err(|e| format!("{text}: {e}"))?;
            let nfa =
                regexlang::thompson(&expr, db.domain()).map_err(|e| format!("{text}: {e}"))?;
            answers.push(eval_csr(&csr, &DenseNfa::from_nfa(&nfa)));
            let starts: Vec<automata::Symbol> = first
                .iter()
                .filter_map(|c| db.domain().symbol(&c.to_string()))
                .collect();
            let mut pool: Vec<usize> = db
                .nodes()
                .filter(|&v| db.edges_from(v).any(|(l, _)| starts.contains(&l)))
                .collect();
            rng.shuffle(&mut pool);
            pools.push(pool);
        }
        let popularity = pools
            .iter()
            .map(|p| Zipf::new(p.len(), SOURCE_SKEW))
            .collect();
        Ok(Inputs {
            answers,
            pools,
            popularity,
        })
    }

    /// The true targets of `s` under query `q`.
    fn row(&self, q: usize, s: usize) -> &[(usize, usize)] {
        let pairs = self.answers[q].as_slice();
        let lo = pairs.partition_point(|p| p.0 < s);
        let hi = pairs.partition_point(|p| p.0 <= s);
        &pairs[lo..hi]
    }

    fn next_op(&self, rng: &mut Rng) -> Op {
        let q = rng.below(QUERIES.len());
        let s = self.pools[q][self.popularity[q].sample(rng)];
        if rng.unit() >= PAIR_SHARE {
            return Op::From { q, s };
        }
        let row = self.row(q, s);
        let t = if !row.is_empty() && rng.unit() < TRUE_TARGET_SHARE {
            row[rng.below(row.len())].1
        } else {
            rng.below(NODES)
        };
        Op::Pair { q, s, t }
    }

    /// The first `n` ops of the streams of all clients, interleaved.
    fn interleaved(&self, seed: u64, n: usize) -> Vec<Op> {
        let mut rngs: Vec<Rng> = (0..CLIENTS)
            .map(|c| Rng::stream(seed, 10 + c as u64))
            .collect();
        (0..n)
            .map(|i| self.next_op(&mut rngs[i % CLIENTS]))
            .collect()
    }

    fn check_pair(&self, q: usize, s: usize, t: usize, connected: bool) -> bool {
        self.answers[q].contains(&(s, t)) == connected
    }

    /// A complete sweep must return the whole row; a truncated one exactly
    /// `FROM_LIMIT` true targets.
    fn check_from(&self, q: usize, s: usize, targets: &[usize], complete: bool) -> bool {
        let row = self.row(q, s);
        let sorted = targets.windows(2).all(|w| w[0] < w[1]);
        let genuine = targets.iter().all(|t| row.binary_search(&(s, *t)).is_ok());
        let size_ok = if complete {
            targets.len() == row.len()
        } else {
            targets.len() == FROM_LIMIT
        };
        sorted && genuine && size_ok
    }
}

fn frame(op: Op, id: u64) -> String {
    match op {
        Op::Pair { q, s, t } => format!(
            "{{\"id\":{id},\"op\":\"single_pair\",\"q\":\"{}\",\"from\":{s},\"to\":{t}}}\n",
            QUERIES[q].0
        ),
        Op::From { q, s } => format!(
            "{{\"id\":{id},\"op\":\"reachable_from\",\"q\":\"{}\",\"from\":{s},\"limit\":{FROM_LIMIT}}}\n",
            QUERIES[q].0
        ),
    }
}

/// Checks one success reply against the oracle.
fn reply_ok(inputs: &Inputs, op: Op, reply: &Value) -> bool {
    match op {
        Op::Pair { q, s, t } => reply["connected"]
            .as_bool()
            .is_some_and(|c| inputs.check_pair(q, s, t, c)),
        Op::From { q, s } => {
            let Some(targets) = reply["targets"].as_array() else {
                return false;
            };
            let targets: Vec<usize> = targets
                .iter()
                .filter_map(|t| t.as_u64().map(|t| t as usize))
                .collect();
            let complete = reply["truncated"].as_bool() == Some(false);
            inputs.check_from(q, s, &targets, complete)
        }
    }
}

fn graph(seed: u64) -> GraphDb {
    let domain = Alphabet::from_chars(LABELS).expect("distinct labels");
    let config = PowerLawGraphConfig {
        num_nodes: NODES,
        num_edges: EDGES,
        label_exponent: 1.0,
    };
    power_law_graph(&domain, &config, seed)
}

/// Measurement windows per run: each metric is computed per window and the
/// median over windows is reported, so a short stall of the machine moves
/// one window, not the result.
const WINDOWS: usize = 10;

#[derive(Default)]
struct ClientLog {
    /// Round trips per window, by op kind.
    pair_ms: Vec<Vec<f64>>,
    from_ms: Vec<Vec<f64>>,
    /// Completed ops per window.
    window_ops: Vec<u64>,
    overhead_us: Vec<f64>,
    errors: ErrorCounts,
    mismatches: u64,
    ops: u64,
}

/// One closed-loop client: sends its stream's next request only after the
/// previous reply, for `seconds` split into `windows` equal windows (or
/// `limit` ops, for warm-up).
fn drive(
    addr: std::net::SocketAddr,
    inputs: &Inputs,
    mut rng: Rng,
    barrier: &Barrier,
    (seconds, windows): (f64, usize),
    limit: usize,
) -> Result<ClientLog, String> {
    let mut conn = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut log = ClientLog {
        pair_ms: vec![Vec::new(); windows],
        from_ms: vec![Vec::new(); windows],
        window_ops: vec![0; windows],
        ..ClientLog::default()
    };
    barrier.wait();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds && (log.ops as usize) < limit {
        let op = inputs.next_op(&mut rng);
        let frame = frame(op, log.ops);
        let sent = Instant::now();
        let line = conn.send(&frame).map_err(|e| format!("request: {e}"))?;
        let rtt = sent.elapsed();
        let reply: Value = serde_json::from_str(line).map_err(|_| format!("bad reply {line}"))?;
        log.ops += 1;
        let window = ((started.elapsed().as_secs_f64() / seconds * windows as f64) as usize)
            .min(windows - 1);
        log.window_ops[window] += 1;
        match outcome(&reply) {
            Outcome::Err(code) => log.errors.count(&code),
            Outcome::Ok => {
                let ms = rtt.as_secs_f64() * 1e3;
                match op {
                    Op::Pair { .. } => log.pair_ms[window].push(ms),
                    Op::From { .. } => log.from_ms[window].push(ms),
                }
                if let Some(eval_us) = reply["eval_us"].as_u64() {
                    log.overhead_us.push(ms * 1e3 - eval_us as f64);
                }
                if !reply_ok(inputs, op, &reply) {
                    log.mismatches += 1;
                }
            }
        }
    }
    Ok(log)
}

/// Runs every client against `addr`, each on its own stream.
fn closed_loop(
    addr: std::net::SocketAddr,
    inputs: &Inputs,
    seed: u64,
    stream_base: u64,
    timing: (f64, usize),
    limit: usize,
) -> Result<Vec<ClientLog>, String> {
    client::run_clients(CLIENTS, |c, barrier| {
        let rng = Rng::stream(seed, stream_base + c as u64);
        drive(addr, inputs, rng, barrier, timing, limit)
    })
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    check_clients(CLIENTS)?;
    let inputs = Inputs::build(&graph(opts.seed), opts.seed)?;
    for (q, answer) in inputs.answers.iter().enumerate() {
        eprintln!(
            "perfbench: {} answers {} pairs, pool {}",
            QUERIES[q].0,
            answer.len(),
            inputs.pools[q].len()
        );
    }
    let config = ServiceConfig::default();
    let engine_threads = config.engine.threads;
    let (server, setup_s) = repeated_setup(SETUPS, || {
        let server =
            Server::start(graph(opts.seed), config.clone()).map_err(|e| format!("server: {e}"))?;
        closed_loop(
            server.addr(),
            &inputs,
            opts.seed,
            100,
            (f64::INFINITY, 1),
            WARMUP_OPS,
        )?;
        Ok(server)
    })?;
    let addr = server.addr();
    let before = client::stats(addr).map_err(|e| format!("stats: {e}"))?;
    let logs = closed_loop(
        addr,
        &inputs,
        opts.seed,
        10,
        (opts.seconds, WINDOWS),
        usize::MAX,
    )?;
    let after = client::stats(addr).map_err(|e| format!("stats: {e}"))?;
    server.shutdown();

    let mut errors = ErrorCounts::default();
    let (mut pair, mut from) = (vec![Vec::new(); WINDOWS], vec![Vec::new(); WINDOWS]);
    let (mut window_ops, mut overhead) = (vec![0u64; WINDOWS], Vec::new());
    let (mut ops, mut mismatches) = (0, 0);
    for log in logs {
        errors.add(&log.errors);
        for w in 0..WINDOWS {
            pair[w].extend_from_slice(&log.pair_ms[w]);
            from[w].extend_from_slice(&log.from_ms[w]);
            window_ops[w] += log.window_ops[w];
        }
        overhead.extend(log.overhead_us);
        ops += log.ops;
        mismatches += log.mismatches;
    }
    let mut m = Metrics::default();
    let mut tracer = None;
    if opts.trace {
        let delta = |section: &str, name: &str| {
            client::stat(&after, section, name) - client::stat(&before, section, name)
        };
        // One revision, so every query text is one (query, revision) pair;
        // point ops probe the answer cache first and count as its misses.
        client::tcp_metrics(&mut m, overhead, &errors, delta, QUERIES.len() as f64);
        let stream = inputs.interleaved(opts.seed, REPLAY_OPS.max(PARSE_FRAMES));
        let frames: Vec<String> = stream[..PARSE_FRAMES]
            .iter()
            .enumerate()
            .map(|(i, &op)| frame(op, i as u64))
            .collect();
        parse_frame_cost(&mut m, &frames);
        let db = graph(opts.seed);
        let ops = &stream[..REPLAY_OPS];
        let (_, before_s, bad_before) = replay(&db, &inputs, ops, false);
        let (t, traced_s, bad_traced) = replay(&db, &inputs, ops, true);
        let (_, after_s, bad_after) = replay(&db, &inputs, ops, false);
        mismatches += bad_before + bad_traced + bad_after;
        replay_metrics(&mut m, &t);
        trace_summary(&mut m, &t, "bench.op", traced_s, [before_s, after_s]);
        tracer = Some(t);
    } else {
        let window_s = opts.seconds / WINDOWS as f64;
        let rates: Vec<f64> = window_ops.iter().map(|&n| n as f64 / window_s).collect();
        m.value("setup_s", setup_s, "s");
        m.value("ops_per_s", median(&rates).unwrap_or(0.0), "1/s");
        m.windowed("primary_p50_ms", &pair, 0.5, "ms");
        // The tail is p90, not p99: on a shared 2-core machine the
        // hypervisor deschedules a vCPU for milliseconds at a time, and
        // about 1% of 0.1 ms round trips wait out such a pause.
        m.windowed("primary_tail_ms", &pair, 0.9, "ms");
        m.windowed("secondary_p50_ms", &from, 0.5, "ms");
        m.windowed("secondary_tail_ms", &from, 0.9, "ms");
    }
    Ok(Report {
        attempted: ops,
        failed: errors.total() + mismatches,
        mismatches,
        metrics: m,
        tracer,
        clients: CLIENTS,
        engine_threads,
    })
}

/// `protocol::parse_frame` on the workload's own frames, one call timed at
/// a time (a paired call beside the server, not a span inside it).
pub fn parse_frame_cost(m: &mut Metrics, frames: &[String]) {
    let us = frames
        .iter()
        .map(|f| {
            let started = Instant::now();
            let _ = std::hint::black_box(service::protocol::parse_frame(f.trim_end()));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.percentile("service.parse_frame_us", &Dist::new(us), 0.5, 1.0, "us");
}

/// Replays `ops` in-process, in order: each op calls the engine's public
/// point API, then — as paired calls on the same input — parses and
/// compiles the query and runs the matching `graphdb` evaluator directly.
/// Returns the tracer, the wall time, and the answers that disagreed with
/// the oracle.
fn replay(db: &GraphDb, inputs: &Inputs, ops: &[Op], traced: bool) -> (Tracer, f64, u64) {
    let mut engine = QueryEngine::with_config(db.clone(), EngineConfig::serving());
    let snapshot = engine.publish_snapshot();
    let (csr_out, csr_in) = (db.csr_out(), db.csr_in());
    let mut t = Tracer::new(traced, ops.len() * 8);
    let mut bad = 0u64;
    let started = Instant::now();
    for (i, &op) in ops.iter().enumerate() {
        let req = i as u64;
        // Answers are checked after the op's span closes, so the span
        // holds only calls into the layers.
        let good = match op {
            Op::Pair { q, s, t: target } => {
                let (via_engine, direct) = t.span("bench.op", req, |t| {
                    let text = QUERIES[q].0;
                    let via_engine = t.span("engine.pair", req, |_| {
                        snapshot.try_eval_pair_str(text, s, target)
                    });
                    let dense = compile(t, req, text, db.domain());
                    let reverse = t.span("automata.reverse", req, |_| dense.reverse_closed());
                    let direct = t.span("graphdb.pair", req, |t| {
                        let mut scratch = PairScratch::new(&csr_out, &dense);
                        let mut timings = PairTimings::default();
                        let start = t.now_ns();
                        let connected = eval_csr_pair_budgeted(
                            &csr_out,
                            &csr_in,
                            &dense,
                            &reverse,
                            s as u32,
                            target as u32,
                            &mut scratch,
                            &SweepBudget::unlimited(),
                            &SweepState::new(),
                            Some(&mut timings),
                        );
                        // The evaluator's own split of the sweep, as child
                        // spans laid end to end from the sweep's start.
                        let fwd = start + timings.forward_us * 1_000;
                        t.derived("graphdb.pair_forward", req, start, fwd);
                        t.derived(
                            "graphdb.pair_backward",
                            req,
                            fwd,
                            fwd + timings.backward_us * 1_000,
                        );
                        connected
                    });
                    (via_engine, direct)
                });
                [via_engine.ok(), direct.ok()]
                    .map(|c| c.is_some_and(|c| inputs.check_pair(q, s, target, c)))
            }
            Op::From { q, s } => {
                let (via_engine, direct) = t.span("bench.op", req, |t| {
                    let text = QUERIES[q].0;
                    let via_engine = t.span("engine.from", req, |_| {
                        snapshot.try_eval_from_str(text, s, Some(FROM_LIMIT))
                    });
                    let dense = compile(t, req, text, db.domain());
                    let direct = t.span("graphdb.from", req, |_| {
                        let mut scratch = EvalScratch::new(&csr_out, &dense);
                        eval_csr_from(&csr_out, &dense, s as u32, Some(FROM_LIMIT), &mut scratch)
                    });
                    (via_engine, direct)
                });
                [via_engine.ok(), Some(direct)]
                    .map(|r| r.is_some_and(|r| inputs.check_from(q, s, &r.targets, r.complete)))
            }
        };
        bad += good.iter().filter(|&&ok| !ok).count() as u64;
    }
    (t, started.elapsed().as_secs_f64(), bad)
}

/// Parses and freezes `text` the way the engine compiles a query:
/// `regexlang::parse`, Thompson construction, `DenseNfa::from_nfa`.
pub fn compile(t: &mut Tracer, req: u64, text: &str, domain: &Alphabet) -> DenseNfa {
    let expr = t.span("regexlang.parse", req, |_| {
        regexlang::parse(text).expect("benchmark queries parse")
    });
    t.span("automata.compile", req, |_| {
        let nfa =
            regexlang::thompson(&expr, domain).expect("benchmark queries are over the domain");
        DenseNfa::from_nfa(&nfa)
    })
}

fn replay_metrics(m: &mut Metrics, t: &Tracer) {
    let us = |name: &str| Dist::new(t.durations(name).into_iter().map(|ns| ns / 1e3).collect());
    m.percentile("engine.pair_p50_us", &us("engine.pair"), 0.5, 1.0, "us");
    m.percentile("engine.pair_p99_us", &us("engine.pair"), 0.99, 1.0, "us");
    m.percentile("engine.from_p50_us", &us("engine.from"), 0.5, 1.0, "us");
    m.percentile("engine.from_p99_us", &us("engine.from"), 0.99, 1.0, "us");
    m.percentile("graphdb.from_p50_us", &us("graphdb.from"), 0.5, 1.0, "us");
    m.percentile("regexlang.parse_us", &us("regexlang.parse"), 0.5, 1.0, "us");
    m.percentile(
        "automata.compile_us",
        &us("automata.compile"),
        0.5,
        1.0,
        "us",
    );
    // The forward/backward split is the evaluator's own `PairTimings`, in
    // whole microseconds: report the mean per pair op.
    m.mean(
        "graphdb.pair_forward_us",
        &us("graphdb.pair_forward"),
        1.0,
        "us",
    );
    m.mean(
        "graphdb.pair_backward_us",
        &us("graphdb.pair_backward"),
        1.0,
        "us",
    );
}
