//! `mixed_rw`: reads beside writes.  Two closed-loop connections send about
//! 95% full-answer `query` requests (primary, `limit` 256, over six query
//! texts that fit the 256-entry answer cache) and about 5% `add_edges` /
//! `remove_edges` batches of four edges (secondary) over the Figure 1-style
//! random graph with the problem's four views registered.  Each write bumps
//! the revision, so the next request for each text is a cold product-BFS
//! and the registered views are repaired (delta / DRed) before the ack.
//! Every added batch is later removed, so |V| stays fixed and |E| is
//! stationary.

use std::collections::{BTreeMap, HashSet};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::Instant;

use engine::{EngineConfig, QueryEngine};
use graphdb::{eval_csr, GraphDb};
use serde_json::Value;
use service::{Server, ServiceConfig};

use crate::client::{self, outcome, Client, ErrorCounts, Outcome};
use crate::point_reads::{compile, parse_frame_cost};
use crate::stats::{median, ratio, Dist, Metrics};
use crate::trace::Tracer;
use crate::util::Rng;
use crate::{check_clients, trace_summary, Opts, Report};

const CLIENTS: usize = 2;
const NODES: usize = 100;
const EDGES: usize = 600;
const LABELS: [&str; 4] = ["a", "b", "c", "d"];
const WRITE_SHARE: f64 = 0.05;
const BATCH_EDGES: usize = 4;
const QUERY_LIMIT: usize = 256;
/// Graphs per run.  Each is set up, warmed up and served in turn for an
/// equal share of the measured time, and every metric is the median over
/// the graphs: a run's numbers rest on several small random graphs rather
/// than one, and a short stall of the machine moves one graph's numbers,
/// not the result.
const PHASES: usize = 6;
const WARMUP_OPS: usize = 60;
/// (query, revision) replies re-checked against an in-process replay.
const CHECKED_REPLIES: usize = 24;
const REPLAY_OPS: usize = 2_500;
const PARSE_FRAMES: usize = 2_000;

type Batch = Vec<(String, String, String)>;

#[derive(Clone)]
enum Op {
    Query(usize),
    Add(Batch),
    Remove(Batch),
}

/// The workload's fixed inputs: the named graph, the six query texts and
/// the four grounded views.
struct Inputs {
    db: GraphDb,
    queries: Vec<String>,
    views: Vec<(String, String)>,
}

fn node(v: usize) -> String {
    format!("n{v}")
}

impl Inputs {
    fn build(seed: u64) -> Inputs {
        let w = bench::random_rpq_workload(NODES, EDGES, seed);
        // Named nodes, so writes can address existing nodes by name.
        let mut db = GraphDb::new(w.db.domain().clone());
        for v in 0..w.db.num_nodes() {
            db.node(&node(v));
        }
        for e in w.db.edges() {
            db.add_edge(e.from, e.label, e.to);
        }
        let theory = &w.problem.theory;
        let grounded = w.problem.query.ground(theory).to_string();
        // The grounded query plus five longer variants: six distinct texts.
        let queries = std::iter::once(grounded.clone())
            .chain((1..6).map(|i| format!("({grounded}){}", "·(a+b+c)?".repeat(i))))
            .collect();
        let views = w
            .problem
            .views
            .iter()
            .map(|(n, v)| (n.clone(), v.ground(theory).to_string()))
            .collect();
        Inputs { db, queries, views }
    }
}

/// One client's op stream.  A write adds a fresh batch when the client has
/// none outstanding and otherwise removes the outstanding one.
struct Stream {
    rng: Rng,
    pending: Option<Batch>,
}

impl Stream {
    fn new(seed: u64, stream: u64) -> Stream {
        Stream {
            rng: Rng::stream(seed, stream),
            pending: None,
        }
    }

    fn next(&mut self) -> Op {
        if self.rng.unit() >= WRITE_SHARE {
            return Op::Query(self.rng.below(6));
        }
        match self.pending.take() {
            Some(batch) => Op::Remove(batch),
            None => {
                let rng = &mut self.rng;
                let batch: Batch = (0..BATCH_EDGES)
                    .map(|_| {
                        let label = LABELS[rng.below(LABELS.len())].to_string();
                        (node(rng.below(NODES)), label, node(rng.below(NODES)))
                    })
                    .collect();
                self.pending = Some(batch.clone());
                Op::Add(batch)
            }
        }
    }
}

fn frame(inputs: &Inputs, op: &Op, id: u64) -> String {
    let edges = |b: &Batch| {
        b.iter()
            .map(|(f, l, t)| format!("[\"{f}\",\"{l}\",\"{t}\"]"))
            .collect::<Vec<_>>()
            .join(",")
    };
    match op {
        Op::Query(q) => format!(
            "{{\"id\":{id},\"op\":\"query\",\"q\":\"{}\",\"limit\":{QUERY_LIMIT}}}\n",
            inputs.queries[*q]
        ),
        Op::Add(b) => format!(
            "{{\"id\":{id},\"op\":\"add_edges\",\"edges\":[{}]}}\n",
            edges(b)
        ),
        Op::Remove(b) => format!(
            "{{\"id\":{id},\"op\":\"remove_edges\",\"edges\":[{}]}}\n",
            edges(b)
        ),
    }
}

#[derive(Default)]
struct ClientLog {
    query_ms: Vec<f64>,
    write_ms: Vec<f64>,
    overhead_us: Vec<f64>,
    /// (query, revision, count) of every successful query reply.
    replies: Vec<(usize, u64, u64)>,
    /// (revision, op) of every acknowledged write.
    writes: Vec<(u64, Op)>,
    errors: ErrorCounts,
    ops: u64,
    /// Time from the common start to this client's last measured reply.
    elapsed_s: f64,
}

impl ClientLog {
    fn record(&mut self, op: &Op, reply: &Value, ms: f64) {
        match outcome(reply) {
            Outcome::Err(code) => self.errors.count(&code),
            Outcome::Ok => {
                let revision = reply["revision"].as_u64().unwrap_or(u64::MAX);
                match op {
                    Op::Query(q) => {
                        self.query_ms.push(ms);
                        if let Some(eval_us) = reply["eval_us"].as_u64() {
                            self.overhead_us.push(ms * 1e3 - eval_us as f64);
                        }
                        let count = reply["count"].as_u64().unwrap_or(u64::MAX);
                        self.replies.push((*q, revision, count));
                    }
                    Op::Add(_) | Op::Remove(_) => {
                        self.write_ms.push(ms);
                        self.writes.push((revision, op.clone()));
                    }
                }
            }
        }
    }
}

/// One closed-loop client.  After the deadline (or `limit` ops) it removes
/// its outstanding batch, untimed, so the graph ends as it started.
fn drive(
    addr: SocketAddr,
    inputs: &Inputs,
    mut stream: Stream,
    barrier: &Barrier,
    seconds: f64,
    limit: usize,
) -> Result<ClientLog, String> {
    let mut conn = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut log = ClientLog::default();
    barrier.wait();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds && (log.ops as usize) < limit {
        let op = stream.next();
        let frame = frame(inputs, &op, log.ops);
        let sent = Instant::now();
        let line = conn.send(&frame).map_err(|e| format!("request: {e}"))?;
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        let reply: Value = serde_json::from_str(line).map_err(|_| format!("bad reply {line}"))?;
        log.ops += 1;
        log.record(&op, &reply, ms);
    }
    log.elapsed_s = started.elapsed().as_secs_f64();
    if let Some(batch) = stream.pending.take() {
        let op = Op::Remove(batch);
        let reply = conn
            .call(&frame(inputs, &op, log.ops))
            .map_err(|e| format!("request: {e}"))?;
        let (ops, write_ms) = (log.ops, log.write_ms.len());
        log.record(&op, &reply, 0.0);
        // The closing removal is bookkeeping, not a measured write.
        log.write_ms.truncate(write_ms);
        log.ops = ops;
    }
    Ok(log)
}

/// Runs every client against `addr`; returns their logs and the wall time
/// from the common start to the last client's deadline.
fn closed_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    seed: u64,
    stream_base: u64,
    seconds: f64,
    limit: usize,
) -> Result<(Vec<ClientLog>, f64), String> {
    let logs = client::run_clients(CLIENTS, |c, barrier| {
        let stream = Stream::new(seed, stream_base + c as u64);
        drive(addr, inputs, stream, barrier, seconds, limit)
    })?;
    let elapsed = logs.iter().map(|l| l.elapsed_s).fold(0.0, f64::max);
    Ok((logs, elapsed))
}

fn start_server(inputs: &Inputs, config: &ServiceConfig) -> Result<Server, String> {
    let server =
        Server::start(inputs.db.clone(), config.clone()).map_err(|e| format!("server: {e}"))?;
    let mut conn = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    for (name, regex) in &inputs.views {
        let frame =
            format!("{{\"op\":\"register_view\",\"name\":\"{name}\",\"regex\":\"{regex}\"}}\n");
        let reply = conn
            .call(&frame)
            .map_err(|e| format!("register_view: {e}"))?;
        if reply["ok"].as_bool() != Some(true) {
            return Err(format!(
                "register_view {name} failed: {}",
                serde_json::to_string(&reply).unwrap_or_default()
            ));
        }
    }
    Ok(server)
}

fn apply(db: &mut GraphDb, op: &Op) {
    match op {
        Op::Add(b) => b.iter().for_each(|(f, l, t)| db.add_edge_named(f, l, t)),
        Op::Remove(b) => b.iter().for_each(|(f, l, t)| {
            db.remove_edge_named(f, l, t);
        }),
        Op::Query(_) => {}
    }
}

/// Checks a seeded sample of (query, revision, count) replies against an
/// in-process replay of the acknowledged writes in revision order, then
/// every view extension against the final replayed graph.  Returns the
/// number of replies and views that disagreed.
fn check(
    inputs: &Inputs,
    logs: &[ClientLog],
    base_revision: u64,
    views: &[Value],
    seed: u64,
) -> u64 {
    let mut writes: Vec<&(u64, Op)> = logs.iter().flat_map(|l| &l.writes).collect();
    writes.sort_by_key(|w| w.0);
    let consecutive = writes
        .iter()
        .enumerate()
        .all(|(i, w)| w.0 == base_revision + 1 + i as u64);
    let mut bad = u64::from(!consecutive);
    let mut replies: BTreeMap<(u64, usize), Vec<u64>> = BTreeMap::new();
    for &(q, revision, count) in logs.iter().flat_map(|l| &l.replies) {
        replies.entry((revision, q)).or_default().push(count);
    }
    let mut keys: Vec<(u64, usize)> = replies.keys().copied().collect();
    Rng::stream(seed, 7).shuffle(&mut keys);
    keys.truncate(CHECKED_REPLIES);
    keys.sort();
    let mut db = inputs.db.clone();
    let mut applied = 0;
    for (revision, q) in keys {
        while applied < writes.len() && writes[applied].0 <= revision {
            apply(&mut db, &writes[applied].1);
            applied += 1;
        }
        let expected = graphdb::eval_str(&db, &inputs.queries[q]).len() as u64;
        bad += replies[&(revision, q)]
            .iter()
            .filter(|&&c| c != expected)
            .count() as u64;
    }
    writes[applied..].iter().for_each(|w| apply(&mut db, &w.1));
    for ((_, regex), reply) in inputs.views.iter().zip(views) {
        let expected = graphdb::eval_str(&db, regex);
        let pairs: Vec<(usize, usize)> = reply["pairs"]
            .as_array()
            .map(|ps| {
                ps.iter()
                    .filter_map(|p| match p.as_array()? {
                        [x, y] => Some((x.as_u64()? as usize, y.as_u64()? as usize)),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default();
        let complete = reply["truncated"].as_bool() == Some(false);
        if !(complete && pairs.as_slice() == expected.as_slice()) {
            bad += 1;
        }
    }
    bad
}

/// One served graph: set up, warm up, measure for `seconds`, check.
struct Phase {
    inputs: Inputs,
    seed: u64,
    setup_s: f64,
    logs: Vec<ClientLog>,
    elapsed: f64,
    before: Value,
    after: Value,
    mismatches: u64,
}

fn phase(seed: u64, config: &ServiceConfig, seconds: f64) -> Result<Phase, String> {
    let started = Instant::now();
    let inputs = Inputs::build(seed);
    let server = start_server(&inputs, config)?;
    let addr = server.addr();
    closed_loop(addr, &inputs, seed, 100, f64::INFINITY, WARMUP_OPS)?;
    let setup_s = started.elapsed().as_secs_f64();
    let before = client::stats(addr).map_err(|e| format!("stats: {e}"))?;
    let (logs, elapsed) = closed_loop(addr, &inputs, seed, 10, seconds, usize::MAX)?;
    let after = client::stats(addr).map_err(|e| format!("stats: {e}"))?;
    let mut conn = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let views = inputs
        .views
        .iter()
        .map(|(name, _)| conn.call(&format!("{{\"op\":\"view\",\"name\":\"{name}\"}}\n")))
        .collect::<Result<Vec<Value>, _>>()
        .map_err(|e| format!("view: {e}"))?;
    drop(conn);
    server.shutdown();
    let base_revision = before["revision"]
        .as_u64()
        .ok_or("stats reply without a revision")?;
    let mismatches = check(&inputs, &logs, base_revision, &views, seed);
    Ok(Phase {
        inputs,
        seed,
        setup_s,
        logs,
        elapsed,
        before,
        after,
        mismatches,
    })
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    check_clients(CLIENTS)?;
    let config = ServiceConfig::default();
    let engine_threads = config.engine.threads;
    let phases = (0..PHASES as u64)
        .map(|p| {
            phase(
                Rng::stream(opts.seed, 50 + p).next_u64(),
                &config,
                opts.seconds / PHASES as f64,
            )
        })
        .collect::<Result<Vec<Phase>, String>>()?;
    let per_phase = |f: &dyn Fn(&Phase) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    let setup_s = per_phase(&|p| p.setup_s).unwrap_or(0.0);
    let mut mismatches: u64 = phases.iter().map(|p| p.mismatches).sum();
    let mut errors = ErrorCounts::default();
    let (mut queries, mut writes) = (vec![Vec::new(); PHASES], vec![Vec::new(); PHASES]);
    let mut overhead = Vec::new();
    let mut ops = 0;
    let mut distinct: HashSet<(usize, usize, u64)> = HashSet::new();
    for (p, log) in phases
        .iter()
        .enumerate()
        .flat_map(|(p, ph)| ph.logs.iter().map(move |l| (p, l)))
    {
        errors.add(&log.errors);
        queries[p].extend_from_slice(&log.query_ms);
        writes[p].extend_from_slice(&log.write_ms);
        overhead.extend_from_slice(&log.overhead_us);
        distinct.extend(log.replies.iter().map(|&(q, r, _)| (p, q, r)));
        ops += log.ops;
    }
    let mut m = Metrics::default();
    let mut tracer = None;
    if opts.trace {
        let delta = |section: &str, name: &str| -> f64 {
            phases
                .iter()
                .map(|p| {
                    client::stat(&p.after, section, name) - client::stat(&p.before, section, name)
                })
                .sum()
        };
        client::tcp_metrics(&mut m, overhead, &errors, delta, distinct.len() as f64);
        // The replay runs on the first phase's graph and op stream.
        let (inputs, seed) = (&phases[0].inputs, phases[0].seed);
        let stream = interleaved(seed, REPLAY_OPS.max(PARSE_FRAMES));
        let frames: Vec<String> = stream[..PARSE_FRAMES]
            .iter()
            .enumerate()
            .map(|(i, op)| frame(inputs, op, i as u64))
            .collect();
        parse_frame_cost(&mut m, &frames);
        let ops = &stream[..REPLAY_OPS];
        let before = replay(inputs, ops, false);
        let traced = replay(inputs, ops, true);
        let after = replay(inputs, ops, false);
        mismatches += before.bad + traced.bad + after.bad;
        replay_metrics(&mut m, &traced);
        let untraced_s = [before.wall_s, after.wall_s];
        trace_summary(
            &mut m,
            &traced.tracer,
            "bench.op",
            traced.wall_s,
            untraced_s,
        );
        tracer = Some(traced.tracer);
    } else {
        m.value("setup_s", setup_s, "s");
        let rate = per_phase(&|p| p.logs.iter().map(|l| l.ops).sum::<u64>() as f64 / p.elapsed);
        m.value("ops_per_s", rate.unwrap_or(0.0), "1/s");
        m.windowed("primary_p50_ms", &queries, 0.5, "ms");
        m.windowed("primary_tail_ms", &queries, 0.99, "ms");
        m.windowed("secondary_p50_ms", &writes, 0.5, "ms");
        m.windowed("secondary_tail_ms", &writes, 0.9, "ms");
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

/// The first `n` ops of the clients' streams, interleaved; every batch
/// still outstanding at the end is removed.
fn interleaved(seed: u64, n: usize) -> Vec<Op> {
    let mut streams: Vec<Stream> = (0..CLIENTS)
        .map(|c| Stream::new(seed, 10 + c as u64))
        .collect();
    let mut ops: Vec<Op> = (0..n).map(|i| streams[i % CLIENTS].next()).collect();
    ops.extend(
        streams
            .iter_mut()
            .filter_map(|s| s.pending.take().map(Op::Remove)),
    );
    ops
}

struct Replay {
    tracer: Tracer,
    wall_s: f64,
    bad: u64,
    writes: f64,
    deletes: f64,
    /// Answer size of every cold evaluation.
    answer_pairs: Vec<f64>,
    stats: (engine::EngineStats, engine::EngineStats),
}

/// Replays `ops` in order on an in-process engine with the same views:
/// queries through the snapshot's `try_eval_str`, writes through
/// `try_add_edges_named` / `try_remove_edges_named` plus
/// `publish_snapshot`.  On the first query of each (text, revision) — a
/// cold evaluation — the query is also parsed, compiled and evaluated by
/// `graphdb::eval_csr` directly, as paired calls, and both answers are
/// compared.
fn replay(inputs: &Inputs, ops: &[Op], traced: bool) -> Replay {
    let mut engine = QueryEngine::with_config(inputs.db.clone(), EngineConfig::serving());
    for (name, regex) in &inputs.views {
        let regex = regexlang::parse(regex).expect("grounded views parse");
        engine
            .try_register_view(name, regex)
            .expect("views are over the domain");
    }
    let mut snapshot = engine.publish_snapshot();
    let before = engine.stats();
    let mut t = Tracer::new(traced, ops.len() * 8);
    let mut seen: HashSet<(usize, u64)> = HashSet::new();
    let (mut bad, mut writes, mut deletes) = (0u64, 0.0, 0.0);
    let mut answer_pairs = Vec::new();
    let domain = inputs.db.domain().clone();
    let started = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let req = i as u64;
        match op {
            Op::Query(q) => {
                let text = inputs.queries[*q].as_str();
                let cold = seen.insert((*q, snapshot.revision()));
                let (via_engine, direct) = t.span("bench.op", req, |t| {
                    let via_engine = t.span("engine.query", req, |_| snapshot.try_eval_str(text));
                    let direct = cold.then(|| {
                        let dense = compile(t, req, text, &domain);
                        t.span("graphdb.product_bfs", req, |_| {
                            eval_csr(snapshot.csr_out(), &dense)
                        })
                    });
                    (via_engine, direct)
                });
                let agree = match (&via_engine, &direct) {
                    (Ok(a), Some(d)) => a.as_slice() == d.as_slice(),
                    (Ok(_), None) => true,
                    (Err(_), _) => false,
                };
                answer_pairs.extend(direct.as_ref().map(|d| d.len() as f64));
                bad += u64::from(!agree);
            }
            Op::Add(b) | Op::Remove(b) => {
                let edges: Vec<(&str, &str, &str)> = b
                    .iter()
                    .map(|(f, l, t)| (f.as_str(), l.as_str(), t.as_str()))
                    .collect();
                let is_add = matches!(op, Op::Add(_));
                let applied = t.span("bench.op", req, |t| {
                    let applied = t.span("engine.apply", req, |_| {
                        if is_add {
                            engine.try_add_edges_named(&edges)
                        } else {
                            engine.try_remove_edges_named(&edges)
                        }
                    });
                    snapshot = t.span("engine.publish", req, |_| engine.publish_snapshot());
                    applied
                });
                bad += u64::from(applied.is_err());
                writes += 1.0;
                deletes += f64::from(u8::from(!is_add));
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    Replay {
        tracer: t,
        wall_s,
        bad,
        writes,
        deletes,
        answer_pairs,
        stats: (before, engine.stats()),
    }
}

fn replay_metrics(m: &mut Metrics, r: &Replay) {
    let t = &r.tracer;
    let us = |name: &str| Dist::new(t.durations(name).into_iter().map(|ns| ns / 1e3).collect());
    m.percentile("engine.query_p50_us", &us("engine.query"), 0.5, 1.0, "us");
    m.percentile("engine.query_p99_us", &us("engine.query"), 0.99, 1.0, "us");
    m.percentile("engine.apply_p50_us", &us("engine.apply"), 0.5, 1.0, "us");
    m.percentile("engine.apply_p90_us", &us("engine.apply"), 0.9, 1.0, "us");
    m.percentile(
        "engine.publish_p50_us",
        &us("engine.publish"),
        0.5,
        1.0,
        "us",
    );
    let bfs = us("graphdb.product_bfs");
    m.percentile("graphdb.product_bfs_p50_ms", &bfs, 0.5, 1e-3, "ms");
    m.percentile("graphdb.product_bfs_p99_ms", &bfs, 0.99, 1e-3, "ms");
    let sizes = Dist::new(r.answer_pairs.clone());
    m.percentile("graphdb.answer_pairs_p50", &sizes, 0.5, 1.0, "pairs");
    m.percentile("regexlang.parse_us", &us("regexlang.parse"), 0.5, 1.0, "us");
    m.percentile(
        "automata.compile_us",
        &us("automata.compile"),
        0.5,
        1.0,
        "us",
    );
    let (b, a) = &r.stats;
    let repairs = (a.view_delta_repairs + a.view_deletion_repairs)
        .saturating_sub(b.view_delta_repairs + b.view_deletion_repairs);
    m.value(
        "engine.repairs_per_write",
        ratio(repairs as f64, r.writes),
        "ratio",
    );
    let overdeleted = a
        .deletion_overdeleted_pairs
        .saturating_sub(b.deletion_overdeleted_pairs);
    m.value(
        "engine.overdeleted_pairs_per_delete",
        ratio(overdeleted as f64, r.deletes),
        "ratio",
    );
    let rederived = a
        .deletion_rederived_sources
        .saturating_sub(b.deletion_rederived_sources);
    m.value(
        "engine.rederived_sources_per_delete",
        ratio(rederived as f64, r.deletes),
        "ratio",
    );
}
