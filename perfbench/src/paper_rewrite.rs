//! `paper_rewrite`: the paper's own use, single-threaded and in-process.
//! Each problem is rewritten by `rpq::rewrite_rpq` (primary: grounding,
//! maximal rewriting, exactness, regex extraction) and then answered over
//! its materialized views on a seeded database (secondary:
//! `materialize_views_in` plus `answer_rewriting_over_views_in`).  Direct
//! `answer_rpq` is the oracle: answers over views must be a subset of it,
//! and equal to it when the rewriting is exact (Theorem 4.1).
//!
//! Problems come in cycles of fixed composition, shuffled by the seed:
//! random label problems, the blow-up family `(a+b)*·a·(a+b)^k` with views
//! {a, b, a·b} at k = 1…4, and the Figure 1 / Example 4.1 problems.  The
//! composition puts the 95th percentile of `rewrite_rpq` inside the k = 3
//! band of the blow-up family.  k ≥ 5 is left out: state elimination on
//! its rewriting automaton does not finish in a run's time.

use std::time::Instant;

use automata::{DenseDfa, DenseNfa};
use bench::{random_problem, RandomProblemConfig};
use engine::{EngineConfig, QueryEngine};
use graphdb::{eval_csr, random_graph, GraphDb, RandomGraphConfig, Theory};
use rewriter::{check_exactness, compute_maximal_rewriting, RewriteProblem};
use rpq::{
    answer_rewriting_over_views_in, answer_rpq, materialize_views_in, rewrite_rpq, Rpq,
    RpqRewriteProblem, RpqRewriting,
};

use crate::stats::{median, ratio, Dist, Metrics};
use crate::trace::Tracer;
use crate::util::Rng;
use crate::{check_clients, repeated_setup, trace_summary, Opts, Report};

const DB_NODES: usize = 200;
const DB_EDGES: usize = 400;
const SETUPS: usize = 3;
/// Problems pre-generated per run; a long run wraps around.
const POOL_CYCLES: usize = 14;
const WARMUP_PROBLEMS: usize = 12;
const TRACE_CYCLES: usize = 1;
/// Random problems whose query DFA `A_d` has more states than this are set
/// aside when the pool is drawn, and counted.  The rewriting automaton is
/// the complement of `A'`, exponential in `A_d` in the worst case, and on
/// such draws exactness and state elimination need not finish within a
/// run: one draw with a 29-state `A_d` gave a 159,328-state rewriting
/// automaton of the empty language, and its exactness check ran for
/// minutes while growing past 2.7 GB.
const MAX_QUERY_DFA_STATES: usize = 16;

#[derive(Clone, Copy, Debug)]
enum Kind {
    Random,
    Blowup(usize),
    /// Index into [`PAPER`].
    Paper(usize),
}

/// One cycle: 157 random problems, 35 of the blow-up family and 8 from the
/// paper.  Sorted by cost the top 0.5% is k = 4 and the next 9% k = 3, so
/// the 95th percentile is about the median k = 3 problem.
const CYCLE: [(Kind, usize); 7] = [
    (Kind::Random, 157),
    (Kind::Blowup(1), 8),
    (Kind::Blowup(2), 8),
    (Kind::Blowup(3), 18),
    (Kind::Blowup(4), 1),
    (Kind::Paper(0), 4),
    (Kind::Paper(1), 4),
];
const CYCLE_LEN: usize = 200;

/// The paper's problems, with whether the maximal rewriting is exact:
/// Figure 1 (exact, `e2*·e1·e3*`), its Example 2.3 variant without `c`
/// (not exact), and Example 4.1 without and with the view `c`.
/// A query, its views, and whether its maximal rewriting is exact.
type PaperProblem = (&'static str, &'static [(&'static str, &'static str)], bool);

const PAPER: [PaperProblem; 4] = [
    (
        "a·(b·a+c)*",
        &[("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")],
        true,
    ),
    ("a·(b·a+c)*", &[("e1", "a"), ("e2", "a·c*·b")], false),
    ("a·(b+c)", &[("q1", "a"), ("q2", "b")], false),
    ("a·(b+c)", &[("q1", "a"), ("q2", "b"), ("q3", "c")], true),
];

struct Problem {
    kind: Kind,
    problem: RpqRewriteProblem,
    /// Seed of the problem's database, generated just before it is used
    /// so the pool stays small.
    db_seed: u64,
    /// Known exactness (blow-up family and paper problems).
    exact: Option<bool>,
}

/// Lifts a regular-expression rewriting problem to a label RPQ problem
/// under the elementary theory of its alphabet.
fn lift(base: &RewriteProblem) -> RpqRewriteProblem {
    let views = base
        .views
        .views()
        .map(|v| (v.symbol.clone(), Rpq::from_labels(v.definition.clone())));
    let theory = Theory::elementary(base.views.sigma().clone());
    RpqRewriteProblem::new(Rpq::from_labels(base.query.clone()), views, theory)
        .expect("lifted problems have distinct, non-empty views")
}

/// States of the minimal DFA of the problem's grounded query: `A_d`.
fn query_dfa_states(problem: &RpqRewriteProblem) -> usize {
    let query = problem.query.ground(&problem.theory);
    let nfa = regexlang::thompson(&query, problem.theory.domain()).expect("query over its domain");
    automata::minimize(&automata::determinize(&nfa)).num_states()
}

/// Draws a random label problem whose query DFA `A_d` has at most
/// [`MAX_QUERY_DFA_STATES`] states, counting the draws set aside.
fn random_label_problem(rng: &mut Rng, set_aside: &mut u64) -> RpqRewriteProblem {
    loop {
        let config = RandomProblemConfig {
            alphabet_size: 3,
            query_size: 12 + rng.below(19),
            num_views: 2 + rng.below(3),
            view_size: 5,
        };
        let problem = lift(&random_problem(&config, rng.next_u64()));
        if query_dfa_states(&problem) <= MAX_QUERY_DFA_STATES {
            return problem;
        }
        *set_aside += 1;
    }
}

fn make(kind: Kind, rng: &mut Rng, set_aside: &mut u64) -> Problem {
    let (problem, exact) = match kind {
        Kind::Random => (random_label_problem(rng, set_aside), None),
        Kind::Blowup(k) => (lift(&bench::blowup_rewriting_problem(k)), Some(true)),
        Kind::Paper(i) => {
            // Both paper slots of a cycle draw from all four problems.
            let (query, views, exact) = PAPER[(i + 2 * rng.below(2)) % PAPER.len()];
            let p = RpqRewriteProblem::parse_labels(query, views.iter().copied())
                .expect("paper problems parse");
            (p, Some(exact))
        }
    };
    Problem {
        kind,
        problem,
        db_seed: rng.next_u64(),
        exact,
    }
}

impl Problem {
    fn db(&self) -> GraphDb {
        let config = RandomGraphConfig {
            num_nodes: DB_NODES,
            num_edges: DB_EDGES,
        };
        random_graph(self.problem.theory.domain(), &config, self.db_seed)
    }
}

/// `POOL_CYCLES` cycles of problems, each cycle shuffled, and the number of
/// random draws set aside for their rewriting automaton's size.
fn pool(seed: u64) -> (Vec<Problem>, u64) {
    let mut rng = Rng::stream(seed, 3);
    let mut out = Vec::with_capacity(POOL_CYCLES * CYCLE_LEN);
    let mut set_aside = 0;
    for _ in 0..POOL_CYCLES {
        let mut kinds: Vec<Kind> = CYCLE
            .iter()
            .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
            .collect();
        rng.shuffle(&mut kinds);
        out.extend(kinds.into_iter().map(|k| make(k, &mut rng, &mut set_aside)));
    }
    (out, set_aside)
}

fn engine_for(db: &GraphDb) -> QueryEngine {
    QueryEngine::with_config(
        db.clone(),
        EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
    )
}

/// Checks an answer over views against direct evaluation: a subset, and
/// equal when the rewriting is exact; a known exactness must match too.
fn answers_ok(
    p: &Problem,
    db: &GraphDb,
    rewriting: &RpqRewriting,
    over_views: &graphdb::Answer,
) -> bool {
    let direct = answer_rpq(db, &p.problem.query, &p.problem.theory);
    let exact = rewriting.is_exact();
    over_views.is_subset(&direct)
        && (!exact || over_views.as_slice() == direct.as_slice())
        && p.exact.is_none_or(|e| e == exact)
}

/// The untraced path: the two public calls per problem, timed.
fn solve(p: &Problem) -> Result<(f64, f64, bool), String> {
    let db = p.db();
    let t0 = Instant::now();
    let rewriting = rewrite_rpq(&p.problem).map_err(|e| format!("rewrite_rpq: {e}"))?;
    let rewrite_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut engine = engine_for(&db);
    let t1 = Instant::now();
    materialize_views_in(&mut engine, &p.problem);
    let over_views = answer_rewriting_over_views_in(&mut engine, &p.problem, &rewriting);
    let views_ms = t1.elapsed().as_secs_f64() * 1e3;
    Ok((
        rewrite_ms,
        views_ms,
        answers_ok(p, &db, &rewriting, &over_views),
    ))
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    check_clients(1)?;
    let ((problems, set_aside), setup_s) = repeated_setup(SETUPS, || {
        let (problems, set_aside) = pool(opts.seed);
        // Warm up on the fixed families only, so set-up does the same work
        // at every seed.
        let fixed = |p: &&Problem| matches!(p.kind, Kind::Paper(_) | Kind::Blowup(1..=3));
        for p in problems.iter().filter(fixed).take(WARMUP_PROBLEMS) {
            solve(p)?;
        }
        Ok((problems, set_aside))
    })?;
    eprintln!(
        "perfbench: {set_aside} random problems set aside: query DFA over \
         {MAX_QUERY_DFA_STATES} states"
    );
    let mut m = Metrics::default();
    if opts.trace {
        let n = TRACE_CYCLES * CYCLE_LEN;
        let (_, before_s, bad_before) = replay(&problems[..n], false)?;
        let (r, traced_s, bad_traced) = replay(&problems[..n], true)?;
        let (_, after_s, bad_after) = replay(&problems[..n], false)?;
        let bad = bad_before + bad_traced + bad_after;
        replay_metrics(&mut m, &r);
        trace_summary(
            &mut m,
            &r.tracer,
            "bench.problem",
            traced_s,
            [before_s, after_s],
        );
        return Ok(Report {
            attempted: 3 * n as u64,
            failed: bad,
            mismatches: bad,
            metrics: m,
            tracer: Some(r.tracer),
            clients: 1,
            engine_threads: 1,
        });
    }
    let (mut rewrite, mut views) = (Vec::new(), Vec::new());
    let (mut busy_s, mut cycle_s, mut bad) = (0.0, 0.0, 0u64);
    let mut cycle_rates = Vec::new();
    // Whole cycles only, so every run has the same problem mix.
    for (i, p) in problems.iter().cycle().enumerate() {
        if i % CYCLE_LEN == 0 && i > 0 {
            cycle_rates.push(CYCLE_LEN as f64 / cycle_s);
            cycle_s = 0.0;
            if busy_s >= opts.seconds {
                break;
            }
        }
        let (rewrite_ms, views_ms, ok) = solve(p)?;
        busy_s += (rewrite_ms + views_ms) / 1e3;
        cycle_s += (rewrite_ms + views_ms) / 1e3;
        rewrite.push(rewrite_ms);
        views.push(views_ms);
        bad += u64::from(!ok);
    }
    let done = rewrite.len();
    let (rewrite, views) = (Dist::new(rewrite), Dist::new(views));
    // Throughput is the median over cycles, each of which holds exactly
    // one k = 4 problem, so a short stall of the machine moves one cycle.
    m.value("ops_per_s", median(&cycle_rates).unwrap_or(0.0), "1/s");
    m.value("setup_s", setup_s, "s");
    m.percentile("primary_p50_ms", &rewrite, 0.5, 1.0, "ms");
    m.percentile("primary_tail_ms", &rewrite, 0.95, 1.0, "ms");
    m.percentile("secondary_p50_ms", &views, 0.5, 1.0, "ms");
    m.percentile("secondary_tail_ms", &views, 0.95, 1.0, "ms");
    Ok(Report {
        attempted: done as u64,
        failed: bad,
        mismatches: bad,
        metrics: m,
        tracer: None,
        clients: 1,
        engine_threads: 1,
    })
}

struct Replay {
    tracer: Tracer,
    sizes: [Vec<f64>; 4],
    view_tuples: Vec<f64>,
    completeness: Vec<f64>,
    answer_pairs: Vec<f64>,
    compile: (f64, f64),
}

/// Runs each problem through the stages `rewrite_rpq` is made of, in the
/// same order — grounding, maximal rewriting, exactness, regex extraction —
/// then the views answer, each in its own span.  Parsing the grounded
/// query, freezing the rewriting automaton and running `graphdb::eval_csr`
/// over the view graph are paired calls beside the views answer.
fn replay(problems: &[Problem], traced: bool) -> Result<(Replay, f64, u64), String> {
    let mut t = Tracer::new(traced, problems.len() * 16);
    let mut r = Replay {
        tracer: Tracer::new(false, 0),
        sizes: Default::default(),
        view_tuples: Vec::new(),
        completeness: Vec::new(),
        answer_pairs: Vec::new(),
        compile: (0.0, 0.0),
    };
    let mut bad = 0u64;
    let mut wall_s = 0.0;
    for (i, p) in problems.iter().enumerate() {
        let req = i as u64;
        let db = p.db();
        let started = Instant::now();
        let (rewriting, over_views, direct, engine_stats) = t.span("bench.problem", req, |t| {
            let grounded = t
                .span("rpq.ground", req, |_| p.problem.ground())
                .map_err(|e| format!("ground: {e}"))?;
            let maximal = t.span("rewriter.maximal", req, |_| {
                compute_maximal_rewriting(&grounded)
            });
            let exactness = t.span("rewriter.exactness", req, |_| {
                check_exactness(&maximal, &grounded.views)
            });
            let regex = t.span("rewriter.regex", req, |_| maximal.regex());
            // The rest of `rewrite_rpq`: packaging the stages' results.
            let rewriting = t.span("rpq.assemble", req, |_| RpqRewriting {
                grounded_views: grounded
                    .views
                    .views()
                    .map(|v| (v.symbol.clone(), v.definition.clone()))
                    .collect(),
                grounded_query: grounded.query.clone(),
                maximal,
                regex,
                exactness,
            });
            let mut engine = t.span("engine.new", req, |_| engine_for(&db));
            let views = t.span("rpq.materialize", req, |_| {
                materialize_views_in(&mut engine, &p.problem)
            });
            let over_views = t.span("rpq.over_views", req, |_| {
                answer_rewriting_over_views_in(&mut engine, &p.problem, &rewriting)
            });
            t.span("regexlang.parse", req, |_| {
                let text = rewriting.grounded_query.to_string();
                regexlang::parse(&text).map_err(|e| format!("parse {text}: {e}"))
            })?;
            let dense = t.span("automata.compile", req, |_| {
                DenseNfa::from_dense_dfa(&DenseDfa::from_dfa(&rewriting.maximal.automaton))
                    .with_alphabet(views.view_alphabet().clone())
            });
            let direct = t.span("graphdb.product_bfs", req, |_| {
                eval_csr(views.view_csr(), &dense)
            });
            r.view_tuples.push(views.total_tuples() as f64);
            let engine_stats = t.span("engine.drop", req, |_| {
                drop(views);
                let stats = engine.stats();
                drop(engine);
                stats
            });
            Ok::<_, String>((rewriting, over_views, direct, engine_stats))
        })?;
        wall_s += started.elapsed().as_secs_f64();
        let ok = answers_ok(p, &db, &rewriting, &over_views)
            && direct.as_slice() == over_views.as_slice();
        bad += u64::from(!ok);
        let stats = &rewriting.maximal.stats;
        for (v, n) in r.sizes.iter_mut().zip([
            stats.query_dfa_states,
            stats.rewriting_states,
            rewriting.exactness.expansion_states,
            rewriting.regex.size(),
        ]) {
            v.push(n as f64);
        }
        let full = answer_rpq(&db, &p.problem.query, &p.problem.theory).len();
        if full > 0 {
            r.completeness.push(over_views.len() as f64 / full as f64);
        }
        r.answer_pairs.push(over_views.len() as f64);
        r.compile.0 += engine_stats.compile_hits as f64;
        r.compile.1 += engine_stats.compile_misses as f64;
    }
    r.tracer = t;
    Ok((r, wall_s, bad))
}

fn replay_metrics(m: &mut Metrics, r: &Replay) {
    let t = &r.tracer;
    let dist = |name: &str, scale: f64| {
        Dist::new(t.durations(name).into_iter().map(|ns| ns * scale).collect())
    };
    // Stage times are means per problem, so they add up to the mean
    // rewrite and views-answer times.
    m.mean("rpq.ground_us", &dist("rpq.ground", 1e-3), 1.0, "us");
    m.mean(
        "rewriter.maximal_ms",
        &dist("rewriter.maximal", 1e-6),
        1.0,
        "ms",
    );
    m.mean(
        "rewriter.exactness_ms",
        &dist("rewriter.exactness", 1e-6),
        1.0,
        "ms",
    );
    m.mean(
        "rewriter.regex_ms",
        &dist("rewriter.regex", 1e-6),
        1.0,
        "ms",
    );
    m.mean(
        "rpq.materialize_ms",
        &dist("rpq.materialize", 1e-6),
        1.0,
        "ms",
    );
    m.mean(
        "rpq.over_views_ms",
        &dist("rpq.over_views", 1e-6),
        1.0,
        "ms",
    );
    let names = [
        "rewriter.query_dfa_states",
        "rewriter.rewriting_states",
        "rewriter.expansion_states",
        "rewriter.regex_size",
    ];
    for (name, sizes) in names.iter().zip(&r.sizes) {
        let unit = if name.ends_with("states") {
            "states"
        } else {
            "nodes"
        };
        m.mean(name, &Dist::new(sizes.clone()), 1.0, unit);
    }
    m.mean(
        "rpq.view_tuples",
        &Dist::new(r.view_tuples.clone()),
        1.0,
        "pairs",
    );
    m.mean(
        "rpq.completeness",
        &Dist::new(r.completeness.clone()),
        1.0,
        "ratio",
    );
    let bfs = dist("graphdb.product_bfs", 1e-6);
    m.percentile("graphdb.product_bfs_p50_ms", &bfs, 0.5, 1.0, "ms");
    m.percentile("graphdb.product_bfs_p99_ms", &bfs, 0.99, 1.0, "ms");
    m.percentile(
        "graphdb.answer_pairs_p50",
        &Dist::new(r.answer_pairs.clone()),
        0.5,
        1.0,
        "pairs",
    );
    m.percentile(
        "regexlang.parse_us",
        &dist("regexlang.parse", 1e-3),
        0.5,
        1.0,
        "us",
    );
    m.percentile(
        "automata.compile_us",
        &dist("automata.compile", 1e-3),
        0.5,
        1.0,
        "us",
    );
    m.value(
        "engine.compile_hit_ratio",
        ratio(r.compile.0, r.compile.0 + r.compile.1),
        "ratio",
    );
}
