//! The repository benchmark.  One invocation runs one workload at one seed:
//!
//! ```text
//! perfbench --workload <point_reads|mixed_rw|paper_rewrite> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics untraced; with
//! `--trace 1` it runs the same set-up and op stream again and reports the
//! per-layer metrics, derived from spans the benchmark records around each
//! call into a layer (written to `perfbench/out/`).  The last line of
//! standard output is the result object; see `perfbench/README.md`.

mod client;
mod mixed_rw;
mod paper_rewrite;
mod point_reads;
mod stats;
mod trace;
mod util;

use std::fmt::Write as _;
use std::time::Instant;

use stats::{median, Metrics};
use trace::Tracer;

/// End-to-end metrics, reported by every workload with `--trace 0`.  Each
/// workload has a primary and a secondary operation (see `README.md`).
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("primary_p50_ms", "ms"),
    ("primary_tail_ms", "ms"),
    ("secondary_p50_ms", "ms"),
    ("secondary_tail_ms", "ms"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.  A
/// metric of a layer the workload leaves idle reads 0.
const PER_LAYER: [(&str, &str); 56] = [
    ("failed_ratio", "ratio"),
    ("service.overhead_p50_us", "us"),
    ("service.overhead_p99_us", "us"),
    ("service.parse_frame_us", "us"),
    ("service.rejected", "count"),
    ("service.timed_out", "count"),
    ("service.protocol_errors", "count"),
    ("service.writer_overflows", "count"),
    ("engine.pair_p50_us", "us"),
    ("engine.pair_p99_us", "us"),
    ("engine.from_p50_us", "us"),
    ("engine.from_p99_us", "us"),
    ("engine.query_p50_us", "us"),
    ("engine.query_p99_us", "us"),
    ("engine.apply_p50_us", "us"),
    ("engine.apply_p90_us", "us"),
    ("engine.publish_p50_us", "us"),
    ("engine.answer_hit_ratio", "ratio"),
    ("engine.point_hit_ratio", "ratio"),
    ("engine.compile_hit_ratio", "ratio"),
    ("engine.cold_evals_per_invalidation", "ratio"),
    ("engine.repairs_per_write", "ratio"),
    ("engine.overdeleted_pairs_per_delete", "ratio"),
    ("engine.rederived_sources_per_delete", "ratio"),
    ("engine.steals_per_parallel_eval", "ratio"),
    ("graphdb.product_bfs_p50_ms", "ms"),
    ("graphdb.product_bfs_p99_ms", "ms"),
    ("graphdb.answer_pairs_p50", "pairs"),
    ("graphdb.pair_forward_us", "us"),
    ("graphdb.pair_backward_us", "us"),
    ("graphdb.from_p50_us", "us"),
    ("regexlang.parse_us", "us"),
    ("automata.compile_us", "us"),
    ("rpq.ground_us", "us"),
    ("rewriter.maximal_ms", "ms"),
    ("rewriter.exactness_ms", "ms"),
    ("rewriter.regex_ms", "ms"),
    ("rewriter.query_dfa_states", "states"),
    ("rewriter.rewriting_states", "states"),
    ("rewriter.expansion_states", "states"),
    ("rewriter.regex_size", "nodes"),
    ("rpq.materialize_ms", "ms"),
    ("rpq.over_views_ms", "ms"),
    ("rpq.view_tuples", "pairs"),
    ("rpq.completeness", "ratio"),
    ("trace.overhead_pct", "pct"),
    ("trace.coverage_min", "ratio"),
    ("trace.coverage_p1", "ratio"),
    ("self_share.bench", "ratio"),
    ("self_share.service", "ratio"),
    ("self_share.engine", "ratio"),
    ("self_share.graphdb", "ratio"),
    ("self_share.regexlang", "ratio"),
    ("self_share.automata", "ratio"),
    ("self_share.rewriter", "ratio"),
    ("self_share.rpq", "ratio"),
];

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back: operation counts, correctness, metrics, and
/// (traced runs) the spans of the replay.
pub struct Report {
    pub attempted: u64,
    /// Error replies (of any kind) plus answers that failed their check.
    pub failed: u64,
    /// Answers that failed their correctness check (a subset of `failed`).
    pub mismatches: u64,
    pub metrics: Metrics,
    pub tracer: Option<Tracer>,
    pub clients: usize,
    pub engine_threads: usize,
}

/// Refuses to measure with more client threads than cores: the clients
/// would then compete with the server for CPU and the numbers would
/// describe the oversubscription, not the system.
pub fn check_clients(clients: usize) -> Result<(), String> {
    let cores = util::cores();
    if clients > cores {
        return Err(format!(
            "{clients} client threads exceed the {cores} available cores"
        ));
    }
    Ok(())
}

/// Runs `setup` `times` times, dropping all but the last instance, and
/// returns the last one with the median set-up time in seconds.
pub fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup()?);
        secs.push(started.elapsed().as_secs_f64());
    }
    let setup_s = median(&secs).ok_or("no set-up ran")?;
    Ok((last.ok_or("no set-up ran")?, setup_s))
}

/// Adds the trace-derived numbers every traced workload shares: per-layer
/// self-time shares, coverage of each root span by its children, and the
/// overhead of the traced replay over the untraced ones, which run before
/// and after it so that neither side gets the colder caches.
pub fn trace_summary(
    m: &mut Metrics,
    tracer: &Tracer,
    root: &str,
    traced_s: f64,
    untraced_s: [f64; 2],
) {
    let per_layer = tracer.layer_self_ns();
    let total: u64 = per_layer.values().sum();
    for (layer, ns) in &per_layer {
        let name = format!("self_share.{layer}");
        m.value(&name, stats::ratio(*ns as f64, total as f64), "ratio");
    }
    let coverage = tracer.coverage(root);
    if let Some(min) = coverage.iter().copied().reduce(f64::min) {
        m.value("trace.coverage_min", min, "ratio");
    }
    m.percentile(
        "trace.coverage_p1",
        &stats::Dist::new(coverage),
        0.01,
        1.0,
        "ratio",
    );
    let untraced_s = (untraced_s[0] + untraced_s[1]) / 2.0;
    m.value(
        "trace.overhead_pct",
        100.0 * (traced_s / untraced_s - 1.0),
        "pct",
    );
}

fn parse_args() -> Result<(String, Opts), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == key)
            .ok_or(format!("missing {key}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{key} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok((
        workload,
        Opts {
            seed,
            seconds,
            trace,
        },
    ))
}

fn quoted(items: &[String]) -> String {
    items
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(",")
}

fn run() -> Result<(), String> {
    let (workload, opts) = parse_args()?;
    let report = match workload.as_str() {
        "point_reads" => point_reads::run(&opts)?,
        "mixed_rw" => mixed_rw::run(&opts)?,
        "paper_rewrite" => paper_rewrite::run(&opts)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let env = util::env_json(&workload, opts.seed, report.clients, report.engine_threads);
    println!("{{\"env\":{env}}}");

    let mut metrics = report.metrics;
    metrics.value("peak_rss_mb", util::peak_rss_mb(), "MiB");
    let failed_ratio = stats::ratio(report.failed as f64, report.attempted as f64);
    metrics.value("failed_ratio", failed_ratio, "ratio");
    let wanted: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut idle = Vec::new();
    let mut values = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        match metrics.list.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit => values.push((name, m.value, unit)),
            Some(m) => {
                return Err(format!(
                    "{name} measured in {} but declared in {unit}",
                    m.unit
                ))
            }
            // An end-to-end metric is never left out: the run is refused.
            None if !opts.trace => {
                return Err(format!(
                    "end-to-end metric {name} is missing (withheld: {:?})",
                    metrics.withheld
                ))
            }
            // A per-layer metric of a layer this workload leaves idle (or
            // a percentile without enough samples beyond it) reads 0.
            None => {
                idle.push(name.to_string());
                values.push((name, 0.0, unit));
            }
        }
    }

    // Detail line: sample counts behind each metric, withheld percentiles,
    // and the per-layer metrics this workload leaves idle.
    let samples: Vec<String> = metrics
        .list
        .iter()
        .filter_map(|m| m.samples.map(|n| format!("\"{}\":{n}", m.name)))
        .collect();
    println!(
        "{{\"samples\":{{{}}},\"failed_ratio\":{failed_ratio},\"mismatches\":{},\
         \"withheld\":[{}],\"idle\":[{}]}}",
        samples.join(","),
        report.mismatches,
        quoted(&metrics.withheld),
        quoted(&idle)
    );

    if let Some(tracer) = &report.tracer {
        let dir = std::path::Path::new("perfbench/out");
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{workload}-seed{}.json", opts.seed));
        let body = format!("{{\"env\":{env},\"spans\":{}}}\n", tracer.spans_json());
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    }

    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.mismatches == 0,
        report.attempted,
        report.failed
    );
    for (i, (name, value, unit)) in values.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    out.push_str("}}");
    println!("{out}");
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
