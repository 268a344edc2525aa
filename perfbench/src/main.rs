//! End-to-end benchmark of the OMU map service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Inputs are generated from `--seed`;
//! every workload checks its own outputs. With `--trace 0` the last line
//! of standard output is a JSON object carrying the end-to-end metrics;
//! with `--trace 1` a traced run follows an untraced one on the same
//! inputs and the JSON carries the per-layer metrics. Workloads, metrics
//! and the layer each one should move are described in
//! `perfbench/README.md`.

mod campus_query;
mod college_serve;
mod corridor_accel;
mod corridor_ingest;
mod harness;
mod inputs;
mod layers;
mod planner;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Checks, Ctx, Layers, Live, Workload};
use trace::{summarize, SpanSummary, Tracer};

const WORKLOADS: [&str; 4] = [
    "corridor_ingest",
    "college_serve",
    "campus_query",
    "corridor_accel",
];

/// End-to-end metrics: `(name, unit)`, reported by every workload for
/// its foreground request (see the README for what that is per
/// workload).
const END_TO_END: [(&str, &str); 5] = [
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload does not
/// exercise reports 0.
const PER_LAYER: [(&str, &str); 48] = [
    ("map.ingest_us", "us"),
    ("map.flush_wait_us", "us"),
    ("map.snapshot_us", "us"),
    ("map.poll_us", "us"),
    ("map.lagged", "count"),
    ("map.scans_per_publish", "count"),
    ("map.insert_us", "us"),
    ("map.drain_changed_us", "us"),
    ("map.queue_wait_us", "us"),
    ("raycast.integrate_s", "s"),
    ("raycast.updates", "count"),
    ("raycast.updates_per_s", "1/s"),
    ("raycast.lane_occupancy", "ratio"),
    ("octree.apply_s", "s"),
    ("octree.apply_updates_per_s", "1/s"),
    ("octree.coalesce_ratio", "ratio"),
    ("octree.publish_us", "us"),
    ("octree.rows_copied_per_publish", "count"),
    ("octree.rows_awaiting_reclaim", "count"),
    ("octree.to_bytes_ms", "ms"),
    ("octree.from_bytes_ms", "ms"),
    ("octree.checkpoint_bytes", "bytes"),
    ("octree.live_nodes", "count"),
    ("octree.heap_bytes", "bytes"),
    ("octree.bytes_per_node", "bytes"),
    ("query.occupancy_batch_us", "us"),
    ("query.cast_rays_us", "us"),
    ("query.collides_sphere_us", "us"),
    ("query.node_visits_per_probe", "count"),
    ("query.reused_level_share", "ratio"),
    ("durable.append_sync_us", "us"),
    ("durable.wal_bytes_per_scan", "bytes"),
    ("durable.checkpoints", "count"),
    ("durable.replayed_batches", "count"),
    ("durable.write_amplification", "ratio"),
    ("pool.tasks_dispatched", "count"),
    ("pool.caller_share", "ratio"),
    ("core.host_updates_per_s", "1/s"),
    ("core.sim_cycles", "cycles"),
    ("core.stall_cycles", "cycles"),
    ("core.sram_utilization", "ratio"),
    ("core.load_imbalance", "ratio"),
    ("core.morton_runs", "count"),
    ("core.sram_power_share", "ratio"),
    ("core.sim_fps", "1/s"),
    ("core.sim_energy_mj", "mJ"),
    ("core.sim_digest", "count"),
    ("trace.overhead_ratio", "ratio"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <corridor_ingest|college_serve|campus_query|corridor_accel> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument {flag:?}"));
        };
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if values.insert(name.to_owned(), value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |name: &str| {
        values
            .remove(name)
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = take("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=600"));
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if let Some(extra) = values.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn build(name: &str, ctx: &Ctx) -> Box<dyn Workload> {
    match name {
        "corridor_ingest" => Box::new(corridor_ingest::CorridorIngest::new(ctx.seed)),
        "college_serve" => Box::new(college_serve::CollegeServe::new(ctx.seed)),
        "campus_query" => Box::new(campus_query::CampusQuery::new(ctx)),
        "corridor_accel" => Box::new(corridor_accel::CorridorAccel::new(ctx.seed)),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work: root.join(format!("{}-{}", args.workload, std::process::id())),
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {}  seed {}  seconds {}  trace {}  available_parallelism {cores}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let workload = build(&args.workload, &ctx);
    // The traced run splits its time between an untraced and a traced
    // pass over the same inputs; their difference is the tracing overhead.
    let pass = Ctx {
        seconds: if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        },
        ..ctx.clone()
    };
    let live = workload.live(&pass, None);
    report_named(&live);
    let mut checks = Checks::default();
    let metrics = if args.trace {
        let tracer = Tracer::default();
        let traced = workload.live(&pass, Some(&tracer));
        let mut layers = traced.layers.clone();
        let mut replay_checks = Checks::default();
        workload.replay(&ctx, &tracer, &mut layers, &mut replay_checks);
        let spans = summarize(&tracer.spans());
        derive_layers(&spans, &mut layers);
        layers.insert(
            "trace.overhead_ratio",
            live.summary().throughput / traced.summary().throughput - 1.0,
        );
        report_spans(&spans);
        let traces = root.join("traces");
        let path = traces.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(&traces).and_then(|()| tracer.write_jsonl(&path)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        checks.merge(traced.checks);
        checks.merge(replay_checks);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
            .collect::<Vec<_>>()
    } else {
        end_to_end(&live)
    };
    checks.merge(live.checks);
    drop(workload);
    let _ = std::fs::remove_dir_all(&ctx.work);

    println!(
        "op_failure_ratio = {} ({} failed of {} attempted)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    for e in &checks.errors {
        println!("  failure: {e}");
    }
    for &(name, value, unit) in &metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    println!("{}", result_json(!checks.mismatch, &checks, &metrics));
    if checks.mismatch {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn end_to_end(live: &Live) -> Vec<(&'static str, f64, &'static str)> {
    let s = live.summary();
    println!("latency_ms_*, throughput_per_s: {}", s.describe());
    println!("setup_s: median of {} set-ups", live.setups().len());
    let values = [
        s.p50,
        s.tail,
        s.throughput,
        live.setup_s(),
        live.peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

/// Per-layer values measured by spans: mean call times, self times, and
/// the rates and differences built from them.
fn derive_layers(spans: &BTreeMap<&'static str, SpanSummary>, layers: &mut Layers) {
    let get = |name: &str| spans.get(name).copied().unwrap_or_default();
    for (metric, span) in [
        ("map.ingest_us", "map.ingest"),
        ("map.flush_wait_us", "map.flush"),
        ("map.snapshot_us", "map.snapshot"),
        ("map.poll_us", "map.poll"),
        ("map.insert_us", "map.insert"),
        ("map.drain_changed_us", "map.drain_changed"),
        ("octree.publish_us", "octree.publish"),
        ("query.occupancy_batch_us", "query.occupancy_batch"),
        ("query.cast_rays_us", "query.cast_rays"),
        ("query.collides_sphere_us", "query.collides_sphere"),
        ("durable.append_sync_us", "durable.append_sync"),
    ] {
        layers.insert(metric, get(span).mean_us());
    }
    let integrate_s = get("raycast.integrate").self_s();
    let apply_s = get("octree.apply").self_s();
    layers.insert("raycast.integrate_s", integrate_s);
    layers.insert("octree.apply_s", apply_s);
    let per_s = |count: f64, s: f64| if s > 0.0 { count / s } else { 0.0 };
    let updates = layers.get("raycast.updates").copied().unwrap_or(0.0);
    layers.insert("raycast.updates_per_s", per_s(updates, integrate_s));
    let applied = layers.get("octree.apply_updates").copied().unwrap_or(0.0);
    layers.insert("octree.apply_updates_per_s", per_s(applied, apply_s));
    layers.insert("octree.to_bytes_ms", get("octree.to_bytes").total_s() * 1e3);
    layers.insert(
        "octree.from_bytes_ms",
        get("octree.from_bytes").total_s() * 1e3,
    );
    // Time an acknowledged scan waited on the handoff: the flush wait
    // minus the work done for it (measured in the replay). The service
    // appends and syncs the WAL record on its durable thread while the
    // writer applies the scan, so the work is the longer of the two.
    let flush = get("map.flush");
    if flush.count > 0 {
        let apply = get("map.insert").mean_us()
            + get("map.drain_changed").mean_us()
            + get("octree.publish").mean_us();
        let work = apply.max(get("durable.append_sync").mean_us());
        layers.insert("map.queue_wait_us", flush.mean_us() - work);
    }
}

fn report_named(live: &Live) {
    for n in &live.named {
        println!(
            "  {:<22} {:>16.6} {:<6} {}",
            n.name, n.value, n.unit, n.note
        );
    }
    println!(
        "  {:<22} {:>16.6} {:<6} median of {}",
        "setup_s",
        live.setup_s(),
        "s",
        live.setups().len()
    );
}

fn report_spans(spans: &BTreeMap<&'static str, SpanSummary>) {
    println!(
        "  {:<24} {:>9} {:>12} {:>12} {:>12}",
        "span", "count", "total_s", "self_s", "mean_us"
    );
    for (name, s) in spans {
        println!(
            "  {name:<24} {:>9} {:>12.6} {:>12.6} {:>12.3}",
            s.count,
            s.total_s(),
            s.self_s(),
            s.mean_us()
        );
    }
}

fn result_json(correct: bool, checks: &Checks, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload college_serve --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "college_serve");
        assert_eq!(a.seed, 42);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload warp --seed 1 --seconds 10 --trace 0",
            "--workload corridor_ingest --seed x --seconds 10 --trace 0",
            "--workload corridor_ingest --seed 1 --seconds 0 --trace 0",
            "--workload corridor_ingest --seed 1 --seconds 10 --trace 2",
            "--workload corridor_ingest --seed 1 --seconds 10",
            "--workload corridor_ingest --seed 1 --seconds 10 --trace 0 --extra 1",
            "--workload corridor_ingest --seed 1 --seed 2 --seconds 10 --trace 0",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    /// The metric names and units here are the ones `BENCHMARK.json`
    /// declares, and every workload it lists exists here.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed: Vec<&str> = json
            .split("{\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split_once("\", \"why\"").map(|(name, _)| name))
            .collect();
        assert!(listed.len() >= 2);
        assert!(listed.iter().all(|w| WORKLOADS.contains(w)), "{listed:?}");
        assert_eq!(
            json.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + listed.len()
        );
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut checks = Checks::default();
        checks.op::<(), &str>("x", Ok(()));
        let line = result_json(true, &checks, &[("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
