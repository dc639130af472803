//! Consult benchmark of the sharded rationality authority.
//!
//! ```text
//! consultbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload closed-loop from a single caller thread on a
//! two-shard engine, checks every outcome, and prints one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run with `--trace 1`. Any correctness breach sets
//! `"correct": false` and exits nonzero. See `README.md`.

mod bench;
mod clock;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use bench::{measure, probe, rss_bytes, Bench, Ledger, Measured};
use clock::Reference;
use stats::{median, percentile};
use trace::{Layers, Tracer};
use workload::{Class, Workload};

/// Requests of a traced run whose spans are written out.
const WRITTEN_REQUESTS: u64 = 20_000;
/// Set-ups an untraced run times; `setup_s` is their median. Three are
/// the measured engine's and the gate's two probes.
const SETUPS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Named metrics in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank percentile, or 0 when the samples cannot support it
/// (the layer did not run, or ran too rarely).
fn pct(sorted: &[f64], p: f64) -> f64 {
    percentile(sorted, p).unwrap_or(0.0)
}

struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("consultbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The reference job runs once untimed before anything is measured.
    let mut reference = Reference::default();
    reference.run();
    let run = if args.trace {
        traced(&args, &mut reference)
    } else {
        untraced(&args, &mut reference)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.correct,
        run.attempted,
        run.failed,
        run.metrics.json()
    );
    if run.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The correctness gate shared by both modes: no adoption the kernel
/// rejects, the ledger identities on the measured engine, and two fresh
/// replays of the stream's prefix agreeing on every count. Returns the
/// verdict and the two replays' set-up times.
fn gate(args: &Args, bench: &Bench, m: &Measured, reference: &mut Reference) -> (bool, [f64; 2]) {
    let (a, setup_a, ledger_a) = probe(args.workload, args.seed, reference);
    let (b, setup_b, ledger_b) = probe(args.workload, args.seed, reference);
    let checks = [
        (
            "kernel re-check of every adoption",
            m.tally.kernel_rejects == 0,
        ),
        (
            "ledger identities",
            bench.ledger_ok(false) && ledger_a && ledger_b,
        ),
        ("counts repeat under the same seed", a == b),
    ];
    for (name, ok) in checks {
        if !ok {
            eprintln!("consultbench: correctness breach: {name}");
        }
    }
    (checks.iter().all(|c| c.1), [setup_a, setup_b])
}

/// End-to-end run: set-up, the measured phase, then the gate.
fn untraced(args: &Args, reference: &mut Reference) -> Run {
    let w = args.workload;
    let (mut bench, setup) = Bench::set_up(w, args.seed, reference);
    let rss_before = rss_bytes();
    let ledger_before = bench.ledger();
    let m = measure(&mut bench, args.seconds, None, reference);
    let ledger = bench.ledger().since(&ledger_before);
    let rss_after = rss_bytes();
    let (correct, gate_setups) = gate(args, &bench, &m, reference);
    drop(bench);
    let mut setups = vec![setup];
    setups.extend(gate_setups);
    while setups.len() < SETUPS {
        setups.push(Bench::set_up(w, args.seed, reference).1);
    }

    let t = &m.tally;
    let lat = m.corrected_latencies_us();
    let (ok, corrected_s, raw_s) = m.untraced_totals();
    let attempted = t.attempted as f64;
    let rss_mb = match (rss_before, rss_after) {
        (Some(b), Some(a)) => (a as f64 - b as f64) / (1024.0 * 1024.0),
        _ => 0.0,
    };
    let mut metrics = Metrics::default();
    metrics.add("consults_per_s", ratio(ok as f64, corrected_s), "1/s");
    metrics.add("consult_p50_us", pct(&lat, 50.0), "us");
    metrics.add("consult_p99_us", pct(&lat, 99.0), "us");
    metrics.add("adopted_share", ratio(t.adopted as f64, attempted), "share");
    metrics.add("ok_share", 1.0 - ratio(t.failed as f64, attempted), "share");
    metrics.add(
        "wire_bytes_per_consult",
        ratio(ledger.total_bytes as f64, attempted),
        "bytes",
    );
    metrics.add("rss_growth_mb", rss_mb, "MB");
    metrics.add("setup_s", median(&setups), "s");

    // The raw wall figures next to the corrected ones, for the steadiness
    // record; only the last line of stdout is the result.
    let mut raw_lat: Vec<f64> = m.latencies.iter().map(|&(ns, _)| ns as f64 / 1e3).collect();
    stats::sort(&mut raw_lat);
    println!(
        "raw: {{\"consults_per_s\": {}, \"consult_p50_us\": {}, \"consult_p99_us\": {}, \
         \"failed_share\": {}, \"ref_job_us_p50\": {}, \"correction_p50\": {}, \"slices\": {}}}",
        ratio(ok as f64, raw_s),
        pct(&raw_lat, 50.0),
        pct(&raw_lat, 99.0),
        ratio(t.failed as f64, attempted),
        median(&m.references),
        median(&m.factors),
        m.factors.len(),
    );
    Run {
        correct,
        attempted: t.attempted,
        failed: t.failed,
        metrics,
    }
}

/// Traced run: untraced and traced slices alternate; per-layer metrics
/// come from the traced ones.
fn traced(args: &Args, reference: &mut Reference) -> Run {
    let w = args.workload;
    let (mut bench, _) = Bench::set_up(w, args.seed, reference);
    let mut tracer = Tracer::new(w, args.seed, &bench.engine, &bench.warm_agents);
    let ledger_before: Ledger = bench.ledger();
    let misses_before = bench.engine.engine.frame_pool_misses();
    let m = measure(&mut bench, args.seconds, Some(&mut tracer), reference);
    let ledger = bench.ledger().since(&ledger_before);
    let frame_misses = bench.engine.engine.frame_pool_misses() - misses_before;
    let (correct, _) = gate(args, &bench, &m, reference);

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-{}.csv", w.name(), args.seed));
    if let Err(e) = tracer.write_csv(&path, WRITTEN_REQUESTS) {
        eprintln!("consultbench: could not write {}: {e}", path.display());
    }

    let t = &m.tally;
    let n = t.attempted as f64;
    let layers = Layers::new(&tracer, &m.factors);
    let all = |_: Class, _: bool, _: bool| true;
    let of_class = |c: Class| move |k: Class, _: bool, _: bool| k == c;
    let advise = layers.durations("inventor.advise", all);
    let check = layers.durations("verifier.kernel_check", all);
    let consult_spans = layers.durations("consult", all);
    let untraced_lat = m.corrected_latencies_us();

    let mut metrics = Metrics::default();
    metrics.add("inventor.advise_p50_us", pct(&advise, 50.0), "us");
    metrics.add("inventor.advise_p99_us", pct(&advise, 99.0), "us");
    metrics.add(
        "inventor.calls_per_consult",
        ratio(t.protocol_runs as f64, n),
        "count",
    );
    metrics.add("verifier.kernel_check_p50_us", pct(&check, 50.0), "us");
    metrics.add("verifier.kernel_check_p99_us", pct(&check, 99.0), "us");
    metrics.add(
        "verifier.checks_per_consult",
        ratio((t.verdicts + t.cached) as f64, n),
        "count",
    );
    metrics.add(
        "verifier.check_over_advise",
        ratio(pct(&check, 50.0), pct(&advise, 50.0)),
        "ratio",
    );
    for c in Class::SOLVE_MIX {
        let v = layers.durations("inventor.advise", of_class(c));
        metrics.add(
            format!("inventor.advise_p50_us.{}", c.name()),
            pct(&v, 50.0),
            "us",
        );
    }
    for c in Class::SOLVE_MIX {
        let v = layers.durations("verifier.kernel_check", of_class(c));
        metrics.add(
            format!("verifier.kernel_check_p50_us.{}", c.name()),
            pct(&v, 50.0),
            "us",
        );
    }
    let digest = layers.durations("cache.spec_digest", all);
    let hits = layers.durations("consult", |_, cached, ok| ok && cached);
    let misses = layers.durations("consult", |_, cached, ok| ok && !cached);
    metrics.add("cache.spec_digest_p50_us", pct(&digest, 50.0), "us");
    metrics.add("cache.hit_share", ratio(t.cached as f64, n), "share");
    metrics.add("cache.hit_consult_p50_us", pct(&hits, 50.0), "us");
    metrics.add("cache.miss_consult_p50_us", pct(&misses, 50.0), "us");
    metrics.add(
        "cache.evictions_per_consult",
        ratio(ledger.cache.evictions as f64, n),
        "count",
    );
    metrics.add(
        "cache.stale_share",
        ratio(ledger.cache.stale as f64, n),
        "share",
    );
    let encode = layers.durations("wire.encode", all);
    metrics.add("wire.encode_p50_us", pct(&encode, 50.0), "us");
    metrics.add(
        "wire.advice_bytes_per_consult",
        ratio(t.advice_bytes as f64, n),
        "bytes",
    );
    metrics.add("wire.frame_pool_misses", frame_misses as f64, "count");
    let round = layers.durations("transport.round", all);
    let register = layers.durations("transport.register", all);
    metrics.add("transport.round_p50_us", pct(&round, 50.0), "us");
    metrics.add("transport.register_p50_us", pct(&register, 50.0), "us");
    metrics.add(
        "transport.messages_per_consult",
        ratio(ledger.messages as f64, n),
        "count",
    );
    metrics.add(
        "transport.retransmit_share",
        ratio(ledger.retransmit_bytes as f64, ledger.total_bytes as f64),
        "share",
    );
    let pool = layers.durations("reputation.pool_verdicts", all);
    let snapshot = layers.durations("reputation.snapshot", all);
    metrics.add("reputation.pool_verdicts_p50_us", pct(&pool, 50.0), "us");
    metrics.add("reputation.snapshot_p50_us", pct(&snapshot, 50.0), "us");
    metrics.add(
        "reputation.gossip_bytes_per_consult",
        ratio(ledger.gossip_bytes as f64, n),
        "bytes",
    );
    metrics.add(
        "session.attempts_per_consult",
        ratio(t.retransmits as f64, n),
        "count",
    );
    metrics.add(
        "session.degraded_share",
        ratio(t.degraded as f64, n),
        "share",
    );
    metrics.add(
        "session.overhead_p50_us",
        pct(&layers.overheads(), 50.0),
        "us",
    );
    let (ok, _, raw_s) = m.untraced_totals();
    metrics.add("host.ref_job_us", median(&m.references), "us");
    metrics.add("host.correction_p50", median(&m.factors), "ratio");
    metrics.add("host.wall_consults_per_s", ratio(ok as f64, raw_s), "1/s");
    metrics.add(
        "trace.overhead_share",
        ratio(pct(&consult_spans, 50.0), pct(&untraced_lat, 50.0)) - 1.0,
        "share",
    );
    metrics.add(
        "trace.bookkeeping_share",
        layers.bookkeeping_share(),
        "share",
    );
    Run {
        correct,
        attempted: t.attempted,
        failed: t.failed,
        metrics,
    }
}
