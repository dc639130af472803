//! Set-up, the measured loop of host-corrected slices, and the
//! correctness gate's tallies.

use std::time::{Duration, Instant};

use ra_authority::{
    kernel_check, Advice, CacheStats, ConsultResult, GameSpec, PanelOutcome, ShardStats,
};

use crate::clock::{self, Reference};
use crate::trace::Tracer;
use crate::workload::{build_engine, Engine, Request, Stream, Workload};

/// Raw wall time of one slice of consults between two reference jobs.
pub const SLICE: Duration = Duration::from_millis(10);
/// Requests generated ahead of a slice; a slice ends early when it runs
/// out of them.
const BUFFER: usize = 2048;

/// Counts over a set of consults. Every field is a pure function of the
/// seed and the number of consults, so two runs of the same prefix must
/// agree bit for bit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Consults issued.
    pub attempted: u64,
    /// Consults that returned `Err`, plus adoptions the kernel rejects.
    pub failed: u64,
    /// Adoptions the kernel re-check rejected (a correctness breach).
    pub kernel_rejects: u64,
    /// Consults that ended with adopted advice.
    pub adopted: u64,
    /// Consults served from the certificate cache.
    pub cached: u64,
    /// Consults whose panel closed degraded.
    pub degraded: u64,
    /// Retransmitted frames (`SessionOutcome::attempts`).
    pub retransmits: u64,
    /// Advice-message bytes of consults that ran the protocol.
    pub advice_bytes: u64,
    /// Verdicts pooled by consults that ran the protocol.
    pub verdicts: u64,
    /// Consults that ran the protocol, and so called the inventor.
    pub protocol_runs: u64,
}

/// Counts read from the engine and its transports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Shard-bus bytes, goodput plus retransmit.
    pub total_bytes: usize,
    /// Shard-bus retransmit bytes.
    pub retransmit_bytes: usize,
    /// Shard-bus messages.
    pub messages: usize,
    /// Delivered gossip-hub bytes.
    pub gossip_bytes: usize,
    /// Certificate-cache counters.
    pub cache: CacheStats,
}

impl Ledger {
    fn read(engine: &Engine) -> Ledger {
        let stats: ShardStats = engine.engine.shard_stats();
        Ledger {
            total_bytes: stats.total_bytes,
            retransmit_bytes: stats.retransmit_bytes,
            messages: stats.message_count,
            gossip_bytes: stats.gossip_bytes,
            cache: stats.cache,
        }
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &Ledger) -> Ledger {
        Ledger {
            total_bytes: self.total_bytes - before.total_bytes,
            retransmit_bytes: self.retransmit_bytes - before.retransmit_bytes,
            messages: self.messages - before.messages,
            gossip_bytes: self.gossip_bytes - before.gossip_bytes,
            cache: CacheStats {
                hits: self.cache.hits - before.cache.hits,
                misses: self.cache.misses - before.cache.misses,
                evictions: self.cache.evictions - before.cache.evictions,
                replay_failures: self.cache.replay_failures - before.cache.replay_failures,
                stale: self.cache.stale - before.cache.stale,
            },
        }
    }
}

/// An engine after set-up, with its request stream.
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// The engine and its transports.
    pub engine: Engine,
    /// The request stream, positioned after the warm-up.
    pub stream: Stream,
    /// Agents registered during set-up, in order of first consult.
    pub warm_agents: Vec<u64>,
    buffer: Vec<Request>,
    pos: usize,
}

impl Bench {
    /// Set-up: catalog generation, engine build, and the warm-up consults
    /// that register the agent pool (and prime the cache). Returns the
    /// bench and its corrected set-up time in seconds.
    pub fn set_up(workload: Workload, seed: u64, reference: &mut Reference) -> (Bench, f64) {
        let before = reference.time_us();
        let start = Instant::now();
        let mut stream = Stream::new(workload, seed);
        let engine = build_engine(workload, seed);
        let warmup = stream.warmup();
        for r in &warmup {
            // Warm-up outcomes are not measured; the gate re-checks the
            // measured ones.
            let _ = engine.engine.try_consult(r.agent, &r.spec);
        }
        let raw = start.elapsed().as_secs_f64();
        let corrected = raw * clock::correction(before, reference.time_us());
        let warm_agents = warmup
            .iter()
            .filter(|r| r.new_agent)
            .map(|r| r.agent)
            .collect();
        let bench = Bench {
            workload,
            engine,
            stream,
            warm_agents,
            buffer: Vec::with_capacity(BUFFER),
            pos: 0,
        };
        (bench, corrected)
    }

    /// Counts read from the engine now.
    pub fn ledger(&self) -> Ledger {
        Ledger::read(&self.engine)
    }

    /// Tops the request buffer up (outside any timed region).
    fn refill(&mut self) {
        self.buffer.drain(..self.pos);
        self.pos = 0;
        while self.buffer.len() < BUFFER {
            self.buffer.push(self.stream.next());
        }
    }

    /// Runs the next `n` requests untimed and returns their tally.
    pub fn run_prefix(&mut self, n: usize) -> Tally {
        let mut tally = Tally::default();
        for _ in 0..n {
            let r = self.stream.next();
            let result = self.engine.engine.try_consult(r.agent, &r.spec);
            let adopted = tally.record(result);
            if let Some(advice) = adopted {
                tally.recheck(&r.spec, &advice);
            }
        }
        tally
    }

    /// The ledger identities: on every transport the per-message log sums
    /// to the byte total and the total splits into goodput plus
    /// retransmit; without the resilient protocol nothing is
    /// retransmitted. `full_log` also walks the delivery log, which
    /// copies every record.
    pub fn ledger_ok(&self, full_log: bool) -> bool {
        let resilient = self.workload.resilient();
        self.engine
            .shards
            .iter()
            .chain(self.engine.hub.iter())
            .all(|t| {
                let total = t.total_bytes();
                let split = t.goodput_bytes() + t.retransmit_bytes() == total;
                let quiet = resilient || t.retransmit_bytes() == 0;
                let logged =
                    !full_log || t.delivery_log().iter().map(|r| r.bytes).sum::<usize>() == total;
                split && quiet && logged
            })
    }
}

impl Tally {
    /// Adds one consult's result; returns the advice to re-check when it
    /// was adopted.
    pub fn record(&mut self, result: ConsultResult) -> Option<Advice> {
        self.attempted += 1;
        match result {
            Err(_) => {
                self.failed += 1;
                None
            }
            Ok(outcome) => {
                if outcome.cached {
                    self.cached += 1;
                } else {
                    self.protocol_runs += 1;
                    self.advice_bytes += outcome.advice_bytes as u64;
                    self.verdicts += outcome.verdict_details.len() as u64;
                }
                if matches!(outcome.panel, PanelOutcome::Degraded { .. }) {
                    self.degraded += 1;
                }
                self.retransmits += outcome.attempts;
                if outcome.adopted {
                    self.adopted += 1;
                    outcome.advice
                } else {
                    None
                }
            }
        }
    }

    /// The gate's re-check of one adoption with the trusted kernel.
    pub fn recheck(&mut self, spec: &GameSpec, advice: &Advice) {
        if !kernel_check(spec, advice).0 {
            self.kernel_rejects += 1;
            self.failed += 1;
            self.adopted -= 1;
        }
    }
}

/// What the measured loop collected.
#[derive(Default)]
pub struct Measured {
    /// Counts over every measured consult.
    pub tally: Tally,
    /// Raw latency of each consult in untraced slices, in nanoseconds,
    /// with the index of its slice.
    pub latencies: Vec<(u64, u32)>,
    /// Correction factor of each slice.
    pub factors: Vec<f64>,
    /// Whether each slice was traced.
    pub traced: Vec<bool>,
    /// Raw wall time of each slice, in seconds.
    pub slice_secs: Vec<f64>,
    /// Consults that ended `Ok` in each slice.
    pub slice_ok: Vec<u64>,
    /// Raw reference-job timings, in microseconds.
    pub references: Vec<f64>,
}

impl Measured {
    /// Corrected latencies of untraced consults, in microseconds, sorted.
    pub fn corrected_latencies_us(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .latencies
            .iter()
            .map(|&(ns, s)| ns as f64 / 1e3 * self.factors[s as usize])
            .collect();
        crate::stats::sort(&mut v);
        v
    }

    /// `(ok consults, corrected seconds, raw seconds)` over untraced
    /// slices.
    pub fn untraced_totals(&self) -> (u64, f64, f64) {
        let mut totals = (0, 0.0, 0.0);
        for s in (0..self.factors.len()).filter(|&s| !self.traced[s]) {
            totals.0 += self.slice_ok[s];
            totals.1 += self.slice_secs[s] * self.factors[s];
            totals.2 += self.slice_secs[s];
        }
        totals
    }
}

/// Runs host-corrected slices of consults until they add up to `seconds`
/// of corrected time. With a tracer, every other slice is traced, and the
/// agents an untraced slice registered are enrolled on the tracer's
/// mirrors after it. A wall-clock cap keeps a pathologically slow host
/// within the run's time limit.
pub fn measure(
    bench: &mut Bench,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    reference: &mut Reference,
) -> Measured {
    let mut m = Measured::default();
    let cap = Instant::now() + Duration::from_secs_f64(3.0 * seconds + 20.0);
    let mut results: Vec<(usize, ConsultResult)> = Vec::with_capacity(BUFFER);
    let mut before = reference.time_us();
    m.references.push(before);
    let mut corrected = 0.0;
    while corrected < seconds && Instant::now() < cap {
        bench.refill();
        let slice = m.factors.len() as u32;
        let traced = tracer.is_some() && slice % 2 == 1;
        let start = Instant::now();
        loop {
            let r = &bench.buffer[bench.pos];
            bench.pos += 1;
            if traced {
                let t = tracer.as_deref_mut().expect("traced slice has a tracer");
                let result = t.consult(&bench.engine, r, slice);
                results.push((bench.pos - 1, result));
            } else {
                let t0 = Instant::now();
                let result = bench.engine.engine.try_consult(r.agent, &r.spec);
                m.latencies.push((t0.elapsed().as_nanos() as u64, slice));
                results.push((bench.pos - 1, result));
            }
            if bench.pos == bench.buffer.len() || start.elapsed() >= SLICE {
                break;
            }
        }
        let raw = start.elapsed().as_secs_f64();
        let after = reference.time_us();
        let factor = clock::correction(before, after);
        before = after;
        m.references.push(after);
        m.factors.push(factor);
        m.traced.push(traced);
        m.slice_secs.push(raw);
        corrected += raw * factor;
        // Outside the timed region: tally, re-check every adoption, and
        // keep the mirrors' endpoints in step with the engine's.
        let failed_before = m.tally.failed;
        let n = results.len() as u64;
        for (pos, result) in results.drain(..) {
            let r = &bench.buffer[pos];
            if let Some(advice) = m.tally.record(result) {
                m.tally.recheck(&r.spec, &advice);
            }
            if let (false, true, Some(t)) = (traced, r.new_agent, tracer.as_deref_mut()) {
                t.enroll(&bench.engine, r.agent);
            }
        }
        m.slice_ok.push(n - (m.tally.failed - failed_before));
    }
    m
}

/// Resident set size of this process in bytes, from `/proc/self/status`.
pub fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Requests the determinism gate replays twice from a fresh set-up.
pub fn gate_prefix(workload: Workload) -> usize {
    match workload {
        Workload::SolveMix => 600,
        Workload::ZipfReplay => 4000,
        Workload::AgentChurn => 4000,
        Workload::LossyQuorum => 2000,
    }
}

/// One determinism probe: a fresh set-up, the first requests of the
/// stream, and every count they produce. Also returns the probe's
/// set-up time and whether its ledger identities held.
pub fn probe(
    workload: Workload,
    seed: u64,
    reference: &mut Reference,
) -> ((Tally, Ledger), f64, bool) {
    let (mut bench, setup) = Bench::set_up(workload, seed, reference);
    let start = bench.ledger();
    let tally = bench.run_prefix(gate_prefix(workload));
    let ledger = bench.ledger().since(&start);
    let ok = bench.ledger_ok(true);
    ((tally, ledger), setup, ok)
}
