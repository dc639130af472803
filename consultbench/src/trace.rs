//! The traced run: spans around each consult and around replays of its
//! layer calls on the same inputs, timed from outside the program.
//!
//! Each request gets a `request` span holding the `consult` span (the
//! real `try_consult`) and one child span per replayed layer call. The
//! replays run after the consult, on standalone copies of the layer's
//! state: a fresh honest inventor, a reputation backend of the engine's
//! kind, and per-shard mirror transports of the engine's kind that hold
//! the same endpoints as the engine's shard buses.

use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use ra_authority::{
    kernel_check, spec_digest, ConsultResult, Endpoint, GossipPlane, GossipReputation, Inventor,
    InventorBehavior, LocalReputation, Message, Party, ReputationBackend, Transport, Wire,
};

use crate::stats::{self, Span};
use crate::workload::{transport, Class, Engine, Request, Workload};

/// Per-request facts the per-layer metrics group spans by.
struct RequestMeta {
    class: Class,
    cached: bool,
    ok: bool,
    slice: u32,
    consult: usize,
}

/// One shard's mirror transport and the endpoints registered on it.
struct Mirror {
    transport: Arc<dyn Transport>,
    inventor: Party,
    inventor_inbox: Endpoint,
    endpoints: Vec<Endpoint>,
}

/// Span recorder and replay state.
pub struct Tracer {
    origin: Instant,
    /// Every span, in the order it was opened.
    pub spans: Vec<Span>,
    /// Whether the layer call a replay span stands for ran inside the
    /// request's real consult.
    exercised: Vec<bool>,
    requests: Vec<RequestMeta>,
    inventor: Inventor,
    reputation: Arc<dyn ReputationBackend>,
    mirrors: Vec<Mirror>,
    inbox: Vec<(Party, Message)>,
}

impl Tracer {
    /// A tracer whose mirrors hold the engine's endpoints after set-up.
    pub fn new(workload: Workload, seed: u64, engine: &Engine, warm_agents: &[u64]) -> Tracer {
        let reputation: Arc<dyn ReputationBackend> = match workload {
            Workload::LossyQuorum => {
                Arc::new(GossipReputation::new(0, Arc::new(GossipPlane::new())))
            }
            _ => Arc::new(LocalReputation::new()),
        };
        let mirrors = (0..engine.shards.len())
            .map(|s| {
                let transport = transport(workload, seed ^ 0x4D49_5252 ^ s as u64);
                let inventor = Party::Inventor(s as u64);
                let inventor_inbox = transport.register(inventor);
                let endpoints = (0..workload.verifiers() as u64)
                    .map(|v| transport.register(Party::Verifier(v)))
                    .collect();
                Mirror {
                    transport,
                    inventor,
                    inventor_inbox,
                    endpoints,
                }
            })
            .collect();
        let mut tracer = Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            exercised: Vec::new(),
            requests: Vec::new(),
            inventor: Inventor::new(0, InventorBehavior::Honest),
            reputation,
            mirrors,
            inbox: Vec::new(),
        };
        for &agent in warm_agents {
            tracer.enroll(engine, agent);
        }
        tracer
    }

    /// Registers an agent the engine registered outside a traced consult
    /// on its shard's mirror.
    pub fn enroll(&mut self, engine: &Engine, agent: u64) {
        let m = &mut self.mirrors[engine.engine.shard_of(agent)];
        m.endpoints.push(m.transport.register(Party::Agent(agent)));
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn record(&mut self, span: Span, exercised: bool) -> usize {
        self.spans.push(span);
        self.exercised.push(exercised);
        self.spans.len() - 1
    }

    /// Times `f` as a child span of `parent`.
    fn replay<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        exercised: bool,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let start = self.now();
        let out = std::hint::black_box(f(self));
        let span = Span {
            name,
            request: self.spans[parent].request,
            parent: Some(parent),
            start,
            end: self.now(),
        };
        self.record(span, exercised);
        out
    }

    /// Runs one traced consult: the real call, then replays of each layer
    /// call it made, on the same inputs.
    pub fn consult(&mut self, engine: &Engine, r: &Request, slice: u32) -> ConsultResult {
        let shard = engine.engine.shard_of(r.agent);
        let bus = &engine.shards[shard];
        let request_start = self.now();
        let messages_before = bus.message_count();
        let start = self.now();
        let result = engine.engine.try_consult(r.agent, &r.spec);
        let consult_end = self.now();
        let messages = bus.message_count() - messages_before;
        // The request span is recorded first so children can name it; its
        // end is set once the replays are done.
        let root = self.record(
            Span {
                name: "request",
                request: r.index,
                parent: None,
                start: request_start,
                end: request_start,
            },
            true,
        );
        let consult = self.record(
            Span {
                name: "consult",
                request: r.index,
                parent: Some(root),
                start,
                end: consult_end,
            },
            true,
        );

        let cache_on = engine.engine.cert_cache().is_some();
        let spec = Arc::clone(&r.spec);
        self.replay("cache.spec_digest", root, cache_on, |_| spec_digest(&spec));
        let (ok, cached) = match &result {
            Err(_) => (false, false),
            Ok(outcome) => (true, outcome.cached),
        };
        if let Ok(outcome) = &result {
            if !cached {
                self.replay("inventor.advise", root, true, |t| t.inventor.advise(&spec));
            }
            if let Some(advice) = &outcome.advice {
                let checks = if cached {
                    1
                } else {
                    outcome.verdict_details.len()
                };
                for _ in 0..checks {
                    self.replay("verifier.kernel_check", root, true, |_| {
                        kernel_check(&spec, advice)
                    });
                }
                if !cached {
                    let message = Message::AdviceWithProof {
                        game_id: r.index,
                        advice: Box::new(advice.clone()),
                    };
                    self.replay("wire.encode", root, true, |_| message.encoded_len());
                }
            }
            let verdicts: Vec<(Party, bool)> = outcome
                .verdict_details
                .iter()
                .map(|(party, accepted, _)| (*party, *accepted))
                .collect();
            if !cached && !verdicts.is_empty() {
                self.replay("reputation.pool_verdicts", root, true, |t| {
                    t.reputation.pool_verdicts(&verdicts)
                });
            }
        }
        self.replay("reputation.snapshot", root, !cached, |t| {
            t.reputation.snapshot()
        });
        for _ in 0..messages {
            self.replay("transport.round", root, true, |t| t.round(shard, r));
        }
        if r.new_agent {
            self.register(shard, r.agent, root);
        }
        self.spans[root].end = self.now();
        self.requests.push(RequestMeta {
            class: r.class,
            cached,
            ok,
            slice,
            consult,
        });
        result
    }

    /// One send, settle and drain on the shard's mirror.
    fn round(&mut self, shard: usize, r: &Request) {
        let m = &self.mirrors[shard];
        // A frame lost on a lossy mirror is part of the round's cost.
        let _ = m.transport.send(
            Party::Agent(r.agent),
            m.inventor,
            Message::AdviceRequest { game_id: r.index },
        );
        m.transport.settle();
        self.inbox.clear();
        m.inventor_inbox.drain_into(&mut self.inbox);
    }

    /// The registration of a new agent, replayed on the shard's mirror,
    /// which holds as many endpoints as the engine's shard bus. The agent
    /// stays registered, as in the engine.
    fn register(&mut self, shard: usize, agent: u64, root: usize) {
        let endpoint = self.replay("transport.register", root, true, |t| {
            t.mirrors[shard].transport.register(Party::Agent(agent))
        });
        self.mirrors[shard].endpoints.push(endpoint);
    }

    /// Writes the spans of the first `max_requests` requests as CSV.
    pub fn write_csv(&self, path: &std::path::Path, max_requests: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,request,name,start_ns,end_ns")?;
        let first = self.spans.first().map_or(0, |s| s.request);
        for (id, s) in self.spans.iter().enumerate() {
            if s.request >= first + max_requests {
                break;
            }
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{id},{parent},{},{},{},{}",
                s.request, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Corrected durations in microseconds, by span name and request filter.
pub struct Layers<'a> {
    tracer: &'a Tracer,
    factors: &'a [f64],
    /// Request index (into the tracer's request list) of every span.
    owner: Vec<usize>,
}

impl<'a> Layers<'a> {
    /// Indexes the tracer's spans; `factors` are the slices' corrections.
    pub fn new(tracer: &'a Tracer, factors: &'a [f64]) -> Layers<'a> {
        let mut owner = Vec::with_capacity(tracer.spans.len());
        let mut current = 0;
        for (id, s) in tracer.spans.iter().enumerate() {
            if s.parent.is_none() && id > 0 {
                current += 1;
            }
            owner.push(current);
        }
        Layers {
            tracer,
            factors,
            owner,
        }
    }

    fn corrected_us(&self, id: usize, ns: u64) -> f64 {
        let slice = self.tracer.requests[self.owner[id]].slice as usize;
        ns as f64 / 1e3 * self.factors[slice]
    }

    /// Sorted corrected durations of spans named `name` whose request
    /// passes `keep`.
    pub fn durations(&self, name: &str, keep: impl Fn(Class, bool, bool) -> bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .tracer
            .spans
            .iter()
            .enumerate()
            .filter(|(id, s)| {
                let r = &self.tracer.requests[self.owner[*id]];
                s.name == name && keep(r.class, r.cached, r.ok)
            })
            .map(|(id, s)| self.corrected_us(id, s.duration()))
            .collect();
        stats::sort(&mut v);
        v
    }

    /// Sorted per-request session overhead: the consult span minus the
    /// replay spans of the layer calls that consult made.
    pub fn overheads(&self) -> Vec<f64> {
        let mut per_request = vec![0.0; self.tracer.requests.len()];
        for (id, s) in self.tracer.spans.iter().enumerate() {
            let r = self.owner[id];
            let us = self.corrected_us(id, s.duration());
            if id == self.tracer.requests[r].consult {
                per_request[r] += us;
            } else if s.parent.is_some() && self.tracer.exercised[id] {
                per_request[r] -= us;
            }
        }
        stats::sort(&mut per_request);
        per_request
    }

    /// Share of the traced requests' time that is span bookkeeping: the
    /// `request` spans' self time over their duration.
    pub fn bookkeeping_share(&self) -> f64 {
        let self_times = stats::self_times(&self.tracer.spans);
        let (mut own, mut total) = (0u64, 0u64);
        for (s, t) in self.tracer.spans.iter().zip(self_times) {
            if s.parent.is_none() {
                own += t;
                total += s.duration();
            }
        }
        own as f64 / total.max(1) as f64
    }
}
