//! The four workloads: seeded request streams and the engine each runs on.
//!
//! Everything the engine sees is generated here from the workload seed,
//! so a run is replayed by rerunning it with the same `--seed`.

use std::collections::HashSet;
use std::sync::Arc;

use ra_authority::{
    spec_digest, Bus, CertCacheConfig, Digest, GameSpec, InventorBehavior, LinkProfile, Party,
    ReputationConfig, ReputationPolicy, ResilienceConfig, ShardedAuthority, SimNet, SimNetConfig,
    Transport, TransportSite, VerifierBehavior,
};
use ra_exact::{rat, Rational};
use ra_games::named::{battle_of_the_sexes, prisoners_dilemma, stag_hunt};
use ra_games::{GameGenerator, StrategicGame};
use ra_solvers::ParticipationParams;

/// Shards of every engine.
pub const SHARDS: usize = 2;
/// Pre-registered agents of the fixed-pool workloads.
pub const POOL: u64 = 64;
/// Distinct games in the `zipf_replay` catalog.
pub const CATALOG: usize = 1024;
/// Certificate-cache capacity on `zipf_replay`: a quarter of the catalog.
pub const CACHE_CAPACITY: usize = CATALOG / 4;
/// Zipf exponent of `zipf_replay`.
pub const ZIPF_S: f64 = 1.1;
/// Consults per `agent_churn` session; each agent consults this many
/// games and never returns.
pub const SESSION: u64 = 16;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fresh games of six classes: inventor, kernel and exact arithmetic.
    SolveMix,
    /// Zipf replay over a catalog through a shared `Replay` cache.
    ZipfReplay,
    /// Tiny games from agents that never return: sessions, transport,
    /// registration.
    AgentChurn,
    /// Tiny games over a lossy simulated network with the resilient
    /// protocol and gossip.
    LossyQuorum,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::SolveMix,
        Workload::ZipfReplay,
        Workload::AgentChurn,
        Workload::LossyQuorum,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveMix => "solve_mix",
            Workload::ZipfReplay => "zipf_replay",
            Workload::AgentChurn => "agent_churn",
            Workload::LossyQuorum => "lossy_quorum",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether consults run the resilient protocol.
    pub fn resilient(self) -> bool {
        self == Workload::LossyQuorum
    }

    /// Whether the engine has a certificate cache.
    pub fn cached(self) -> bool {
        self == Workload::ZipfReplay
    }

    /// Size of the verifier panel.
    pub fn verifiers(self) -> usize {
        match self {
            Workload::LossyQuorum => 5,
            _ => 3,
        }
    }
}

/// The game class of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// Random 3×3 bimatrix game.
    Bimatrix3,
    /// Random 4×4 bimatrix game.
    Bimatrix4,
    /// 6×6 bimatrix game with a planted pure equilibrium.
    PlantedBimatrix6,
    /// 5×5 game with a planted pure equilibrium, as a strategic game.
    PlantedStrategic5,
    /// §5 participation game with drawn `n`, `v` and `c`.
    Participation,
    /// §6 online parallel-links advice with drawn loads.
    ParallelLinks,
    /// 12×12 coordination game from the `zipf_replay` catalog.
    Coordination12,
    /// Prisoner's dilemma.
    PrisonersDilemma,
    /// Battle of the sexes (bimatrix).
    BattleOfSexes,
    /// Three-player stag hunt.
    StagHunt3,
}

impl Class {
    /// The six `solve_mix` classes, in rotation order.
    pub const SOLVE_MIX: [Class; 6] = [
        Class::Bimatrix3,
        Class::Bimatrix4,
        Class::PlantedBimatrix6,
        Class::PlantedStrategic5,
        Class::Participation,
        Class::ParallelLinks,
    ];

    /// The metric-name suffix of the class.
    pub fn name(self) -> &'static str {
        match self {
            Class::Bimatrix3 => "bimatrix3",
            Class::Bimatrix4 => "bimatrix4",
            Class::PlantedBimatrix6 => "planted_bimatrix6",
            Class::PlantedStrategic5 => "planted_strategic5",
            Class::Participation => "participation",
            Class::ParallelLinks => "parallel_links",
            Class::Coordination12 => "coordination12",
            Class::PrisonersDilemma => "prisoners_dilemma",
            Class::BattleOfSexes => "battle_of_sexes",
            Class::StagHunt3 => "stag_hunt3",
        }
    }
}

/// One consult request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Position in the stream.
    pub index: u64,
    /// The consulting agent.
    pub agent: u64,
    /// Whether this is the agent's first consult.
    pub new_agent: bool,
    /// Game class.
    pub class: Class,
    /// The game.
    pub spec: Arc<GameSpec>,
}

/// SplitMix64: the stream generator's only source of randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` has probability proportional to
/// `1 / (r + 1)^s`, sampled by inverting a precomputed CDF.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// The rank for a uniform draw `u` in `[0, 1)`.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A workload's seeded request stream.
pub struct Stream {
    workload: Workload,
    rng: Rng,
    next_index: u64,
    /// `zipf_replay`: the catalog and its popularity law.
    catalog: Vec<Arc<GameSpec>>,
    zipf: Zipf,
    /// The tiny games of `agent_churn` and `lossy_quorum`, also played
    /// by `solve_mix`'s warm-up.
    tiny: [(Class, Arc<GameSpec>); 3],
    /// `solve_mix`: digests already issued, so no game repeats.
    seen: HashSet<Digest>,
    /// `agent_churn`: the current agent and its remaining consults.
    churn_agent: u64,
    churn_left: u64,
}

impl Stream {
    /// The stream of `workload` under `seed`, with its catalog generated.
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let mut rng = Rng::new(seed ^ 0xC0A5_17B3_9E11_0001);
        let catalog = if workload == Workload::ZipfReplay {
            coordination_catalog(&mut rng)
        } else {
            Vec::new()
        };
        Stream {
            workload,
            rng,
            next_index: 0,
            catalog,
            zipf: Zipf::new(CATALOG, ZIPF_S),
            tiny: [
                (
                    Class::PrisonersDilemma,
                    Arc::new(GameSpec::Strategic(prisoners_dilemma().to_strategic())),
                ),
                (
                    Class::BattleOfSexes,
                    Arc::new(GameSpec::Bimatrix(battle_of_the_sexes())),
                ),
                (
                    Class::StagHunt3,
                    Arc::new(GameSpec::Strategic(stag_hunt(3))),
                ),
            ],
            seen: HashSet::new(),
            churn_agent: 0,
            churn_left: 0,
        }
    }

    /// The set-up consults that precede measurement. Fixed-pool workloads
    /// register every pool agent with one consult each; `zipf_replay`
    /// also primes the cache with the catalog's most popular games;
    /// `agent_churn` runs a whole session for as many agents as a pool
    /// holds. `solve_mix` registers its pool with the fixed tiny games,
    /// not with its own heavy-tailed classes, so set-up time does not
    /// hang on which games a seed draws.
    pub fn warmup(&mut self) -> Vec<Request> {
        match self.workload {
            Workload::SolveMix => (0..POOL)
                .map(|agent| {
                    let index = self.next_index;
                    self.next_index += 1;
                    let (class, spec) = self.tiny_game(index);
                    Request {
                        index,
                        agent,
                        new_agent: true,
                        class,
                        spec,
                    }
                })
                .collect(),
            Workload::ZipfReplay => (0..CACHE_CAPACITY)
                .map(|rank| {
                    let mut r = self.next();
                    r.agent = rank as u64 % POOL;
                    r.new_agent = (rank as u64) < POOL;
                    r.spec = Arc::clone(&self.catalog[rank]);
                    r
                })
                .collect(),
            Workload::AgentChurn => (0..POOL * SESSION).map(|_| self.next()).collect(),
            Workload::LossyQuorum => (0..POOL)
                .map(|agent| {
                    let mut r = self.next();
                    r.agent = agent;
                    r.new_agent = true;
                    r
                })
                .collect(),
        }
    }

    /// The next request.
    pub fn next(&mut self) -> Request {
        let index = self.next_index;
        self.next_index += 1;
        let (agent, new_agent) = match self.workload {
            Workload::AgentChurn => {
                let new_agent = self.churn_left == 0;
                if new_agent {
                    // Seeded ids, so the shard split differs between seeds.
                    self.churn_agent = self.rng.next_u64() >> 1;
                    self.churn_left = SESSION;
                }
                self.churn_left -= 1;
                (self.churn_agent, new_agent)
            }
            _ => (self.rng.below(POOL), false),
        };
        let (class, spec) = match self.workload {
            Workload::SolveMix => self.fresh_game(index),
            Workload::ZipfReplay => {
                let rank = self.zipf.rank(self.rng.unit());
                (Class::Coordination12, Arc::clone(&self.catalog[rank]))
            }
            Workload::AgentChurn | Workload::LossyQuorum => self.tiny_game(index),
        };
        Request {
            index,
            agent,
            new_agent,
            class,
            spec,
        }
    }

    /// The tiny game at `index` of the prisoner's dilemma, battle of the
    /// sexes and stag hunt rotation.
    fn tiny_game(&self, index: u64) -> (Class, Arc<GameSpec>) {
        let (class, spec) = &self.tiny[(index % 3) as usize];
        (*class, Arc::clone(spec))
    }

    /// A `solve_mix` game not issued before in this stream; classes
    /// rotate with the request index.
    fn fresh_game(&mut self, index: u64) -> (Class, Arc<GameSpec>) {
        let class = Class::SOLVE_MIX[(index % 6) as usize];
        loop {
            let spec = solve_mix_game(class, &mut self.rng);
            if self.seen.insert(spec_digest(&spec)) {
                return (class, Arc::new(spec));
            }
        }
    }
}

/// One random game of a `solve_mix` class.
fn solve_mix_game(class: Class, rng: &mut Rng) -> GameSpec {
    let mut generator = GameGenerator::seeded(rng.next_u64());
    match class {
        Class::Bimatrix3 => GameSpec::Bimatrix(generator.bimatrix(3, 3, -1000..=1000)),
        Class::Bimatrix4 => GameSpec::Bimatrix(generator.bimatrix(4, 4, -1000..=1000)),
        Class::PlantedBimatrix6 => {
            let cell = (rng.below(6) as usize, rng.below(6) as usize);
            GameSpec::Bimatrix(generator.bimatrix_with_planted_pure(6, 6, cell))
        }
        Class::PlantedStrategic5 => {
            let cell = (rng.below(5) as usize, rng.below(5) as usize);
            GameSpec::Strategic(
                generator
                    .bimatrix_with_planted_pure(5, 5, cell)
                    .to_strategic(),
            )
        }
        Class::Participation => {
            // c is drawn below 0.45 v: most draws have an interior
            // equilibrium, and the rest are declined by the inventor.
            let n = rng.range(3, 6) as u64;
            let v = rng.range(96, 160);
            let c = rng.range(1, v * 4096 * 45 / 100 / 16);
            let params = ParticipationParams::new(n, 2, rat(v, 16), rat(c, 4096))
                .expect("drawn parameters satisfy n >= 2 and 0 < c < v");
            GameSpec::Participation(params)
        }
        Class::ParallelLinks => {
            let links = rng.range(2, 4) as usize;
            GameSpec::ParallelLinks {
                current_loads: (0..links).map(|_| rat(rng.range(0, 40), 4)).collect(),
                own_load: rat(rng.range(1, 20), 4),
                expected_future_load: rat(rng.range(0, 8), 2),
                expected_future_agents: rng.range(1, 6) as usize,
            }
        }
        _ => unreachable!("not a solve_mix class"),
    }
}

/// The `zipf_replay` catalog: distinct 12×12 coordination games, ranked
/// by popularity. Rank `r`'s diagonal pays `base + i` for coordinating on
/// strategy `i`, with `base` a seeded permutation of the ranks, so every
/// game has its own digest and the popular games differ between seeds.
fn coordination_catalog(rng: &mut Rng) -> Vec<Arc<GameSpec>> {
    let mut bases: Vec<i64> = (1..=CATALOG as i64).collect();
    for i in (1..bases.len()).rev() {
        bases.swap(i, rng.below(i as u64 + 1) as usize);
    }
    bases
        .into_iter()
        .map(|base| {
            Arc::new(GameSpec::Strategic(StrategicGame::from_payoff_fn(
                vec![12, 12],
                |p| {
                    let (a, b) = (p.strategy_of(0), p.strategy_of(1));
                    let v = if a == b {
                        Rational::from(base + a as i64)
                    } else {
                        Rational::zero()
                    };
                    vec![v.clone(), v]
                },
            )))
        })
        .collect()
}

/// The link every `lossy_quorum` network uses by default: 1–3 ticks,
/// 20% loss.
pub fn lossy_link() -> LinkProfile {
    LinkProfile {
        latency_min: 1,
        latency_max: 3,
        drop_prob: 0.2,
        duplicate_probability: 0.0,
    }
}

/// Loss on the links between an agent and its shard's inventor. The
/// advice stage has no quorum to fall back on: at 20% a round trip is
/// lost with probability 0.36, so all eight attempts are lost for about
/// 2.8e-4 of consults, which then end in a deadline error. At 2% that
/// falls to about 6e-12, so no consult fails, while the panel stage keeps
/// its 20% links, its retransmits and its degraded closes.
pub const ADVICE_LINK_LOSS: f64 = 0.02;

/// A fresh transport of the kind `workload` runs on.
pub fn transport(workload: Workload, seed: u64) -> Arc<dyn Transport> {
    match workload {
        Workload::LossyQuorum => {
            let advice_link = LinkProfile {
                drop_prob: ADVICE_LINK_LOSS,
                ..lossy_link()
            };
            let links = (0..SHARDS as u64)
                .flat_map(|s| (0..POOL).map(move |a| (Party::Inventor(s), Party::Agent(a))))
                .flat_map(|(i, a)| [(i, a, advice_link), (a, i, advice_link)])
                .collect();
            Arc::new(SimNet::new(SimNetConfig {
                seed,
                default_link: lossy_link(),
                links,
                ..SimNetConfig::default()
            }))
        }
        _ => Arc::new(Bus::new()),
    }
}

/// An engine plus handles on the transports it was built with.
pub struct Engine {
    /// The engine under test.
    pub engine: ShardedAuthority,
    /// The per-shard session transports, by shard.
    pub shards: Vec<Arc<dyn Transport>>,
    /// The gossip hub's transport, when the policy gossips.
    pub hub: Option<Arc<dyn Transport>>,
}

/// Builds the two-shard engine `workload` runs on. Inventor and
/// verifiers are honest.
pub fn build_engine(workload: Workload, seed: u64) -> Engine {
    let policy = match workload {
        Workload::LossyQuorum => ReputationPolicy::Gossip { every: 64 },
        _ => ReputationPolicy::Isolated,
    };
    let cache = if workload.cached() {
        CertCacheConfig::replay(CACHE_CAPACITY)
    } else {
        CertCacheConfig::default()
    };
    let salted = |salt: u64| transport(workload, seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let shards: Vec<Arc<dyn Transport>> = (1..=SHARDS as u64).map(salted).collect();
    let hub = salted(0x4855_4200);
    let engine = ShardedAuthority::with_transports(
        SHARDS,
        InventorBehavior::Honest,
        &vec![VerifierBehavior::Honest; workload.verifiers()],
        ReputationConfig::from(policy),
        cache,
        &|site| match site {
            TransportSite::Shard(s) => Arc::clone(&shards[s]),
            TransportSite::GossipHub => Arc::clone(&hub),
        },
    );
    if workload.resilient() {
        engine.set_resilience(Some(ResilienceConfig {
            deadline: 4096,
            quorum: 3,
            seed: seed ^ 0x7E51_11E7,
            ..ResilienceConfig::default()
        }));
    }
    let hub = engine.gossip_bus().is_some().then_some(hub);
    Engine {
        engine,
        shards,
        hub,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(workload: Workload, seed: u64, n: usize) -> Vec<(u64, Class, Digest)> {
        let mut stream = Stream::new(workload, seed);
        let mut out: Vec<_> = stream
            .warmup()
            .into_iter()
            .map(|r| (r.agent, r.class, spec_digest(&r.spec)))
            .collect();
        out.extend((0..n).map(|_| {
            let r = stream.next();
            (r.agent, r.class, spec_digest(&r.spec))
        }));
        out
    }

    #[test]
    fn same_seed_same_requests() {
        for w in Workload::ALL {
            assert_eq!(prefix(w, 7, 60), prefix(w, 7, 60), "{}", w.name());
        }
    }

    #[test]
    fn different_seeds_different_requests() {
        for w in Workload::ALL {
            assert_ne!(prefix(w, 7, 60), prefix(w, 8, 60), "{}", w.name());
        }
    }

    #[test]
    fn solve_mix_warmup_does_not_depend_on_the_seed() {
        let warmup = |seed| -> Vec<(u64, bool, Digest)> {
            Stream::new(Workload::SolveMix, seed)
                .warmup()
                .into_iter()
                .map(|r| (r.agent, r.new_agent, spec_digest(&r.spec)))
                .collect()
        };
        assert_eq!(warmup(7), warmup(8));
        assert_eq!(warmup(7).len(), POOL as usize);
    }

    #[test]
    fn solve_mix_never_repeats_a_game() {
        let mut stream = Stream::new(Workload::SolveMix, 3);
        let mut seen = HashSet::new();
        for _ in 0..600 {
            let r = stream.next();
            assert!(seen.insert(spec_digest(&r.spec)));
        }
    }

    #[test]
    fn churn_agents_never_return() {
        let mut stream = Stream::new(Workload::AgentChurn, 3);
        let mut finished = HashSet::new();
        let mut current = None;
        for _ in 0..10 * SESSION {
            let r = stream.next();
            assert_eq!(r.new_agent, current != Some(r.agent));
            if r.new_agent {
                if let Some(prev) = current {
                    finished.insert(prev);
                }
                assert!(!finished.contains(&r.agent));
                current = Some(r.agent);
            }
        }
    }

    #[test]
    fn zipf_matches_its_law() {
        let zipf = Zipf::new(CATALOG, ZIPF_S);
        let mut rng = Rng::new(11);
        let draws = 200_000;
        let mut counts = vec![0u64; CATALOG];
        for _ in 0..draws {
            counts[zipf.rank(rng.unit())] += 1;
        }
        let h: f64 = (1..=CATALOG).map(|r| (r as f64).powf(-ZIPF_S)).sum();
        for rank in [0usize, 1, 9] {
            let expected = ((rank + 1) as f64).powf(-ZIPF_S) / h;
            let got = counts[rank] as f64 / draws as f64;
            assert!((got - expected).abs() < 0.1 * expected, "rank {rank}");
        }
        // The cache holds the top quarter; it carries most of the mass.
        let top: f64 = (1..=CACHE_CAPACITY)
            .map(|r| (r as f64).powf(-ZIPF_S))
            .sum::<f64>()
            / h;
        assert!((0.8..0.9).contains(&top), "top-quarter mass {top}");
        assert_eq!(zipf.rank(0.0), 0);
        assert_eq!(zipf.rank(0.999_999_999), CATALOG - 1);
    }
}
