//! Batch candidate generation with bookkeeping (§5.5).
//!
//! [`IpModel::generate`] is the raw sampler; [`Generator`] adds the
//! bookkeeping an evaluation campaign needs: exclusion of the
//! training set (the paper counts hits against the *testing* set and
//! "New /64s" not seen in training), duplicate accounting, and a
//! configurable attempt budget.
//!
//! Every generation path shares one acceptance walk and differs only
//! in where its draws come from. [`Generator::run_seeded`] is the
//! keyed engine (also behind [`Generator::run_keyed_constrained`] and
//! the `eip serve` daemon's `GEN`): attempt `i` draws its row from the
//! compiled plan, or given evidence from
//! [`eip_bayes::sample_conditional`], on its own [`KeyedRng`].

use std::ops::Range;
use std::sync::Arc;

use eip_addr::{AddressSet, DedupSet, Ip6};
use eip_bayes::Evidence;
use eip_exec::rng::{stream_key, KeyedRng};
use eip_exec::Scheduler;

use crate::model::IpModel;

/// Stream id separating keyed candidate generation from every other
/// keyed consumer of the same seed (see [`eip_exec::rng`]).
const GEN_STREAM: u64 = 0x0067_656e; // "gen"

/// Stream id for keyed *evidence-conditioned* generation
/// ([`Generator::run_keyed_constrained`]): a distinct stream so
/// constrained and unconstrained batches under the same seed never
/// share draws.
const GEN_EVIDENCE_STREAM: u64 = 0x0067_6576; // "gev"

/// Outcome of a generation run: `attempts = candidates + duplicates +
/// excluded`.
#[derive(Clone, Debug)]
pub struct GenerationReport {
    /// The unique candidates, in generation order.
    pub candidates: Vec<Ip6>,
    /// Raw sampling attempts spent.
    pub attempts: usize,
    /// Draws discarded as duplicates of earlier candidates.
    pub duplicates: usize,
    /// Draws discarded because they were in the exclusion set.
    pub excluded: usize,
}

/// The acceptance walk every generation path shares: it takes
/// `(address, excluded)` draws in attempt order, marks each as
/// excluded, duplicate or accepted, and stops at `n` candidates or
/// `budget` attempts — never pulling a draw past the stop, so a draw
/// source sharing an RNG with later work leaves it exactly where the
/// last attempt did.
pub(crate) struct Acceptance {
    n: usize,
    budget: usize,
    seen: DedupSet,
    pub(crate) report: GenerationReport,
}

impl Acceptance {
    pub(crate) fn new(n: usize, budget: usize) -> Self {
        let report = GenerationReport {
            candidates: Vec::with_capacity(n),
            attempts: 0,
            duplicates: 0,
            excluded: 0,
        };
        Acceptance {
            n,
            budget,
            seen: DedupSet::with_capacity(n),
            report,
        }
    }

    fn done(&self) -> bool {
        self.report.candidates.len() >= self.n || self.report.attempts >= self.budget
    }

    /// Walks `draws` until the walk stops or `draws` runs dry.
    pub(crate) fn walk(mut self, draws: impl IntoIterator<Item = (Ip6, bool)>) -> Self {
        let mut draws = draws.into_iter();
        while !self.done() {
            let Some((ip, excluded)) = draws.next() else {
                break;
            };
            let r = &mut self.report;
            r.attempts += 1;
            if excluded {
                r.excluded += 1;
            } else if !self.seen.insert(ip) {
                r.duplicates += 1;
            } else {
                r.candidates.push(ip);
            }
        }
        self
    }
}

/// How a [`Generator`] holds its model: borrowed for the common
/// single-job case, or owned through an [`Arc`]
/// ([`Generator::shared`]) so the generator need not outlive a
/// borrow. The held model is identical either way, so every output is
/// too.
enum ModelRef<'m> {
    Borrowed(&'m IpModel),
    Shared(Arc<IpModel>),
}

impl ModelRef<'_> {
    #[inline]
    fn get(&self) -> &IpModel {
        match self {
            ModelRef::Borrowed(m) => m,
            ModelRef::Shared(m) => m,
        }
    }
}

/// Configurable batch generator over a trained model.
pub struct Generator<'m> {
    model: ModelRef<'m>,
    exclude: Option<&'m AddressSet>,
    attempts_per_candidate: usize,
    exec: Scheduler,
}

impl<'m> Generator<'m> {
    /// A generator with no exclusions, a 10× attempt budget, and
    /// serial sampling.
    pub fn new(model: &'m IpModel) -> Self {
        Generator {
            model: ModelRef::Borrowed(model),
            exclude: None,
            attempts_per_candidate: 10,
            exec: Scheduler::default(),
        }
    }

    /// A generator that holds a shared (`Arc`-held) model instead of
    /// borrowing one, for callers that keep the model behind an `Arc`
    /// anyway (a fleet job, a model registry). Byte-identical to
    /// [`Generator::new`] over the same model in every mode.
    pub fn shared(model: Arc<IpModel>) -> Self {
        Generator {
            model: ModelRef::Shared(model),
            exclude: None,
            attempts_per_candidate: 10,
            exec: Scheduler::default(),
        }
    }

    /// Never emit addresses from `set` (typically the training
    /// sample: the paper's evaluation wants *new* addresses).
    pub fn excluding(mut self, set: &'m AddressSet) -> Self {
        self.exclude = Some(set);
        self
    }

    /// Attempt budget as a multiple of the requested candidate count.
    pub fn attempts_per_candidate(mut self, k: usize) -> Self {
        self.attempts_per_candidate = k.max(1);
        self
    }

    /// Worker threads for [`Generator::run_seeded`] (clamped to at
    /// least 1). The batched output is identical at any setting.
    pub fn parallelism(mut self, n: usize) -> Self {
        self.exec = Scheduler::new(n);
        self
    }

    /// An explicit scheduler for [`Generator::run_seeded`] — the way
    /// a fleet job hands the generator its pool-attached scheduler
    /// ([`eip_exec::Scheduler::shared`]). As with
    /// [`parallelism`](Generator::parallelism), only wall-clock
    /// changes: the scheduler's worker geometry fixes the round
    /// shards and the keyed draws fix their contents.
    pub fn with_scheduler(mut self, exec: Scheduler) -> Self {
        self.exec = exec;
        self
    }

    /// Walks keyed attempts `0, 1, 2, …` one at a time, drawing each
    /// only when the walk asks for it.
    fn walk_keyed(&self, n: usize, key: u64, evidence: Option<&Evidence>) -> GenerationReport {
        let draws = keyed_draws(self.model.get(), evidence, self.exclude, key, 0..u64::MAX);
        let budget = n.saturating_mul(self.attempts_per_candidate);
        Acceptance::new(n, budget).walk(draws).report
    }

    /// The straight-line serial oracle for [`Generator::run_seeded`]:
    /// walks keyed attempt indices `0, 1, 2, …` one at a time,
    /// classifying each draw (excluded / duplicate / accepted) until
    /// `n` candidates or the `n ×`
    /// [`attempts_per_candidate`](Generator::attempts_per_candidate)
    /// budget is spent. No scheduler, no rounds — the simplest
    /// possible statement of what the batched engine must produce.
    pub fn run_keyed_reference(&self, n: usize, seed: u64) -> GenerationReport {
        self.walk_keyed(n, stream_key(seed, GEN_STREAM), None)
    }

    /// Keyed evidence-conditioned generation: up to `n` unique
    /// candidates with some segments clamped to dictionary codes
    /// (§4.4's "optionally constrained to certain segment values"),
    /// drawn from per-attempt [`KeyedRng`] streams so attempt `i`'s
    /// candidate is a pure function of `(model, evidence, seed, i)`.
    /// Any consumer — an in-process caller or an `eip serve`
    /// connection — issuing the same `(evidence, n, seed)` request
    /// against the same model receives a byte-identical batch,
    /// regardless of which connection or interleaving produced it.
    /// Draws ride the dedicated `GEN_EVIDENCE_STREAM`, so constrained
    /// and unconstrained batches under one seed never share draws.
    /// Runs on the [`run_seeded`](Generator::run_seeded) engine, so
    /// the configured parallelism or pool applies, with identical
    /// output at any setting.
    pub fn run_keyed_constrained(
        &self,
        evidence: &Evidence,
        n: usize,
        seed: u64,
    ) -> GenerationReport {
        self.run_keyed(n, stream_key(seed, GEN_EVIDENCE_STREAM), Some(evidence))
    }

    /// Generates up to `n` unique candidates from keyed per-attempt
    /// draws, fanned out over the configured
    /// [`parallelism`](Generator::parallelism) on the
    /// [`eip_exec::Scheduler`].
    ///
    /// Attempt `i`'s candidate is a pure function of
    /// `(model, options, seed, i)` ([`eip_exec::rng`]), so any worker
    /// can materialize any attempt. With one worker the engine draws
    /// attempt by attempt, exactly as
    /// [`Generator::run_keyed_reference`] does. With more, each round
    /// computes the next slice of attempts' `(address, excluded)`
    /// pairs in parallel, and the acceptance walk classifies them *in
    /// index order*, stopping where the oracle stops. Round geometry
    /// only decides which indices are materialized eagerly, never what
    /// they contain, so the report is byte-identical to the oracle at
    /// **any** worker count and shard geometry.
    pub fn run_seeded(&self, n: usize, seed: u64) -> GenerationReport {
        self.run_keyed(n, stream_key(seed, GEN_STREAM), None)
    }

    /// The keyed engine behind [`Generator::run_seeded`] and
    /// [`Generator::run_keyed_constrained`].
    fn run_keyed(&self, n: usize, key: u64, evidence: Option<&Evidence>) -> GenerationReport {
        if self.exec.is_serial() {
            return self.walk_keyed(n, key, evidence);
        }
        let mut walk = Acceptance::new(n, n.saturating_mul(self.attempts_per_candidate));
        while !walk.done() {
            // Every earlier round was walked to its end, so the next
            // attempt index is the attempt count.
            let base = walk.report.attempts as u64;
            let shortfall = n - walk.report.candidates.len();
            // Shortfall plus headroom for the expected duplicate
            // tail; purely cosmetic for the output (see above), it
            // only tunes how much speculative work a round does.
            let round = (shortfall + shortfall / 16 + 1024).min(walk.budget - walk.report.attempts);
            let at = move |r: Range<usize>| base + r.start as u64..base + r.end as u64;
            let append = |acc: &mut Vec<(Ip6, bool)>, part: Vec<(Ip6, bool)>| acc.extend(part);
            let drawn = self.exec.par_map_reduce(
                round,
                |r| keyed_draws(self.model.get(), evidence, self.exclude, key, at(r)).collect(),
                append,
            );
            walk = walk.walk(drawn.unwrap_or_default());
        }
        walk.report
    }
}

/// Keyed attempts `indices`, drawn lazily in index order through one
/// reusable row buffer: the serial walk pulls them one at a time, and
/// each round shard of the batched engine collects its slice.
fn keyed_draws<'a>(
    model: &'a IpModel,
    evidence: Option<&'a Evidence>,
    exclude: Option<&'a AddressSet>,
    key: u64,
    indices: Range<u64>,
) -> impl Iterator<Item = (Ip6, bool)> + 'a {
    let mut row = vec![0u8; model.bn().num_vars()];
    indices.map(move |i| keyed_attempt(model, evidence, exclude, key, i, &mut row))
}

/// One keyed attempt: attempt `index`'s candidate and whether
/// `exclude` rejects it. The row comes from the compiled
/// [`SamplingPlan`](eip_bayes::SamplingPlan), or given `evidence` from
/// [`eip_bayes::sample_conditional`]. The attempt's own [`KeyedRng`]
/// covers the row and decode draws, so no RNG stream is shared between
/// attempts and any worker, thief or caller can materialize any
/// attempt without changing it.
#[inline]
fn keyed_attempt(
    model: &IpModel,
    evidence: Option<&Evidence>,
    exclude: Option<&AddressSet>,
    key: u64,
    index: u64,
    row: &mut [u8],
) -> (Ip6, bool) {
    let mut rng = KeyedRng::for_index(key, index);
    let ip = match evidence {
        None => {
            model.plan().sample_into(row, &mut rng);
            model.decode_codes(row, &mut rng)
        }
        Some(evidence) => {
            let row = eip_bayes::sample_conditional(model.bn(), evidence, &mut rng);
            model.decode(&row, &mut rng)
        }
    };
    (ip, exclude.is_some_and(|ex| ex.contains(ip)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EntropyIp;
    use std::cell::Cell;
    use std::collections::HashSet;

    fn training_set() -> AddressSet {
        (0..1000u128)
            .map(|i| Ip6((0x2001_0db8u128 << 96) | ((i % 16) << 80) | (i % 200)))
            .collect()
    }

    #[test]
    fn acceptance_walk_never_pulls_past_its_stop() {
        // Draw i is `Ip6(i % 3)`, excluded at i = 4; `pulled` counts
        // the draws the walk took.
        let walk = |n: usize, budget: usize| {
            let pulled = Cell::new(0u128);
            let draws = std::iter::repeat_with(|| {
                let i = pulled.replace(pulled.get() + 1);
                (Ip6(i % 3), i == 4)
            });
            let r = Acceptance::new(n, budget).walk(draws).report;
            (
                r.candidates.len(),
                r.attempts,
                r.duplicates,
                r.excluded,
                pulled.get(),
            )
        };
        assert_eq!(walk(2, 10), (2, 2, 0, 0, 2), "stops at n");
        assert_eq!(walk(5, 6), (3, 6, 2, 1, 6), "stops at the budget");
        assert_eq!(walk(0, 10), (0, 0, 0, 0, 0), "n = 0 pulls nothing");
    }

    #[test]
    fn run_seeded_is_independent_of_worker_count() {
        let set = training_set();
        let model = EntropyIp::new().analyze(&set).unwrap();
        let oracle = Generator::new(&model)
            .excluding(&set)
            .run_keyed_reference(20_000, 99);
        assert!(!oracle.candidates.is_empty());
        for workers in [1usize, 2, 4, 7, 8] {
            let batched = Generator::new(&model)
                .excluding(&set)
                .parallelism(workers)
                .run_seeded(20_000, 99);
            assert_eq!(batched.candidates, oracle.candidates, "{workers} workers");
            assert_eq!(batched.attempts, oracle.attempts, "{workers} workers");
            assert_eq!(batched.duplicates, oracle.duplicates, "{workers} workers");
            assert_eq!(batched.excluded, oracle.excluded, "{workers} workers");
        }
        // Different seeds give different batches.
        let other = Generator::new(&model)
            .excluding(&set)
            .run_seeded(20_000, 100);
        assert_ne!(oracle.candidates, other.candidates);
    }

    #[test]
    fn shared_generator_on_pool_matches_oracle() {
        // A shared model on a pool-attached scheduler, with and
        // without an exclusion set, must equal the straight-line keyed
        // oracle at several pool sizes.
        let set = training_set();
        let model = Arc::new(EntropyIp::new().analyze(&set).unwrap());
        let oracle = Generator::new(&model).run_keyed_reference(5_000, 42);
        assert!(!oracle.candidates.is_empty());
        for pool_size in [1usize, 2, 7, 8] {
            let pool = Arc::new(eip_exec::pool::StealPool::new(pool_size));
            for workers in [1usize, 4, 7] {
                let exec = Scheduler::shared(workers, Arc::clone(&pool));
                let batched = Generator::shared(Arc::clone(&model))
                    .with_scheduler(exec)
                    .run_seeded(5_000, 42);
                assert_eq!(
                    batched.candidates, oracle.candidates,
                    "pool {pool_size}, workers {workers}"
                );
                assert_eq!(batched.attempts, oracle.attempts);
            }
            // With an exclusion set too.
            let excl_oracle = Generator::new(&model)
                .excluding(&set)
                .run_keyed_reference(2_000, 42);
            let excl = Generator::shared(Arc::clone(&model))
                .excluding(&set)
                .with_scheduler(Scheduler::shared(4, Arc::clone(&pool)))
                .run_seeded(2_000, 42);
            assert_eq!(excl.candidates, excl_oracle.candidates);
        }
    }

    #[test]
    fn run_seeded_accounting_and_uniqueness() {
        let set = training_set();
        let model = EntropyIp::new().analyze(&set).unwrap();
        // (n, seed, attempts per candidate, parallelism); the budget-1
        // input runs into a tiny effective space, so duplicates are
        // inevitable and must be counted, not returned.
        for (n, seed, per, par) in [
            (30_000, 5, 10, 3),
            (200, 11, 10, 1),
            (1000, 13, 1, 1),
            (1000, 13, 1, 4),
            (300, 17, 10, 1),
        ] {
            let r = Generator::new(&model)
                .excluding(&set)
                .attempts_per_candidate(per)
                .parallelism(par)
                .run_seeded(n, seed);
            let input = format!("n {n}, seed {seed}, budget {per}x, parallelism {par}");
            assert_eq!(
                r.attempts,
                r.candidates.len() + r.duplicates + r.excluded,
                "{input}"
            );
            assert!(r.attempts <= n * per, "{input}");
            let uniq: HashSet<Ip6> = r.candidates.iter().copied().collect();
            assert_eq!(uniq.len(), r.candidates.len(), "{input}");
            for ip in &r.candidates {
                assert!(!set.contains(*ip), "{input}: {ip} is a training address");
            }
        }
        // Degenerate sizes don't wedge.
        assert!(Generator::new(&model)
            .run_seeded(0, 1)
            .candidates
            .is_empty());
    }

    #[test]
    fn run_seeded_tops_up_duplicate_heavy_rounds() {
        // A model whose space (~16 * 50K) comfortably exceeds the
        // request: the round loop must top up through duplicate
        // collisions on the distribution's head and deliver the full
        // n, exactly like the straight-line oracle would.
        let set: AddressSet = (0..2000u128)
            .map(|i| Ip6((0x2001_0db8u128 << 96) | ((i % 16) << 80) | ((i * 7) % 50_000)))
            .collect();
        let model = EntropyIp::new().analyze(&set).unwrap();
        for par in [1usize, 4] {
            let r = Generator::new(&model)
                .parallelism(par)
                .run_seeded(20_000, 3);
            assert_eq!(r.candidates.len(), 20_000, "parallelism {par}");
            assert_eq!(r.attempts, r.candidates.len() + r.duplicates + r.excluded);
        }
        // Exhaustible space: stops cleanly short of n instead of
        // spinning (the space here is only ~3200 decodable addresses).
        let tiny = training_set();
        let tiny_model = EntropyIp::new().analyze(&tiny).unwrap();
        let r = Generator::new(&tiny_model)
            .attempts_per_candidate(2)
            .run_seeded(20_000, 3);
        assert!(r.candidates.len() < 20_000);
        assert!(!r.candidates.is_empty());
    }

    /// Keyed constrained generation as one straight loop: attempt `i`
    /// draws on `KeyedRng::for_index(key, i)` through
    /// `sample_conditional` and `decode`.
    fn constrained_oracle(
        model: &IpModel,
        evidence: &Evidence,
        exclude: Option<&AddressSet>,
        seed: u64,
    ) -> (Vec<Ip6>, usize, usize, usize) {
        let key = stream_key(seed, GEN_EVIDENCE_STREAM);
        let (mut out, mut attempts, mut dups, mut excl) = (Vec::new(), 0, 0, 0);
        let mut seen = HashSet::new();
        while out.len() < 300 && attempts < 3000 {
            let mut rng = KeyedRng::for_index(key, attempts as u64);
            let row = eip_bayes::sample_conditional(model.bn(), evidence, &mut rng);
            let ip = model.decode(&row, &mut rng);
            attempts += 1;
            if exclude.is_some_and(|ex| ex.contains(ip)) {
                excl += 1;
            } else if !seen.insert(ip) {
                dups += 1;
            } else {
                out.push(ip);
            }
        }
        (out, attempts, dups, excl)
    }

    #[test]
    fn run_keyed_constrained_is_deterministic_and_respects_evidence() {
        let set = training_set();
        let model = Arc::new(EntropyIp::new().analyze(&set).unwrap());
        let a_idx = model.segment_index("A").unwrap();
        let evidence = vec![(a_idx, 0usize)];
        let summary = |r: GenerationReport| (r.candidates, r.attempts, r.duplicates, r.excluded);
        // The engine equals the straight loop at any parallelism and on
        // the pool, with and without an exclusion set.
        let oracle = constrained_oracle(&model, &evidence, Some(&set), 21);
        assert!(!oracle.0.is_empty());
        for par in [1usize, 2, 4, 7] {
            let gen = Generator::new(&model).excluding(&set).parallelism(par);
            let got = summary(gen.run_keyed_constrained(&evidence, 300, 21));
            assert_eq!(got, oracle, "parallelism {par}");
        }
        let open = constrained_oracle(&model, &evidence, None, 21);
        for pool_size in [1usize, 2, 7] {
            let pool = Arc::new(eip_exec::pool::StealPool::new(pool_size));
            let gen =
                Generator::shared(Arc::clone(&model)).with_scheduler(Scheduler::shared(4, pool));
            let got = summary(gen.run_keyed_constrained(&evidence, 300, 21));
            assert_eq!(got, open, "pool of {pool_size}");
        }
        // Evidence is honored: every candidate carries segment A's
        // first dictionary value.
        let m = &model.mined()[a_idx];
        for ip in &oracle.0 {
            let v = ip.segment(m.segment.start, m.segment.end);
            assert!(m.values[0].kind.matches(v), "{ip} violates evidence");
        }
        // A different seed gives a different batch, and the evidence
        // stream is separate from the unconstrained stream.
        let gen = Generator::new(&model).excluding(&set);
        let c = gen.run_keyed_constrained(&evidence, 300, 22);
        assert_ne!(oracle.0, c.candidates);
        let unconstrained = gen.run_keyed_reference(300, 21);
        assert_ne!(oracle.0, unconstrained.candidates);
    }
}
