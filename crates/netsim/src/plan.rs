//! The address-plan DSL.
//!
//! A plan describes how a network assigns addresses: a weighted set
//! of [`Variant`]s (the paper found e.g. "4 variants of addressing
//! deployed across its /40 prefixes" in dataset S1), each a list of
//! disjoint bit [`PlanField`]s. Sampling a plan picks a variant by
//! weight and materializes every field; uncovered bits are zero.
//!
//! Field kinds map one-to-one to the structural phenomena the paper
//! reports:
//!
//! | Kind | Paper observation |
//! |---|---|
//! | `Const` | fixed prefixes, zero runs |
//! | `Choice` | popular values (Table 3's A1/A2, B1..B6, point-to-point `::1`/`::2` IIDs of R1/R2) |
//! | `Uniform` | pseudo-random privacy IIDs, random subnet ids |
//! | `Sequential` | static low-byte assignments, dynamic pools |
//! | `Eui64` | SLAAC Modified EUI-64 (`ff:fe` at bits 88–104) |
//! | `V4Hex` | IPv4 embedded in hex (S1's B4/B6 variant) |
//! | `V4Decimal` | IPv4 as decimal octets in 16-bit words (R4) |

use eip_addr::iid::{eui64_from_mac, iid_embed_v4_decimal_words, iid_embed_v4_hex};
use eip_addr::{AddressSet, Ip6};
use eip_exec::rng::{stream_key, KeyedRng};
use eip_exec::Scheduler;
use rand::{Rng, RngCore};

/// Stream id separating keyed plan sampling from every other keyed
/// consumer of the same seed (see [`eip_exec::rng`]).
const PLAN_STREAM: u64 = 0x706c_616e; // "plan"

/// How a field's value is produced.
#[derive(Clone, Debug)]
pub enum FieldKind {
    /// A constant value.
    Const(u128),
    /// A weighted choice among fixed values.
    Choice(Vec<(u128, f64)>),
    /// Uniform over the inclusive range.
    Uniform {
        /// Low bound (inclusive).
        lo: u128,
        /// High bound (inclusive).
        hi: u128,
    },
    /// `base + step * (k mod modulo)` where `k` is a per-sample
    /// counter — models sequential assignment from a pool.
    Sequential {
        /// First value.
        base: u128,
        /// Increment per pool slot.
        step: u128,
        /// Pool size.
        modulo: u128,
    },
    /// A Modified EUI-64 interface identifier built from a random MAC
    /// whose 24-bit OUI is drawn from the given list. Field width
    /// must be 64 bits.
    Eui64 {
        /// Organizationally-unique identifiers to draw from.
        ouis: Vec<u32>,
    },
    /// An IPv4 address `base + (k mod count)` embedded in hex in the
    /// low 32 bits of the field.
    V4Hex {
        /// First IPv4 address (as u32).
        base: u32,
        /// Number of consecutive addresses.
        count: u32,
    },
    /// An IPv4 address embedded as decimal octets in 16-bit words
    /// (width must be 64 bits).
    V4Decimal {
        /// First IPv4 address (as u32).
        base: u32,
        /// Number of consecutive addresses.
        count: u32,
    },
}

/// One field of a variant: a bit range plus a value recipe.
#[derive(Clone, Debug)]
pub struct PlanField {
    /// First bit (0-based from the top of the address).
    pub start_bit: usize,
    /// Width in bits.
    pub width: usize,
    /// Value recipe.
    pub kind: FieldKind,
}

impl PlanField {
    /// Convenience constructor.
    pub fn new(start_bit: usize, width: usize, kind: FieldKind) -> Self {
        assert!(width >= 1 && start_bit + width <= 128, "field out of range");
        PlanField {
            start_bit,
            width,
            kind,
        }
    }

    /// Materializes the field value for sample counter `k`.
    fn sample<R: Rng + ?Sized>(&self, k: u64, rng: &mut R) -> u128 {
        let max = if self.width == 128 {
            u128::MAX
        } else {
            (1u128 << self.width) - 1
        };
        let v = match &self.kind {
            FieldKind::Const(v) => *v,
            FieldKind::Choice(options) => {
                let total: f64 = options.iter().map(|&(_, w)| w).sum();
                let mut u = rng.gen_range(0.0..total);
                let mut out = options.last().expect("empty choice").0;
                for &(v, w) in options {
                    if u < w {
                        out = v;
                        break;
                    }
                    u -= w;
                }
                out
            }
            FieldKind::Uniform { lo, hi } => {
                if lo == hi {
                    *lo
                } else if hi - lo == u128::MAX {
                    rng.gen()
                } else {
                    lo + rng.gen_range(0..=(hi - lo))
                }
            }
            FieldKind::Sequential { base, step, modulo } => base + step * (u128::from(k) % modulo),
            FieldKind::Eui64 { ouis } => {
                let oui = ouis[rng.gen_range(0..ouis.len())];
                let tail: u32 = rng.gen::<u32>() & 0x00ff_ffff;
                let mac = [
                    (oui >> 16) as u8,
                    (oui >> 8) as u8,
                    oui as u8,
                    (tail >> 16) as u8,
                    (tail >> 8) as u8,
                    tail as u8,
                ];
                u128::from(eui64_from_mac(mac))
            }
            FieldKind::V4Hex { base, count } => {
                let v4 = base.wrapping_add((k % u64::from((*count).max(1))) as u32);
                u128::from(iid_embed_v4_hex(v4))
            }
            FieldKind::V4Decimal { base, count } => {
                let v4 = base.wrapping_add((k % u64::from((*count).max(1))) as u32);
                u128::from(iid_embed_v4_decimal_words(v4))
            }
        };
        v & max
    }
}

/// A weighted addressing variant: the fields it sets.
#[derive(Clone, Debug)]
pub struct Variant {
    /// Relative weight of this variant.
    pub weight: f64,
    /// Disjoint fields (validated by [`AddressPlan::new`]).
    pub fields: Vec<PlanField>,
}

/// A complete address plan for one network.
#[derive(Clone, Debug)]
pub struct AddressPlan {
    /// Network name (e.g. "S1").
    pub name: String,
    variants: Vec<Variant>,
}

impl AddressPlan {
    /// Builds a plan, validating that each variant's fields are
    /// in-range and non-overlapping.
    ///
    /// # Panics
    /// Panics on overlapping fields, zero/negative weights, or an
    /// empty variant list.
    pub fn new(name: &str, variants: Vec<Variant>) -> Self {
        assert!(!variants.is_empty(), "plan needs at least one variant");
        for (vi, v) in variants.iter().enumerate() {
            assert!(v.weight > 0.0, "variant {vi} has non-positive weight");
            let mut covered = [false; 128];
            for f in &v.fields {
                assert!(
                    f.width >= 1 && f.start_bit + f.width <= 128,
                    "field out of range"
                );
                for (b, slot) in covered
                    .iter_mut()
                    .enumerate()
                    .take(f.start_bit + f.width)
                    .skip(f.start_bit)
                {
                    assert!(!*slot, "variant {vi}: bit {b} covered twice");
                    *slot = true;
                }
            }
        }
        AddressPlan {
            name: name.to_string(),
            variants,
        }
    }

    /// Single-variant convenience constructor.
    pub fn single(name: &str, fields: Vec<PlanField>) -> Self {
        AddressPlan::new(
            name,
            vec![Variant {
                weight: 1.0,
                fields,
            }],
        )
    }

    /// The variants.
    pub fn variants(&self) -> &[Variant] {
        &self.variants
    }

    /// Samples one address; `k` is the sample counter feeding
    /// `Sequential`/`V4*` fields.
    pub fn sample<R: Rng + ?Sized>(&self, k: u64, rng: &mut R) -> Ip6 {
        let total: f64 = self.variants.iter().map(|v| v.weight).sum();
        let mut u = rng.gen_range(0.0..total);
        let mut chosen = self.variants.last().unwrap();
        for v in &self.variants {
            if u < v.weight {
                chosen = v;
                break;
            }
            u -= v.weight;
        }
        let mut out: u128 = 0;
        for f in &chosen.fields {
            let v = f.sample(k, rng);
            out |= v << (128 - f.start_bit - f.width);
        }
        Ip6(out)
    }

    /// Generates a deduplicated population of (at most) `n` unique
    /// addresses, drawing up to `4 n` samples. Uniques are kept in
    /// sampling order, so truncation does not bias toward numerically
    /// small addresses.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> AddressSet {
        self.generate_from(n, 0, rng)
    }

    /// Like [`AddressPlan::generate`], but with the sample counter
    /// starting at `k0` — lets callers (e.g. the temporal pools)
    /// advance `Sequential` fields instead of replaying the same
    /// pool slots.
    pub fn generate_from<R: Rng + ?Sized>(&self, n: usize, k0: u64, rng: &mut R) -> AddressSet {
        let mut seen: std::collections::HashSet<Ip6> = std::collections::HashSet::with_capacity(n);
        for k in k0..k0 + (n as u64 * 4) {
            if seen.len() >= n {
                break;
            }
            seen.insert(self.sample(k, rng));
        }
        AddressSet::from_iter(seen)
    }

    /// Samples address `k` of the keyed population `seed`: a pure
    /// function of `(plan, seed, k)`. Unlike [`AddressPlan::sample`],
    /// no stream is consumed — any worker can materialize any index,
    /// which is what makes keyed synthesis worker-count independent
    /// *by construction* (see [`eip_exec::rng`]).
    pub fn sample_keyed(&self, seed: u64, k: u64) -> Ip6 {
        self.sample_at(stream_key(seed, PLAN_STREAM), k)
    }

    /// [`AddressPlan::sample_keyed`] with the per-seed stream key
    /// hoisted out of the per-index loop.
    #[inline]
    fn sample_at(&self, key: u64, k: u64) -> Ip6 {
        self.sample(k, &mut KeyedRng::for_index(key, k))
    }

    /// Keyed population synthesis: the first `n` distinct values of
    /// the keyed sample stream `k0, k0+1, …` under `seed`, drawing at
    /// most `4 n` samples. The straight-line serial oracle for
    /// [`AddressPlan::generate_keyed_sharded`], kept for tests and
    /// benchmarks; production synthesis runs the engine.
    pub fn generate_keyed(&self, n: usize, k0: u64, seed: u64) -> AddressSet {
        let key = stream_key(seed, PLAN_STREAM);
        let mut seen: std::collections::HashSet<Ip6> = std::collections::HashSet::with_capacity(n);
        for k in k0..k0 + (n as u64 * 4) {
            if seen.len() >= n {
                break;
            }
            seen.insert(self.sample_at(key, k));
        }
        AddressSet::from_iter(seen)
    }

    /// [`AddressPlan::generate_keyed`] with *sampling itself* sharded
    /// on an [`eip_exec::Scheduler`] — every production population
    /// (`DatasetSpec::population_sized`, the `repro --full` synthesize
    /// stage) is drawn here.
    ///
    /// Address `k` is a pure function of `(seed, k)`, so every round's
    /// draws are materialized *and* screened against the accepted set
    /// in one sharded pass; a serial walk then accepts first
    /// occurrences in index order until `n` distinct — exactly where
    /// the serial oracle breaks. Round geometry cannot affect the
    /// output (it only decides which indices are materialized
    /// eagerly), so the result is byte-identical to
    /// [`AddressPlan::generate_keyed`] at any worker count and any
    /// shard geometry, by construction.
    pub fn generate_keyed_sharded(
        &self,
        n: usize,
        k0: u64,
        seed: u64,
        exec: &Scheduler,
    ) -> AddressSet {
        use eip_addr::DedupSet;
        // Small top-up rounds are not worth fanning out: below this
        // many draws the spawn/join cost of a shard pass exceeds the
        // sampling work, so such a round runs as one inline shard.
        const SERIAL_ROUND: usize = 4096;
        let inline = Scheduler::default();
        let key = stream_key(seed, PLAN_STREAM);
        let compiled = self.compile(); // per-draw constants hoisted once
        let budget = n.saturating_mul(4); // the serial oracle's sample cap
        let mut consumed = 0usize;
        let mut accepted: Vec<Ip6> = Vec::with_capacity(n);
        let mut seen = DedupSet::with_capacity(n);
        while accepted.len() < n && consumed < budget {
            let shortfall = n - accepted.len();
            // Round size is pure loop-state arithmetic: the shortfall
            // plus headroom for the expected duplicate tail.
            let round = (shortfall + shortfall / 16 + 1024).min(budget - consumed);
            let base = k0 + consumed as u64;
            let round_exec = if round <= SERIAL_ROUND { &inline } else { exec };
            let survivors: Vec<Ip6> = round_exec
                .par_map_reduce(
                    round,
                    |range| {
                        range
                            .map(|i| compiled.sample_at(key, base + i as u64))
                            .filter(|&ip| !seen.contains(ip))
                            .collect::<Vec<_>>()
                    },
                    |acc, part| acc.extend_from_slice(&part),
                )
                .unwrap_or_default();
            consumed += round;
            for &ip in &survivors {
                if seen.insert(ip) {
                    accepted.push(ip);
                    if accepted.len() >= n {
                        break;
                    }
                }
            }
        }
        exec.par_sort_unstable(&mut accepted);
        AddressSet::from_iter(accepted)
    }

    /// Compiles the plan for bulk sampling: every constant the naive
    /// sampler recomputes on each draw — the total variant weight,
    /// per-choice weight totals, the rejection-sampling bound/zone of
    /// each uniform field, pool moduli narrowed to `u64` — hoisted
    /// out of the per-draw loop. The compiled sampler consumes
    /// exactly the same RNG words in the same order as
    /// [`AddressPlan::sample`] and produces the same values, so the
    /// engines built on it stay byte-identical to the straight-line
    /// oracles.
    pub(crate) fn compile(&self) -> CompiledPlan {
        CompiledPlan {
            total: self.variants.iter().map(|v| v.weight).sum(),
            variants: self
                .variants
                .iter()
                .map(|v| CompiledVariant {
                    weight: v.weight,
                    fields: v.fields.iter().map(PlanField::compile).collect(),
                })
                .collect(),
        }
    }
}

/// [`AddressPlan`] with the per-draw constants precomputed — see
/// [`AddressPlan::compile`]. Private engine detail: the public
/// samplers stay the naive reference.
pub(crate) struct CompiledPlan {
    variants: Vec<CompiledVariant>,
    total: f64,
}

struct CompiledVariant {
    weight: f64,
    fields: Vec<CompiledField>,
}

struct CompiledField {
    /// Left-shift placing the field value in the address.
    shift: u32,
    /// Width mask, as in the naive sampler.
    max: u128,
    kind: CompiledKind,
}

enum CompiledKind {
    Const(u128),
    /// The naive subtract-walk with the weight total pre-summed (same
    /// summation order, so bit-identical `f64` arithmetic).
    Choice {
        options: Vec<(u128, f64)>,
        total: f64,
    },
    /// Full-width draw (`hi - lo == u128::MAX`).
    UniformFull,
    /// Power-of-two bound: the rejection zone covers all of `u128`,
    /// so the draw always accepts and the modulo reduces to a mask.
    UniformMask {
        lo: u128,
        mask: u128,
    },
    /// General rejection sampling with `bound`/`zone` precomputed —
    /// the same accept test and reduction the `rand` shim performs,
    /// minus the two per-draw `u128` modulos that derive `zone`.
    Uniform {
        lo: u128,
        bound: u128,
        zone: u128,
    },
    /// Pool modulo narrowed to one native `u64` operation.
    Sequential {
        base: u128,
        step: u128,
        modulo: u64,
    },
    /// Everything else (`Eui64`, `V4*`, over-wide pools): the naive
    /// field sampler, draw-identical by definition.
    Naive(PlanField),
}

/// The shim's `next_u128` word order: high half first.
#[inline]
fn wide<R: RngCore + ?Sized>(rng: &mut R) -> u128 {
    (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
}

impl PlanField {
    fn compile(&self) -> CompiledField {
        let max = if self.width == 128 {
            u128::MAX
        } else {
            (1u128 << self.width) - 1
        };
        let kind = match &self.kind {
            FieldKind::Const(v) => CompiledKind::Const(*v),
            FieldKind::Choice(options) => CompiledKind::Choice {
                options: options.clone(),
                total: options.iter().map(|&(_, w)| w).sum(),
            },
            FieldKind::Uniform { lo, hi } if lo == hi => CompiledKind::Const(*lo),
            FieldKind::Uniform { lo, hi } if hi - lo == u128::MAX => CompiledKind::UniformFull,
            FieldKind::Uniform { lo, hi } => {
                let bound = (hi - lo) + 1;
                if bound.is_power_of_two() {
                    CompiledKind::UniformMask {
                        lo: *lo,
                        mask: bound - 1,
                    }
                } else {
                    let zone = u128::MAX - (u128::MAX % bound + 1) % bound;
                    CompiledKind::Uniform {
                        lo: *lo,
                        bound,
                        zone,
                    }
                }
            }
            FieldKind::Sequential { base, step, modulo }
                if *modulo > 0 && *modulo <= u128::from(u64::MAX) =>
            {
                CompiledKind::Sequential {
                    base: *base,
                    step: *step,
                    modulo: *modulo as u64,
                }
            }
            _ => CompiledKind::Naive(self.clone()),
        };
        CompiledField {
            shift: (128 - self.start_bit - self.width) as u32,
            max,
            kind,
        }
    }
}

impl CompiledField {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, k: u64, rng: &mut R) -> u128 {
        let v = match &self.kind {
            CompiledKind::Const(v) => *v,
            CompiledKind::Choice { options, total } => {
                let mut u = rng.gen_range(0.0..*total);
                let mut out = options.last().expect("empty choice").0;
                for &(v, w) in options {
                    if u < w {
                        out = v;
                        break;
                    }
                    u -= w;
                }
                out
            }
            CompiledKind::UniformFull => rng.gen(),
            CompiledKind::UniformMask { lo, mask } => lo + (wide(rng) & mask),
            CompiledKind::Uniform { lo, bound, zone } => loop {
                let v = wide(rng);
                if v <= *zone {
                    break lo + v % bound;
                }
            },
            CompiledKind::Sequential { base, step, modulo } => base + step * u128::from(k % modulo),
            CompiledKind::Naive(field) => field.sample(k, rng),
        };
        v & self.max
    }
}

impl CompiledPlan {
    /// [`AddressPlan::sample`], draw-for-draw, on the precomputed
    /// constants.
    fn sample<R: Rng + ?Sized>(&self, k: u64, rng: &mut R) -> Ip6 {
        let mut u = rng.gen_range(0.0..self.total);
        let mut chosen = self.variants.last().unwrap();
        for v in &self.variants {
            if u < v.weight {
                chosen = v;
                break;
            }
            u -= v.weight;
        }
        let mut out: u128 = 0;
        for f in &chosen.fields {
            out |= f.sample(k, rng) << f.shift;
        }
        Ip6(out)
    }

    /// [`AddressPlan::sample_keyed`] on the compiled tables.
    #[inline]
    pub(crate) fn sample_at(&self, key: u64, k: u64) -> Ip6 {
        self.sample(k, &mut KeyedRng::for_index(key, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn compiled_sampler_is_draw_identical_to_naive() {
        // One plan exercising every compiled lowering: const, choice,
        // masked / general / full-width uniforms, the narrowed
        // sequential pool, and the naive fallbacks (EUI-64, embedded
        // IPv4) — compiled and naive must agree value-for-value on
        // the same keyed per-index draws.
        let plan = AddressPlan::new(
            "all-kinds",
            vec![
                Variant {
                    weight: 0.6,
                    fields: vec![
                        PlanField::new(0, 16, FieldKind::Const(0x2001)),
                        PlanField::new(
                            16,
                            8,
                            FieldKind::Choice(vec![(1, 0.2), (2, 0.5), (3, 0.3)]),
                        ),
                        // Power-of-two bound: compiles to a mask.
                        PlanField::new(24, 8, FieldKind::Uniform { lo: 0, hi: 0xff }),
                        // General bound: precomputed rejection zone.
                        PlanField::new(32, 16, FieldKind::Uniform { lo: 3, hi: 0x1234 }),
                        PlanField::new(
                            48,
                            16,
                            FieldKind::Sequential {
                                base: 7,
                                step: 3,
                                modulo: 500,
                            },
                        ),
                        PlanField::new(
                            64,
                            64,
                            FieldKind::Eui64 {
                                ouis: vec![0x00163e, 0x00aabb],
                            },
                        ),
                    ],
                },
                Variant {
                    weight: 0.4,
                    fields: vec![
                        PlanField::new(0, 16, FieldKind::Const(0x3001)),
                        PlanField::new(
                            32,
                            32,
                            FieldKind::V4Hex {
                                base: 0xc0a8_0001,
                                count: 77,
                            },
                        ),
                        PlanField::new(
                            64,
                            64,
                            FieldKind::V4Decimal {
                                base: 0x0a00_0001,
                                count: 99,
                            },
                        ),
                    ],
                },
            ],
        );
        let compiled = plan.compile();
        let key = stream_key(99, PLAN_STREAM);
        for k in 0..5_000 {
            assert_eq!(
                compiled.sample_at(key, k),
                plan.sample(k, &mut KeyedRng::for_index(key, k)),
                "draw {k} diverged"
            );
        }
        // The full-width uniform needs a 128-bit field of its own.
        let full = AddressPlan::single(
            "full",
            vec![PlanField::new(
                0,
                128,
                FieldKind::Uniform {
                    lo: 0,
                    hi: u128::MAX,
                },
            )],
        );
        let fc = full.compile();
        for k in 0..200 {
            assert_eq!(
                fc.sample_at(key, k),
                full.sample(k, &mut KeyedRng::for_index(key, k))
            );
        }
    }

    #[test]
    fn const_field_sets_bits() {
        let plan = AddressPlan::single(
            "t",
            vec![PlanField::new(0, 32, FieldKind::Const(0x2001_0db8))],
        );
        let ip = plan.sample(0, &mut rng());
        assert_eq!(ip.to_string(), "2001:db8::");
    }

    #[test]
    fn choice_respects_weights() {
        let plan = AddressPlan::single(
            "t",
            vec![
                PlanField::new(0, 32, FieldKind::Const(0x2001_0db8)),
                PlanField::new(124, 4, FieldKind::Choice(vec![(1, 0.8), (2, 0.2)])),
            ],
        );
        let mut r = rng();
        let mut ones = 0;
        for k in 0..5000 {
            let ip = plan.sample(k, &mut r);
            if ip.nybble(32) == 1 {
                ones += 1;
            }
        }
        let frac = ones as f64 / 5000.0;
        assert!((frac - 0.8).abs() < 0.03, "got {frac}");
    }

    #[test]
    fn uniform_stays_in_range() {
        let plan = AddressPlan::single(
            "t",
            vec![PlanField::new(
                64,
                64,
                FieldKind::Uniform {
                    lo: 0x100,
                    hi: 0x1ff,
                },
            )],
        );
        let mut r = rng();
        for k in 0..200 {
            let iid = plan.sample(k, &mut r).bits(64, 128);
            assert!((0x100..=0x1ff).contains(&iid));
        }
    }

    #[test]
    fn sequential_counts() {
        let plan = AddressPlan::single(
            "t",
            vec![PlanField::new(
                120,
                8,
                FieldKind::Sequential {
                    base: 1,
                    step: 1,
                    modulo: 10,
                },
            )],
        );
        let mut r = rng();
        assert_eq!(plan.sample(0, &mut r).value(), 1);
        assert_eq!(plan.sample(9, &mut r).value(), 10);
        assert_eq!(plan.sample(10, &mut r).value(), 1); // wraps
    }

    #[test]
    fn eui64_has_fffe_signature() {
        let plan = AddressPlan::single(
            "t",
            vec![PlanField::new(
                64,
                64,
                FieldKind::Eui64 {
                    ouis: vec![0x00163e],
                },
            )],
        );
        let mut r = rng();
        for k in 0..50 {
            let iid = plan.sample(k, &mut r).bits(64, 128) as u64;
            assert!(eip_addr::iid::looks_like_eui64(iid));
            // OUI with u-bit flipped: 00163e -> 02163e in the IID.
            assert_eq!(iid >> 40, 0x02163e);
        }
    }

    #[test]
    fn v4_decimal_digits_are_decimal() {
        let base = u32::from_be_bytes([127, 0, 113, 54]);
        let plan = AddressPlan::single(
            "t",
            vec![PlanField::new(
                64,
                64,
                FieldKind::V4Decimal { base, count: 1 },
            )],
        );
        let ip = plan.sample(0, &mut rng());
        assert_eq!(ip.bits(64, 128), 0x0127_0000_0113_0054);
    }

    #[test]
    fn variants_partition_samples() {
        let plan = AddressPlan::new(
            "t",
            vec![
                Variant {
                    weight: 0.7,
                    fields: vec![PlanField::new(0, 8, FieldKind::Const(0xaa))],
                },
                Variant {
                    weight: 0.3,
                    fields: vec![PlanField::new(0, 8, FieldKind::Const(0xbb))],
                },
            ],
        );
        let mut r = rng();
        let mut aa = 0;
        for k in 0..2000 {
            if plan.sample(k, &mut r).bits(0, 8) == 0xaa {
                aa += 1;
            }
        }
        let frac = aa as f64 / 2000.0;
        assert!((frac - 0.7).abs() < 0.04, "got {frac}");
    }

    #[test]
    fn generate_dedups_and_caps() {
        let plan = AddressPlan::single(
            "t",
            vec![PlanField::new(
                120,
                8,
                FieldKind::Uniform { lo: 0, hi: 255 },
            )],
        );
        let set = plan.generate(100, &mut rng());
        assert!(set.len() <= 100);
        assert!(set.len() > 50);
    }

    #[test]
    fn keyed_sampling_is_index_pure() {
        let plan = AddressPlan::single(
            "t",
            vec![
                PlanField::new(0, 32, FieldKind::Const(0x2001_0db8)),
                PlanField::new(
                    64,
                    64,
                    FieldKind::Uniform {
                        lo: 0,
                        hi: u64::MAX as u128,
                    },
                ),
            ],
        );
        // Same (seed, k) → same address, in any order, any number of
        // times; different seed or k → (almost surely) different.
        let forward: Vec<Ip6> = (0..50).map(|k| plan.sample_keyed(7, k)).collect();
        let backward: Vec<Ip6> = (0..50).rev().map(|k| plan.sample_keyed(7, k)).collect();
        assert!(forward.iter().eq(backward.iter().rev()));
        assert_ne!(plan.sample_keyed(7, 0), plan.sample_keyed(8, 0));
    }

    #[test]
    fn keyed_sharded_matches_keyed_serial_oracle() {
        // Duplicate-heavy and duplicate-light plans, at sizes that
        // exercise the first-round break, the top-up rounds, the
        // exhausted budget and (6000) rounds large enough to fan out,
        // for worker counts around the shard boundaries: keyed output
        // must be byte-identical everywhere by construction.
        let dense = AddressPlan::single(
            "dense",
            vec![
                PlanField::new(0, 32, FieldKind::Const(0x2001_0db8)),
                PlanField::new(112, 16, FieldKind::Uniform { lo: 0, hi: 0x3ff }),
            ],
        );
        let sparse = AddressPlan::single(
            "sparse",
            vec![
                PlanField::new(0, 32, FieldKind::Const(0x2001_0db8)),
                PlanField::new(
                    64,
                    64,
                    FieldKind::Uniform {
                        lo: 0,
                        hi: u64::MAX as u128,
                    },
                ),
            ],
        );
        for plan in [&dense, &sparse] {
            for n in [0usize, 1, 100, 700, 2000, 6000] {
                let oracle = plan.generate_keyed(n, 5, 9);
                for workers in [1usize, 2, 3, 7, 8] {
                    let sharded = plan.generate_keyed_sharded(n, 5, 9, &Scheduler::new(workers));
                    assert_eq!(
                        sharded, oracle,
                        "plan {}, n {n}, {workers} workers",
                        plan.name
                    );
                }
            }
        }
    }

    #[test]
    fn keyed_generation_respects_plan_distribution() {
        // The keyed draws must still honor the plan's weights: an
        // 80/20 Choice field over 5000 keyed samples.
        let plan = AddressPlan::single(
            "t",
            vec![
                PlanField::new(0, 32, FieldKind::Const(0x2001_0db8)),
                PlanField::new(124, 4, FieldKind::Choice(vec![(1, 0.8), (2, 0.2)])),
            ],
        );
        let ones = (0..5000)
            .filter(|&k| plan.sample_keyed(3, k).nybble(32) == 1)
            .count();
        let frac = ones as f64 / 5000.0;
        assert!((frac - 0.8).abs() < 0.03, "got {frac}");
    }

    #[test]
    #[should_panic(expected = "covered twice")]
    fn overlapping_fields_rejected() {
        AddressPlan::single(
            "t",
            vec![
                PlanField::new(0, 16, FieldKind::Const(0)),
                PlanField::new(8, 16, FieldKind::Const(0)),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "field out of range")]
    fn out_of_range_field_rejected() {
        PlanField::new(120, 16, FieldKind::Const(0));
    }
}
