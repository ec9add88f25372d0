//! The 16 dataset families of the paper's Table 1, as address plans.
//!
//! Each spec is parameterized to match the *published structural
//! description* of that network in §5.2–5.4 (the raw data is
//! proprietary; see DESIGN.md "Substitutions"). Populations are
//! scaled roughly 1:1000 from Table 1 so experiments run on a laptop;
//! the entropy/ACR *shapes* — which is what the paper's figures show —
//! depend on the plan structure, not the population size.
//!
//! All plans live inside documentation prefixes (`2001:db8::/32` and
//! friends), so printed results are inherently anonymized the same
//! way the paper's are.

use eip_addr::AddressSet;

use crate::plan::{AddressPlan, FieldKind, PlanField, Variant};

/// Dataset category, mirroring Table 1's grouping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Category {
    /// Server datasets S1–S5 (+ aggregate AS).
    Server,
    /// Router datasets R1–R5 (+ aggregate AR).
    Router,
    /// Client datasets C1–C5 (+ aggregates AC, AT).
    Client,
}

/// One dataset family: identity, provenance note, and its plan.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Dataset id as in the paper ("S1" … "AT").
    pub id: &'static str,
    /// Category.
    pub category: Category,
    /// What the paper says this network is.
    pub description: &'static str,
    /// The population reported in the paper's Table 1.
    pub paper_population: &'static str,
    /// Our scaled default population.
    pub default_population: usize,
    /// Fraction of active hosts with reverse-DNS records in the
    /// simulated responder.
    pub rdns_fraction: f64,
}

/// Ids of all dataset families, paper order.
pub const ALL_DATASETS: [&str; 16] = [
    "S1", "S2", "S3", "S4", "S5", "R1", "R2", "R3", "R4", "R5", "C1", "C2", "C3", "C4", "C5", "AT",
];

/// Ids of the aggregate families (AT is also in [`ALL_DATASETS`]).
pub const AGGREGATES: [&str; 4] = ["AS", "AR", "AC", "AT"];

/// Looks up a dataset spec by id (also accepts the aggregates
/// AS/AR/AC).
pub fn dataset(id: &str) -> Option<DatasetSpec> {
    let mk = |id, category, description, paper_population, default_population, rdns_fraction| {
        Some(DatasetSpec {
            id,
            category,
            description,
            paper_population,
            default_population,
            rdns_fraction,
        })
    };
    match id {
        "S1" => mk(
            "S1",
            Category::Server,
            "web hosting company, two /32s, four addressing variants",
            "290 K",
            40_000,
            0.5,
        ),
        "S2" => mk(
            "S2",
            Category::Server,
            "CDN using DNS + IP unicast: many global prefixes",
            "295 K",
            15_000,
            0.5,
        ),
        "S3" => mk(
            "S3",
            Category::Server,
            "CDN using IP anycast: one /96 worldwide",
            "72 K",
            8_000,
            0.5,
        ),
        "S4" => mk(
            "S4",
            Category::Server,
            "cloud provider: only last 32 bits discriminate",
            "18 K",
            6_000,
            0.5,
        ),
        "S5" => mk(
            "S5",
            Category::Server,
            "large service operator: service type in last nybbles",
            "65 K",
            12_000,
            0.5,
        ),
        "R1" => mk(
            "R1",
            Category::Router,
            "global carrier: subnets in bits 28-64, ::1/::2 IIDs",
            "6.7 M",
            30_000,
            0.7,
        ),
        "R2" => mk(
            "R2",
            Category::Router,
            "carrier: bottom 64 bits equal 1 or 2",
            "235 K",
            12_000,
            0.7,
        ),
        "R3" => mk(
            "R3",
            Category::Router,
            "carrier: zeros through bit 116, random last 12 bits",
            "21 K",
            8_000,
            0.7,
        ),
        "R4" => mk(
            "R4",
            Category::Router,
            "carrier embedding IPv4 as decimal octets in the IID",
            "3.4 K",
            3_000,
            0.7,
        ),
        "R5" => mk(
            "R5",
            Category::Router,
            "carrier discriminating in bits 52-64, predictable IIDs",
            "1.7 K",
            2_000,
            0.7,
        ),
        "C1" => mk(
            "C1",
            Category::Client,
            "mobile ISP: 47% of IIDs end 01 (Android pattern)",
            "83 M",
            50_000,
            0.02,
        ),
        "C2" => mk(
            "C2",
            Category::Client,
            "mobile ISP: random IIDs without the u-bit dip",
            "8.2 M",
            20_000,
            0.02,
        ),
        "C3" => mk(
            "C3",
            Category::Client,
            "wireline ISP: sequential /64 pools, privacy IIDs",
            "530 M",
            60_000,
            0.02,
        ),
        "C4" => mk(
            "C4",
            Category::Client,
            "ISP with structure from bit 20, privacy IIDs",
            "39 M",
            30_000,
            0.02,
        ),
        "C5" => mk(
            "C5",
            Category::Client,
            "ISP with skewed /64 pools, privacy IIDs",
            "43 M",
            30_000,
            0.02,
        ),
        "AS" => mk(
            "AS",
            Category::Server,
            "server aggregate: 790K IPs in 4.3K /32s (DNS)",
            "790 K",
            40_000,
            0.5,
        ),
        "AR" => mk(
            "AR",
            Category::Router,
            "router aggregate: 12M IPs in 5.5K /32s (traceroute)",
            "12 M",
            40_000,
            0.7,
        ),
        "AC" => mk(
            "AC",
            Category::Client,
            "client aggregate: 3.5G IPs in 6.0K /32s (CDN)",
            "3.5 G",
            60_000,
            0.02,
        ),
        "AT" => mk(
            "AT",
            Category::Client,
            "BitTorrent peers: like AC but more EUI-64",
            "220 K",
            20_000,
            0.02,
        ),
        _ => None,
    }
}

impl DatasetSpec {
    /// The address plan of this family.
    pub fn plan(&self) -> AddressPlan {
        match self.id {
            "S1" => s1(),
            "S2" => s2(),
            "S3" => s3(),
            "S4" => s4(),
            "S5" => s5(),
            "R1" => r1(),
            "R2" => r2(),
            "R3" => r3(),
            "R4" => r4(),
            "R5" => r5(),
            "C1" => c1(),
            "C2" => c2(),
            "C3" => c3(),
            "C4" => c4(),
            "C5" => c5(),
            "AS" => aggregate_servers(),
            "AR" => aggregate_routers(),
            "AC" => aggregate_clients(0.15),
            "AT" => aggregate_clients(0.45),
            other => unreachable!("unknown dataset {other}"),
        }
    }

    /// Generates the observed population at the default size.
    pub fn population(&self, seed: u64) -> AddressSet {
        self.population_sized(self.default_population, seed)
    }

    /// Generates an observed population of `n` addresses, as the
    /// first `n` distinct draws of the keyed sample stream under
    /// `seed` — a pure function of `(dataset, n, seed)`, independent
    /// of who computes it and how it is sharded. Runs the keyed
    /// engine ([`AddressPlan::generate_keyed_sharded`]) as one
    /// inline shard; its output equals the straight-line oracle
    /// [`AddressPlan::generate_keyed`].
    pub fn population_sized(&self, n: usize, seed: u64) -> AddressSet {
        self.population_sized_exec(n, seed, &eip_exec::Scheduler::default())
    }

    /// [`DatasetSpec::population_sized`] with sampling *and* dedup
    /// sharded over `jobs` workers
    /// ([`AddressPlan::generate_keyed_sharded`]): byte-identical at
    /// any `jobs` by construction. This is the `repro --full`
    /// synthesize stage.
    pub fn population_sized_jobs(&self, n: usize, seed: u64, jobs: usize) -> AddressSet {
        self.population_sized_exec(n, seed, &eip_exec::Scheduler::new(jobs))
    }

    /// Like [`DatasetSpec::population_sized_jobs`], but synthesizing
    /// on a caller-provided scheduler, so fleet jobs sharing a
    /// thread budget reuse their own execution context. The
    /// scheduler's worker count fixes the shard geometry exactly as
    /// `jobs` does above; the output depends on nothing else.
    pub fn population_sized_exec(
        &self,
        n: usize,
        seed: u64,
        exec: &eip_exec::Scheduler,
    ) -> AddressSet {
        self.plan().generate_keyed_sharded(n, 0, seed, exec)
    }
}

// ---- helpers ----------------------------------------------------------

fn f(start_bit: usize, width: usize, kind: FieldKind) -> PlanField {
    PlanField::new(start_bit, width, kind)
}

fn doc32(n: u128) -> u128 {
    // 2001:db8::/32 with the first nybble bumped per index, the
    // paper's own anonymization presentation.
    (0x2001_0db8u128 & 0x0fff_ffff) | (((0x2 + n) % 16) << 28)
}

/// Several /32s as a weighted choice with Zipf-ish popularity.
fn slash32_mix(count: usize) -> FieldKind {
    let options: Vec<(u128, f64)> = (0..count)
        .map(|i| (doc32(i as u128), 1.0 / (i as f64 + 1.0)))
        .collect();
    FieldKind::Choice(options)
}

/// A pseudo-random privacy IID (RFC 4941): fully random except the
/// u-bit (bit 70 of the address) forced to zero.
fn privacy_iid_fields() -> Vec<PlanField> {
    vec![
        f(64, 6, FieldKind::Uniform { lo: 0, hi: 0x3f }),
        f(70, 1, FieldKind::Const(0)),
        f(
            71,
            57,
            FieldKind::Uniform {
                lo: 0,
                hi: (1 << 57) - 1,
            },
        ),
    ]
}

// ---- servers -----------------------------------------------------------

/// S1 (§5.2): two /32s at 64%/36%; segment B (bits 32-40) selects one
/// of four addressing variants; B4/B6 embeds literal IPv4; B1 has
/// pseudo-random IIDs.
fn s1() -> AddressPlan {
    let a = FieldKind::Choice(vec![(0x2001_0db8, 0.635), (0x3001_0db8, 0.365)]);
    let c = FieldKind::Choice(vec![
        (0x00, 0.67),
        (0x01, 0.11),
        (0xc2, 0.007),
        (0xfe, 0.004),
        (0xff, 0.004),
        (0x2b, 0.12),
        (0x5e, 0.085),
    ]);
    let d = FieldKind::Choice(vec![
        (0x0, 0.10),
        (0x5, 0.09),
        (0x4, 0.09),
        (0x2, 0.09),
        (0x1, 0.09),
        (0x8, 0.18),
        (0xb, 0.18),
        (0xe, 0.18),
    ]);
    let e = FieldKind::Choice(vec![
        (0x0, 0.70),
        (0x1, 0.05),
        (0x2, 0.05),
        (0x3, 0.04),
        (0x5, 0.02),
        (0x9, 0.07),
        (0xc, 0.07),
    ]);
    AddressPlan::new(
        "S1",
        vec![
            // B1 = 10: variable low bits, pseudo-random IIDs.
            Variant {
                weight: 0.778,
                fields: vec![
                    f(0, 32, a.clone()),
                    f(32, 8, FieldKind::Const(0x10)),
                    f(40, 8, c.clone()),
                    f(48, 4, d.clone()),
                    f(52, 4, e.clone()),
                    f(56, 8, FieldKind::Uniform { lo: 0x01, hi: 0xff }),
                    f(
                        64,
                        64,
                        FieldKind::Uniform {
                            lo: 0x0103_32b0_b1e1_7000,
                            hi: 0xfffd_8c3a_b164_3fff,
                        },
                    ),
                ],
            },
            // B2/B3 = 08/09: essentially non-random low bits.
            Variant {
                weight: 0.204,
                fields: vec![
                    f(0, 32, a.clone()),
                    f(32, 8, FieldKind::Choice(vec![(0x08, 0.75), (0x09, 0.25)])),
                    f(40, 8, c.clone()),
                    f(48, 4, d.clone()),
                    f(52, 4, e.clone()),
                    f(56, 8, FieldKind::Const(0)),
                    f(64, 52, FieldKind::Const(0)),
                    f(
                        116,
                        12,
                        FieldKind::Sequential {
                            base: 1,
                            step: 1,
                            modulo: 800,
                        },
                    ),
                ],
            },
            // B4/B6 = 07/05: 67% embed literal IPv4 in the IID.
            Variant {
                weight: 0.012,
                fields: vec![
                    f(0, 32, a.clone()),
                    f(32, 8, FieldKind::Choice(vec![(0x07, 0.6), (0x05, 0.4)])),
                    f(40, 24, FieldKind::Const(0)),
                    f(64, 32, FieldKind::Const(0)),
                    f(
                        96,
                        32,
                        FieldKind::V4Hex {
                            base: u32::from_be_bytes([127, 16, 0, 1]),
                            count: 4000,
                        },
                    ),
                ],
            },
            // B5 = 00: small static block.
            Variant {
                weight: 0.006,
                fields: vec![
                    f(0, 32, a),
                    f(32, 8, FieldKind::Const(0x00)),
                    f(40, 24, FieldKind::Const(0)),
                    f(64, 52, FieldKind::Const(0)),
                    f(
                        116,
                        12,
                        FieldKind::Sequential {
                            base: 0x100,
                            step: 1,
                            modulo: 250,
                        },
                    ),
                ],
            },
        ],
    )
}

/// S2: unicast CDN — many globally distributed prefixes, static
/// low-byte hosts. The wide per-/32 subnet space keeps the guessable
/// fraction small: the paper scans S2 at ~1%, far below anycast S3.
fn s2() -> AddressPlan {
    AddressPlan::single(
        "S2",
        vec![
            f(0, 32, slash32_mix(8)),
            f(32, 16, FieldKind::Uniform { lo: 0, hi: 0x1ff }),
            f(
                48,
                16,
                FieldKind::Choice(vec![(0, 0.8), (1, 0.1), (2, 0.1)]),
            ),
            f(64, 48, FieldKind::Const(0)),
            f(
                112,
                16,
                FieldKind::Sequential {
                    base: 1,
                    step: 1,
                    modulo: 200,
                },
            ),
        ],
    )
}

/// S3: anycast CDN — "basically uses just one /96 prefix worldwide".
/// Both variants stay dense (a sequential pool plus a compact dynamic
/// block), which is what makes S3 the paper's easiest server network
/// (43% hit rate): nearly everything inside the discovered ranges is
/// alive.
fn s3() -> AddressPlan {
    AddressPlan::new(
        "S3",
        vec![
            Variant {
                weight: 0.9,
                fields: vec![
                    f(0, 96, FieldKind::Const(0x2001_0db8_0003_0000_0000_0000)),
                    f(
                        96,
                        32,
                        FieldKind::Sequential {
                            base: 0x100,
                            step: 1,
                            modulo: 9000,
                        },
                    ),
                ],
            },
            Variant {
                weight: 0.1,
                fields: vec![
                    f(0, 96, FieldKind::Const(0x2001_0db8_0003_0000_0000_0000)),
                    f(
                        96,
                        32,
                        FieldKind::Uniform {
                            lo: 0x1_0000,
                            hi: 0x1_0fff,
                        },
                    ),
                ],
            },
        ],
    )
}

/// S4: cloud provider — simple structure in bits 32-48, "only the
/// last 32 bits are utilized for discriminating hosts and networks".
fn s4() -> AddressPlan {
    AddressPlan::single(
        "S4",
        vec![
            f(0, 32, FieldKind::Const(0x2001_0db8)),
            f(
                32,
                16,
                FieldKind::Choice(vec![(0x4000, 0.5), (0x8000, 0.3), (0xc000, 0.2)]),
            ),
            f(48, 48, FieldKind::Const(0)),
            f(
                96,
                32,
                FieldKind::Uniform {
                    lo: 0x1,
                    hi: 0x1_ffff,
                },
            ),
        ],
    )
}

/// S5: the last 2-4 nybbles often identify the service type, deployed
/// across many /64 prefixes.
fn s5() -> AddressPlan {
    AddressPlan::single(
        "S5",
        vec![
            f(0, 32, FieldKind::Const(0x2001_0db8)),
            f(
                32,
                32,
                FieldKind::Sequential {
                    base: 0x10,
                    step: 0x10,
                    modulo: 300,
                },
            ),
            f(64, 32, FieldKind::Const(0)),
            f(96, 16, FieldKind::Uniform { lo: 0x1, hi: 0xff }),
            f(
                112,
                16,
                FieldKind::Choice(vec![
                    (0x0050, 0.30), // www
                    (0x0035, 0.20), // dns
                    (0x0019, 0.10), // smtp
                    (0x0443, 0.20), // https (vanity hex)
                    (0x0081, 0.10),
                    (0x1001, 0.10),
                ]),
            ),
        ],
    )
}

// ---- routers -----------------------------------------------------------

/// R1 (§5.3): bits 28-64 discriminate prefixes; IIDs are strings of
/// zeros ending in 1 or 2 (point-to-point links).
fn r1() -> AddressPlan {
    AddressPlan::single(
        "R1",
        vec![
            f(0, 28, FieldKind::Const(0x0200_10db)),
            f(28, 4, FieldKind::Choice(vec![(0x8, 0.6), (0x9, 0.4)])),
            f(
                32,
                32,
                FieldKind::Uniform {
                    lo: 0,
                    hi: 0x1_ffff,
                },
            ),
            f(64, 60, FieldKind::Const(0)),
            f(
                124,
                4,
                FieldKind::Choice(vec![(1, 0.50), (2, 0.40), (0xe, 0.06), (5, 0.04)]),
            ),
        ],
    )
}

/// R2: same pattern as R1 — bottom 64 bits equal 1 or 2.
fn r2() -> AddressPlan {
    AddressPlan::single(
        "R2",
        vec![
            f(0, 32, slash32_mix(3)),
            f(32, 16, FieldKind::Uniform { lo: 0, hi: 0x7fff }),
            f(48, 16, FieldKind::Choice(vec![(0, 0.7), (0xffff, 0.3)])),
            f(64, 63, FieldKind::Const(0)),
            f(127, 1, FieldKind::Choice(vec![(0, 0.45), (1, 0.55)])),
        ],
    )
}

/// R3: bits 32-48 discriminate, bits 48-116 mostly zero, last 12 bits
/// largely pseudo-random.
fn r3() -> AddressPlan {
    AddressPlan::single(
        "R3",
        vec![
            f(0, 32, FieldKind::Const(0x2001_0db8)),
            f(32, 16, FieldKind::Uniform { lo: 0, hi: 0x7f }),
            f(48, 68, FieldKind::Choice(vec![(0, 0.9), (1, 0.1)])),
            f(116, 12, FieldKind::Uniform { lo: 0, hi: 0xfff }),
        ],
    )
}

/// R4: IIDs encode literal IPv4 addresses as decimal octets in
/// 16-bit words.
fn r4() -> AddressPlan {
    AddressPlan::single(
        "R4",
        vec![
            f(0, 32, FieldKind::Const(0x2001_0db8)),
            f(32, 20, FieldKind::Uniform { lo: 0, hi: 0x3f }),
            f(52, 12, FieldKind::Const(0)),
            f(
                64,
                64,
                FieldKind::V4Decimal {
                    base: u32::from_be_bytes([127, 0, 16, 1]),
                    count: 3000,
                },
            ),
        ],
    )
}

/// R5: discriminates largely in bits 52-64; predictable bottom bits.
fn r5() -> AddressPlan {
    AddressPlan::single(
        "R5",
        vec![
            f(0, 32, FieldKind::Const(0x2001_0db8)),
            f(32, 20, FieldKind::Const(0x00100)),
            f(52, 12, FieldKind::Uniform { lo: 0, hi: 0xfff }),
            f(64, 56, FieldKind::Const(0)),
            f(120, 8, FieldKind::Uniform { lo: 0x1, hi: 0x3f }),
        ],
    )
}

// ---- clients -----------------------------------------------------------

/// C1 (§5.4): a large mobile operator. Bits 32-64 discriminate
/// prefixes (segment B takes only low values); 47% of IIDs follow the
/// Android-vendor pattern — a run of zeros (segment D), a random
/// middle (E), and a final 01 (F1) — the rest are fully pseudo-random.
fn c1() -> AddressPlan {
    let prefix_fields = |fields: &mut Vec<PlanField>| {
        fields.push(f(0, 32, FieldKind::Const(0x2001_0db8)));
        fields.push(f(32, 4, FieldKind::Uniform { lo: 0, hi: 8 }));
        fields.push(f(36, 28, FieldKind::Uniform { lo: 0, hi: 0xefff }));
    };
    let mut android = Vec::new();
    prefix_fields(&mut android);
    android.push(f(64, 20, FieldKind::Const(0))); // segment D = 00000
    android.push(f(
        84,
        36,
        FieldKind::Uniform {
            lo: 0,
            hi: (1 << 36) - 1,
        },
    )); // E
    android.push(f(120, 8, FieldKind::Const(0x01))); // F1
    let mut random = Vec::new();
    prefix_fields(&mut random);
    random.push(f(
        64,
        64,
        FieldKind::Uniform {
            lo: 0,
            hi: u64::MAX as u128,
        },
    ));
    AddressPlan::new(
        "C1",
        vec![
            Variant {
                weight: 0.47,
                fields: android,
            },
            Variant {
                weight: 0.53,
                fields: random,
            },
        ],
    )
}

/// C2: mobile operator with fully random IIDs and *no* u-bit dip.
fn c2() -> AddressPlan {
    AddressPlan::single(
        "C2",
        vec![
            f(0, 32, FieldKind::Const(0x2001_0db8)),
            f(
                32,
                32,
                FieldKind::Uniform {
                    lo: 0x1000,
                    hi: 0xfffff,
                },
            ),
            f(
                64,
                64,
                FieldKind::Uniform {
                    lo: 0,
                    hi: u64::MAX as u128,
                },
            ),
        ],
    )
}

/// C3: wireline ISP — sequential /64 pools per region, privacy IIDs.
fn c3() -> AddressPlan {
    let mut fields = vec![
        f(0, 32, FieldKind::Const(0x2001_0db8)),
        f(
            32,
            12,
            FieldKind::Choice(vec![(0x1, 0.4), (0x2, 0.3), (0x3, 0.2), (0x4, 0.1)]),
        ),
        f(
            44,
            20,
            FieldKind::Sequential {
                base: 0,
                step: 1,
                modulo: 1_000_000,
            },
        ),
    ];
    fields.extend(privacy_iid_fields());
    AddressPlan::single("C3", fields)
}

/// C4: structure reaching up into bits 20-32 (several /32s), privacy
/// IIDs.
fn c4() -> AddressPlan {
    let mut fields = vec![
        f(0, 20, FieldKind::Const(0x0002_0010)),
        f(
            20,
            12,
            FieldKind::Choice(vec![(0xdb8, 0.5), (0xdb9, 0.3), (0xdba, 0.2)]),
        ),
        f(32, 32, FieldKind::Uniform { lo: 0, hi: 0xcfff }),
    ];
    fields.extend(privacy_iid_fields());
    AddressPlan::single("C4", fields)
}

/// C5: skewed /64 pools (some far more popular), privacy IIDs.
fn c5() -> AddressPlan {
    let pool: Vec<(u128, f64)> = (0..64u128)
        .map(|i| (i * 0x41, 1.0 / (1.0 + i as f64)))
        .collect();
    let mut fields = vec![
        f(0, 32, FieldKind::Const(0x2001_0db8)),
        f(32, 16, FieldKind::Choice(pool)),
        f(
            48,
            16,
            FieldKind::Sequential {
                base: 0,
                step: 1,
                modulo: 2_000,
            },
        ),
    ];
    fields.extend(privacy_iid_fields());
    AddressPlan::single("C5", fields)
}

// ---- aggregates ---------------------------------------------------------

/// AS: many operators' servers; entropy oscillates across the
/// address and rises toward bit 128 (static low-bit assignment).
fn aggregate_servers() -> AddressPlan {
    let mk = |low_bits: usize, weight: f64| Variant {
        weight,
        fields: vec![
            f(0, 32, slash32_mix(40)),
            f(32, 8, FieldKind::Uniform { lo: 0, hi: 0xff }),
            f(
                40,
                8,
                FieldKind::Choice(vec![(0, 0.6), (1, 0.25), (0x10, 0.15)]),
            ),
            f(48, 8, FieldKind::Uniform { lo: 0, hi: 0x7f }),
            f(56, 8, FieldKind::Choice(vec![(0, 0.7), (1, 0.3)])),
            f(64, 64 - low_bits, FieldKind::Const(0)),
            f(
                128 - low_bits,
                low_bits,
                FieldKind::Uniform {
                    lo: 1,
                    hi: (1 << low_bits) - 1,
                },
            ),
        ],
    };
    AddressPlan::new(
        "AS",
        vec![
            mk(8, 0.35),
            mk(16, 0.30),
            mk(24, 0.20),
            mk(32, 0.10),
            mk(44, 0.05),
        ],
    )
}

/// AR: router aggregate — a mixture of Modified EUI-64 IIDs (the
/// fffe dip at bits 88-104) and low point-to-point IIDs.
fn aggregate_routers() -> AddressPlan {
    let prefix = |fields: &mut Vec<PlanField>| {
        fields.push(f(0, 32, slash32_mix(30)));
        fields.push(f(
            32,
            32,
            FieldKind::Uniform {
                lo: 0,
                hi: 0xf_ffff,
            },
        ));
    };
    let mut eui = Vec::new();
    prefix(&mut eui);
    eui.push(f(
        64,
        64,
        FieldKind::Eui64 {
            ouis: vec![0x00163e, 0x0002b3, 0x00d0b7, 0xac4bc8],
        },
    ));
    let mut p2p = Vec::new();
    prefix(&mut p2p);
    p2p.push(f(64, 60, FieldKind::Const(0)));
    p2p.push(f(124, 4, FieldKind::Choice(vec![(1, 0.6), (2, 0.4)])));
    let mut low = Vec::new();
    prefix(&mut low);
    low.push(f(64, 48, FieldKind::Const(0)));
    low.push(f(112, 16, FieldKind::Uniform { lo: 0, hi: 0xffff }));
    AddressPlan::new(
        "AR",
        vec![
            Variant {
                weight: 0.45,
                fields: eui,
            },
            Variant {
                weight: 0.35,
                fields: p2p,
            },
            Variant {
                weight: 0.20,
                fields: low,
            },
        ],
    )
}

/// AC/AT: client aggregate — mostly RFC 4941 privacy IIDs (u-bit dip
/// at bits 68-72 to ~0.8) plus an EUI-64 share (`eui_share`), which
/// is larger for BitTorrent peers (AT) than web clients (AC).
fn aggregate_clients(eui_share: f64) -> AddressPlan {
    let prefix = |fields: &mut Vec<PlanField>| {
        fields.push(f(0, 32, slash32_mix(48)));
        fields.push(f(
            32,
            32,
            FieldKind::Uniform {
                lo: 0,
                hi: 0xff_ffff,
            },
        ));
    };
    let mut privacy = Vec::new();
    prefix(&mut privacy);
    privacy.extend(privacy_iid_fields());
    let mut rand_iid = Vec::new();
    prefix(&mut rand_iid);
    rand_iid.push(f(
        64,
        64,
        FieldKind::Uniform {
            lo: 0,
            hi: u64::MAX as u128,
        },
    ));
    let mut eui = Vec::new();
    prefix(&mut eui);
    eui.push(f(
        64,
        64,
        FieldKind::Eui64 {
            ouis: vec![0x3c0754, 0xa45e60, 0xdc2b2a, 0x40b395],
        },
    ));
    AddressPlan::new(
        if eui_share > 0.3 { "AT" } else { "AC" },
        vec![
            Variant {
                weight: (1.0 - eui_share) * 0.85,
                fields: privacy,
            },
            Variant {
                weight: (1.0 - eui_share) * 0.15,
                fields: rand_iid,
            },
            Variant {
                weight: eui_share,
                fields: eui,
            },
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use eip_stats::nybble_entropy;

    fn entropy_of(id: &str, n: usize) -> [f64; 32] {
        let spec = dataset(id).unwrap();
        let set = spec.population_sized(n, 1);
        let addrs: Vec<_> = set.iter().collect();
        nybble_entropy(&addrs)
    }

    #[test]
    fn all_datasets_resolve_and_build() {
        for id in ALL_DATASETS.iter().chain(AGGREGATES.iter()) {
            let spec = dataset(id).expect(id);
            let set = spec.population_sized(500, 7);
            assert!(set.len() >= 300, "{id}: only {} addresses", set.len());
        }
        assert!(dataset("XX").is_none());
    }

    #[test]
    fn keyed_engines_agree_on_every_catalog_plan() {
        // The sharded engine samples through the compiled plan; the
        // serial oracle through the naive one. Sweeping the whole
        // catalog covers every field-kind lowering on real specs.
        for id in ALL_DATASETS.iter().chain(AGGREGATES.iter()) {
            let plan = dataset(id).expect(id).plan();
            let serial = plan.generate_keyed(400, 0, 11);
            for workers in [1usize, 3] {
                let sharded =
                    plan.generate_keyed_sharded(400, 0, 11, &eip_exec::Scheduler::new(workers));
                assert_eq!(sharded, serial, "{id} diverged at {workers} workers");
            }
        }
    }

    #[test]
    fn s1_has_two_slash32s() {
        let set = dataset("S1").unwrap().population_sized(3000, 2);
        assert_eq!(set.count_prefixes(32), 2);
    }

    #[test]
    fn s3_is_one_slash96() {
        let set = dataset("S3").unwrap().population_sized(2000, 3);
        assert_eq!(set.count_prefixes(96), 1);
        let h = entropy_of("S3", 2000);
        // Entropy confined to the last 8 nybbles.
        assert!(h[..24].iter().all(|&x| x == 0.0));
        assert!(h[24..].iter().any(|&x| x > 0.1));
    }

    #[test]
    fn r1_iids_end_in_small_values() {
        let set = dataset("R1").unwrap().population_sized(2000, 4);
        for ip in set.iter().take(200) {
            let iid = ip.bits(64, 128);
            assert!(iid <= 0xf, "{ip} IID too large");
        }
        let h = entropy_of("R1", 2000);
        // Near-zero entropy for bits 64-124 (nybbles 17-31).
        assert!(h[16..31].iter().all(|&x| x < 0.05), "{:?}", &h[16..31]);
        assert!(h[31] > 0.3, "last nybble should vary");
    }

    #[test]
    fn c1_android_pattern_share() {
        let set = dataset("C1").unwrap().population_sized(20_000, 5);
        let ending01 = set.iter().filter(|ip| ip.bits(120, 128) == 0x01).count();
        let frac = ending01 as f64 / set.len() as f64;
        assert!((frac - 0.47).abs() < 0.05, "01-suffix share {frac}");
        // Among the 01-enders, segment D (bits 64-84) is zero for the
        // Android share (a sliver of random IIDs also end 01).
        let enders: Vec<_> = set.iter().filter(|ip| ip.bits(120, 128) == 0x01).collect();
        let zero_d = enders.iter().filter(|ip| ip.bits(64, 84) == 0).count();
        assert!(
            zero_d as f64 > 0.95 * enders.len() as f64,
            "only {zero_d}/{} 01-enders have a zero D segment",
            enders.len()
        );
    }

    #[test]
    fn client_aggregate_has_ubit_dip() {
        let h = entropy_of("AC", 20_000);
        // Nybble 18 covers bits 68-72 which contain the u-bit:
        // privacy addresses force it to 0, EUI-64 forces it to 1, so
        // the nybble is depressed relative to its neighbours.
        assert!(
            h[17] < h[16] - 0.05,
            "u-bit dip missing: {} vs {}",
            h[17],
            h[16]
        );
        assert!(h[17] > 0.6, "dip too deep: {}", h[17]);
        // The IID is otherwise near-random.
        assert!(h[20] > 0.95);
    }

    #[test]
    fn bittorrent_aggregate_shows_eui64_dip() {
        let h_at = entropy_of("AT", 20_000);
        let h_ac = entropy_of("AC", 20_000);
        // Nybbles 23-26 cover bits 88-104 where EUI-64 inserts fffe:
        // more EUI-64 => lower entropy there (paper Fig. 6).
        let at_mid: f64 = h_at[22..26].iter().sum();
        let ac_mid: f64 = h_ac[22..26].iter().sum();
        assert!(at_mid < ac_mid - 0.3, "AT {at_mid} vs AC {ac_mid}");
    }

    #[test]
    fn server_aggregate_entropy_rises_toward_bit_128() {
        let h = entropy_of("AS", 20_000);
        // Steadily increasing low-bit entropy: last nybble busier
        // than nybble 21.
        assert!(h[31] > h[20] + 0.2, "{} vs {}", h[31], h[20]);
    }

    #[test]
    fn r4_iids_are_decimal_octet_words() {
        let set = dataset("R4").unwrap().population_sized(1000, 6);
        for ip in set.iter().take(100) {
            let iid = ip.bits(64, 128) as u64;
            for word_i in 0..4 {
                let w = (iid >> (16 * (3 - word_i))) & 0xffff;
                let (h, t, o) = ((w >> 8) & 0xf, (w >> 4) & 0xf, w & 0xf);
                assert!(h <= 2 && t <= 9 && o <= 9, "{ip}: word {w:#x} not decimal");
            }
        }
    }

    #[test]
    fn populations_are_deterministic_per_seed() {
        let spec = dataset("S2").unwrap();
        assert_eq!(
            spec.population_sized(1000, 9),
            spec.population_sized(1000, 9)
        );
        assert_ne!(
            spec.population_sized(1000, 9),
            spec.population_sized(1000, 10)
        );
    }
}
