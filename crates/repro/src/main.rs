//! `repro` — regenerates every table and figure of *Entropy/IP:
//! Uncovering Structure in IPv6 Addresses* (IMC 2016) from the
//! simulated substrate.
//!
//! ```text
//! repro --all                 # everything (takes a few minutes)
//! repro --table 4             # one table (1..=6)
//! repro --figure 7            # one figure (1..=10)
//! repro --ablation            # BN vs Markov vs independent
//! repro --table 4 --full      # paper-scale 1M candidates
//! repro --full                # timed paper-scale run (1M in / 1M out),
//!                             # stage timings -> crates/bench/BENCH_full.json
//! repro --full --jobs 8 --bench-out /tmp/full.json
//! repro --fleet               # all 16 Table-1 networks concurrently on one
//!                             # shared thread budget, models persisted
//!                             # into a ModelStore dir, timings ->
//!                             # crates/bench/BENCH_fleet.json
//! repro --fleet --pool 8 --store-out /tmp/models --bench-out /tmp/fleet.json
//! repro --candidates 50000    # custom candidate count
//! repro --train 1000          # custom training size
//! repro --seed 42             # reproducibility
//! repro --all --jobs 8        # sharded profiling/mining/generation (same output
//!                             # at any jobs > 1)
//! repro --corpus-out /tmp/corpus.txt --candidates 5000000
//!                             # write a duplicate-heavy synthetic address
//!                             # corpus for the ingestion smoke test
//! ```

mod common;
mod corpus;
mod figures;
mod fleet;
mod fullrun;
mod tables;

use common::RunConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return;
    }
    let mut cfg = RunConfig::default();
    let mut table: Option<u32> = None;
    let mut figure: Option<u32> = None;
    let mut all = false;
    let mut ablation = false;
    let mut full = false;
    let mut fleet = false;
    let mut bench_out: Option<String> = None;
    let mut corpus_out: Option<String> = None;
    let mut candidates: Option<usize> = None;
    let mut store_out: Option<String> = None;
    let mut pool_size: Option<usize> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => all = true,
            "--ablation" => ablation = true,
            "--full" => full = true,
            "--fleet" => fleet = true,
            "--store-out" => {
                i += 1;
                store_out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--store-out needs a path")),
                );
            }
            "--pool" => {
                i += 1;
                pool_size = Some((parse_num(&args, i, "--pool") as usize).max(1));
            }
            "--bench-out" => {
                i += 1;
                bench_out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--bench-out needs a path")),
                );
            }
            "--corpus-out" => {
                i += 1;
                corpus_out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--corpus-out needs a path")),
                );
            }
            "--chunk-mb" => {
                i += 1;
                cfg.chunk_mb = (parse_num(&args, i, "--chunk-mb") as usize).max(1);
            }
            "--table" => {
                i += 1;
                table = Some(parse_num(&args, i, "--table"));
            }
            "--figure" => {
                i += 1;
                figure = Some(parse_num(&args, i, "--figure"));
            }
            "--candidates" => {
                i += 1;
                candidates = Some(parse_num(&args, i, "--candidates") as usize);
            }
            "--train" => {
                i += 1;
                cfg.train = parse_num(&args, i, "--train") as usize;
            }
            "--jobs" => {
                i += 1;
                cfg.jobs = (parse_num(&args, i, "--jobs") as usize).max(1);
            }
            "--seed" => {
                i += 1;
                cfg.seed = u64::from(parse_num(&args, i, "--seed"));
            }
            "--probe-loss" => {
                i += 1;
                cfg.probe_loss = args
                    .get(i)
                    .and_then(|s| s.parse::<f64>().ok())
                    .unwrap_or_else(|| die("--probe-loss needs a float"));
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            other => die(&format!("unknown argument: {other}")),
        }
        i += 1;
    }
    // `--full` means paper scale unless an explicit `--candidates`
    // overrides it — in either flag order.
    // `--full` and `--fleet` mean paper scale unless an explicit
    // `--candidates` overrides it — in either flag order.
    if let Some(n) = candidates {
        cfg.candidates = n;
    } else if full || fleet {
        cfg.candidates = 1_000_000;
    }
    // `--bench-out` only makes sense for the timed runs (`--full`,
    // `--fleet`); reject it elsewhere instead of silently writing
    // nothing. Likewise the fleet-only flags.
    let timed_run = full && !all && table.is_none() && figure.is_none() && !ablation;
    if bench_out.is_some() && !timed_run && !fleet {
        die("--bench-out only applies to the --full timed run or --fleet");
    }
    if (store_out.is_some() || pool_size.is_some()) && !fleet {
        die("--store-out/--pool only apply to --fleet");
    }

    // `--fleet` is its own mode: the whole Table-1 network fleet,
    // concurrently, on one shared thread budget.
    if fleet {
        if full || all || table.is_some() || figure.is_some() || ablation {
            die("--fleet runs alone (it already covers every network)");
        }
        fleet::fleet_run(
            &cfg,
            &fleet::FleetOptions {
                store_out,
                bench_out,
                pool_size,
            },
        );
        return;
    }

    // `--corpus-out` is its own mode: synthesize a duplicate-heavy
    // address corpus (lines = --candidates, ~5 lines per distinct
    // address) for the ingestion smoke test, then exit.
    if let Some(path) = corpus_out {
        write_corpus(&path, &cfg);
        return;
    }

    if all {
        for t in 1..=6 {
            run_table(t, &cfg);
            println!();
        }
        for f in 1..=10 {
            run_figure(f, &cfg);
            println!();
        }
        tables::ablation(&cfg);
        return;
    }
    if let Some(t) = table {
        run_table(t, &cfg);
    }
    if let Some(f) = figure {
        run_figure(f, &cfg);
    }
    if ablation {
        tables::ablation(&cfg);
    }
    if timed_run {
        // Bare `--full`: the timed paper-scale workload.
        fullrun::full_run(&cfg, bench_out.as_deref());
    } else if table.is_none() && figure.is_none() && !ablation {
        usage();
    }
}

fn run_table(t: u32, cfg: &RunConfig) {
    match t {
        1 => tables::table1(cfg),
        2 => tables::table2(cfg),
        3 => tables::table3(cfg),
        4 => tables::table4(cfg),
        5 => tables::table5(cfg),
        6 => tables::table6(cfg),
        _ => die("tables are 1..=6"),
    }
}

fn run_figure(f: u32, cfg: &RunConfig) {
    match f {
        1 => figures::figure1(cfg),
        2 => figures::figure2(cfg),
        3 => figures::figure3(),
        4 => figures::figure4(cfg),
        5 => figures::figure5(cfg),
        6 => figures::figure6(cfg),
        7 => figures::figure7(cfg),
        8 => figures::figure8(cfg),
        9 => figures::figure9(cfg),
        10 => figures::figure10(cfg),
        _ => die("figures are 1..=10"),
    }
}

/// `--corpus-out`: writes `cfg.candidates` address lines over an S1
/// population of `candidates / 5` distinct addresses — every distinct
/// address appears, the rest are keyed-random duplicates, ~2%
/// comment/blank lines mixed in. Deterministic in `--seed`.
fn write_corpus(path: &str, cfg: &RunConfig) {
    let lines = cfg.candidates.max(1) as u64;
    let distinct = (cfg.candidates / 5).max(1);
    let spec = eip_netsim::dataset("S1").expect("S1 in catalog");
    let pop = spec.population_sized(distinct, cfg.seed);
    match corpus::write_corpus(path, &pop, lines, cfg.seed ^ 0xc0de) {
        Ok(bytes) => println!(
            "corpus written to {path}: {lines} address lines, {} distinct, {bytes} bytes",
            pop.len()
        ),
        Err(e) => die(&format!("could not write {path}: {e}")),
    }
}

fn parse_num(args: &[String], i: usize, flag: &str) -> u32 {
    args.get(i)
        .and_then(|s| s.parse::<u32>().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs a number")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn usage() {
    println!(
        "repro — regenerate the tables and figures of Entropy/IP (IMC 2016)\n\n\
         usage: repro [--all] [--table N] [--figure N] [--ablation]\n\
                      [--full] [--fleet] [--candidates N] [--train N] [--seed N]\n\
                      [--probe-loss F] [--jobs N] [--pool N] [--chunk-mb N]\n\
                      [--bench-out PATH] [--store-out PATH] [--corpus-out PATH]\n\n\
         tables:  1 datasets   2 conditional probs   3 S1 mining\n\
                  4 scanning   5 training-size sweep 6 prefix prediction\n\
         figures: 1 UI        2 BN graph   3 addresses  4 histogram  5 windowing\n\
                  6 aggregates 7 S1 panel  8 small multiples  9 R1 panel  10 C1 panel\n\n\
         bare --full runs the timed paper-scale workload (1M addresses in,\n\
         1M candidates out) and records per-stage wall-clock to\n\
         crates/bench/BENCH_full.json (override with --bench-out); its ingest\n\
         stage streams a synthetic corpus in --chunk-mb MiB chunks\n\n\
         --fleet runs all 16 Table-1 networks end-to-end concurrently on one\n\
         shared thread budget (--pool threads, default: all cores; --jobs\n\
         still fixes the deterministic shard geometry), persists every model\n\
         into --store-out (default target/fleet_models) for `eip serve`, checks\n\
         each network byte-identical to a solo serial run, and records wall-clock\n\
         vs the sequential sum in crates/bench/BENCH_fleet.json\n\n\
         --corpus-out PATH writes a duplicate-heavy synthetic address corpus\n\
         (--candidates lines, ~1/5 distinct) for the ingestion smoke test"
    );
}
