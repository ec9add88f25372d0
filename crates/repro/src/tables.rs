//! Table regeneration (Tables 1–6 of the paper).

use eip_addr::set::SplitMix64;
use eip_bayes::sample_row;
use eip_exec::Scheduler;
use eip_netsim::{dataset, evaluate_scan_sharded, TemporalPool};
use entropy_ip::baseline::{encoded_dataset, generate_with, IndependentModel, MarkovModel};
use entropy_ip::ValueKind;

use crate::common::{generate_candidates, human, prefix_model, quick_model, workbench, RunConfig};

/// Table 1: the dataset census.
pub fn table1(cfg: &RunConfig) {
    println!("=== Table 1: datasets (paper population vs simulated) ===\n");
    println!(
        "{:<4} {:<8} {:>10} {:>12}  description",
        "ID", "category", "paper", "simulated"
    );
    for id in eip_netsim::ALL_DATASETS
        .iter()
        .chain(["AS", "AR", "AC"].iter())
    {
        let spec = dataset(id).unwrap();
        let pop = spec.population_sized(spec.default_population.min(20_000), cfg.seed);
        println!(
            "{:<4} {:<8} {:>10} {:>12}  {}",
            spec.id,
            format!("{:?}", spec.category),
            spec.paper_population,
            human(pop.len().max(spec.default_population.min(20_000))),
            spec.description
        );
    }
    println!("\n(simulated populations are scaled ~1:1000; see DESIGN.md)");
}

/// Table 2: P(zero-run segment | two upstream segments) — the
/// conditional dependency matrix behind Fig. 2.
pub fn table2(cfg: &RunConfig) {
    println!("=== Table 2: conditional probability of a dependent segment code ===\n");
    let (_, model) = quick_model("C1", 24_000, cfg.seed);
    // Target: the most-conditioned segment (paper probes J = 00000…,
    // which depends on C and H). Probe its most popular code.
    let Some(t_seg) = (0..model.bn().num_vars())
        .filter(|&i| !model.bn().node(i).parents.is_empty())
        .max_by_key(|&i| model.bn().node(i).parents.len())
    else {
        println!("(model learned no dependencies in this sample)");
        return;
    };
    let t_val = model.mined()[t_seg]
        .values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.freq.total_cmp(&b.1.freq))
        .map(|(i, _)| i)
        .unwrap();
    let t_label = model.mined()[t_seg].segment.label.clone();
    println!(
        "target: segment {t_label} = {} ({:?})\n",
        model.mined()[t_seg].values[t_val].code,
        model.mined()[t_seg].values[t_val].kind
    );
    // Conditions: the BN parents, topped up with preceding segments
    // (of cardinality > 1) to two.
    let mut conds: Vec<usize> = model.bn().node(t_seg).parents.clone();
    for i in (0..t_seg).rev() {
        if conds.len() >= 2 {
            break;
        }
        if !conds.contains(&i) && model.mined()[i].cardinality() > 1 {
            conds.push(i);
        }
    }
    if conds.is_empty() {
        println!("(segment {t_label} has no upstream segments)");
        return;
    }
    let c0 = conds[0];
    let c1 = conds.get(1).copied();
    let name = |i: usize| model.bn().node(i).name.clone();
    match c1 {
        Some(c1) => {
            println!(
                "P({t_label} | {} , {}):  rows = {}, cols = {}\n",
                name(c1),
                name(c0),
                name(c1),
                name(c0)
            );
            print!("{:>8} |", "");
            for j in 0..model.mined()[c0].cardinality() {
                print!(" {:>8}", model.mined()[c0].values[j].code);
            }
            println!();
            for i in 0..model.mined()[c1].cardinality() {
                print!("{:>8} |", model.mined()[c1].values[i].code);
                for j in 0..model.mined()[c0].cardinality() {
                    let p = eip_bayes::infer::conditional_probability(
                        model.bn(),
                        (t_seg, t_val),
                        &vec![(c1, i), (c0, j)],
                    );
                    match p {
                        Some(p) => print!(" {:>7.2}%", p * 100.0),
                        None => print!(" {:>8}", "-"),
                    }
                }
                println!();
            }
        }
        None => {
            println!("P({t_label} | {}):\n", name(c0));
            for j in 0..model.mined()[c0].cardinality() {
                let p = eip_bayes::infer::conditional_probability(
                    model.bn(),
                    (t_seg, t_val),
                    &vec![(c0, j)],
                )
                .unwrap_or(0.0);
                println!(
                    "  {} = {:>7.2}%",
                    model.mined()[c0].values[j].code,
                    p * 100.0
                );
            }
        }
    }
}

/// Table 3: the full mining dictionary for S1.
pub fn table3(cfg: &RunConfig) {
    println!("=== Table 3: segment mining results for dataset S1 ===\n");
    let (_, model) = quick_model("S1", 40_000, cfg.seed);
    println!(
        "{:<6} {:<30} {:>8}   segment (bits)",
        "Code", "Value", "Freq"
    );
    for m in model.mined() {
        let (lo, hi) = m.segment.bit_range();
        for sv in &m.values {
            let val = match sv.kind {
                ValueKind::Exact(v) => format!("{v:x}"),
                ValueKind::Range { lo, hi } => format!("{lo:x}-{hi:x}"),
            };
            let val = if val.len() > 30 {
                format!("{}…", &val[..29])
            } else {
                val
            };
            println!(
                "{:<6} {:<30} {:>7.2}%   {} ({lo}-{hi})",
                sv.code,
                val,
                sv.freq * 100.0,
                m.segment.label
            );
        }
    }
}

/// One row of Table 4.
pub struct Table4Row {
    /// Dataset id.
    pub id: String,
    /// Hits against the held-out test set.
    pub test: usize,
    /// Ping responses.
    pub ping: usize,
    /// Reverse-DNS hits.
    pub rdns: usize,
    /// Any-test hits.
    pub overall: usize,
    /// Success rate.
    pub rate: f64,
    /// New /64s discovered.
    pub new64: usize,
}

/// Runs the Table 4 protocol for one dataset id.
pub fn scan_one(id: &str, cfg: &RunConfig) -> Table4Row {
    let wb = workbench(id, cfg);
    let candidates = generate_candidates(
        &wb.model,
        &wb.train,
        cfg.candidates,
        cfg.seed ^ 0xf00d,
        cfg.jobs,
    );
    let outcome = evaluate_scan_sharded(
        &candidates,
        &wb.train,
        &wb.test,
        &wb.responder,
        &Scheduler::new(cfg.jobs),
    );
    Table4Row {
        id: id.to_string(),
        test: outcome.test_hits,
        ping: outcome.ping_hits,
        rdns: outcome.rdns_hits,
        overall: outcome.overall,
        rate: outcome.success_rate(),
        new64: outcome.new_slash64,
    }
}

/// Table 4: scanning results for S1-S5, R1-R5.
pub fn table4(cfg: &RunConfig) {
    println!(
        "=== Table 4: IPv6 scanning results (train {} / generate {}) ===\n",
        cfg.train, cfg.candidates
    );
    println!(
        "{:<4} {:>9} {:>9} {:>9} {:>9} {:>8} {:>9}",
        "Set", "Test set", "Ping", "rDNS", "Overall", "Rate", "New /64s"
    );
    let mut tot = (0usize, 0usize, 0usize, 0usize, 0usize);
    let mut server_rates: Vec<(String, f64)> = Vec::new();
    for id in ["S1", "S2", "S3", "S4", "S5", "R1", "R2", "R3", "R4", "R5"] {
        let r = scan_one(id, cfg);
        if id.starts_with('S') {
            server_rates.push((r.id.clone(), r.rate));
        }
        println!(
            "{:<4} {:>9} {:>9} {:>9} {:>9} {:>7.2}% {:>9}",
            r.id,
            human(r.test),
            human(r.ping),
            human(r.rdns),
            human(r.overall),
            r.rate * 100.0,
            human(r.new64)
        );
        tot = (
            tot.0 + r.test,
            tot.1 + r.ping,
            tot.2 + r.rdns,
            tot.3 + r.overall,
            tot.4 + r.new64,
        );
    }
    println!(
        "{:<4} {:>9} {:>9} {:>9} {:>9} {:>8} {:>9}",
        "sum",
        human(tot.0),
        human(tot.1),
        human(tot.2),
        human(tot.3),
        "",
        human(tot.4)
    );
    // Report the shape this run actually produced, not a fixed claim.
    let rate = |id: &str| {
        server_rates
            .iter()
            .find(|(i, _)| i == id)
            .map(|&(_, r)| r)
            .unwrap_or(0.0)
    };
    let s3_best = server_rates.iter().all(|&(_, r)| r <= rate("S3"));
    if s3_best && rate("S1") < 0.01 {
        println!("\nShape matches the paper: S1 ~0% (pseudo-random IIDs); S3 the best server");
        println!("rate (one /96 worldwide, 43% in the paper); routers ~1-5%; most sets");
        println!("discover new /64s.");
    } else {
        println!("\nNOTE: this run deviates from the paper's shape (expected: S1 ~0% from");
        println!("pseudo-random IIDs, S3 the best server rate at 43%) — small training");
        println!("samples, probe loss, or non-default knobs can do that.");
    }
}

/// Table 5: success rate vs training-set size for S5, R1, C5.
pub fn table5(cfg: &RunConfig) {
    println!("=== Table 5: success rate vs training sample size ===\n");
    let sizes = [100usize, 1_000, 10_000, 100_000];
    println!(
        "{:<4} {:>9} {:>9} {:>9} {:>9}",
        "Set", "100", "1 K", "10 K", "100 K"
    );
    for id in ["S5", "R1", "C5"] {
        print!("{id:<4}");
        for &train in &sizes {
            let spec = dataset(id).unwrap();
            if train * 2 > spec.default_population {
                print!(" {:>9}", "-");
                continue;
            }
            let mut c = cfg.clone();
            c.train = train;
            // C5 is evaluated on prefixes (clients; §5.6), others on
            // full addresses.
            let rate = if id.starts_with('C') {
                predict_prefixes_rate(id, &c)
            } else {
                scan_one(id, &c).rate
            };
            print!(" {:>8.1}%", rate * 100.0);
        }
        println!();
    }
    println!("\nExpected shape (paper): larger training sets often do NOT help and can");
    println!("hurt — the model adheres to seen data instead of generalizing.");
}

/// §5.6 prefix prediction for one client dataset; returns the 7-day
/// success rate.
pub fn predict_prefixes_rate(id: &str, cfg: &RunConfig) -> f64 {
    let (day0_rate, _week) = predict_prefixes(id, cfg);
    day0_rate.1
}

/// Returns ((day-0 hits, 7-day rate), week hits) — see [`table6`].
pub fn predict_prefixes(id: &str, cfg: &RunConfig) -> ((usize, f64), usize) {
    let spec = dataset(id).unwrap();
    let pool = TemporalPool::new(spec.plan(), spec.default_population / 4, 0.7, cfg.seed ^ 7);
    let day0 = pool.day(0);
    let week = pool.window(0, 7);
    let mut rng = SplitMix64::new(cfg.seed);
    let (train, _) = day0.split_sample(cfg.train, &mut rng);
    let model = prefix_model(&train, cfg).expect("non-empty prefix training set");
    let candidates =
        generate_candidates(&model, &train, cfg.candidates, cfg.seed ^ 0xabc, cfg.jobs);
    let day0_hits = candidates.iter().filter(|&&p| day0.contains(p)).count();
    let week_hits = candidates.iter().filter(|&&p| week.contains(p)).count();
    let rate7 = if candidates.is_empty() {
        0.0
    } else {
        week_hits as f64 / candidates.len() as f64
    };
    ((day0_hits, rate7), week_hits)
}

/// Table 6: client /64-prefix prediction, day 0 vs the week.
pub fn table6(cfg: &RunConfig) {
    println!(
        "=== Table 6: /64 prefix prediction for clients (train {} prefixes) ===\n",
        cfg.train
    );
    println!(
        "{:<4} {:>10} {:>10} {:>10}",
        "Set", "day 0", "7 days", "rate(7d)"
    );
    let mut t0 = 0usize;
    let mut t7 = 0usize;
    for id in ["C1", "C2", "C3", "C4", "C5"] {
        let ((d0, rate7), week) = predict_prefixes(id, cfg);
        println!(
            "{:<4} {:>10} {:>10} {:>9.2}%",
            id,
            human(d0),
            human(week),
            rate7 * 100.0
        );
        t0 += d0;
        t7 += week;
    }
    println!("{:<4} {:>10} {:>10}", "sum", human(t0), human(t7));
    println!("\nExpected shape (paper): thousands of predicted /64s per network, rates");
    println!("~1-20%; the 7-day window catches at least as many as day 0.");
}

/// Ablation: BN vs independent vs Markov generation hit-rate.
pub fn ablation(cfg: &RunConfig) {
    println!("=== Ablation: model class (BN vs first-order Markov vs independent) ===\n");
    println!("{:<4} {:>9} {:>9} {:>9}", "Set", "BN", "Markov", "Indep");
    let exec = Scheduler::new(cfg.jobs);
    for id in ["S1", "S5", "R1", "R3"] {
        let wb = workbench(id, cfg);
        let data = encoded_dataset(&wb.model, &wb.train);
        let ind = IndependentModel::fit(&data);
        let mm = MarkovModel::fit(&data).expect("non-empty training data");
        let n = cfg.candidates.min(20_000);
        let budget = n * 8;
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(cfg.seed ^ 0x111);
        let bn_c = generate_with(
            &wb.model,
            |r| sample_row(wb.model.bn(), r),
            n,
            budget,
            &mut rng,
        );
        let mm_c = generate_with(&wb.model, |r| mm.sample_row(r), n, budget, &mut rng);
        let in_c = generate_with(&wb.model, |r| ind.sample_row(r), n, budget, &mut rng);
        let rate = |cands: &[eip_addr::Ip6]| {
            let o = evaluate_scan_sharded(cands, &wb.train, &wb.test, &wb.responder, &exec);
            o.success_rate() * 100.0
        };
        println!(
            "{:<4} {:>8.2}% {:>8.2}% {:>8.2}%",
            id,
            rate(&bn_c),
            rate(&mm_c),
            rate(&in_c)
        );
    }
    println!("\nExpected: BN ≥ Markov ≥ independent wherever non-adjacent dependencies");
    println!("exist (§4.5's argument for BNs over MMs and PTs).");
}
