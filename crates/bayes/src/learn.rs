//! Score-based structure learning under the Entropy/IP ordering
//! constraint.
//!
//! §4.4: "Since learning BNs from data is generally NP-hard, we
//! constrain the network so that given segment k can only depend on
//! previous segments < k." Under this constraint the global optimum
//! decomposes: each node independently picks the parent set (among
//! its predecessors) that maximizes the family score, which is the
//! insight behind BNFinder (Dojer 2006; Wilczyński & Dojer 2009).
//!
//! We use the BIC/MDL score
//!
//! ```text
//! score(X, Pa) = loglik(X | Pa) − (ln N / 2) · |Pa-configs| · (|X| − 1)
//! ```
//!
//! and search parent sets in order of increasing size with the
//! Dojer-style admissible bound: the log-likelihood term is at most 0
//! (it is a negative entropy times N), so once the *penalty alone* of
//! every candidate of size s exceeds the best total score found so
//! far, no larger set can win and the search stops. This keeps the
//! search exact without enumerating all 2^k subsets in typical cases.
//!
//! ## One engine, one oracle
//!
//! * **Sharded count-reuse engine** ([`learn_structure_sharded`], the
//!   production path at every worker count): per child, one sharded
//!   pass over the columns counts the dense joint of every
//!   maximum-size candidate family
//!   ([`crate::counts::count_families`]); every smaller candidate's
//!   score falls out of a superset table by marginalization, and the
//!   winner's table is fitted into the CPT directly — no further data
//!   passes. With one worker the single shard runs inline.
//! * **Serial oracle** ([`learn_structure`], test and benchmark
//!   support): one full-data pass per candidate parent set through a
//!   `HashMap` ([`family_score`]) and another per fitted CPT
//!   ([`fit_cpt`]). Simple, and the ground truth the engine is
//!   verified against.
//!
//! The search order, tie margin, and admissible bound are identical in
//! both, so the learned network (structure and CPT bytes) matches at
//! any worker count — see the equivalence proptests in
//! `tests/proptests.rs`.

use crate::counts::{count_families, FamilyTable};
use crate::cpt::Cpt;
use crate::data::Dataset;
use crate::network::{BayesNet, Node};
use eip_exec::Scheduler;
use std::collections::HashMap;

/// Options for [`learn_structure`].
#[derive(Clone, Debug)]
pub struct LearnOptions {
    /// Maximum number of parents per node. The paper's segment counts
    /// (6–12 variables) make 2 a good default — matching BNFinder's
    /// usual limits — but the search is exact for any bound.
    pub max_parents: usize,
    /// Laplace smoothing added when fitting the final CPTs (not used
    /// in scoring, which is pure MLE as in MDL).
    pub alpha: f64,
    /// Variable names (defaults to "X0", "X1", … when empty).
    pub names: Vec<String>,
}

impl Default for LearnOptions {
    fn default() -> Self {
        LearnOptions {
            max_parents: 2,
            alpha: 0.5,
            names: Vec::new(),
        }
    }
}

/// Learns a Bayesian network from categorical data under the
/// ordering constraint (variable i may only have parents < i) — the
/// serial oracle the sharded engine ([`learn_structure_sharded`]) is
/// verified against (see the [module docs](self)).
///
/// Returns the network with fitted (smoothed) CPTs.
///
/// # Panics
/// Panics if the dataset is empty.
pub fn learn_structure(data: &Dataset, opts: &LearnOptions) -> BayesNet {
    assert!(!data.is_empty(), "cannot learn from an empty dataset");
    let n_vars = data.num_vars();
    let mut nodes = Vec::with_capacity(n_vars);
    for i in 0..n_vars {
        let parents = best_parents(data, i, opts.max_parents);
        let cpt = fit_cpt(data, i, &parents, opts.alpha);
        nodes.push(Node {
            name: node_name(opts, i),
            cardinality: data.cardinality(i),
            parents,
            cpt,
        });
    }
    BayesNet::new(nodes)
}

/// Learns the network on the sharded count-reuse engine — the
/// production learner at every worker count. The scheduler's worker
/// count fixes the shard geometry; the network is identical at any.
///
/// Per child: one sharded pass counts every maximum-size family's
/// dense joint table, subset candidates are scored by marginalizing a
/// superset table, and the winning table is fitted into the CPT
/// without touching the data again. Candidate enumeration order, tie
/// margin, and the admissible bound mirror the serial oracle exactly.
///
/// # Panics
/// Panics if the dataset is empty.
pub fn learn_structure_sharded(data: &Dataset, opts: &LearnOptions, exec: &Scheduler) -> BayesNet {
    assert!(!data.is_empty(), "cannot learn from an empty dataset");
    let n_vars = data.num_vars();
    let mut nodes = Vec::with_capacity(n_vars);
    for i in 0..n_vars {
        let (parents, table) = best_family_dense(data, i, opts.max_parents, exec);
        let cpt = Cpt::from_counts(
            table.child_card(),
            table.parent_cards().to_vec(),
            table.counts(),
            opts.alpha,
        );
        nodes.push(Node {
            name: node_name(opts, i),
            cardinality: data.cardinality(i),
            parents,
            cpt,
        });
    }
    BayesNet::new(nodes)
}

fn node_name(opts: &LearnOptions, i: usize) -> String {
    opts.names
        .get(i)
        .cloned()
        .unwrap_or_else(|| format!("X{i}"))
}

/// The tie margin: an improvement must exceed floating-point
/// accumulation noise (log-likelihoods are O(N·ln k), so ties between
/// equivalent parent sets differ by ~1e-11 in practice); otherwise
/// degenerate parents (e.g. cardinality-1 variables) sneak in on
/// summation-order noise. Shared by both engines so they break ties
/// identically.
#[inline]
fn improves(score: f64, best: f64) -> bool {
    score > best + 1e-6 * (1.0 + best.abs().sqrt())
}

/// The BIC family score of `child` with the given parents.
pub fn family_score(data: &Dataset, child: usize, parents: &[usize]) -> f64 {
    let counts = family_counts(data, child, parents);
    let child_card = data.cardinality(child);
    let n = data.len() as f64;
    let mut loglik = 0.0;
    let mut config_totals: HashMap<u64, u64> = HashMap::new();
    for (&key, &c) in &counts {
        let cfg = key / child_card as u64;
        *config_totals.entry(cfg).or_insert(0) += c;
    }
    for (&key, &c) in &counts {
        let cfg = key / child_card as u64;
        let total = config_totals[&cfg] as f64;
        loglik += c as f64 * ((c as f64 / total).ln());
    }
    let num_configs: f64 = parents
        .iter()
        .map(|&p| data.cardinality(p) as f64)
        .product();
    let params = num_configs * (child_card as f64 - 1.0);
    loglik - 0.5 * n.ln() * params
}

/// Exhaustive (bounded, pruned) search for the best parent set of
/// `child` among `0..child` — the serial oracle.
fn best_parents(data: &Dataset, child: usize, max_parents: usize) -> Vec<usize> {
    let predecessors: Vec<usize> = (0..child).collect();
    let mut best_set: Vec<usize> = Vec::new();
    let mut best_score = family_score(data, child, &[]);
    let n = data.len() as f64;
    let child_card = data.cardinality(child) as f64;

    // Sorted predecessor cardinalities, computed once: the admissible
    // bound below only ever needs the `size` smallest.
    let mut cards: Vec<f64> = predecessors
        .iter()
        .map(|&p| data.cardinality(p) as f64)
        .collect();
    cards.sort_by(f64::total_cmp);

    for size in 1..=max_parents.min(predecessors.len()) {
        // Admissible bound (Dojer): the max achievable score of ANY
        // set of this size is 0 (loglik) minus the MINIMUM penalty,
        // which comes from picking the lowest-cardinality parents.
        let min_configs: f64 = cards.iter().take(size).product();
        let min_penalty = 0.5 * n.ln() * min_configs * (child_card - 1.0);
        if -min_penalty <= best_score {
            // No set of this size (or larger: penalties grow) can
            // beat the incumbent.
            break;
        }
        for combo in combinations(&predecessors, size) {
            let s = family_score(data, child, &combo);
            if improves(s, best_score) {
                best_score = s;
                best_set = combo;
            }
        }
    }
    best_set
}

/// Count-reuse search for the best parent set of `child`: counts the
/// maximum-size families once (sharded), scores every candidate from
/// the dense tables, and returns the winner together with its table
/// (ready for CPT fitting). Enumeration order and pruning mirror
/// [`best_parents`].
fn best_family_dense(
    data: &Dataset,
    child: usize,
    max_parents: usize,
    exec: &Scheduler,
) -> (Vec<usize>, FamilyTable) {
    let predecessors: Vec<usize> = (0..child).collect();
    let m = max_parents.min(predecessors.len());
    if m == 0 {
        let table = count_families(data, child, &[Vec::new()], exec)
            .pop()
            .expect("one family requested");
        return (Vec::new(), table);
    }

    // One sharded pass: the dense joint of every size-m family.
    let families: Vec<Vec<usize>> = combinations(&predecessors, m).collect();
    let tables = count_families(data, child, &families, exec);
    let index: HashMap<&[usize], usize> = families
        .iter()
        .enumerate()
        .map(|(i, f)| (f.as_slice(), i))
        .collect();
    // The table of any candidate subset, marginalized out of its
    // lexicographically-first size-m superset (counts are exact, so
    // the choice of superset is immaterial).
    let subset_table = |set: &[usize]| -> FamilyTable {
        if let Some(&i) = index.get(set) {
            return tables[i].clone();
        }
        let mut family: Vec<usize> = set.to_vec();
        for &p in &predecessors {
            if family.len() == m {
                break;
            }
            if !set.contains(&p) {
                family.push(p);
            }
        }
        family.sort_unstable();
        tables[index[family.as_slice()]].marginalize_to(set)
    };
    // Size-m candidates are scored straight off their counted table;
    // cloning is reserved for the single winner at the end.
    let subset_score = |set: &[usize], n: usize| -> f64 {
        match index.get(set) {
            Some(&i) => tables[i].score(n),
            None => subset_table(set).score(n),
        }
    };

    let n = data.len();
    let mut best_set: Vec<usize> = Vec::new();
    let mut best_score = subset_score(&[], n);
    let nf = n as f64;
    let child_card = data.cardinality(child) as f64;
    let mut cards: Vec<f64> = predecessors
        .iter()
        .map(|&p| data.cardinality(p) as f64)
        .collect();
    cards.sort_by(f64::total_cmp);

    for size in 1..=m {
        let min_configs: f64 = cards.iter().take(size).product();
        let min_penalty = 0.5 * nf.ln() * min_configs * (child_card - 1.0);
        if -min_penalty <= best_score {
            break;
        }
        for combo in combinations(&predecessors, size) {
            let s = subset_score(&combo, n);
            if improves(s, best_score) {
                best_score = s;
                best_set = combo;
            }
        }
    }
    let table = subset_table(&best_set);
    (best_set, table)
}

/// Lazy iterator over all size-`k` combinations of `items`, in
/// lexicographic position order. Yields nothing when `k >
/// items.len()`, and the single empty combination when `k == 0`.
pub struct Combinations<'a> {
    items: &'a [usize],
    idx: Vec<usize>,
    done: bool,
}

/// All size-`k` combinations of `items`, lazily and in lexicographic
/// order (no up-front materialization).
pub fn combinations(items: &[usize], k: usize) -> Combinations<'_> {
    Combinations {
        items,
        idx: (0..k).collect(),
        done: k > items.len(),
    }
}

impl Iterator for Combinations<'_> {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        let out: Vec<usize> = self.idx.iter().map(|&i| self.items[i]).collect();
        // Advance the combination odometer; mark done when it rolls
        // over.
        let k = self.idx.len();
        let n = self.items.len();
        let mut i = k;
        loop {
            if i == 0 {
                self.done = true;
                return Some(out);
            }
            i -= 1;
            if self.idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                self.done = true;
                return Some(out);
            }
        }
        self.idx[i] += 1;
        for j in i + 1..k {
            self.idx[j] = self.idx[j - 1] + 1;
        }
        Some(out)
    }
}

/// Sparse family counts: key = cfg * child_card + child_value.
fn family_counts(data: &Dataset, child: usize, parents: &[usize]) -> HashMap<u64, u64> {
    let child_card = data.cardinality(child) as u64;
    let child_col = data.column(child);
    let parent_cols: Vec<(&[u8], u64)> = parents
        .iter()
        .map(|&p| (data.column(p), data.cardinality(p) as u64))
        .collect();
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for r in 0..data.len() {
        let mut cfg: u64 = 0;
        for &(col, card) in &parent_cols {
            cfg = cfg * card + col[r] as u64;
        }
        *counts
            .entry(cfg * child_card + child_col[r] as u64)
            .or_insert(0) += 1;
    }
    counts
}

/// Fits a dense smoothed CPT for `child` given `parents` by scanning
/// the data (the serial oracle path; the sharded engine reuses its
/// contingency tables instead).
pub fn fit_cpt(data: &Dataset, child: usize, parents: &[usize], alpha: f64) -> Cpt {
    let child_card = data.cardinality(child);
    let child_col = data.column(child);
    let parent_cards: Vec<usize> = parents.iter().map(|&p| data.cardinality(p)).collect();
    let parent_cols: Vec<&[u8]> = parents.iter().map(|&p| data.column(p)).collect();
    let num_configs: usize = parent_cards.iter().product::<usize>().max(1);
    let mut counts = vec![0u64; num_configs * child_card];
    for r in 0..data.len() {
        let mut cfg = 0usize;
        for (col, &card) in parent_cols.iter().zip(&parent_cards) {
            cfg = cfg * card + col[r] as usize;
        }
        counts[cfg * child_card + child_col[r] as usize] += 1;
    }
    Cpt::from_counts(child_card, parent_cards, &counts, alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic LCG for reproducible synthetic data.
    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    /// X1 is a noisy copy of X0; X2 is independent noise.
    fn dependent_dataset(n: usize) -> Dataset {
        let mut seed = 42u64;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let x0 = (lcg(&mut seed) % 2) as usize;
            let x1 = if lcg(&mut seed) % 10 < 9 { x0 } else { 1 - x0 };
            let x2 = (lcg(&mut seed) % 3) as usize;
            rows.push(vec![x0, x1, x2]);
        }
        Dataset::new(vec![2, 2, 3], rows)
    }

    #[test]
    fn finds_real_dependency_and_skips_noise() {
        let data = dependent_dataset(2000);
        let bn = learn_structure(&data, &LearnOptions::default());
        assert_eq!(bn.node(0).parents, Vec::<usize>::new());
        assert_eq!(bn.node(1).parents, vec![0], "X1 should depend on X0");
        assert!(bn.node(2).parents.is_empty(), "X2 is independent noise");
    }

    #[test]
    fn fitted_cpt_matches_generating_process() {
        let data = dependent_dataset(5000);
        let bn = learn_structure(
            &data,
            &LearnOptions {
                alpha: 0.0,
                ..Default::default()
            },
        );
        // P(X1 = x0 | X0 = x0) ~ 0.9.
        let p = bn.node(1).cpt.prob(0, &[0]);
        assert!((p - 0.9).abs() < 0.05, "got {p}");
    }

    #[test]
    fn two_parent_interaction_detected() {
        // X2 = X0 XOR X1 (needs both parents; neither alone helps).
        let mut seed = 7u64;
        let mut rows = Vec::new();
        for _ in 0..3000 {
            let a = (lcg(&mut seed) % 2) as usize;
            let b = (lcg(&mut seed) % 2) as usize;
            rows.push(vec![a, b, a ^ b]);
        }
        let data = Dataset::new(vec![2, 2, 2], rows);
        let bn = learn_structure(&data, &LearnOptions::default());
        assert_eq!(bn.node(2).parents, vec![0, 1]);
    }

    #[test]
    fn max_parents_zero_yields_independent_model() {
        let data = dependent_dataset(500);
        let bn = learn_structure(
            &data,
            &LearnOptions {
                max_parents: 0,
                ..Default::default()
            },
        );
        for node in bn.nodes() {
            assert!(node.parents.is_empty());
        }
    }

    #[test]
    fn small_dataset_prefers_simplicity() {
        // With very few observations the BIC penalty should reject
        // spurious parents between independent variables.
        let mut seed = 3u64;
        let mut rows = Vec::new();
        for _ in 0..30 {
            rows.push(vec![
                (lcg(&mut seed) % 4) as usize,
                (lcg(&mut seed) % 4) as usize,
            ]);
        }
        let data = Dataset::new(vec![4, 4], rows);
        let bn = learn_structure(&data, &LearnOptions::default());
        assert!(bn.node(1).parents.is_empty());
    }

    #[test]
    fn family_score_improves_with_true_parent() {
        let data = dependent_dataset(1000);
        let with = family_score(&data, 1, &[0]);
        let without = family_score(&data, 1, &[]);
        assert!(with > without);
    }

    #[test]
    fn combinations_enumerate_correctly() {
        let c: Vec<Vec<usize>> = combinations(&[0, 1, 2, 3], 2).collect();
        assert_eq!(c.len(), 6);
        assert!(c.contains(&vec![0, 3]));
        assert_eq!(
            combinations(&[0, 1], 3).collect::<Vec<_>>(),
            Vec::<Vec<usize>>::new()
        );
        assert_eq!(combinations(&[5], 1).collect::<Vec<_>>(), vec![vec![5]]);
    }

    #[test]
    fn combinations_are_lazy_and_lexicographic() {
        let mut it = combinations(&[0, 1, 2], 2);
        assert_eq!(it.next(), Some(vec![0, 1]));
        assert_eq!(it.next(), Some(vec![0, 2]));
        assert_eq!(it.next(), Some(vec![1, 2]));
        assert_eq!(it.next(), None);
        assert_eq!(it.next(), None, "fused after exhaustion");
        // k == 0 yields exactly the empty combination.
        assert_eq!(
            combinations(&[7, 8], 0).collect::<Vec<_>>(),
            vec![Vec::<usize>::new()]
        );
    }

    #[test]
    fn sharded_engine_learns_identical_network() {
        let data = dependent_dataset(2000);
        let serial = learn_structure(&data, &LearnOptions::default());
        for workers in [1usize, 2, 3, 8] {
            let sharded =
                learn_structure_sharded(&data, &LearnOptions::default(), &Scheduler::new(workers));
            for i in 0..data.num_vars() {
                assert_eq!(sharded.node(i).parents, serial.node(i).parents, "node {i}");
                assert_eq!(
                    sharded.node(i).cpt.flat(),
                    serial.node(i).cpt.flat(),
                    "node {i} CPT"
                );
            }
        }
    }

    #[test]
    fn sharded_engine_detects_two_parent_interaction() {
        let mut seed = 7u64;
        let mut rows = Vec::new();
        for _ in 0..3000 {
            let a = (lcg(&mut seed) % 2) as usize;
            let b = (lcg(&mut seed) % 2) as usize;
            rows.push(vec![a, b, a ^ b]);
        }
        let data = Dataset::new(vec![2, 2, 2], rows);
        let bn = learn_structure_sharded(&data, &LearnOptions::default(), &Scheduler::new(4));
        assert_eq!(bn.node(2).parents, vec![0, 1]);
    }

    #[test]
    fn names_are_applied() {
        let data = dependent_dataset(100);
        let opts = LearnOptions {
            names: vec!["A".into(), "B".into(), "C".into()],
            ..Default::default()
        };
        let bn = learn_structure(&data, &opts);
        assert_eq!(bn.node(0).name, "A");
        assert_eq!(bn.node(2).name, "C");
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let data = Dataset::new(vec![2], vec![]);
        learn_structure(&data, &LearnOptions::default());
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics_sharded() {
        let data = Dataset::new(vec![2], vec![]);
        learn_structure_sharded(&data, &LearnOptions::default(), &Scheduler::new(4));
    }
}
