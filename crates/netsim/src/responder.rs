//! The simulated probe responder: ICMPv6 ping + reverse DNS oracle.
//!
//! Stands in for the paper's active measurement (§5.5): the paper
//! pinged 1M generated candidates and looked up reverse DNS. Our
//! responder holds the ground-truth active population and answers
//! probes deterministically, with the fault modes the paper itself
//! warns about:
//!
//! * **probe loss** — "we might get a number of false negatives due
//!   to … networks blocking our ping requests";
//! * **prefix echo** — "part of the positive responses … might have
//!   been generated automatically (e.g. replying to any ping request
//!   destined to a certain prefix, causing false positives)".
//!
//! Both are hash-deterministic in the probed address, so a repeated
//! probe gives a repeated answer (as a real firewall would), and
//! whole experiments are reproducible from the seed.

use std::sync::atomic::{AtomicU64, Ordering};

use eip_addr::set::SplitMix64;
use eip_addr::{AddressSet, Ip6, Prefix};

/// Fault-injection settings.
#[derive(Clone, Debug, Default)]
pub struct FaultConfig {
    /// Probability that a probe to a genuinely active host goes
    /// unanswered.
    pub probe_loss: f64,
    /// Prefixes that answer *every* probe (false-positive echo).
    pub echo_prefixes: Vec<Prefix>,
    /// Seed for the deterministic per-address fault decisions.
    pub seed: u64,
}

/// The measurement oracle for one simulated network.
///
/// Probing is `&self`. One responder serves every shard of a
/// parallel scan
/// ([`evaluate_scan_sharded`](crate::eval::evaluate_scan_sharded))
/// without the shards touching the probe counter: each shard reads the
/// active and rDNS sets through its own merge cursors and asks the
/// fault verdict [`Responder::ping`] uses, a pure function of the
/// address, and the scan counts all its probes with one update per
/// call.
#[derive(Debug)]
pub struct Responder {
    active: AddressSet,
    rdns: AddressSet,
    faults: FaultConfig,
    probes: AtomicU64,
}

impl Clone for Responder {
    fn clone(&self) -> Self {
        Responder {
            active: self.active.clone(),
            rdns: self.rdns.clone(),
            faults: self.faults.clone(),
            probes: AtomicU64::new(self.probes.load(Ordering::Relaxed)),
        }
    }
}

impl Responder {
    /// A perfect responder over a ground-truth population, with a
    /// fraction of hosts carrying reverse-DNS records (selected
    /// deterministically from `seed`).
    pub fn new(active: AddressSet, rdns_fraction: f64, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let k = ((active.len() as f64) * rdns_fraction).round() as usize;
        let (rdns, _) = active.split_sample(k, &mut rng);
        Responder {
            active,
            rdns,
            faults: FaultConfig::default(),
            probes: AtomicU64::new(0),
        }
    }

    /// Adds fault injection.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// The ground-truth active population.
    pub fn active(&self) -> &AddressSet {
        &self.active
    }

    /// Number of probes served so far: one per [`Responder::ping`],
    /// and one per candidate of each scan evaluation (counted once
    /// per evaluation, when it starts).
    pub fn probes_sent(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Adds `n` probes to [`Responder::probes_sent`].
    pub(crate) fn count_probes(&self, n: usize) {
        self.probes.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// The hosts with a genuine reverse-DNS record.
    pub(crate) fn rdns_hosts(&self) -> &AddressSet {
        &self.rdns
    }

    /// ICMPv6 echo: does this address answer a ping?
    pub fn ping(&self, ip: Ip6) -> bool {
        self.count_probes(1);
        self.verdict(ip, self.active.contains(ip))
    }

    /// The fault rules of one probe, given whether `ip` is in the
    /// active population: an echo prefix answers everything, an
    /// inactive host never answers, and an active one answers unless
    /// the hash-deterministic probe loss drops it (same address, same
    /// verdict). Does not count the probe.
    pub(crate) fn verdict(&self, ip: Ip6, active: bool) -> bool {
        if self.faults.echo_prefixes.iter().any(|p| p.contains(ip)) {
            return true;
        }
        if !active {
            return false;
        }
        if self.faults.probe_loss > 0.0 {
            let mut h = SplitMix64::new(
                self.faults.seed ^ (ip.value() as u64) ^ ((ip.value() >> 64) as u64),
            );
            let u = h.next_u64() as f64 / u64::MAX as f64;
            if u < self.faults.probe_loss {
                return false;
            }
        }
        true
    }

    /// Reverse DNS: does this address have a (non-generated) PTR
    /// record? The paper "manually removed records that appeared
    /// dynamically generated"; our rDNS set contains only genuine
    /// records by construction.
    pub fn rdns(&self, ip: Ip6) -> bool {
        self.rdns.contains(ip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn actives() -> AddressSet {
        (0..1000u128)
            .map(|i| Ip6((0x2001_0db8u128 << 96) | i))
            .collect()
    }

    #[test]
    fn perfect_responder_answers_exactly_actives() {
        let r = Responder::new(actives(), 0.5, 1);
        assert!(r.ping(Ip6((0x2001_0db8u128 << 96) | 5)));
        assert!(!r.ping(Ip6((0x2001_0db8u128 << 96) | 5000)));
        assert_eq!(r.probes_sent(), 2);
    }

    #[test]
    fn rdns_fraction_is_respected_and_subset() {
        let r = Responder::new(actives(), 0.3, 2);
        let hits = (0..1000u128)
            .filter(|&i| r.rdns(Ip6((0x2001_0db8u128 << 96) | i)))
            .count();
        assert!((hits as f64 - 300.0).abs() < 20.0, "{hits}");
        // rDNS implies active.
        for i in 0..1000u128 {
            let ip = Ip6((0x2001_0db8u128 << 96) | i);
            if r.rdns(ip) {
                assert!(r.active().contains(ip));
            }
        }
    }

    #[test]
    fn probe_loss_is_deterministic_and_roughly_calibrated() {
        let faults = FaultConfig {
            probe_loss: 0.2,
            echo_prefixes: vec![],
            seed: 3,
        };
        let r = Responder::new(actives(), 0.0, 1).with_faults(faults);
        let mut answered = 0;
        for i in 0..1000u128 {
            let ip = Ip6((0x2001_0db8u128 << 96) | i);
            let first = r.ping(ip);
            assert_eq!(first, r.ping(ip), "non-deterministic verdict for {ip}");
            if first {
                answered += 1;
            }
        }
        assert!((answered as f64 - 800.0).abs() < 40.0, "{answered}");
    }

    #[test]
    fn echo_prefix_answers_everything() {
        let faults = FaultConfig {
            probe_loss: 0.0,
            echo_prefixes: vec!["2001:db8:ffff::/48".parse().unwrap()],
            seed: 0,
        };
        let r = Responder::new(actives(), 0.0, 1).with_faults(faults);
        assert!(r.ping("2001:db8:ffff::1234".parse().unwrap()));
        assert!(!r.ping("2001:db8:fffe::1234".parse().unwrap()));
    }
}
