//! Boundary robustness of the line protocol: random request lines
//! built from a fixed vocabulary — command words, network ids, counts
//! at and past the integer limits, good and bad seeds, evidence
//! pairs, addresses, blank lines — go straight into
//! [`Service::handle_line`]. Every response must be a well-formed
//! block (`OK …` or `ERR …`, ending in a lone `.`), and no line may
//! panic the service.

mod common;

use eip_addr::set::SplitMix64;
use eip_serve::{ConnState, ModelStore, Registry, Service};

/// A token class: plausible values, then hostile ones.
type Class = (&'static [&'static str], &'static [&'static str]);

const COMMANDS: Class = (
    &["BROWSE", "GEN", "PREDICT64", "STATS", "QUIT"],
    &["gen", "Browse", "predict64", "HELLO", "QUIT!"],
);
const NETWORKS: Class = (
    &["net1", "net2"],
    &["missing", "../net1", "net1.eipm", "a/b", ".", "NET1"],
);
const COUNTS: Class = (
    &["0", "3", "17"],
    &[
        "-1",
        "18446744073709551616",
        "1000001",
        "100001",
        "x",
        "3.5",
    ],
);
const SEEDS: Class = (
    &["seed=7", "seed=0", "seed=18446744073709551615"],
    &["seed=18446744073709551616", "seed=-1", "seed=", "seed=x"],
);
const EVIDENCE: Class = (
    &["A=A1", "B=B1", "B=B2", "C=C1"],
    &["A=A99", "Z=Z1", "A=", "=A1", "=", "A", "A=A1=A1"],
);
const ADDRESSES: Class = (
    &[
        "2001:db8::1",
        "3001:db8:8::",
        "::",
        "20010db8000000000000000000000001",
    ],
    &["2001:db8::g", "1.2.3.4", "2001:db8::1/64", ":::"],
);
const SEGMENTS: Class = (&["A", "B", "C"], &["Z", "a", "AA"]);
const BLANKS: &[&str] = &["", " ", "\t", "  \t  "];

/// A plausible value half the time, a hostile one otherwise.
fn pick(rng: &mut SplitMix64, (good, bad): Class) -> &'static str {
    let words = if rng.below(2) == 0 { good } else { bad };
    words[rng.below(words.len() as u64) as usize]
}

/// One request line: mostly a command with operands in order,
/// sometimes tokens from the whole vocabulary in any order, now and
/// then an empty or whitespace-only line.
fn random_line(rng: &mut SplitMix64) -> String {
    let sep = if rng.below(8) == 0 { "\t" } else { " " };
    let mut toks: Vec<&str> = Vec::new();
    match rng.below(8) {
        0 => {
            let all = [
                COMMANDS, NETWORKS, COUNTS, SEEDS, EVIDENCE, ADDRESSES, SEGMENTS,
            ];
            for _ in 0..1 + rng.below(6) {
                let class = all[rng.below(all.len() as u64) as usize];
                toks.push(pick(rng, class));
            }
        }
        1 => return BLANKS[rng.below(BLANKS.len() as u64) as usize].to_string(),
        _ => {
            let cmd = pick(rng, COMMANDS);
            toks.push(cmd);
            if rng.below(8) != 0 {
                toks.push(pick(rng, NETWORKS));
            }
            match cmd.to_ascii_uppercase().as_str() {
                "GEN" => {
                    if rng.below(8) != 0 {
                        toks.push(pick(rng, COUNTS));
                    }
                    for _ in 0..rng.below(4) {
                        let class = if rng.below(2) == 0 { SEEDS } else { EVIDENCE };
                        toks.push(pick(rng, class));
                    }
                }
                "BROWSE" => toks.push(pick(rng, SEGMENTS)),
                "PREDICT64" => toks.push(pick(rng, ADDRESSES)),
                _ => {}
            }
            // Now and then a stray trailing token.
            if rng.below(8) == 0 {
                toks.push(pick(rng, EVIDENCE));
            }
        }
    }
    let line = toks.join(sep);
    if rng.below(10) == 0 {
        format!("  {line}  ")
    } else {
        line
    }
}

#[test]
fn random_lines_always_get_a_well_formed_block() {
    let dir = common::scratch("protocol_fuzz");
    let store = ModelStore::open(&dir).unwrap();
    common::train_into(&store, "net1", 0);
    common::train_into(&store, "net2", 7);
    let service = Service::new(Registry::new(store, 1), 5);
    let mut rng = SplitMix64::new(0x5eed_f00d);
    let mut conn = ConnState::new(1);
    let (mut ok, mut err) = (0usize, 0usize);
    for i in 0..20_000 {
        let line = random_line(&mut rng);
        let (block, _close) = service.handle_line(&line, &mut conn);
        if block.starts_with("OK") {
            ok += 1;
        } else if block.starts_with("ERR ") {
            err += 1;
        } else {
            panic!("request {i} {line:?}: response {block:?} is neither OK nor ERR");
        }
        assert!(
            block.ends_with("\n.\n"),
            "request {i} {line:?}: response {block:?} lacks the terminating '.'"
        );
    }
    // The vocabulary must reach both outcomes, or the sweep tests
    // only one of them.
    assert!(ok > 100 && err > 100, "ok {ok}, err {err}");
    std::fs::remove_dir_all(&dir).ok();
}
