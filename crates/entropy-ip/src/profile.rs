//! Model export as a line-oriented text profile.
//!
//! The original Entropy/IP tool saved analysis profiles so the web UI
//! could reload them. Here the persisted format is the binary `.eipm`
//! container ([`crate::store`]); the text profile is write-only. It
//! spells out every part of an [`IpModel`] bit for bit, so two models
//! are equal exactly when their exports are — `eip export` prints it,
//! and the tests use it as their comparison key:
//!
//! ```text
//! entropy-ip-profile v1
//! width 32
//! addresses 1000
//! entropy <32 hex-float values>
//! acr <32 hex-float values>
//! segments <n>
//! segment <label> <start> <end>
//! values <label> <count> <total>
//! v <code> exact <hex-value> <count> <freq>
//! v <code> range <hex-lo> <hex-hi> <count> <freq>
//! bn <n>
//! node <i> <name> <cardinality> parents [p...]
//! cpt <hex-float probabilities, one config row per line>
//! end
//! ```
//!
//! Floats are written as hex floats (`f64::to_bits` in hex), so equal
//! text means bit-identical floats.

use crate::mining::ValueKind;
use crate::model::IpModel;

/// Serializes a model to the profile text format.
pub fn export(model: &IpModel) -> String {
    let mut out = String::new();
    let a = model.analysis();
    out.push_str("entropy-ip-profile v1\n");
    out.push_str(&format!("width {}\n", a.width));
    out.push_str(&format!("addresses {}\n", a.num_addresses));
    out.push_str("entropy");
    for h in &a.entropy {
        out.push_str(&format!(" {:016x}", h.to_bits()));
    }
    out.push('\n');
    out.push_str("acr");
    for h in &a.acr {
        out.push_str(&format!(" {:016x}", h.to_bits()));
    }
    out.push('\n');
    out.push_str(&format!("segments {}\n", a.segments.len()));
    for s in &a.segments {
        out.push_str(&format!("segment {} {} {}\n", s.label, s.start, s.end));
    }
    for m in model.mined() {
        out.push_str(&format!(
            "values {} {} {}\n",
            m.segment.label,
            m.values.len(),
            m.total
        ));
        for v in &m.values {
            match v.kind {
                ValueKind::Exact(x) => out.push_str(&format!(
                    "v {} exact {:x} {} {:016x}\n",
                    v.code,
                    x,
                    v.count,
                    v.freq.to_bits()
                )),
                ValueKind::Range { lo, hi } => out.push_str(&format!(
                    "v {} range {:x} {:x} {} {:016x}\n",
                    v.code,
                    lo,
                    hi,
                    v.count,
                    v.freq.to_bits()
                )),
            }
        }
    }
    let bn = model.bn();
    out.push_str(&format!("bn {}\n", bn.num_vars()));
    for (i, node) in bn.nodes().iter().enumerate() {
        out.push_str(&format!(
            "node {} {} {} parents",
            i, node.name, node.cardinality
        ));
        for &p in &node.parents {
            out.push_str(&format!(" {p}"));
        }
        out.push('\n');
        out.push_str("cpt");
        for p in node.cpt.flat() {
            out.push_str(&format!(" {:016x}", p.to_bits()));
        }
        out.push('\n');
    }
    out.push_str("end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EntropyIp;
    use eip_addr::{AddressSet, Ip6};

    fn model() -> IpModel {
        let set: AddressSet = (0..800u128)
            .map(|i| Ip6((0x2001_0db8u128 << 96) | ((i % 8) << 80) | (i % 100)))
            .collect();
        EntropyIp::new().analyze(&set).unwrap()
    }

    #[test]
    fn export_is_line_oriented_and_versioned() {
        let text = export(&model());
        assert!(text.starts_with("entropy-ip-profile v1\n"));
        assert!(text.ends_with("end\n"));
    }
}
