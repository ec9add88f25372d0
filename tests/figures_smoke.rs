//! Integration: every renderer produces plausible output on real
//! models (the figure-generating paths of the repro harness).

use eip_addr::Ip6;
use eip_netsim::dataset;
use eip_stats::WindowGrid;
use eip_viz::{
    bn_to_dot, render_browser, render_entropy_ascii, render_entropy_svg, render_window_ascii,
    render_window_svg,
};
use entropy_ip::{Browser, EntropyIp};

fn model(id: &str) -> (eip_addr::AddressSet, entropy_ip::IpModel) {
    let set = dataset(id).unwrap().population_sized(3_000, 9);
    let model = EntropyIp::new().analyze(&set).unwrap();
    (set, model)
}

#[test]
fn entropy_panels_render_for_every_family() {
    for id in ["S1", "S3", "R1", "R4", "C1", "C3", "AT"] {
        let (_, m) = model(id);
        let ascii = render_entropy_ascii(m.analysis(), 10);
        assert!(ascii.contains("H_S ="), "{id}");
        assert!(ascii.lines().count() > 10, "{id}");
        let svg = render_entropy_svg(m.analysis(), 640, 240);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"), "{id}");
    }
}

#[test]
fn browser_renders_and_reacts() {
    let (_, m) = model("C1");
    let mut b = Browser::new(&m);
    let before = render_browser(&b.distributions(), 0.001);
    assert!(before.contains("segment A"));
    // Click the first segment's first code.
    let label = m.mined()[0].segment.label.clone();
    let code = m.mined()[0].values[0].code.clone();
    assert!(b.select(&label, &code));
    let after = render_browser(&b.distributions(), 0.001);
    assert!(after.contains("[*]"), "observed flag missing");
}

#[test]
fn dot_export_contains_every_segment() {
    let (_, m) = model("S1");
    let dot = bn_to_dot(m.bn(), None);
    for seg in &m.analysis().segments {
        assert!(
            dot.contains(&format!("\"{}\"", seg.label)),
            "{} missing",
            seg.label
        );
    }
    // Each learned edge appears.
    assert_eq!(dot.matches(" -> ").count(), m.bn().edges().len());
}

#[test]
fn window_grid_renders_both_ways() {
    let addrs: Vec<Ip6> = dataset("S1")
        .unwrap()
        .population_sized(1_000, 9)
        .iter()
        .collect();
    let grid = WindowGrid::compute(&addrs);
    let ascii = render_window_ascii(&grid);
    assert_eq!(ascii.lines().filter(|l| l.contains('|')).count(), 32);
    let svg = render_window_svg(&grid, 6);
    assert!(svg.matches("<rect").count() > 500);
}

#[test]
fn profile_round_trip_preserves_rendering() {
    let (_, m) = model("R1");
    let bytes = entropy_ip::store::save(&m, 0);
    let (back, _) = entropy_ip::store::load(&bytes).unwrap();
    assert_eq!(
        render_entropy_ascii(m.analysis(), 10),
        render_entropy_ascii(back.analysis(), 10)
    );
    assert_eq!(bn_to_dot(m.bn(), None), bn_to_dot(back.bn(), None));
}
