//! The `.grid3` text format — three-phase network serialization.
//!
//! ```text
//! grid3 1
//! source3 2401.7 0 -1200.8 -2079.9 -1200.8 2079.9
//! bus3 0 0 0 0 0 0 0
//! bus3 1 160000 110000 120000 90000 120000 90000
//! branch3 0 1 0.1288 0.2682 0.040 0.120
//! ```
//!
//! * `grid3 <version>` — header, version 1.
//! * `source3 <re_a> <im_a> <re_b> <im_b> <re_c> <im_c>` — slack set.
//! * `bus3 <id> <p_a> <q_a> <p_b> <q_b> <p_c> <q_c>` — per-phase loads,
//!   W / var; ids dense `0..n`.
//! * `branch3 <from> <to> <r_self> <x_self> <r_mutual> <x_mutual>` —
//!   the symmetric coupled impedance matrix
//!   [`CMat3::coupled`](numc::CMat3::coupled). (Full 3×3 matrices are a
//!   documented format-v2 extension; everything this workspace generates
//!   is self/mutual symmetric.)
//! * `gen <bus> <p_watts> <v_set_volts> <q_min> <q_max>` — a balanced
//!   distributed generator, same record shape as the single-phase
//!   format: `p_gen` and the dispatched Q split equally across phases,
//!   the set-point regulates the mean phase magnitude.
//!
//! Blank lines and `#` comments are ignored. The records are scanned by
//! the `.grid` reader's scanner in its three-phase dialect (a malformed
//! field reads `missing field` or ``cannot parse `x` ``, as in `.grid`);
//! validation goes through [`ThreePhaseBuilder::build`].

use std::fmt::Write as _;

use numc::{c, CMat3, CVec3};

use crate::gridfile::{parse_records, records, Dialect, ParseError};
use crate::three_phase::{ThreePhaseBuilder, ThreePhaseNetwork};

/// Serialises a three-phase network to `.grid3` text.
///
/// Branch matrices are emitted in self/mutual form: the self term is the
/// mean of the diagonal, the mutual term the mean of the off-diagonals
/// (exact for everything built by this workspace's constructors).
pub fn write_grid3(net: &ThreePhaseNetwork) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# three-phase radial network ({} buses)", net.num_buses());
    let _ = writeln!(out, "grid3 1");
    let v = net.source_voltage();
    let _ = writeln!(
        out,
        "source3 {} {} {} {} {} {}",
        v.a.re, v.a.im, v.b.re, v.b.im, v.c.re, v.c.im
    );
    for (i, bus) in net.buses().iter().enumerate() {
        let s = bus.load;
        let _ = writeln!(
            out,
            "bus3 {i} {} {} {} {} {} {}",
            s.a.re, s.a.im, s.b.re, s.b.im, s.c.re, s.c.im
        );
    }
    for br in net.branches() {
        let z = br.z;
        let z_self = (z.m[0][0] + z.m[1][1] + z.m[2][2]) / 3.0;
        let z_mut = (z.m[0][1] + z.m[0][2] + z.m[1][0] + z.m[1][2] + z.m[2][0] + z.m[2][1]) / 6.0;
        let _ = writeln!(
            out,
            "branch3 {} {} {} {} {} {}",
            br.from, br.to, z_self.re, z_self.im, z_mut.re, z_mut.im
        );
    }
    for g in net.generators() {
        let _ = writeln!(out, "gen {} {} {} {} {}", g.bus, g.p_gen, g.v_set, g.q_min, g.q_max);
    }
    out
}

/// The three-phase `.grid3` dialect of the one record scanner.
const GRID3: Dialect<CVec3, CMat3> = Dialect {
    header: "grid3",
    source: "source3",
    bus: "bus3",
    branch: "branch3",
    phasor: (6, |v| CVec3::new(c(v[0], v[1]), c(v[2], v[3]), c(v[4], v[5]))),
    z: (4, |v| CMat3::coupled(c(v[0], v[1]), c(v[2], v[3]))),
    ties: false,
};

/// Whether `text` is `.grid3` text: its first header record is `grid3`
/// rather than `grid`. Text without either header is not.
pub fn is_grid3(text: &str) -> bool {
    let mut kinds = records(text).filter_map(|(_, line)| line.split_ascii_whitespace().next());
    kinds.find(|&k| k == "grid" || k == "grid3") == Some("grid3")
}

/// Parses `.grid3` text into a validated three-phase network.
pub fn parse_grid3(text: &str) -> Result<ThreePhaseNetwork, ParseError> {
    let raw = parse_records(text, &GRID3)?;
    let mut b = ThreePhaseBuilder::new(raw.source);
    for load in raw.loads {
        b.add_bus(load);
    }
    for (from, to, z) in raw.branches {
        b.connect(from, to, z);
    }
    for g in raw.gens {
        b.generator(g);
    }
    b.build().map_err(ParseError::Invalid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::three_phase::ieee13_unbalanced;

    #[test]
    fn roundtrip_gen_records() {
        let net = ieee13_unbalanced();
        let mut text = write_grid3(&net);
        text.push_str("gen 5 20000 2350 -9000 9000\n");
        let back = parse_grid3(&text).unwrap();
        assert_eq!(back.generators().len(), 1);
        let g = back.generators()[0];
        assert_eq!(g.bus, 5);
        assert_eq!((g.p_gen, g.v_set, g.q_min, g.q_max), (20000.0, 2350.0, -9000.0, 9000.0));
        // And it survives a second roundtrip via the writer.
        let again = parse_grid3(&write_grid3(&back)).unwrap();
        assert_eq!(again.generators(), back.generators());
    }

    #[test]
    fn hostile_gen_records_are_rejected_with_line_numbers() {
        let base = write_grid3(&ieee13_unbalanced());
        let lines = base.lines().count();
        for (extra, want) in [
            ("gen 5 1 2350 9000 -9000", "BadQLimits"),
            ("gen 5 1 NaN -9000 9000", "NonFinite"),
            ("gen 99 1 2350 -9000 9000", "Invalid"),
            ("gen 0 1 2350 -9000 9000", "Invalid"), // root bus
            ("gen 5 1 2350 -1 1\ngen 5 2 2350 -1 1", "DuplicateGenerator"),
        ] {
            let err = parse_grid3(&format!("{base}{extra}\n")).unwrap_err();
            let dbg = format!("{err:?}");
            assert!(dbg.starts_with(want), "{extra}: got {dbg}");
            match err {
                ParseError::BadQLimits(ln)
                | ParseError::NonFinite(ln)
                | ParseError::DuplicateGenerator(ln) => {
                    assert!(ln > lines, "line {ln} must point at the appended record");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn roundtrip_ieee13_unbalanced() {
        let net = ieee13_unbalanced();
        let text = write_grid3(&net);
        let back = parse_grid3(&text).unwrap();
        assert_eq!(back.num_buses(), net.num_buses());
        for (a, b) in back.buses().iter().zip(net.buses()) {
            assert!((a.load - b.load).abs_max() < 1e-9);
        }
        for (a, b) in back.branches().iter().zip(net.branches()) {
            assert_eq!(a.from, b.from);
            assert_eq!(a.to, b.to);
            // ieee13's matrices are exactly self/mutual symmetric.
            for r in 0..3 {
                for col in 0..3 {
                    assert!((a.z.m[r][col] - b.z.m[r][col]).abs() < 1e-12);
                }
            }
        }
        let sv = back.source_voltage();
        assert!((sv - net.source_voltage()).abs_max() < 1e-9);
    }

    #[test]
    fn header_and_structure_errors() {
        assert!(matches!(parse_grid3("bus3 0 0 0 0 0 0 0\n"), Err(ParseError::BadHeader)));
        assert!(matches!(
            parse_grid3("grid3 9\n"),
            Err(ParseError::BadVersion(_))
        ));
        assert!(matches!(
            parse_grid3("grid3 1\nbus3 0 0 0 0 0 0 0\n"),
            Err(ParseError::MissingSource)
        ));
        let bad_line = "grid3 1\nsource3 1 0 1 0 1 0\nbus3 0 x 0 0 0 0 0\n";
        assert!(matches!(parse_grid3(bad_line), Err(ParseError::BadLine(3, _))));
        // Ids read as in `.grid`.
        let bad_id = parse_grid3("grid3 1\nsource3 1 0 1 0 1 0\nbus3 x 0 0 0 0 0 0\n");
        assert_eq!(bad_id.unwrap_err(), ParseError::BadLine(3, "cannot parse `x`".into()));
        let short = parse_grid3("grid3 1\nsource3 1 0 1 0 1 0\nbus3\n");
        assert_eq!(short.unwrap_err(), ParseError::BadLine(3, "missing field".into()));
    }

    #[test]
    fn the_header_record_names_the_dialect() {
        assert!(is_grid3(&write_grid3(&ieee13_unbalanced())));
        assert!(!is_grid3(&crate::gridfile::write_grid(&crate::ieee::ieee13())));
        assert!(is_grid3("# comment\nsource3 1 0 1 0 1 0\ngrid3 1\n"));
        assert!(!is_grid3("bus3 0 0 0 0 0 0 0\n"), "no header");
    }

    #[test]
    fn hardening_mirrors_the_single_phase_parser() {
        let head = "grid3 1\nsource3 1 0 1 0 1 0\nbus3 0 0 0 0 0 0 0\nbus3 1 0 0 0 0 0 0\n";
        let nan = format!("{head}branch3 0 1 NaN 0 0 0\n");
        assert!(matches!(parse_grid3(&nan), Err(ParseError::NonFinite(5))));
        let inf_load = "grid3 1\nsource3 1 0 1 0 1 0\nbus3 0 0 inf 0 0 0 0\n";
        assert!(matches!(parse_grid3(inf_load), Err(ParseError::NonFinite(3))));
        let loop_ = format!("{head}branch3 1 1 1 0 0 0\n");
        assert!(matches!(parse_grid3(&loop_), Err(ParseError::SelfLoop(5))));
        let dup = format!("{head}branch3 0 1 1 0 0 0\nbranch3 1 0 1 0 0 0\n");
        assert!(matches!(parse_grid3(&dup), Err(ParseError::DuplicateEdge(6))));
    }

    #[test]
    fn single_phase_grid_is_rejected_here() {
        let err = parse_grid3("grid 1\nsource 100 0\nbus 0 0 0\n").unwrap_err();
        assert!(matches!(err, ParseError::BadLine(1, _)));
    }
}
