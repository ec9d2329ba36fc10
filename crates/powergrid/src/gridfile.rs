//! The `.grid` text format — a minimal, dependency-free serialization of
//! radial and weakly-meshed networks for the CLI and examples.
//!
//! ```text
//! # comment
//! grid 1
//! source 7200 0
//! bus 0 0 0
//! bus 1 50000 20000
//! branch 0 1 0.10 0.06
//! tie 1 0 0.20 0.12 open
//! gen 1 40000 7100 -30000 30000
//! ```
//!
//! * `grid <version>` — header, version 1.
//! * `source <re> <im>` — slack voltage, volts.
//! * `bus <id> <p_watts> <q_vars>` — ids must be dense `0..n` (any order).
//! * `branch <from> <to> <r_ohms> <x_ohms>`.
//! * `tie <from> <to> <r_ohms> <x_ohms> [open|closed]` — a tie switch
//!   (default `closed`); closed ties may form loops.
//! * `gen <bus> <p_watts> <v_set_volts> <q_min_vars> <q_max_vars>` — a
//!   PV-bus generator record.
//!
//! Blank lines and `#` comments are ignored. [`parse_grid`] reads
//! strictly radial files (no `tie`/`gen` records) and validates through
//! [`NetworkBuilder::build`]; [`parse_grid_meshed`] additionally accepts
//! tie switches and generators and validates through
//! [`MeshedNetworkBuilder::build`], so a parsed file is always a
//! well-formed network either way.

use std::fmt::Write as _;

use numc::{c, Complex};

use crate::mesh::{MeshError, MeshedNetwork, MeshedNetworkBuilder, PvBus};
use crate::network::{NetworkBuilder, NetworkError, RadialNetwork};

/// Why parsing failed.
#[derive(Clone, Debug, PartialEq)]
pub enum ParseError {
    /// Missing or malformed `grid` header.
    BadHeader,
    /// Unsupported format version.
    BadVersion(String),
    /// A line could not be parsed; carries (1-based line number, reason).
    BadLine(usize, String),
    /// Bus ids were not dense `0..n`.
    SparseBusIds,
    /// No `source` line.
    MissingSource,
    /// A numeric field parsed but is NaN or infinite (1-based line
    /// number). `f64::from_str` happily accepts `NaN` and `inf`, which
    /// would otherwise poison every downstream sweep.
    NonFinite(usize),
    /// A branch or tie connects a bus to itself (1-based line number).
    SelfLoop(usize),
    /// The same pair of buses is connected twice (1-based line number
    /// of the second occurrence), in either orientation.
    DuplicateEdge(usize),
    /// A tie switch duplicates an existing branch or tie (1-based line
    /// number of the tie), in either orientation.
    TieDuplicatesEdge(usize),
    /// Two `gen` records name the same bus (1-based line number of the
    /// second).
    DuplicateGenerator(usize),
    /// A generator's reactive limits are inverted, `q_min > q_max`
    /// (1-based line number).
    BadQLimits(usize),
    /// The file contains `tie`/`gen` records, which the strictly radial
    /// reader ([`parse_grid`]) cannot represent — use
    /// [`parse_grid_meshed`].
    MeshedGrid,
    /// The parsed network failed radiality validation.
    Invalid(NetworkError),
    /// The parsed network failed meshed validation (bad generator bus,
    /// disconnected component, ...).
    InvalidMesh(MeshError),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader => write!(f, "missing `grid <version>` header"),
            ParseError::BadVersion(v) => write!(f, "unsupported grid version {v}"),
            ParseError::BadLine(n, why) => write!(f, "line {n}: {why}"),
            ParseError::SparseBusIds => write!(f, "bus ids must be dense 0..n"),
            ParseError::MissingSource => write!(f, "missing `source` line"),
            ParseError::NonFinite(n) => write!(f, "line {n}: numbers must be finite"),
            ParseError::SelfLoop(n) => write!(f, "line {n}: edge connects a bus to itself"),
            ParseError::DuplicateEdge(n) => write!(f, "line {n}: duplicate branch"),
            ParseError::TieDuplicatesEdge(n) => {
                write!(f, "line {n}: tie switch duplicates an existing edge")
            }
            ParseError::DuplicateGenerator(n) => {
                write!(f, "line {n}: bus already has a generator")
            }
            ParseError::BadQLimits(n) => write!(f, "line {n}: generator has q_min > q_max"),
            ParseError::MeshedGrid => {
                write!(f, "file has tie/gen records; use the meshed reader")
            }
            ParseError::Invalid(e) => write!(f, "invalid network: {e}"),
            ParseError::InvalidMesh(e) => write!(f, "invalid meshed network: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serialises a radial network to `.grid` text.
pub fn write_grid(net: &RadialNetwork) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# radial distribution network ({} buses)", net.num_buses());
    let _ = writeln!(out, "grid 1");
    let v = net.source_voltage();
    let _ = writeln!(out, "source {} {}", v.re, v.im);
    for (i, bus) in net.buses().iter().enumerate() {
        let _ = writeln!(out, "bus {i} {} {}", bus.load.re, bus.load.im);
    }
    for br in net.branches() {
        let _ = writeln!(out, "branch {} {} {} {}", br.from, br.to, br.z.re, br.z.im);
    }
    out
}

/// Serialises a meshed network to `.grid` text: the spanning tree as
/// `branch` records, each break point as a closed `tie`, open ties
/// verbatim, and the generator records.
pub fn write_grid_meshed(net: &MeshedNetwork) -> String {
    let tree = net.tree();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# weakly-meshed distribution network ({} buses, {} loops, {} generators)",
        tree.num_buses(),
        net.num_loops(),
        net.generators().len()
    );
    let _ = writeln!(out, "grid 1");
    let v = tree.source_voltage();
    let _ = writeln!(out, "source {} {}", v.re, v.im);
    for (i, bus) in tree.buses().iter().enumerate() {
        let _ = writeln!(out, "bus {i} {} {}", bus.load.re, bus.load.im);
    }
    for br in tree.branches() {
        let _ = writeln!(out, "branch {} {} {} {}", br.from, br.to, br.z.re, br.z.im);
    }
    for bp in net.break_points() {
        let _ = writeln!(out, "tie {} {} {} {} closed", bp.a, bp.b, bp.z.re, bp.z.im);
    }
    for t in net.ties().iter().filter(|t| !t.closed) {
        let _ = writeln!(out, "tie {} {} {} {} open", t.from, t.to, t.z.re, t.z.im);
    }
    for g in net.generators() {
        let _ = writeln!(out, "gen {} {} {} {} {}", g.bus, g.p_gen, g.v_set, g.q_min, g.q_max);
    }
    out
}

/// What tells the `.grid` and `.grid3` dialects apart to the one record
/// scanner, [`parse_records`]: the header and record names, how many
/// numbers one load or source phasor (2 or 6) and one impedance (2 or 4)
/// take and what they make, and whether `tie` records exist. The `gen`
/// record is the same in both.
pub(crate) struct Dialect<P, Z> {
    pub(crate) header: &'static str,
    pub(crate) source: &'static str,
    pub(crate) bus: &'static str,
    pub(crate) branch: &'static str,
    pub(crate) phasor: (usize, fn(&[f64]) -> P),
    pub(crate) z: (usize, fn(&[f64]) -> Z),
    pub(crate) ties: bool,
}

/// The single-phase `.grid` dialect.
const GRID: Dialect<Complex, Complex> = Dialect {
    header: "grid",
    source: "source",
    bus: "bus",
    branch: "branch",
    phasor: (2, |v| c(v[0], v[1])),
    z: (2, |v| c(v[0], v[1])),
    ties: true,
};

/// Everything a file can carry, scanned with line-level validation but
/// not yet graph-validated.
pub(crate) struct RawGrid<P, Z> {
    pub(crate) source: P,
    /// Loads by (dense) bus id.
    pub(crate) loads: Vec<P>,
    pub(crate) branches: Vec<(usize, usize, Z)>,
    /// (from, to, z, closed).
    pub(crate) ties: Vec<(usize, usize, Z, bool)>,
    pub(crate) gens: Vec<PvBus>,
}

/// The non-blank lines of `text` with comments cut, each with its
/// 0-based line number.
pub(crate) fn records(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let lines = text.lines().map(|raw| raw.split('#').next().unwrap_or("").trim());
    lines.enumerate().filter(|(_, line)| !line.is_empty())
}

/// Scans the records of a file in dialect `d`.
pub(crate) fn parse_records<P: Clone, Z>(
    text: &str,
    d: &Dialect<P, Z>,
) -> Result<RawGrid<P, Z>, ParseError> {
    let mut source = None;
    let mut buses: Vec<(usize, P)> = Vec::new();
    let mut branches: Vec<(usize, usize, Z)> = Vec::new();
    let mut ties: Vec<(usize, usize, Z, bool)> = Vec::new();
    let mut gens: Vec<PvBus> = Vec::new();
    let mut edges: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
    let mut gen_buses: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let mut saw_header = false;

    for (ln, line) in records(text) {
        let mut tok = line.split_ascii_whitespace();
        let kind = tok.next().expect("non-empty line has a token");
        let bad = |why: &str| ParseError::BadLine(ln + 1, why.to_string());
        let id = |tok: &mut Tokens<'_>| parse_tok::<usize>(tok).map_err(|w| bad(&w));
        let phasor = |tok: &mut Tokens<'_>| numbers(tok, d.phasor.0, ln).map(|v| (d.phasor.1)(&v));
        let impedance = |tok: &mut Tokens<'_>| numbers(tok, d.z.0, ln).map(|v| (d.z.1)(&v));

        match kind {
            k if k == d.header => {
                let ver = tok.next().ok_or(ParseError::BadHeader)?;
                if ver != "1" {
                    return Err(ParseError::BadVersion(ver.to_string()));
                }
                saw_header = true;
            }
            k if k == d.source => source = Some(phasor(&mut tok)?),
            k if k == d.bus => {
                let id = id(&mut tok)?;
                buses.push((id, phasor(&mut tok)?));
            }
            k if k == d.branch => {
                let (from, to) = (id(&mut tok)?, id(&mut tok)?);
                let z = impedance(&mut tok)?;
                if from == to {
                    return Err(ParseError::SelfLoop(ln + 1));
                }
                if !edges.insert((from.min(to), from.max(to))) {
                    return Err(ParseError::DuplicateEdge(ln + 1));
                }
                branches.push((from, to, z));
            }
            "tie" if d.ties => {
                let (from, to) = (id(&mut tok)?, id(&mut tok)?);
                let z = impedance(&mut tok)?;
                let closed = match tok.next() {
                    None | Some("closed") => true,
                    Some("open") => false,
                    Some(other) => {
                        return Err(bad(&format!("tie state must be open|closed, got `{other}`")))
                    }
                };
                if from == to {
                    return Err(ParseError::SelfLoop(ln + 1));
                }
                if !edges.insert((from.min(to), from.max(to))) {
                    return Err(ParseError::TieDuplicatesEdge(ln + 1));
                }
                ties.push((from, to, z, closed));
            }
            "gen" => {
                let bus = id(&mut tok)?;
                let [p_gen, v_set, q_min, q_max, ..] = numbers(&mut tok, 4, ln)?;
                if q_min > q_max {
                    return Err(ParseError::BadQLimits(ln + 1));
                }
                if !gen_buses.insert(bus) {
                    return Err(ParseError::DuplicateGenerator(ln + 1));
                }
                gens.push(PvBus { bus, p_gen, v_set, q_min, q_max });
            }
            other => return Err(bad(&format!("unknown directive `{other}`"))),
        }
        if tok.next().is_some() {
            return Err(bad("trailing tokens"));
        }
    }

    if !saw_header {
        return Err(ParseError::BadHeader);
    }
    let source = source.ok_or(ParseError::MissingSource)?;

    // Bus ids must be dense 0..n (order in the file is free).
    let n = buses.len();
    let mut loads = vec![None; n];
    for (id, s) in buses {
        if id >= n || loads[id].is_some() {
            return Err(ParseError::SparseBusIds);
        }
        loads[id] = Some(s);
    }
    let loads = loads.into_iter().map(|l| l.expect("dense check guarantees presence")).collect();

    Ok(RawGrid { source, loads, branches, ties, gens })
}

/// Parses `.grid` text into a validated radial network. Files carrying
/// `tie`/`gen` records are rejected with [`ParseError::MeshedGrid`] —
/// callers that can handle them use [`parse_grid_meshed`].
pub fn parse_grid(text: &str) -> Result<RadialNetwork, ParseError> {
    let raw = parse_records(text, &GRID)?;
    if !raw.ties.is_empty() || !raw.gens.is_empty() {
        return Err(ParseError::MeshedGrid);
    }
    let mut b = NetworkBuilder::with_capacity(raw.source, raw.loads.len());
    for load in raw.loads {
        b.add_bus(load);
    }
    for (from, to, z) in raw.branches {
        b.connect(from, to, z);
    }
    b.build().map_err(ParseError::Invalid)
}

/// Parses `.grid` text into a validated meshed network. A strictly
/// radial file (no `tie`/`gen` records, branches forming a tree) parses
/// into a [`MeshedNetwork`] that [`MeshedNetwork::is_plain_radial`],
/// whose spanning tree is branch-for-branch the [`parse_grid`] result.
pub fn parse_grid_meshed(text: &str) -> Result<MeshedNetwork, ParseError> {
    let raw = parse_records(text, &GRID)?;
    // Surplus branch records (loops among `branch` lines) are *not*
    // silently opened: a radial section that declares a loop is a data
    // error, and `tie` is the record that says "this edge closes a
    // loop". Detect it through the same branch-count arithmetic the
    // radial reader uses.
    let n = raw.loads.len();
    if n > 0 && raw.branches.len() != n - 1 {
        return Err(ParseError::Invalid(NetworkError::WrongBranchCount {
            got: raw.branches.len(),
            want: n - 1,
        }));
    }
    let mut b = MeshedNetworkBuilder::new(raw.source);
    for load in raw.loads {
        b.add_bus(load);
    }
    for (from, to, z) in raw.branches {
        b.connect(from, to, z);
    }
    for (from, to, z, closed) in raw.ties {
        b.tie(from, to, z, closed);
    }
    for g in raw.gens {
        b.generator(g);
    }
    b.build().map_err(|e| match e {
        MeshError::Network(ne) => ParseError::Invalid(ne),
        other => ParseError::InvalidMesh(other),
    })
}

type Tokens<'a> = std::str::SplitAsciiWhitespace<'a>;

fn parse_tok<T: std::str::FromStr>(tok: &mut Tokens<'_>) -> Result<T, String> {
    let s = tok.next().ok_or_else(|| "missing field".to_string())?;
    s.parse().map_err(|_| format!("cannot parse `{s}`"))
}

/// The next `k` (at most 6) numbers of the record on line `ln`
/// (0-based), rejected unless finite.
fn numbers(tok: &mut Tokens<'_>, k: usize, ln: usize) -> Result<[f64; 6], ParseError> {
    let mut v = [0.0f64; 6];
    for x in &mut v[..k] {
        *x = parse_tok(tok).map_err(|w| ParseError::BadLine(ln + 1, w))?;
    }
    if v.iter().all(|x| x.is_finite()) {
        Ok(v)
    } else {
        Err(ParseError::NonFinite(ln + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{balanced_binary, GenSpec};
    use crate::ieee::{ieee123_dg, ieee13};
    use rng::rngs::StdRng;
    use rng::SeedableRng;

    #[test]
    fn roundtrip_small_network() {
        let net = ieee13();
        let text = write_grid(&net);
        let back = parse_grid(&text).unwrap();
        assert_eq!(back.num_buses(), net.num_buses());
        assert_eq!(back.source_voltage(), net.source_voltage());
        for (a, b) in back.buses().iter().zip(net.buses()) {
            assert_eq!(a, b);
        }
        for (a, b) in back.branches().iter().zip(net.branches()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn roundtrip_generated_network() {
        let mut rng = StdRng::seed_from_u64(7);
        let net = balanced_binary(257, &GenSpec::default(), &mut rng);
        let back = parse_grid(&write_grid(&net)).unwrap();
        assert_eq!(back.num_buses(), 257);
        assert_eq!(back.total_load(), net.total_load());
    }

    #[test]
    fn roundtrip_meshed_network() {
        let net = ieee123_dg();
        let text = write_grid_meshed(&net);
        let back = parse_grid_meshed(&text).unwrap();
        assert_eq!(back.tree().num_buses(), net.tree().num_buses());
        assert_eq!(back.num_loops(), net.num_loops());
        assert_eq!(back.break_points(), net.break_points());
        assert_eq!(back.generators(), net.generators());
        for (a, b) in back.tree().branches().iter().zip(net.tree().branches()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn meshed_reader_accepts_plain_radial_files_identically() {
        let net = ieee13();
        let text = write_grid(&net);
        let mesh = parse_grid_meshed(&text).unwrap();
        assert!(mesh.is_plain_radial());
        for (a, b) in mesh.tree().branches().iter().zip(net.branches()) {
            assert_eq!(a, b, "spanning tree preserves the file's branch order");
        }
    }

    #[test]
    fn radial_reader_rejects_meshed_records() {
        let tie = "grid 1\nsource 1 0\nbus 0 0 0\nbus 1 0 0\nbranch 0 1 1 0\ntie 0 1 1 0 open\n";
        assert_eq!(parse_grid(tie).unwrap_err(), ParseError::TieDuplicatesEdge(6));
        let tie = "grid 1\nsource 1 0\nbus 0 0 0\nbus 1 0 0\nbus 2 0 0\nbranch 0 1 1 0\nbranch 1 2 1 0\ntie 2 0 1 0\n";
        assert_eq!(parse_grid(tie).unwrap_err(), ParseError::MeshedGrid);
        let gen = "grid 1\nsource 1 0\nbus 0 0 0\nbus 1 0 0\nbranch 0 1 1 0\ngen 1 100 1 -5 5\n";
        assert_eq!(parse_grid(gen).unwrap_err(), ParseError::MeshedGrid);
    }

    #[test]
    fn parses_comments_blanks_and_any_order() {
        let text = "\n# header comment\ngrid 1\nbus 1 100 50 # inline\n\nsource 240 0\nbus 0 0 0\nbranch 0 1 0.5 0.25\n";
        let net = parse_grid(text).unwrap();
        assert_eq!(net.num_buses(), 2);
        assert_eq!(net.buses()[1].load, c(100.0, 50.0));
        assert_eq!(net.source_voltage(), c(240.0, 0.0));
    }

    #[test]
    fn missing_header_rejected() {
        assert_eq!(parse_grid("source 1 0\nbus 0 0 0\n").unwrap_err(), ParseError::BadHeader);
    }

    #[test]
    fn wrong_version_rejected() {
        assert_eq!(
            parse_grid("grid 2\nsource 1 0\nbus 0 0 0\n").unwrap_err(),
            ParseError::BadVersion("2".into())
        );
    }

    #[test]
    fn missing_source_rejected() {
        assert_eq!(parse_grid("grid 1\nbus 0 0 0\n").unwrap_err(), ParseError::MissingSource);
    }

    #[test]
    fn bad_numbers_carry_line_info() {
        let err = parse_grid("grid 1\nsource 1 0\nbus 0 oops 0\n").unwrap_err();
        assert!(matches!(err, ParseError::BadLine(3, _)), "{err:?}");
        assert!(err.to_string().contains("line 3"));
    }

    #[test]
    fn unknown_directive_rejected() {
        let err = parse_grid("grid 1\nsource 1 0\nbus 0 0 0\ncapacitor 0 5\n").unwrap_err();
        assert!(matches!(err, ParseError::BadLine(4, _)));
    }

    #[test]
    fn sparse_and_duplicate_ids_rejected() {
        let sparse = "grid 1\nsource 1 0\nbus 0 0 0\nbus 5 0 0\nbranch 0 5 1 0\n";
        assert_eq!(parse_grid(sparse).unwrap_err(), ParseError::SparseBusIds);
        let dup = "grid 1\nsource 1 0\nbus 0 0 0\nbus 0 0 0\nbranch 0 1 1 0\n";
        assert_eq!(parse_grid(dup).unwrap_err(), ParseError::SparseBusIds);
    }

    #[test]
    fn invalid_topology_surfaces_network_error() {
        let cyclic = "grid 1\nsource 1 0\nbus 0 0 0\nbus 1 0 0\nbus 2 0 0\nbranch 0 1 1 0\nbranch 1 2 1 0\nbranch 2 0 1 0\n";
        let err = parse_grid(cyclic).unwrap_err();
        assert!(matches!(err, ParseError::Invalid(_)), "{err:?}");
        // The meshed reader agrees: loops must be declared as ties.
        let err = parse_grid_meshed(cyclic).unwrap_err();
        assert!(matches!(err, ParseError::Invalid(_)), "{err:?}");
    }

    #[test]
    fn non_finite_numbers_rejected() {
        // `f64::from_str` accepts all of these spellings; the parser
        // must not let them into a network.
        for field in ["NaN", "inf", "-inf", "Infinity"] {
            let text = format!("grid 1\nsource 1 0\nbus 0 {field} 0\nbus 1 0 0\nbranch 0 1 1 0\n");
            assert_eq!(parse_grid(&text).unwrap_err(), ParseError::NonFinite(3), "{field}");
        }
        let z = "grid 1\nsource 1 0\nbus 0 0 0\nbus 1 0 0\nbranch 0 1 NaN 0\n";
        assert_eq!(parse_grid(z).unwrap_err(), ParseError::NonFinite(5));
        let s = "grid 1\nsource inf 0\nbus 0 0 0\n";
        assert_eq!(parse_grid(s).unwrap_err(), ParseError::NonFinite(2));
    }

    #[test]
    fn self_loops_and_duplicate_edges_rejected() {
        let loop_ = "grid 1\nsource 1 0\nbus 0 0 0\nbus 1 0 0\nbranch 1 1 1 0\n";
        assert_eq!(parse_grid(loop_).unwrap_err(), ParseError::SelfLoop(5));
        // The reversed orientation is the same edge.
        let dup = "grid 1\nsource 1 0\nbus 0 0 0\nbus 1 0 0\nbranch 0 1 1 0\nbranch 1 0 2 0\n";
        assert_eq!(parse_grid(dup).unwrap_err(), ParseError::DuplicateEdge(6));
    }

    #[test]
    fn trailing_tokens_rejected() {
        let err = parse_grid("grid 1\nsource 1 0 extra\nbus 0 0 0\n").unwrap_err();
        assert!(matches!(err, ParseError::BadLine(2, _)));
    }

    // ---- meshed record hardening -------------------------------------

    /// A valid 4-bus meshed prologue to append records to.
    const MESH4: &str = "grid 1\nsource 2400 0\nbus 0 0 0\nbus 1 1000 300\nbus 2 1000 300\nbus 3 1000 300\nbranch 0 1 0.1 0.05\nbranch 1 2 0.1 0.05\nbranch 2 3 0.1 0.05\n";

    #[test]
    fn meshed_records_parse() {
        let text = format!("{MESH4}tie 0 3 0.2 0.1 closed\ntie 1 3 0.3 0.1 open\ngen 2 5000 2380 -3000 3000\n");
        let net = parse_grid_meshed(&text).unwrap();
        assert_eq!(net.num_loops(), 1);
        assert_eq!(net.ties().len(), 2);
        assert_eq!(net.generators().len(), 1);
        assert_eq!(net.generators()[0].v_set, 2380.0);
    }

    #[test]
    fn duplicate_generator_rejected_with_line() {
        let text = format!("{MESH4}gen 2 5000 2380 -3000 3000\ngen 2 1000 2390 -1000 1000\n");
        assert_eq!(parse_grid_meshed(&text).unwrap_err(), ParseError::DuplicateGenerator(11));
    }

    #[test]
    fn tie_duplicating_tree_edge_rejected_with_line() {
        let text = format!("{MESH4}tie 2 1 0.2 0.1\n");
        assert_eq!(parse_grid_meshed(&text).unwrap_err(), ParseError::TieDuplicatesEdge(10));
        // Two ties over the same pair collide too.
        let text = format!("{MESH4}tie 0 3 0.2 0.1\ntie 3 0 0.2 0.1 open\n");
        assert_eq!(parse_grid_meshed(&text).unwrap_err(), ParseError::TieDuplicatesEdge(11));
    }

    #[test]
    fn inverted_q_limits_rejected_with_line() {
        let text = format!("{MESH4}gen 2 5000 2380 3000 -3000\n");
        assert_eq!(parse_grid_meshed(&text).unwrap_err(), ParseError::BadQLimits(10));
    }

    #[test]
    fn nan_set_points_rejected_with_line() {
        for field in ["NaN", "inf", "-inf"] {
            let text = format!("{MESH4}gen 2 5000 {field} -3000 3000\n");
            assert_eq!(
                parse_grid_meshed(&text).unwrap_err(),
                ParseError::NonFinite(10),
                "{field}"
            );
        }
        let text = format!("{MESH4}tie 0 3 NaN 0.1\n");
        assert_eq!(parse_grid_meshed(&text).unwrap_err(), ParseError::NonFinite(10));
    }

    #[test]
    fn bad_tie_state_and_self_loop_rejected() {
        let text = format!("{MESH4}tie 0 3 0.2 0.1 ajar\n");
        assert!(matches!(parse_grid_meshed(&text).unwrap_err(), ParseError::BadLine(10, _)));
        let text = format!("{MESH4}tie 3 3 0.2 0.1\n");
        assert_eq!(parse_grid_meshed(&text).unwrap_err(), ParseError::SelfLoop(10));
    }

    #[test]
    fn mesh_validation_errors_surface() {
        let text = format!("{MESH4}gen 9 5000 2380 -3000 3000\n");
        assert_eq!(
            parse_grid_meshed(&text).unwrap_err(),
            ParseError::InvalidMesh(MeshError::GeneratorBusOutOfRange(9))
        );
        let text = format!("{MESH4}gen 2 -5000 2380 -3000 3000\n");
        assert_eq!(
            parse_grid_meshed(&text).unwrap_err(),
            ParseError::InvalidMesh(MeshError::BadGenerator(2))
        );
    }
}
