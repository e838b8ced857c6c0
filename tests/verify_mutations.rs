//! Mutation corpus for the static verifier: every class of structural
//! corruption — flipped pointers, skewed claims, units split across
//! channels, dropped table entries, orphaned data units — must be
//! rejected by `dsi::verify`, while every program the conformance grid
//! builds passes clean. Schemes, channel layouts, and mutation picks are
//! property-sampled so the corpus keeps probing new (program, defect)
//! pairs.

use dsi::broadcast::ChannelConfig;
use dsi::datagen::SpatialDataset;
use dsi::sim::{Engine, Scheme};
use dsi::verify::{EdgeClaim, StaticModel, UnitKind};
use dsi::KnnStrategy;
use proptest::prelude::*;

fn scheme(pick: u8) -> Scheme {
    match pick % 4 {
        0 => Scheme::dsi_reorganized(64),
        1 => Scheme::dsi_original(64, KnnStrategy::Conservative),
        2 => Scheme::RTree,
        _ => Scheme::Hci,
    }
}

fn channels(pick: u8) -> ChannelConfig {
    match pick % 4 {
        0 => ChannelConfig::single(),
        1 => ChannelConfig::blocked(2, 1),
        2 => ChannelConfig::striped_frames(3, 1),
        _ => ChannelConfig::index_data(2, 1, 2),
    }
}

/// Retargets one edge at a unit of the kind its claim forbids: a local
/// pointer at an index unit, a table entry or subtree pointer at a data
/// unit. Always a claim violation when applicable.
fn flip_pointer(m: &mut StaticModel, pick: usize) -> bool {
    let edges: Vec<(usize, usize)> = m
        .edges
        .iter()
        .enumerate()
        .flat_map(|(u, es)| (0..es.len()).map(move |ei| (u, ei)))
        .collect();
    if edges.is_empty() {
        return false;
    }
    let (u, ei) = edges[pick % edges.len()];
    let want_kind = match m.edges[u][ei].claim {
        EdgeClaim::Local => UnitKind::Index,
        EdgeClaim::MinKey(_) | EdgeClaim::Covers { .. } => UnitKind::Data,
    };
    let cands: Vec<u64> = m
        .units
        .iter()
        .filter(|t| t.kind == want_kind)
        .map(|t| t.start)
        .collect();
    if cands.is_empty() {
        return false;
    }
    m.edges[u][ei].target = cands[pick % cands.len()];
    true
}

/// Bumps one navigational claim off its true value (a wrong minimum key
/// or a coverage range one too wide). Always a claim violation.
fn skew_claim(m: &mut StaticModel, pick: usize) -> bool {
    let edges: Vec<(usize, usize)> = m
        .edges
        .iter()
        .enumerate()
        .flat_map(|(u, es)| {
            es.iter()
                .enumerate()
                .filter(|(_, e)| !matches!(e.claim, EdgeClaim::Local))
                .map(move |(ei, _)| (u, ei))
        })
        .collect();
    if edges.is_empty() {
        return false;
    }
    let (u, ei) = edges[pick % edges.len()];
    m.edges[u][ei].claim = match m.edges[u][ei].claim {
        EdgeClaim::MinKey(k) => EdgeClaim::MinKey(k.wrapping_add(1)),
        EdgeClaim::Covers { lo, hi } => EdgeClaim::Covers { lo, hi: hi + 1 },
        EdgeClaim::Local => unreachable!("filtered above"),
    };
    true
}

/// Moves the tail packet of a multi-packet unit to another channel — the
/// one thing a placement must never do. Breaks the channel map or the
/// unit-contiguity invariant.
fn split_unit(m: &mut StaticModel, pick: usize) -> bool {
    if m.n_channels < 2 {
        return false;
    }
    let cands: Vec<usize> = m
        .units
        .iter()
        .enumerate()
        .filter(|(_, un)| un.len >= 2)
        .map(|(u, _)| u)
        .collect();
    if cands.is_empty() {
        return false;
    }
    let un = &m.units[cands[pick % cands.len()]];
    let tail = (un.start + un.len - 1) as usize;
    m.chan_of[tail] = (m.chan_of[tail] + 1) % m.n_channels;
    true
}

/// Deletes one edge from a unit with a fixed schema-derived edge count
/// (a DSI table dropping an index entry). Always a count mismatch.
fn drop_edge(m: &mut StaticModel, pick: usize) -> bool {
    let cands: Vec<usize> = m
        .units
        .iter()
        .enumerate()
        .filter(|(u, un)| un.expected_edges.is_some() && !m.edges[*u].is_empty())
        .map(|(u, _)| u)
        .collect();
    if cands.is_empty() {
        return false;
    }
    let u = cands[pick % cands.len()];
    let ei = pick % m.edges[u].len();
    m.edges[u].remove(ei);
    true
}

/// Removes every local announcement of one data unit: the object is
/// still on air but no index unit ever names it. Always an orphan.
fn orphan_data(m: &mut StaticModel, pick: usize) -> bool {
    let cands: Vec<u64> = m
        .units
        .iter()
        .filter(|t| t.kind == UnitKind::Data)
        .map(|t| t.start)
        .collect();
    if cands.is_empty() {
        return false;
    }
    let victim = cands[pick % cands.len()];
    for es in &mut m.edges {
        es.retain(|e| !(e.claim == EdgeClaim::Local && e.target == victim));
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn verifier_rejects_every_mutant(
        scheme_pick in 0u8..4,
        chan_pick in 0u8..4,
        mutation in 0u8..5,
        pick in any::<u64>(),
        n in 140u64..260,
    ) {
        let pick = pick as usize;
        let ds = SpatialDataset::build(&dsi::datagen::uniform(n as usize, 42), 10);
        let engine = Engine::build_channels(scheme(scheme_pick), &ds, 64, channels(chan_pick));
        prop_assert!(
            engine.verify().is_ok(),
            "grid-valid program must verify clean before mutation"
        );
        let mut m = engine.static_model();
        type Mutation = fn(&mut StaticModel, usize) -> bool;
        let mutations: [(&str, Mutation); 5] = [
            ("flip_pointer", flip_pointer),
            ("skew_claim", skew_claim),
            ("split_unit", split_unit),
            ("drop_edge", drop_edge),
            ("orphan_data", orphan_data),
        ];
        // Apply the chosen mutation; when it does not apply to this
        // program (e.g. split_unit on a single channel), fall through to
        // the next one — orphan_data applies everywhere.
        let mut applied = None;
        for off in 0..mutations.len() {
            let (name, f) = mutations[(mutation as usize + off) % mutations.len()];
            if f(&mut m, pick) {
                applied = Some(name);
                break;
            }
        }
        let applied = applied.expect("some mutation applies to every program");
        prop_assert!(
            dsi::verify::verify(&m).is_err(),
            "mutant ({applied}) must be rejected"
        );
    }
}
