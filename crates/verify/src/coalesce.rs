//! Static soundness of fleet cohort coalescing.
//!
//! The fleet engine (`dsi_sim::fleet`) drives one representative per
//! *(tune anchor, query)* cohort and shares the trajectory with every
//! member — sound only if two lossless single-channel clients with equal
//! anchor and equal query really do traverse identical read sequences.
//! PR 8 pinned that contract dynamically (differential suite); this
//! module proves it from the [`StaticModel`] instead, per artifact:
//!
//! 1. **Anchor totality.** On a single-channel program the static anchor
//!    of a tune-in at flat position `p` is the next navigation entry
//!    start at or after `p` (wrapping past the cycle end) — the static
//!    counterpart of `Engine::tune_anchor`'s "doze to the first
//!    scheme-defined action". With at least one entry the map is total:
//!    see [`static_anchor_map`].
//! 2. **No pre-anchor knowledge.** Key-directed navigation (DSI)
//!    accumulates table knowledge as it reads, so any index unit that is
//!    *not* an entry would let a client decode a table before its
//!    anchor, and two equal-anchor clients with different tune-ins could
//!    start navigation with different knowledge
//!    ([`Violation::CoalesceHiddenKnowledge`]). Coverage-directed
//!    navigation (the tree schemes) is stateless until the entry seeds,
//!    so interior nodes between tune-in and anchor carry nothing.
//! 3. **Executable witness.** For every anchor region spanning more than
//!    one tune-in instant, the earliest and latest member are each run
//!    through the full static client — derive the anchor from the start,
//!    enter at the anchor's unit, navigate to the target — and the two
//!    unit chains must be identical for every (sampled) data target
//!    ([`Violation::CoalesceDivergence`]).
//!
//! The verdict rides in [`crate::VerifyReport::coalesce`] and the verify
//! grid report (`--bin verify`), which additionally cross-checks the
//! static anchor partition against the live `Engine::tune_anchor`.

use std::collections::{BTreeMap, BTreeSet};

use crate::model::{EdgeClaim, StaticModel, UnitKind};
use crate::verify::{navigate_by_coverage, navigate_by_key, Violation, PROGRESS_BUDGET};

/// The coalescing verdict attached to a clean [`crate::VerifyReport`].
#[derive(Debug, Clone, Default)]
pub struct CoalesceReport {
    /// Whether the proof applies: single channel, at least one entry and
    /// one data unit. When `false` the engine's `tune_anchor` returns
    /// `None` (or there is nothing to query) and the fleet never
    /// coalesces, so there is nothing to prove.
    pub applicable: bool,
    /// Distinct anchor instants (equal to the number of entry units).
    pub anchors: usize,
    /// `(paired starts, target)` witness navigations actually compared.
    pub checked_pairs: u64,
    /// The full witness product (`> checked_pairs` when sampled under
    /// the verifier's progress budget; never silently).
    pub total_pairs: u64,
    /// Worst doze distance from a tune-in to its anchor, in packets.
    pub max_doze_packets: u64,
}

impl CoalesceReport {
    /// Machine-readable JSON rendering (hand-rolled; no serde in the
    /// image).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"applicable\":{},\"anchors\":{},\"checked_pairs\":{},\
             \"total_pairs\":{},\"max_doze_packets\":{}}}",
            self.applicable,
            self.anchors,
            self.checked_pairs,
            self.total_pairs,
            self.max_doze_packets
        )
    }
}

/// The static anchor map: for every flat position `p`, the absolute
/// instant of the next navigation entry start at or after `p`. Positions
/// after the last entry wrap to the first entry of the *next* cycle, so
/// values can reach `first_entry + n_packets` — anchors are instants,
/// not positions, exactly like `Engine::tune_anchor`.
///
/// Returns `None` when no sound anchor exists (multi-channel program or
/// no entries), mirroring the dynamic contract.
pub fn static_anchor_map(m: &StaticModel) -> Option<Vec<u64>> {
    if m.n_channels != 1 || m.entries.is_empty() {
        return None;
    }
    let starts: BTreeSet<u64> = m
        .entries
        .iter()
        .filter_map(|&e| m.units.get(e as usize).map(|u| u.start))
        .collect();
    let first = *starts.iter().next()?;
    let n = m.n_packets as usize;
    let mut anchor = vec![0u64; n];
    let mut next = first + n as u64;
    for p in (0..n).rev() {
        if starts.contains(&(p as u64)) {
            next = p as u64;
        }
        anchor[p] = next;
    }
    Some(anchor)
}

/// Runs the coalescing soundness analysis; called by [`crate::verify`]
/// once the model is structurally clean and every navigation is known to
/// terminate.
pub(crate) fn check_coalescing(m: &StaticModel, v: &mut Vec<Violation>) -> CoalesceReport {
    let mut rep = CoalesceReport::default();
    let Some(anchor) = static_anchor_map(m) else {
        return rep;
    };
    if m.n_data_units() == 0 {
        return rep;
    }
    rep.applicable = true;

    let entry_starts: BTreeSet<u64> = m
        .entries
        .iter()
        .filter_map(|&e| m.units.get(e as usize).map(|u| u.start))
        .collect();
    let key_nav = m
        .edges
        .iter()
        .flatten()
        .any(|e| matches!(e.claim, EdgeClaim::MinKey(_)));
    if key_nav {
        for (ui, u) in m.units.iter().enumerate() {
            if u.kind == UnitKind::Index && !entry_starts.contains(&u.start) {
                v.push(Violation::CoalesceHiddenKnowledge { unit: ui });
            }
        }
    }

    // Anchor regions: each distinct anchor instant owns one contiguous
    // (wrapped) run of tune-in positions; track its extremes.
    let mut regions: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for (p, &a) in anchor.iter().enumerate() {
        let e = regions.entry(a).or_insert((p as u64, p as u64));
        e.0 = e.0.min(p as u64);
        e.1 = e.1.max(p as u64);
    }
    rep.anchors = regions.len();
    rep.max_doze_packets = regions
        .iter()
        .map(|(&a, &(lo, _))| a.saturating_sub(lo))
        .max()
        .unwrap_or(0);

    // The executable witness: earliest vs latest member of every
    // multi-member region, each run through the full start → anchor →
    // entry → target pipeline independently.
    let data_units: Vec<usize> = (0..m.units.len())
        .filter(|&u| m.units[u].kind == UnitKind::Data)
        .collect();
    let pairs: Vec<(u64, u64, u64)> = regions
        .iter()
        .filter(|&(_, &(lo, hi))| lo != hi)
        .map(|(&a, &(lo, hi))| (a, lo, hi))
        .collect();
    rep.total_pairs = pairs.len() as u64 * data_units.len() as u64;
    let stride = (rep.total_pairs / PROGRESS_BUDGET).max(1) as usize;
    for (a, lo, hi) in pairs {
        for &t in data_units.iter().step_by(stride) {
            rep.checked_pairs += 1;
            match (
                trajectory(m, key_nav, &anchor, lo, t),
                trajectory(m, key_nav, &anchor, hi, t),
            ) {
                (Ok(x), Ok(y)) => {
                    if x != y {
                        v.push(Violation::CoalesceDivergence {
                            anchor: a,
                            start_a: lo,
                            start_b: hi,
                            target: t,
                        });
                    }
                }
                (Err(e), _) | (_, Err(e)) => v.push(e),
            }
            if v.len() >= 32 {
                return rep;
            }
        }
    }
    rep
}

/// The static client from a raw tune-in: doze to the anchor (carrying
/// nothing — obligation 2 above), enter at the anchor's unit, navigate
/// to `target`. Returns the unit chain read.
fn trajectory(
    m: &StaticModel,
    key_nav: bool,
    anchor: &[u64],
    start: u64,
    target: usize,
) -> Result<Vec<usize>, Violation> {
    let a = anchor[start as usize] % m.n_packets;
    let entry = m
        .unit_at(a)
        .expect("anchors are entry-unit starts by construction");
    let r = if key_nav {
        navigate_by_key(m, entry, target)
    } else {
        navigate_by_coverage(m, entry, target)
    };
    r.map(|(_, chain)| chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Edge, Unit};
    use dsi_broadcast::PacketClass;

    /// A hand-built single-channel, two-frame DSI-like model: each frame
    /// is one index table (an entry) announcing one local object and
    /// pointing at the other table with its true minimum key.
    fn dsi_like() -> StaticModel {
        let classes = vec![
            PacketClass::Index,
            PacketClass::ObjectHeader,
            PacketClass::ObjectPayload,
            PacketClass::Index,
            PacketClass::ObjectHeader,
        ];
        let units = vec![
            Unit {
                start: 0,
                len: 1,
                kind: UnitKind::Index,
                key: 0,
                expected_edges: None,
            },
            Unit {
                start: 1,
                len: 2,
                kind: UnitKind::Data,
                key: 5,
                expected_edges: None,
            },
            Unit {
                start: 3,
                len: 1,
                kind: UnitKind::Index,
                key: 0,
                expected_edges: None,
            },
            Unit {
                start: 4,
                len: 1,
                kind: UnitKind::Data,
                key: 9,
                expected_edges: None,
            },
        ];
        let edges = vec![
            vec![
                Edge {
                    target: 1,
                    claim: EdgeClaim::Local,
                },
                Edge {
                    target: 3,
                    claim: EdgeClaim::MinKey(9),
                },
            ],
            Vec::new(),
            vec![
                Edge {
                    target: 4,
                    claim: EdgeClaim::Local,
                },
                Edge {
                    target: 0,
                    claim: EdgeClaim::MinKey(5),
                },
            ],
            Vec::new(),
        ];
        StaticModel {
            scheme: "test",
            n_packets: 5,
            capacity: 64,
            n_channels: 1,
            switch_cost: 1,
            chan_of: vec![0; 5],
            chan_slot: (0..5).collect(),
            channel_lens: vec![5],
            classes,
            unit_start_flags: vec![true, true, false, true, true],
            units,
            edges,
            entries: vec![0, 2],
            sweep_passes: 1,
            explicit_placement: false,
        }
    }

    #[test]
    fn anchor_map_is_next_entry_start_with_wrap() {
        let m = dsi_like();
        let a = static_anchor_map(&m).expect("single channel with entries");
        // Entry starts are 0 and 3; the tail wraps to 0 + 5.
        assert_eq!(a, vec![0, 3, 3, 3, 5]);
    }

    #[test]
    fn multi_channel_has_no_anchor_map() {
        let mut m = dsi_like();
        m.n_channels = 2;
        assert!(static_anchor_map(&m).is_none());
        let mut v = Vec::new();
        let rep = check_coalescing(&m, &mut v);
        assert!(!rep.applicable);
        assert!(v.is_empty());
    }

    #[test]
    fn clean_dsi_like_model_is_coalescing_sound() {
        let m = dsi_like();
        let mut v = Vec::new();
        let rep = check_coalescing(&m, &mut v);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
        assert!(rep.applicable);
        assert_eq!(rep.anchors, 3); // instants 0, 3 and the wrapped 5
        assert!(rep.checked_pairs > 0, "witness never ran");
        assert_eq!(rep.checked_pairs, rep.total_pairs);
        assert_eq!(rep.max_doze_packets, 2); // position 1 dozes to 3
    }

    #[test]
    fn hidden_index_unit_is_flagged_under_key_nav() {
        let mut m = dsi_like();
        // Demote the second table: still on air, no longer an entry. A
        // client tuning in at flat 1 decodes it before its (now wrapped)
        // anchor at 5 — pre-anchor knowledge the anchor map cannot see.
        m.entries = vec![0];
        let mut v = Vec::new();
        let rep = check_coalescing(&m, &mut v);
        assert!(rep.applicable);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::CoalesceHiddenKnowledge { unit: 2 })),
            "hidden table went unflagged: {v:?}"
        );
    }

    #[test]
    fn coverage_nav_tolerates_interior_index_units() {
        // Tree-like: a root (the only entry) covering two objects via an
        // interior node. The interior node is an index unit but not an
        // entry — legal, because coverage descent is stateless until the
        // root seeds it.
        let classes = vec![
            PacketClass::Index,
            PacketClass::Index,
            PacketClass::ObjectHeader,
            PacketClass::ObjectHeader,
        ];
        let units = vec![
            Unit {
                start: 0,
                len: 1,
                kind: UnitKind::Index,
                key: 0,
                expected_edges: None,
            },
            Unit {
                start: 1,
                len: 1,
                kind: UnitKind::Index,
                key: 0,
                expected_edges: None,
            },
            Unit {
                start: 2,
                len: 1,
                kind: UnitKind::Data,
                key: 0,
                expected_edges: None,
            },
            Unit {
                start: 3,
                len: 1,
                kind: UnitKind::Data,
                key: 1,
                expected_edges: None,
            },
        ];
        let edges = vec![
            vec![Edge {
                target: 1,
                claim: EdgeClaim::Covers { lo: 0, hi: 2 },
            }],
            vec![
                Edge {
                    target: 2,
                    claim: EdgeClaim::Local,
                },
                Edge {
                    target: 3,
                    claim: EdgeClaim::Local,
                },
            ],
            Vec::new(),
            Vec::new(),
        ];
        let m = StaticModel {
            scheme: "tree-test",
            n_packets: 4,
            capacity: 64,
            n_channels: 1,
            switch_cost: 1,
            chan_of: vec![0; 4],
            chan_slot: (0..4).collect(),
            channel_lens: vec![4],
            classes,
            unit_start_flags: vec![true; 4],
            units,
            edges,
            entries: vec![0],
            sweep_passes: 1,
            explicit_placement: false,
        };
        let mut v = Vec::new();
        let rep = check_coalescing(&m, &mut v);
        assert!(v.is_empty(), "interior node wrongly flagged: {v:?}");
        assert!(rep.applicable);
        assert_eq!(rep.anchors, 2); // instant 0 and the wrapped 4
        assert!(rep.checked_pairs > 0);
    }
}
