//! The static checks: structural soundness and forward progress.
//!
//! [`verify`] runs every check over a [`StaticModel`] and either returns
//! a [`VerifyReport`] (with worst-case bounds attached) or the full list
//! of [`Violation`]s found. Nothing here simulates a packet: the
//! navigation automata walk the *pointer graph*, abstracting away time,
//! loss and channel waits — exactly the properties the dynamic test
//! suites cover — so a clean verdict means "no client can be trapped or
//! misled by the broadcast's structure", independent of when it tunes in.

use std::collections::{BTreeMap, BTreeSet};

use crate::bounds::{compute_bounds, BoundsReport};
use crate::coalesce::CoalesceReport;
use crate::model::{EdgeClaim, StaticModel, UnitKind};
use dsi_broadcast::PacketClass;

/// Maximum number of `(entry, data unit)` pairs the forward-progress and
/// coalescing analyses navigate exhaustively. Above this, data targets are
/// sampled at a uniform stride (the sampling is recorded in
/// [`VerifyReport::checked_pairs`] vs [`VerifyReport::total_pairs`] —
/// never silent). Structural checks are always exhaustive.
pub(crate) const PROGRESS_BUDGET: u64 = 1 << 20;

/// One structural defect of a broadcast program. Each variant names the
/// invariant it violates; `Display` renders a client-facing diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// The flat↔channel maps are inconsistent (lengths, slot collisions,
    /// or packets missing from every channel cycle).
    ChannelMapInconsistent {
        /// What exactly is inconsistent.
        detail: String,
    },
    /// A unit's packets are not consecutive slots of one channel.
    SplitUnit {
        /// The unit (index into [`StaticModel::units`]).
        unit: usize,
        /// The first offending flat position.
        flat: u64,
        /// What exactly is split.
        detail: String,
    },
    /// A unit's packet classes don't form a legal unit (e.g. it begins
    /// with a continuation packet, or mixes index and object packets).
    BadUnitClass {
        /// The unit.
        unit: usize,
        /// What exactly is malformed.
        detail: String,
    },
    /// A pointer names a flat position outside the cycle.
    DanglingPointer {
        /// The pointing unit.
        unit: usize,
        /// The out-of-range target.
        target: u64,
    },
    /// A pointer names a position inside a unit (not a unit start): a
    /// client jumping there starts reading mid-structure.
    MidUnitPointer {
        /// The pointing unit.
        unit: usize,
        /// The mid-unit target.
        target: u64,
    },
    /// A pointer's claim about its target is false (wrong minimum key,
    /// wrong coverage range, a "local object" edge to an index unit, …).
    ClaimMismatch {
        /// The pointing unit.
        unit: usize,
        /// The target flat position.
        target: u64,
        /// Claimed vs actual.
        detail: String,
    },
    /// The coverage subgraph (tree child pointers) contains a cycle; the
    /// offending units, in discovery order.
    CyclicCoverage {
        /// Units on the cycle.
        chain: Vec<usize>,
    },
    /// A data unit no index unit announces: no tune-in can ever discover
    /// it.
    OrphanDataUnit {
        /// The orphaned data unit.
        unit: usize,
    },
    /// A unit whose schema fixes its outgoing edge count has the wrong
    /// number of edges (a dropped or duplicated table entry).
    EdgeCountMismatch {
        /// The unit.
        unit: usize,
        /// Edges the schema demands.
        expected: u32,
        /// Edges present.
        got: u32,
    },
    /// The program has data to serve but no navigation entry points.
    NoEntries,
    /// A navigation entry point is not an index unit.
    BadEntry {
        /// The bogus entry unit.
        unit: usize,
    },
    /// An explicitly placed channel carries no index unit: clients tuning
    /// in there can never navigate (see
    /// [`dsi_broadcast::LayoutError::StrandedChannel`]).
    StrandedChannel {
        /// The index-starved channel.
        channel: u32,
    },
    /// The navigation automaton, started at `entry`, cannot make progress
    /// toward `target`: it revisits a knowledge state without ever
    /// reaching the data. `chain` is the offending pointer chain (unit
    /// indices, in visit order) — the static counterpart of a runtime
    /// retry-cap livelock.
    NoProgress {
        /// The entry unit navigation started from.
        entry: usize,
        /// The data unit that is never reached.
        target: usize,
        /// The pointer chain walked before the state repeated.
        chain: Vec<usize>,
    },
    /// Navigation from `entry` dead-ends before reaching `target` (no
    /// applicable pointer at the end of `chain`).
    Unreachable {
        /// The entry unit navigation started from.
        entry: usize,
        /// The unreachable data unit.
        target: usize,
        /// The pointer chain walked to the dead end.
        chain: Vec<usize>,
    },
    /// Fleet cohort coalescing is unsound for this program: a
    /// knowledge-bearing index unit is not a navigation entry point, so a
    /// key-directed client tuning in just before it decodes a table
    /// *before* reaching its coalescing anchor — two clients with equal
    /// anchors but different tune-ins would start navigation with
    /// different knowledge. See [`crate::coalesce`].
    CoalesceHiddenKnowledge {
        /// The index unit invisible to the anchor map.
        unit: usize,
    },
    /// The executable coalescing witness failed: two starts with the same
    /// static anchor traversed different unit sequences toward `target`.
    /// See [`crate::coalesce`].
    CoalesceDivergence {
        /// The shared anchor instant.
        anchor: u64,
        /// First paired tune-in instant.
        start_a: u64,
        /// Second paired tune-in instant.
        start_b: u64,
        /// The data unit both navigations targeted.
        target: usize,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::ChannelMapInconsistent { detail } => {
                write!(f, "channel map inconsistent: {detail}")
            }
            Violation::SplitUnit { unit, flat, detail } => {
                write!(f, "unit {unit} split at flat {flat}: {detail}")
            }
            Violation::BadUnitClass { unit, detail } => {
                write!(f, "unit {unit} malformed: {detail}")
            }
            Violation::DanglingPointer { unit, target } => {
                write!(f, "unit {unit} points at flat {target}, outside the cycle")
            }
            Violation::MidUnitPointer { unit, target } => {
                write!(f, "unit {unit} points at flat {target}, mid-unit")
            }
            Violation::ClaimMismatch {
                unit,
                target,
                detail,
            } => write!(f, "unit {unit} → flat {target}: {detail}"),
            Violation::CyclicCoverage { chain } => {
                write!(f, "coverage pointers form a cycle through units {chain:?}")
            }
            Violation::OrphanDataUnit { unit } => {
                write!(f, "data unit {unit} is announced by no index unit")
            }
            Violation::EdgeCountMismatch {
                unit,
                expected,
                got,
            } => write!(
                f,
                "unit {unit} has {got} pointers, schema demands {expected}"
            ),
            Violation::NoEntries => write!(f, "no navigation entry points"),
            Violation::BadEntry { unit } => {
                write!(f, "entry unit {unit} is not an index unit")
            }
            Violation::StrandedChannel { channel } => {
                write!(
                    f,
                    "channel {channel} carries no index unit (explicit placement)"
                )
            }
            Violation::NoProgress {
                entry,
                target,
                chain,
            } => write!(
                f,
                "no forward progress from entry {entry} to data unit {target}; \
                 pointer chain {chain:?} revisits a knowledge state (only a lossy \
                 re-airing could break the cycle)"
            ),
            Violation::Unreachable {
                entry,
                target,
                chain,
            } => write!(
                f,
                "data unit {target} unreachable from entry {entry}; chain {chain:?} dead-ends"
            ),
            Violation::CoalesceHiddenKnowledge { unit } => write!(
                f,
                "index unit {unit} is not a navigation entry: a client tuning in \
                 before it gains pre-anchor knowledge, so equal-anchor cohorts \
                 may diverge"
            ),
            Violation::CoalesceDivergence {
                anchor,
                start_a,
                start_b,
                target,
            } => write!(
                f,
                "starts {start_a} and {start_b} share anchor {anchor} but traverse \
                 different unit sequences toward data unit {target}"
            ),
        }
    }
}

/// The clean-program verdict: structural statistics, forward-progress
/// coverage, and the derived worst-case bounds.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Scheme display name.
    pub scheme: String,
    /// Parallel channels.
    pub n_channels: u32,
    /// Total broadcast units.
    pub n_units: usize,
    /// Index units.
    pub n_index_units: usize,
    /// Data units.
    pub n_data_units: usize,
    /// `(entry, data)` pairs the progress analysis actually navigated.
    pub checked_pairs: u64,
    /// `(entry, data)` pairs in the full product (equals `checked_pairs`
    /// when the analysis ran exhaustively; larger when sampled under
    /// the progress budget).
    pub total_pairs: u64,
    /// Worst pointer-chain length over all navigated pairs.
    pub max_nav_hops: u32,
    /// The worst-case latency/tuning bounds (see [`BoundsReport`]).
    pub bounds: BoundsReport,
    /// The fleet cohort-coalescing soundness verdict (see
    /// [`crate::coalesce`]).
    pub coalesce: CoalesceReport,
}

impl VerifyReport {
    /// Machine-readable JSON rendering (hand-rolled; no serde in the
    /// image).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"scheme\":\"{}\",\"channels\":{},\"units\":{},\"index_units\":{},\
             \"data_units\":{},\"checked_pairs\":{},\"total_pairs\":{},\
             \"max_nav_hops\":{},\"bounds\":{},\"coalesce\":{}}}",
            self.scheme,
            self.n_channels,
            self.n_units,
            self.n_index_units,
            self.n_data_units,
            self.checked_pairs,
            self.total_pairs,
            self.max_nav_hops,
            self.bounds.to_json(),
            self.coalesce.to_json()
        )
    }
}

/// Runs every static check over `model`: channel-map consistency, unit
/// integrity (never split across channels, legal packet classes), pointer
/// validity (in-range, unit-aligned, claims true), local coverage of
/// every data unit, per-unit edge schemas, entry sanity, explicit-channel
/// index coverage, and the forward-progress abstract interpretation of
/// the client navigation automaton from every entry to every data unit
/// (sampled above a fixed budget of pairs).
///
/// Returns the report (with bounds) if the program is clean, otherwise
/// every violation found. Checks keep running past failures so one pass
/// reports all defects.
pub fn verify(model: &StaticModel) -> Result<VerifyReport, Vec<Violation>> {
    let mut v = Vec::new();
    check_channel_maps(model, &mut v);
    check_units(model, &mut v);
    check_edges(model, &mut v);
    check_local_coverage(model, &mut v);
    check_entries(model, &mut v);
    check_explicit_channels(model, &mut v);
    // Forward progress only makes sense over a structurally sound graph;
    // on a broken one the structural violations are the diagnosis.
    let (checked, total, max_hops) = if v.is_empty() {
        check_progress(model, &mut v)
    } else {
        (0, 0, 0)
    };
    // Likewise the coalescing proof assumes every navigation terminates.
    let coalesce = if v.is_empty() {
        crate::coalesce::check_coalescing(model, &mut v)
    } else {
        CoalesceReport::default()
    };
    if !v.is_empty() {
        return Err(v);
    }
    Ok(VerifyReport {
        scheme: model.scheme.to_string(),
        n_channels: model.n_channels,
        n_units: model.units.len(),
        n_index_units: model.n_index_units(),
        n_data_units: model.n_data_units(),
        checked_pairs: checked,
        total_pairs: total,
        max_nav_hops: max_hops,
        bounds: compute_bounds(model, max_hops),
        coalesce,
    })
}

fn check_channel_maps(m: &StaticModel, v: &mut Vec<Violation>) {
    let n = m.n_packets as usize;
    if m.chan_of.len() != n || m.chan_slot.len() != n || m.classes.len() != n {
        v.push(Violation::ChannelMapInconsistent {
            detail: format!(
                "cycle has {n} packets but maps cover {}/{}/{}",
                m.chan_of.len(),
                m.chan_slot.len(),
                m.classes.len()
            ),
        });
        return;
    }
    let total: u64 = m.channel_lens.iter().sum();
    if total != m.n_packets {
        v.push(Violation::ChannelMapInconsistent {
            detail: format!(
                "channel cycles sum to {total} packets, flat cycle has {}",
                m.n_packets
            ),
        });
    }
    // Each channel's slots must be hit exactly once: a collision or a gap
    // means two packets share an airing instant or one never airs.
    let mut seen: Vec<Vec<bool>> = m
        .channel_lens
        .iter()
        .map(|&l| vec![false; l as usize])
        .collect();
    for flat in 0..n {
        let c = m.chan_of[flat] as usize;
        let s = m.chan_slot[flat] as usize;
        if c >= seen.len() || s >= seen[c].len() {
            v.push(Violation::ChannelMapInconsistent {
                detail: format!("flat {flat} maps to channel {c} slot {s}, out of range"),
            });
            continue;
        }
        if seen[c][s] {
            v.push(Violation::ChannelMapInconsistent {
                detail: format!("channel {c} slot {s} carries two packets"),
            });
        }
        seen[c][s] = true;
    }
}

fn check_units(m: &StaticModel, v: &mut Vec<Violation>) {
    for (ui, u) in m.units.iter().enumerate() {
        let start = u.start as usize;
        let end = (u.start + u.len) as usize;
        if end > m.classes.len() {
            continue; // already reported by the map check
        }
        // Unit integrity: one channel, consecutive slots. This is the
        // "never split across units" invariant the scheduler promises.
        let c = m.chan_of[start];
        let s0 = m.chan_slot[start];
        for (off, flat) in (start..end).enumerate() {
            if m.chan_of[flat] != c {
                v.push(Violation::SplitUnit {
                    unit: ui,
                    flat: flat as u64,
                    detail: format!("packet on channel {}, unit on {c}", m.chan_of[flat]),
                });
                break;
            }
            if m.chan_slot[flat] != s0 + off as u64 {
                v.push(Violation::SplitUnit {
                    unit: ui,
                    flat: flat as u64,
                    detail: format!(
                        "packet at slot {}, expected consecutive slot {}",
                        m.chan_slot[flat],
                        s0 + off as u64
                    ),
                });
                break;
            }
        }
        // Class legality.
        match m.classes[start] {
            PacketClass::Index => {
                if m.classes[start..end]
                    .iter()
                    .any(|&k| k != PacketClass::Index)
                {
                    v.push(Violation::BadUnitClass {
                        unit: ui,
                        detail: "index unit contains object packets".into(),
                    });
                }
            }
            PacketClass::ObjectHeader => {
                if m.classes[start + 1..end]
                    .iter()
                    .any(|&k| k != PacketClass::ObjectPayload)
                {
                    v.push(Violation::BadUnitClass {
                        unit: ui,
                        detail: "data unit mixes classes after its header".into(),
                    });
                }
            }
            PacketClass::ObjectPayload => v.push(Violation::BadUnitClass {
                unit: ui,
                detail: "unit begins with a continuation packet".into(),
            }),
        }
    }
}

fn check_edges(m: &StaticModel, v: &mut Vec<Violation>) {
    // Coverage reach sets (for `Covers` claims) are computed lazily and
    // memoized below.
    let mut reach = CoverageReach::new(m);
    for (ui, edges) in m.edges.iter().enumerate() {
        for e in edges {
            if e.target >= m.n_packets {
                v.push(Violation::DanglingPointer {
                    unit: ui,
                    target: e.target,
                });
                continue;
            }
            let Some(ti) = m.unit_at(e.target) else {
                v.push(Violation::MidUnitPointer {
                    unit: ui,
                    target: e.target,
                });
                continue;
            };
            match e.claim {
                EdgeClaim::Local => {
                    if m.units[ti].kind != UnitKind::Data {
                        v.push(Violation::ClaimMismatch {
                            unit: ui,
                            target: e.target,
                            detail: "local-object pointer targets an index unit".into(),
                        });
                    }
                }
                EdgeClaim::MinKey(k) => {
                    if m.units[ti].kind != UnitKind::Index {
                        v.push(Violation::ClaimMismatch {
                            unit: ui,
                            target: e.target,
                            detail: "table entry targets a data unit".into(),
                        });
                        continue;
                    }
                    // The claim: the pointed frame's minimum locally
                    // announced key is exactly `k`.
                    let min = m.edges[ti]
                        .iter()
                        .filter(|e| e.claim == EdgeClaim::Local)
                        .filter_map(|e| m.unit_at(e.target))
                        .map(|d| m.units[d].key)
                        .min();
                    match min {
                        Some(actual) if actual == k => {}
                        Some(actual) => v.push(Violation::ClaimMismatch {
                            unit: ui,
                            target: e.target,
                            detail: format!("claims minimum key {k}, frame's is {actual}"),
                        }),
                        None => v.push(Violation::ClaimMismatch {
                            unit: ui,
                            target: e.target,
                            detail: format!("claims minimum key {k}, frame announces no data"),
                        }),
                    }
                }
                EdgeClaim::Covers { lo, hi } => {
                    if lo >= hi {
                        v.push(Violation::ClaimMismatch {
                            unit: ui,
                            target: e.target,
                            detail: format!("empty coverage range {lo}..{hi}"),
                        });
                        continue;
                    }
                    match reach.of(ti) {
                        Err(chain) => {
                            if !v
                                .iter()
                                .any(|x| matches!(x, Violation::CyclicCoverage { .. }))
                            {
                                v.push(Violation::CyclicCoverage { chain });
                            }
                        }
                        Ok(keys) => {
                            let want = hi - lo;
                            let exact = keys.len() as u64 == want
                                && keys.iter().enumerate().all(|(i, &k)| k == lo + i as u64);
                            if !exact {
                                v.push(Violation::ClaimMismatch {
                                    unit: ui,
                                    target: e.target,
                                    detail: format!(
                                        "claims coverage {lo}..{hi}, subtree actually reaches \
                                         {} data ordinals {:?}..{:?}",
                                        keys.len(),
                                        keys.first(),
                                        keys.last()
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
        if let Some(expected) = m.units[ui].expected_edges {
            let got = edges.len() as u32;
            if got != expected {
                v.push(Violation::EdgeCountMismatch {
                    unit: ui,
                    expected,
                    got,
                });
            }
        }
    }
}

/// Memoized reach-set computation over the coverage subgraph (`Covers` +
/// `Local` edges): which data ordinals a subtree pointer actually leads
/// to. Iterative DFS with on-stack cycle detection, so corrupt models
/// with coverage cycles are reported, not looped on.
struct CoverageReach<'a> {
    m: &'a StaticModel,
    memo: Vec<Option<Vec<u64>>>,
}

impl<'a> CoverageReach<'a> {
    fn new(m: &'a StaticModel) -> Self {
        Self {
            memo: vec![None; m.units.len()],
            m,
        }
    }

    fn of(&mut self, unit: usize) -> Result<Vec<u64>, Vec<usize>> {
        if let Some(r) = &self.memo[unit] {
            return Ok(r.clone());
        }
        // Post-order DFS: push children first, compute when all children
        // are memoized. `on_stack` detects coverage cycles.
        let mut on_stack = vec![false; self.m.units.len()];
        let mut stack = vec![(unit, false)];
        while let Some((u, expanded)) = stack.pop() {
            if expanded {
                let mut keys = Vec::new();
                for e in &self.m.edges[u] {
                    let Some(t) = self.m.unit_at(e.target) else {
                        continue;
                    };
                    match e.claim {
                        EdgeClaim::Local => keys.push(self.m.units[t].key),
                        EdgeClaim::Covers { .. } => {
                            if let Some(r) = &self.memo[t] {
                                keys.extend_from_slice(r);
                            }
                        }
                        EdgeClaim::MinKey(_) => {}
                    }
                }
                keys.sort_unstable();
                keys.dedup();
                on_stack[u] = false;
                self.memo[u] = Some(keys);
                continue;
            }
            if self.memo[u].is_some() {
                continue;
            }
            if on_stack[u] {
                let chain: Vec<usize> = stack
                    .iter()
                    .filter(|&&(x, exp)| exp || x == u)
                    .map(|&(x, _)| x)
                    .collect();
                return Err(if chain.is_empty() { vec![u] } else { chain });
            }
            on_stack[u] = true;
            stack.push((u, true));
            for e in &self.m.edges[u] {
                if let (EdgeClaim::Covers { .. }, Some(t)) = (e.claim, self.m.unit_at(e.target)) {
                    if self.memo[t].is_none() && on_stack[t] {
                        return Err(vec![u, t]);
                    }
                    stack.push((t, false));
                }
            }
        }
        Ok(self.memo[unit].clone().unwrap_or_default())
    }
}

fn check_local_coverage(m: &StaticModel, v: &mut Vec<Violation>) {
    let mut announced = vec![false; m.units.len()];
    for edges in &m.edges {
        for e in edges {
            if e.claim == EdgeClaim::Local {
                if let Some(t) = m.unit_at(e.target) {
                    announced[t] = true;
                }
            }
        }
    }
    for (ui, u) in m.units.iter().enumerate() {
        if u.kind == UnitKind::Data && !announced[ui] {
            v.push(Violation::OrphanDataUnit { unit: ui });
        }
    }
}

fn check_entries(m: &StaticModel, v: &mut Vec<Violation>) {
    if m.entries.is_empty() && m.n_data_units() > 0 {
        v.push(Violation::NoEntries);
        return;
    }
    for &e in &m.entries {
        let ui = e as usize;
        if ui >= m.units.len() || m.units[ui].kind != UnitKind::Index {
            v.push(Violation::BadEntry { unit: ui });
        }
    }
}

fn check_explicit_channels(m: &StaticModel, v: &mut Vec<Violation>) {
    if !m.explicit_placement || m.n_index_units() == 0 {
        return;
    }
    let mut has_index = vec![false; m.n_channels as usize];
    for u in &m.units {
        if u.kind == UnitKind::Index {
            if let Some(&c) = m.chan_of.get(u.start as usize) {
                if let Some(h) = has_index.get_mut(c as usize) {
                    *h = true;
                }
            }
        }
    }
    for (c, h) in has_index.iter().enumerate() {
        if !h {
            v.push(Violation::StrandedChannel { channel: c as u32 });
        }
    }
}

/// Abstract interpretation of the client navigation automaton: from every
/// entry, toward every data unit, walk the pointer graph the way a client
/// would and prove the walk terminates at the target. Returns
/// `(checked_pairs, total_pairs, max_hops)`.
fn check_progress(m: &StaticModel, v: &mut Vec<Violation>) -> (u64, u64, u32) {
    let data_units: Vec<usize> = (0..m.units.len())
        .filter(|&u| m.units[u].kind == UnitKind::Data)
        .collect();
    if m.entries.is_empty() || data_units.is_empty() {
        return (0, 0, 0);
    }
    // The model's claim vocabulary picks the automaton: `MinKey` edges
    // mean key-directed navigation (DSI), `Covers` means range descent
    // (trees).
    let key_nav = m
        .edges
        .iter()
        .flatten()
        .any(|e| matches!(e.claim, EdgeClaim::MinKey(_)));
    let total = m.entries.len() as u64 * data_units.len() as u64;
    // Sampling above the budget is uniform-stride per entry; the stride
    // and resulting coverage land in the report, never silently.
    let stride = (total / PROGRESS_BUDGET).max(1) as usize;
    let mut checked = 0u64;
    let mut max_hops = 0u32;
    for &entry in &m.entries {
        for &target in data_units.iter().step_by(stride) {
            checked += 1;
            let r = if key_nav {
                navigate_by_key(m, entry as usize, target)
            } else {
                navigate_by_coverage(m, entry as usize, target)
            };
            match r {
                Ok((hops, _)) => max_hops = max_hops.max(hops),
                Err(e) => {
                    v.push(e);
                    if v.len() >= 32 {
                        // Enough diagnosis; the program is broken.
                        return (checked, total, max_hops);
                    }
                }
            }
        }
    }
    (checked, total, max_hops)
}

/// The DSI client automaton: accumulate every table entry seen, jump to
/// the known frame with the largest minimum key `<= target key`, fall
/// back to the nearest forward table when knowledge is exhausted. A
/// repeated `(unit, best-known-key)` state with the fallback also spent
/// means only a lossy re-airing could change anything — the static
/// counterpart of the runtime retry-cap, reported with the chain.
///
/// On success returns the hop count *and* the full unit chain walked —
/// the read sequence the coalescing witness ([`crate::coalesce`])
/// compares across paired starts.
pub(crate) fn navigate_by_key(
    m: &StaticModel,
    entry: usize,
    target: usize,
) -> Result<(u32, Vec<usize>), Violation> {
    let kt = m.units[target].key;
    let target_start = m.units[target].start;
    let mut known: BTreeMap<u64, usize> = BTreeMap::new();
    let mut seen_jump: BTreeSet<(usize, u64)> = BTreeSet::new();
    let mut seen_fallback: BTreeSet<usize> = BTreeSet::new();
    let mut current = entry;
    let mut chain = vec![entry];
    let mut hops = 0u32;
    let cap = (m.units.len() as u32).saturating_mul(4).saturating_add(8);
    loop {
        if m.edges[current]
            .iter()
            .any(|e| e.claim == EdgeClaim::Local && e.target == target_start)
        {
            return Ok((hops, chain));
        }
        for e in &m.edges[current] {
            if let EdgeClaim::MinKey(k) = e.claim {
                if let Some(t) = m.unit_at(e.target) {
                    known.insert(k, t);
                }
            }
        }
        let best = known.range(..=kt).next_back().map(|(&k, &u)| (k, u));
        let next = match best {
            Some((k, u)) if seen_jump.insert((u, k)) => u,
            _ => {
                // Knowledge exhausted (or the best jump already tried):
                // scan forward to the nearest table, as the client's
                // sequential doze-and-advance does.
                let Some(fb) = nearest_forward_index(m, current) else {
                    return Err(Violation::Unreachable {
                        entry,
                        target,
                        chain,
                    });
                };
                if !seen_fallback.insert(fb) {
                    // Wrapped the whole cycle with full knowledge and the
                    // target is still not local anywhere we can reach.
                    return Err(Violation::NoProgress {
                        entry,
                        target,
                        chain,
                    });
                }
                fb
            }
        };
        chain.push(next);
        current = next;
        hops += 1;
        if hops > cap {
            chain.truncate(32);
            return Err(Violation::NoProgress {
                entry,
                target,
                chain,
            });
        }
    }
}

/// The next index unit after `from` in flat cycle order (wrapping).
fn nearest_forward_index(m: &StaticModel, from: usize) -> Option<usize> {
    let n = m.units.len();
    (1..=n)
        .map(|d| (from + d) % n)
        .find(|&u| m.units[u].kind == UnitKind::Index)
}

/// The tree client automaton: stateless descent along the tightest
/// coverage pointer containing the target's ordinal; replicated node
/// copies tie-break on the earliest airing. A revisited unit means the
/// coverage pointers loop; a step with no applicable pointer means the
/// subtree lied about its range.
///
/// On success returns the hop count *and* the full unit chain walked
/// (see [`navigate_by_key`]).
pub(crate) fn navigate_by_coverage(
    m: &StaticModel,
    entry: usize,
    target: usize,
) -> Result<(u32, Vec<usize>), Violation> {
    let kt = m.units[target].key;
    let target_start = m.units[target].start;
    let mut visited = vec![false; m.units.len()];
    let mut current = entry;
    let mut chain = vec![entry];
    let mut hops = 0u32;
    loop {
        if m.edges[current]
            .iter()
            .any(|e| e.claim == EdgeClaim::Local && e.target == target_start)
        {
            return Ok((hops, chain));
        }
        visited[current] = true;
        let next = m.edges[current]
            .iter()
            .filter_map(|e| match e.claim {
                EdgeClaim::Covers { lo, hi } if lo <= kt && kt < hi => {
                    m.unit_at(e.target).map(|t| (hi - lo, e.target, t))
                }
                _ => None,
            })
            .min_by_key(|&(span, tgt, _)| (span, tgt));
        let Some((_, _, next)) = next else {
            return Err(Violation::Unreachable {
                entry,
                target,
                chain,
            });
        };
        if visited[next] {
            chain.push(next);
            return Err(Violation::NoProgress {
                entry,
                target,
                chain,
            });
        }
        chain.push(next);
        current = next;
        hops += 1;
    }
}
