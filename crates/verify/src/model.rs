//! The scheme-neutral static model a broadcast program is verified
//! against.
//!
//! Each air index extracts a [`StaticModel`] from its *built* artifact:
//! the flat packet cycle, its channel layout, the unit structure, and —
//! crucially — the **pointer graph** its packets encode, with every edge
//! carrying the *claim* the on-air bytes make about the target
//! ([`EdgeClaim`]). The verifier ([`crate::verify()`]) then checks those
//! claims against the model itself, without running a client: a claim
//! that doesn't hold statically is exactly a packet a real client would
//! be misled by.

use dsi_broadcast::segmented::{Children, SegmentedAir};
use dsi_broadcast::{PacketClass, Payload, Program};

/// What kind of content a broadcast unit carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// An index unit: a DSI table, a tree node (or replicated path copy).
    Index,
    /// A data unit: one object's header packet plus its payload packets.
    Data,
}

/// One indivisible broadcast unit: a maximal packet run starting at a
/// [`Payload::unit_start`] position.
#[derive(Debug, Clone)]
pub struct Unit {
    /// First flat position of the unit.
    pub start: u64,
    /// Packets in the unit.
    pub len: u64,
    /// Content classification (from the first packet's
    /// [`PacketClass`]).
    pub kind: UnitKind,
    /// The scheme key of a data unit (DSI: the object's Hilbert-curve
    /// value; trees: the object's broadcast ordinal). Unused for index
    /// units.
    pub key: u64,
    /// For schemes with a fixed per-unit edge schema (DSI tables: the
    /// exponential entry ladder plus one local edge per announced
    /// object), the exact number of outgoing edges the schema demands.
    /// `None` when the schema is variable (tree nodes).
    pub expected_edges: Option<u32>,
}

/// The claim an index pointer makes about its target — the information a
/// client extracts from the packet bytes and acts on. The verifier
/// re-derives each claim from the model and rejects any mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeClaim {
    /// "The frame at the target holds keys starting at this minimum"
    /// (a DSI [`dsi_broadcast::PacketClass::Index`] table entry's `hc`
    /// field). Checked against the minimum key locally announced by the
    /// target unit.
    MinKey(u64),
    /// "The subtree at the target covers data ordinals `lo..hi`" (a tree
    /// node's child entry). Checked against the exact data-ordinal set
    /// statically reachable from the target.
    Covers {
        /// First covered data ordinal (inclusive).
        lo: u64,
        /// One past the last covered data ordinal.
        hi: u64,
    },
    /// "The object at the target is announced by this unit" (a DSI table's
    /// local object, a tree leaf's object entry). The target must be a
    /// data unit; every data unit needs at least one such in-edge or no
    /// tune-in can ever discover it.
    Local,
}

/// One pointer of the broadcast's index structure.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Flat position the pointer names (must be a unit start).
    pub target: u64,
    /// What the pointer claims about the target.
    pub claim: EdgeClaim,
}

/// The complete static description of one built broadcast program:
/// packets, channel layout, units, pointer graph and navigation entry
/// points. Everything the verifier and the bound analysis consume.
///
/// Extracted via [`Verifiable::static_model`]; scheme crates fill in the
/// edges/keys/entries after [`StaticModel::from_program`] captures the
/// packet- and channel-level facts.
#[derive(Debug, Clone)]
pub struct StaticModel {
    /// Scheme display name, for diagnostics and reports.
    pub scheme: &'static str,
    /// Flat packets per cycle.
    pub n_packets: u64,
    /// Packet capacity in bytes.
    pub capacity: u32,
    /// Parallel channels.
    pub n_channels: u32,
    /// Retune latency in packets.
    pub switch_cost: u32,
    /// Flat position → channel.
    pub chan_of: Vec<u32>,
    /// Flat position → slot within its channel's cycle.
    pub chan_slot: Vec<u64>,
    /// Channel → packets per its cycle.
    pub channel_lens: Vec<u64>,
    /// Flat position → packet class.
    pub classes: Vec<PacketClass>,
    /// Flat position → begins a unit.
    pub unit_start_flags: Vec<bool>,
    /// The unit structure, in flat order.
    pub units: Vec<Unit>,
    /// Outgoing pointer edges per unit (same indexing as `units`).
    pub edges: Vec<Vec<Edge>>,
    /// Units a freshly tuned-in client starts navigation from (DSI: every
    /// index table; trees: every segment start). Unit indices.
    pub entries: Vec<u32>,
    /// Full sequential passes over the cycle the worst-case client may
    /// need after navigation (query result scans; scheme-specific).
    pub sweep_passes: u32,
    /// Whether the layout came from [`dsi_broadcast::Placement::Explicit`]
    /// — enables the per-channel index-coverage check that analytic
    /// placements satisfy by construction.
    pub explicit_placement: bool,
}

impl StaticModel {
    /// Captures the packet- and channel-level facts of a built program:
    /// classes, unit runs, and the flat↔channel maps (reconstructed
    /// through the public [`Program`] API, so the model sees exactly what
    /// a client sees). Pointer edges, data keys and entry points are
    /// scheme knowledge; the scheme's [`Verifiable`] impl adds them.
    pub fn from_program<P: Payload>(scheme: &'static str, program: &Program<P>) -> Self {
        let n = program.len();
        let classes: Vec<PacketClass> = program.iter().map(|p| p.class()).collect();
        let unit_start_flags = program.unit_starts();
        let n_channels = program.n_channels();
        let mut chan_of = vec![0u32; n as usize];
        let mut chan_slot = vec![0u64; n as usize];
        let mut channel_lens = vec![0u64; n_channels as usize];
        for c in 0..n_channels {
            let len = program.channel_len(c);
            channel_lens[c as usize] = len;
            for slot in 0..len {
                let flat = program.flat_at(c, slot) as usize;
                chan_of[flat] = c;
                chan_slot[flat] = slot;
            }
        }
        let mut units = Vec::new();
        let mut i = 0u64;
        while i < n {
            let mut end = i + 1;
            while end < n && !unit_start_flags[end as usize] {
                end += 1;
            }
            let kind = match classes[i as usize] {
                PacketClass::Index => UnitKind::Index,
                // A unit "starting" with a payload packet is itself a
                // violation; classify as Data and let the class check
                // report it.
                PacketClass::ObjectHeader | PacketClass::ObjectPayload => UnitKind::Data,
            };
            units.push(Unit {
                start: i,
                len: end - i,
                kind,
                key: 0,
                expected_edges: None,
            });
            i = end;
        }
        let edges = vec![Vec::new(); units.len()];
        Self {
            scheme,
            n_packets: n,
            capacity: program.capacity(),
            n_channels,
            switch_cost: program.switch_cost(),
            chan_of,
            chan_slot,
            channel_lens,
            classes,
            unit_start_flags,
            units,
            edges,
            entries: Vec::new(),
            sweep_passes: 1,
            explicit_placement: program.placement_is_explicit(),
        }
    }

    /// The static model of a segmented tree broadcast laid out from
    /// `levels` (see [`SegmentedAir::try_build`]). Each node copy is an
    /// index unit with one `Covers` edge per copy of each child, claiming
    /// the child subtree's exact data-ordinal range (the navigational
    /// promise of its on-air entry), and, at leaves, `Local` edges to the
    /// announced objects. Data keys are depth-first object ranks: the
    /// broadcast order, in which every subtree owns one contiguous rank
    /// range. Entries are the segment starts, where a freshly tuned-in
    /// client seeds its descent.
    pub fn from_segmented<N>(
        scheme: &'static str,
        air: &SegmentedAir,
        levels: &[Vec<N>],
        children: impl Fn(&N) -> &Children,
    ) -> Self {
        let mut m = Self::from_program(scheme, air.program());
        // Worst window query: one tree level per cycle pass, plus the
        // result-object sweep.
        m.sweep_passes = levels.len() as u32 + 2;
        let root = air.root_level();
        rank_subtree(&mut m, air, levels, &children, root, 0, &mut 0);
        for &s in air.segment_starts() {
            let u = m.unit_at(s).expect("segment start is a unit start");
            m.entries.push(u as u32);
        }
        m
    }

    /// The unit whose first packet is exactly `flat`, if any.
    pub fn unit_at(&self, flat: u64) -> Option<usize> {
        let i = self.units.partition_point(|u| u.start < flat);
        (i < self.units.len() && self.units[i].start == flat).then_some(i)
    }

    /// The unit containing `flat` (any packet of the unit).
    pub fn unit_containing(&self, flat: u64) -> Option<usize> {
        if flat >= self.n_packets {
            return None;
        }
        let i = self.units.partition_point(|u| u.start <= flat);
        (i > 0).then(|| i - 1)
    }

    /// Units of [`UnitKind::Index`].
    pub fn n_index_units(&self) -> usize {
        self.units
            .iter()
            .filter(|u| u.kind == UnitKind::Index)
            .count()
    }

    /// Units of [`UnitKind::Data`].
    pub fn n_data_units(&self) -> usize {
        self.units
            .iter()
            .filter(|u| u.kind == UnitKind::Data)
            .count()
    }
}

/// Ranks the objects under node `(level, idx)` depth-first from `*next`,
/// keys their data units and adds the edges of every copy of the node;
/// returns the subtree's rank range `[lo, hi)`.
fn rank_subtree<N>(
    m: &mut StaticModel,
    air: &SegmentedAir,
    levels: &[Vec<N>],
    children: &impl Fn(&N) -> &Children,
    level: u8,
    idx: u32,
    next: &mut u64,
) -> (u64, u64) {
    let lo = *next;
    let mut edges = Vec::new();
    match children(&levels[level as usize][idx as usize]) {
        Children::Objects { start, count } => {
            for obj in *start..*start + *count {
                let target = air.object_pos(obj);
                let u = m.unit_at(target).expect("object header is a unit start");
                m.units[u].key = *next;
                *next += 1;
                edges.push(Edge {
                    target,
                    claim: EdgeClaim::Local,
                });
            }
        }
        Children::Nodes(kids) => {
            for &k in kids {
                let (lo, hi) = rank_subtree(m, air, levels, children, level - 1, k, next);
                edges.extend(air.copies(level - 1, k).map(|target| Edge {
                    target,
                    claim: EdgeClaim::Covers { lo, hi },
                }));
            }
        }
    }
    for copy in air.copies(level, idx) {
        let u = m.unit_at(copy).expect("node copy is a unit start");
        m.edges[u].extend_from_slice(&edges);
    }
    (lo, *next)
}

/// Implemented by every built air index that can describe itself to the
/// static analyzer. The contract: the returned model's pointer graph must
/// contain exactly the pointers a client can decode from the on-air
/// packets — no more (phantom edges would mask unreachability), no fewer
/// (missing edges would fail claims that actually hold).
pub trait Verifiable {
    /// Extracts the static model of this built broadcast.
    fn static_model(&self) -> StaticModel;
}
