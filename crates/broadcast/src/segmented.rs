//! Segmented tree broadcast: the distributed indexing of Imielinski et
//! al., shared by the R-tree and HCI baselines.
//!
//! The cycle is a run of *segments*, one per subtree at a cut level (the
//! lowest tree level with at most [`MAX_SEGMENTS`] nodes). Each segment
//! airs:
//!
//! 1. a copy of the **path** from the root down to the segment root's
//!    parent, so a client tuning in anywhere can seed its search at the
//!    next segment boundary instead of waiting for the cycle start (the
//!    replicated part);
//! 2. the segment's **subtree nodes**, depth-first, each once per cycle
//!    (the non-replicated part);
//! 3. the segment's **objects**, in the order its leaves list them.
//!
//! Every node slot of a level has a fixed packet count, so every position
//! is statically computable: the client-known schema, as for DSI. Node
//! contents (bounds, child assignment) are only available by reading
//! packets.
//!
//! [`SegmentedAir`] lays a tree out and answers where and when a node's
//! copies air; [`ReadQueue`] decides which pending read a tree client
//! takes next. The tree crates keep their trees, their fanout and
//! packet-size accounting, and their searches.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{ChannelConfig, LayoutError, LossModel, PacketClass, Payload, Program, Tuner};

/// Upper bound on the segments of one cycle: the cut level is the lowest
/// level with at most this many nodes, so each segment is roughly 1 % of
/// the cycle or more.
pub const MAX_SEGMENTS: u32 = 128;

/// The read kind of an object record; a node read's kind is its level.
pub const OBJECT: u8 = u8::MAX;

/// One packet of a segmented tree broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreePacket {
    /// Part of a path copy or subtree node.
    Node {
        /// Tree level of the node (leaves are level 0).
        level: u8,
        /// Node index within its level.
        idx: u32,
        /// Packet index within the node slot.
        part: u16,
    },
    /// First packet of a data object.
    ObjHeader {
        /// Index into the tree's object array.
        obj: u32,
    },
    /// Continuation packet of a data object.
    ObjPayload {
        /// Index into the tree's object array.
        obj: u32,
        /// Sequence number (1-based).
        seq: u16,
    },
}

impl Payload for TreePacket {
    fn class(&self) -> PacketClass {
        match self {
            TreePacket::Node { .. } => PacketClass::Index,
            TreePacket::ObjHeader { .. } => PacketClass::ObjectHeader,
            TreePacket::ObjPayload { .. } => PacketClass::ObjectPayload,
        }
    }

    fn unit_start(&self) -> bool {
        match self {
            TreePacket::Node { part, .. } => *part == 0,
            TreePacket::ObjHeader { .. } => true,
            TreePacket::ObjPayload { .. } => false,
        }
    }
}

/// What a tree node points at.
#[derive(Debug, Clone)]
pub enum Children {
    /// Indices into the next-lower node level.
    Nodes(Vec<u32>),
    /// A contiguous run of the tree's object array (leaves).
    Objects {
        /// First object index.
        start: u32,
        /// Number of objects.
        count: u32,
    },
}

/// Packets per slot of each kind of broadcast unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotPackets {
    /// Packets per leaf-node slot.
    pub leaf: u64,
    /// Packets per internal-node slot; every path copy is one.
    pub internal: u64,
    /// Packets per object record.
    pub object: u64,
}

impl SlotPackets {
    /// Packets in one unit of `kind`: an object record ([`OBJECT`]) or a
    /// node slot at level `kind`.
    fn of(&self, kind: u8) -> u64 {
        match kind {
            OBJECT => self.object,
            0 => self.leaf,
            _ => self.internal,
        }
    }
}

/// Where a node's copies air.
#[derive(Debug, Clone)]
enum NodeWhere {
    /// One occurrence per cycle (a subtree node).
    Single(u64),
    /// One copy in the path of every segment in `[first, last]`.
    PerSegment {
        /// First covering segment.
        first: u32,
        /// Last covering segment (inclusive).
        last: u32,
        /// Packet offset of the copy inside each segment's path.
        path_offset: u64,
    },
}

/// A tree laid out as a segmented broadcast (see the module docs).
#[derive(Debug, Clone)]
pub struct SegmentedAir {
    program: Program<TreePacket>,
    /// Copies of each node, by `[level][idx]`.
    node_where: Vec<Vec<NodeWhere>>,
    /// First packet of each segment (ascending).
    segment_starts: Vec<u64>,
    /// Packet position of each object's header.
    object_pos: Vec<u64>,
    slots: SlotPackets,
}

impl SegmentedAir {
    /// Lays out the tree whose nodes are `levels` (leaves first; the last
    /// level holds the single root) and schedules the cycle over
    /// `channels`. `children` reads a node's children. Segments follow a
    /// depth-first walk from the root, so the objects air in depth-first
    /// leaf order.
    pub fn try_build<N>(
        capacity: u32,
        channels: ChannelConfig,
        slots: SlotPackets,
        levels: &[Vec<N>],
        children: impl Fn(&N) -> &Children,
    ) -> Result<Self, LayoutError> {
        let height = levels.len();
        let cut = (0..height)
            .find(|&lv| levels[lv].len() as u32 <= MAX_SEGMENTS)
            .unwrap_or(height - 1);
        let n_objects: u32 = levels[0]
            .iter()
            .map(|leaf| match children(leaf) {
                Children::Objects { count, .. } => *count,
                Children::Nodes(_) => 0,
            })
            .sum();
        let mut b = Builder {
            levels,
            children,
            slots,
            cut,
            packets: Vec::new(),
            node_where: levels
                .iter()
                .map(|lv| vec![NodeWhere::Single(0); lv.len()])
                .collect(),
            segment_starts: Vec::new(),
            object_pos: vec![0; n_objects as usize],
            path: Vec::new(),
            objects: Vec::new(),
        };
        b.walk(height - 1, 0);
        // Frame granularity for `Placement::StripeFrames`: one frame per
        // segment. Segment starts are positional (a root copy looks the
        // same at every occurrence), so they are passed explicitly.
        let mut frame_starts = vec![false; b.packets.len()];
        for &s in &b.segment_starts {
            frame_starts[s as usize] = true;
        }
        let program =
            Program::try_with_channels_frames(capacity, b.packets, channels, &frame_starts)?;
        Ok(Self {
            program,
            node_where: b.node_where,
            segment_starts: b.segment_starts,
            object_pos: b.object_pos,
            slots,
        })
    }

    /// The broadcast packet program.
    pub fn program(&self) -> &Program<TreePacket> {
        &self.program
    }

    /// The root's level.
    pub fn root_level(&self) -> u8 {
        (self.node_where.len() - 1) as u8
    }

    /// First packet of each segment, ascending.
    pub fn segment_starts(&self) -> &[u64] {
        &self.segment_starts
    }

    /// Packet position of object `obj`'s header.
    pub fn object_pos(&self, obj: u32) -> u64 {
        self.object_pos[obj as usize]
    }

    /// Flat positions of every copy of node `(level, idx)`, ascending.
    pub fn copies(&self, level: u8, idx: u32) -> impl Iterator<Item = u64> + '_ {
        let (single, segments, offset) = match self.node_where[level as usize][idx as usize] {
            NodeWhere::Single(pos) => (Some(pos), 0..0, 0),
            NodeWhere::PerSegment {
                first,
                last,
                path_offset,
            } => (None, first..last + 1, path_offset),
        };
        single
            .into_iter()
            .chain(segments.map(move |s| self.segment_starts[s as usize] + offset))
    }

    /// The earliest instant at which `tuner` can read node `(level, idx)`
    /// (channel placement, antennas and switch cost included), and the
    /// flat position of that copy.
    pub fn node_arrival(&self, tuner: &Tuner<'_, TreePacket>, level: u8, idx: u32) -> (u64, u64) {
        let mut best = (u64::MAX, 0);
        for flat in self.copies(level, idx) {
            let t = tuner.arrival(flat);
            if t < best.0 {
                best = (t, flat);
            }
        }
        best
    }

    /// Packets one read of `kind` holds the receiver for: an object
    /// record ([`OBJECT`]) or a node slot at level `kind`.
    pub fn unit_dur(&self, kind: u8) -> u64 {
        self.slots.of(kind)
    }

    /// Reads every packet of one unit of `kind` (see
    /// [`SegmentedAir::unit_dur`]); `false` as soon as a packet is lost.
    pub fn read_unit(&self, tuner: &mut Tuner<'_, TreePacket>, kind: u8) -> bool {
        (0..self.unit_dur(kind)).all(|_| tuner.read().is_ok())
    }

    /// The arrival of the earliest root copy for a client tuning in at
    /// `start`: a tree client's first read, so the cohort-coalescing
    /// anchor of [`crate::AirScheme::tune_anchor`]. It goes through the
    /// same [`SegmentedAir::node_arrival`] that [`ReadQueue::seed`] uses,
    /// so the anchor cannot drift from the entry. `None` on more than one
    /// channel.
    pub fn root_anchor(&self, start: u64) -> Option<u64> {
        if self.program.n_channels() != 1 {
            return None;
        }
        let tuner = Tuner::tune_in(&self.program, start, LossModel::None, 0);
        Some(self.node_arrival(&tuner, self.root_level(), 0).0)
    }
}

/// The layout walk's state.
struct Builder<'t, N, F> {
    levels: &'t [Vec<N>],
    children: F,
    slots: SlotPackets,
    cut: usize,
    packets: Vec<TreePacket>,
    node_where: Vec<Vec<NodeWhere>>,
    segment_starts: Vec<u64>,
    object_pos: Vec<u64>,
    /// Above-cut ancestors of the current node, root first.
    path: Vec<u32>,
    /// Objects of the current segment, in leaf order.
    objects: Vec<u32>,
}

impl<'t, N, F: Fn(&N) -> &Children> Builder<'t, N, F> {
    fn children(&self, level: usize, idx: u32) -> &'t Children {
        let levels = self.levels;
        (self.children)(&levels[level][idx as usize])
    }

    /// Walks the tree above the cut depth-first; every cut-level node
    /// starts a segment.
    fn walk(&mut self, level: usize, idx: u32) {
        if level == self.cut {
            self.segment(idx);
            return;
        }
        let Children::Nodes(kids) = self.children(level, idx) else {
            unreachable!("above-cut node must be internal");
        };
        self.path.push(idx);
        for &k in kids {
            self.walk(level - 1, k);
        }
        self.path.pop();
    }

    /// Emits one segment: the path copies, the subtree rooted at cut-level
    /// node `root`, then its objects.
    fn segment(&mut self, root: u32) {
        let si = self.segment_starts.len() as u32;
        let start = self.packets.len() as u64;
        self.segment_starts.push(start);
        let top = self.levels.len() - 1;
        for pi in 0..self.path.len() {
            let (level, anc) = (top - pi, self.path[pi]);
            let offset = self.packets.len() as u64 - start;
            match &mut self.node_where[level][anc as usize] {
                w @ NodeWhere::Single(_) => {
                    *w = NodeWhere::PerSegment {
                        first: si,
                        last: si,
                        path_offset: offset,
                    };
                }
                NodeWhere::PerSegment {
                    last, path_offset, ..
                } => {
                    debug_assert_eq!(*path_offset, offset);
                    *last = si;
                }
            }
            self.push_node(level, anc);
        }
        self.subtree(self.cut, root);
        for obj in std::mem::take(&mut self.objects) {
            self.object_pos[obj as usize] = self.packets.len() as u64;
            self.packets.push(TreePacket::ObjHeader { obj });
            for seq in 1..self.slots.object {
                self.packets.push(TreePacket::ObjPayload {
                    obj,
                    seq: seq as u16,
                });
            }
        }
    }

    /// Emits the subtree at `(level, idx)` depth-first and lists its
    /// objects.
    fn subtree(&mut self, level: usize, idx: u32) {
        self.node_where[level][idx as usize] = NodeWhere::Single(self.packets.len() as u64);
        self.push_node(level, idx);
        match self.children(level, idx) {
            Children::Nodes(kids) => {
                for &k in kids {
                    self.subtree(level - 1, k);
                }
            }
            Children::Objects { start, count } => self.objects.extend(*start..*start + *count),
        }
    }

    fn push_node(&mut self, level: usize, idx: u32) {
        for part in 0..self.slots.of(level as u8) {
            self.packets.push(TreePacket::Node {
                level: level as u8,
                idx,
                part: part as u16,
            });
        }
    }
}

/// One pending read, `(kind, payload, extra, flat)`: [`OBJECT`] or a node
/// level, the object or node index, a client-defined value (`()` for the
/// R-tree, the subtree's key upper bound for HCI), and the flat position
/// to tune to.
pub type PendingRead<X> = (u8, u32, X, u64);

/// A tree client's pending reads.
///
/// A one-antenna client keys each read by the arrival computed at push
/// time and then by its [`PendingRead`] fields, and pops the smallest
/// key; ties break on the key in that order, and the goldens pin it.
/// That arrival goes stale when the client retunes, which it does on any
/// program with more than one channel: an airing can pass while the
/// client listens elsewhere, and the read then waits up to a full channel
/// cycle past its key. So such a client can read in a stale order.
///
/// A client with two or more antennas pops what [`Tuner::plan`] picks
/// from every pending read at its earliest copy (a replicated path node
/// has one copy per covering segment, and the earliest changes as time
/// passes), ties going to the lowest index of `items`. It stores each
/// read's arrival as derived at push time or at the read's last check,
/// and takes the first minimum of the stored keys. It derives that read's
/// arrival again, which may move a node to a later copy; while the value
/// changes it stores it and scans again. It settles the runner-up the
/// same way and hands both to the planner's conflict rule. During a fade
/// the whole list goes through [`Tuner::plan`] instead. This is exact:
///
/// - A stored key never exceeds the read's current arrival. While the
///   monitored channels stay the same, a flat position's arrival never
///   decreases as the clock advances, so neither does the minimum over a
///   node's copies. A retune that starts monitoring a channel lowers the
///   arrivals there by the switch cost, but the retune itself takes that
///   long: the clock ends up at least the switch cost past the instant
///   any older key was derived at. A retune that stops monitoring a
///   channel only raises arrivals.
/// - So a key equal to the read's current arrival is exact. Let `x` be
///   the first minimum of the stored keys, with an exact key `t_x`.
///   Every other read's arrival is at least its key, which is at least
///   `t_x`, and strictly greater at lower indices. So `x` is the first
///   minimum of the current arrivals, the planner's leader. The same
///   argument over the rest makes the settled runner-up the planner's.
/// - During a fade the planner backs off every read on the fading
///   channel, so the stored keys do not give its pick.
#[derive(Debug, Clone)]
pub enum ReadQueue<X> {
    /// One antenna: a heap of full keys.
    Scheduled(BinaryHeap<Reverse<(u64, PendingRead<X>)>>),
    /// Two or more antennas: planned at every pop from stored arrivals.
    Planned {
        /// The pending reads: a push appends, a pop moves the last read
        /// into the popped one's slot.
        items: Vec<PendingRead<X>>,
        /// Each read's arrival, as derived at push time or at its last
        /// check.
        at: Vec<u64>,
        /// Reused flat-position buffer for the full plan.
        flats: Vec<u64>,
    },
}

impl<X: Copy + Ord> ReadQueue<X> {
    /// A queue holding the root read, tagged `extra`, at its earliest
    /// readable copy.
    pub fn seed(air: &SegmentedAir, tuner: &Tuner<'_, TreePacket>, extra: X) -> Self {
        let mut queue = if tuner.antennas() > 1 {
            ReadQueue::Planned {
                items: Vec::new(),
                at: Vec::new(),
                flats: Vec::new(),
            }
        } else {
            ReadQueue::Scheduled(BinaryHeap::new())
        };
        queue.push_node(air, tuner, air.root_level(), 0, extra);
        queue
    }

    fn push(&mut self, t: u64, read: PendingRead<X>) {
        match self {
            ReadQueue::Scheduled(heap) => heap.push(Reverse((t, read))),
            ReadQueue::Planned { items, at, .. } => {
                items.push(read);
                at.push(t);
            }
        }
    }

    /// Queues a read of node `(level, idx)` at its earliest readable copy.
    pub fn push_node(
        &mut self,
        air: &SegmentedAir,
        tuner: &Tuner<'_, TreePacket>,
        level: u8,
        idx: u32,
        extra: X,
    ) {
        let (at, flat) = air.node_arrival(tuner, level, idx);
        self.push(at, (level, idx, extra, flat));
    }

    /// Queues a read of object `obj`.
    pub fn push_object(
        &mut self,
        air: &SegmentedAir,
        tuner: &Tuner<'_, TreePacket>,
        obj: u32,
        extra: X,
    ) {
        let flat = air.object_pos(obj);
        self.push(tuner.arrival(flat), (OBJECT, obj, extra, flat));
    }

    /// The next read.
    pub fn pop(
        &mut self,
        air: &SegmentedAir,
        tuner: &mut Tuner<'_, TreePacket>,
    ) -> Option<PendingRead<X>> {
        match self {
            ReadQueue::Scheduled(heap) => heap.pop().map(|Reverse((_, read))| read),
            ReadQueue::Planned { items, at, flats } => {
                let pick = if tuner.fade_active() {
                    replan(air, tuner, items, at, flats)
                } else {
                    plan_from_keys(air, tuner, items, at)
                }?;
                at.swap_remove(pick);
                Some(items.swap_remove(pick))
            }
        }
    }
}

/// Derives `read`'s arrival again, moving a node read to its earliest
/// copy.
fn rekey<X>(air: &SegmentedAir, tuner: &Tuner<'_, TreePacket>, read: &mut PendingRead<X>) -> u64 {
    if read.0 == OBJECT {
        return tuner.arrival(read.3);
    }
    let (t, flat) = air.node_arrival(tuner, read.0, read.1);
    read.3 = flat;
    t
}

/// The full plan: derives every key and earliest copy again and hands the
/// whole list to [`Tuner::plan`]. A fade pops through it; the incremental
/// pop must return what it returns.
fn replan<X>(
    air: &SegmentedAir,
    tuner: &mut Tuner<'_, TreePacket>,
    items: &mut [PendingRead<X>],
    at: &mut [u64],
    flats: &mut Vec<u64>,
) -> Option<usize> {
    for (read, key) in items.iter_mut().zip(at.iter_mut()) {
        *key = rekey(air, tuner, read);
    }
    flats.clear();
    flats.extend(items.iter().map(|read| read.3));
    let (pick, _) = tuner.plan(flats, |i| air.unit_dur(items[i].0))?;
    Some(pick)
}

/// [`Tuner::plan`]'s loss-blind pick, from keys that are lower bounds on
/// the current arrivals (see [`ReadQueue`]).
fn plan_from_keys<X>(
    air: &SegmentedAir,
    tuner: &Tuner<'_, TreePacket>,
    items: &mut [PendingRead<X>],
    at: &mut [u64],
) -> Option<usize> {
    let x = settle_min(air, tuner, items, at, None)?;
    let y = settle_min(air, tuner, items, at, Some(x.0));
    let (pick, _) = tuner.settle_conflict(x, y, |i| items[i].3, |i| air.unit_dur(items[i].0));
    Some(pick)
}

/// The first minimum of the keys, `skip` aside, and its arrival: derives
/// the minimum's arrival again and scans again until its key holds.
fn settle_min<X>(
    air: &SegmentedAir,
    tuner: &Tuner<'_, TreePacket>,
    items: &mut [PendingRead<X>],
    at: &mut [u64],
    skip: Option<usize>,
) -> Option<(usize, u64)> {
    loop {
        let mut min: Option<(usize, u64)> = None;
        for (i, &t) in at.iter().enumerate() {
            if min.is_none_or(|(_, m)| t < m) && skip != Some(i) {
                min = Some((i, t));
            }
        }
        let (i, key) = min?;
        let t = rekey(air, tuner, &mut items[i]);
        if t == key {
            return Some((i, t));
        }
        debug_assert!(t > key, "a stored key exceeds its read's arrival");
        at[i] = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AntennaConfig, GilbertElliott, OutageWindow, Placement};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random tree of 16 to 128 leaves, leaves first: each leaf holds
    /// one to three objects and each upper level groups runs of two to
    /// four nodes. The leaves are the cut level, so every internal node
    /// airs as replicated path copies.
    fn random_tree(rng: &mut StdRng) -> Vec<Vec<Children>> {
        let mut objects = 0;
        let leaves: Vec<Children> = (0..rng.gen_range(16..129usize))
            .map(|_| {
                let count = rng.gen_range(1..4u64) as u32;
                objects += count;
                Children::Objects {
                    start: objects - count,
                    count,
                }
            })
            .collect();
        let mut levels = vec![leaves];
        while levels.last().expect("leaves").len() > 1 {
            let below = levels.last().expect("leaves").len() as u32;
            let mut level = Vec::new();
            let mut first = 0;
            while first < below {
                let last = (first + rng.gen_range(2..5u64) as u32).min(below);
                level.push(Children::Nodes((first..last).collect()));
                first = last;
            }
            levels.push(level);
        }
        levels
    }

    /// A unit-to-channel map that gives each of the first `channels` index
    /// units its own channel and every other unit a random one.
    fn random_assignment(
        program: &Program<TreePacket>,
        channels: u32,
        rng: &mut StdRng,
    ) -> Vec<u32> {
        let mut index_units = 0;
        (0..program.len())
            .filter(|&flat| program.get(flat).unit_start())
            .map(|flat| match program.get(flat).class() {
                PacketClass::Index if index_units < channels => {
                    index_units += 1;
                    index_units - 1
                }
                _ => rng.gen_range(0..channels as u64) as u32,
            })
            .collect()
    }

    /// The full plan as a pop: what [`ReadQueue::pop`] must return.
    fn pop_replanned(
        queue: &mut ReadQueue<()>,
        air: &SegmentedAir,
        tuner: &mut Tuner<'_, TreePacket>,
    ) -> Option<PendingRead<()>> {
        let ReadQueue::Planned {
            items, at, flats, ..
        } = queue
        else {
            panic!("a multi-antenna queue plans");
        };
        let pick = replan(air, tuner, items, at, flats)?;
        at.swap_remove(pick);
        Some(items.swap_remove(pick))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Two clients walk one random tree in lockstep on identical
        /// tuners; one pops incrementally, the other through the full
        /// plan. Every pop, every instant and the final metrics agree.
        #[test]
        fn incremental_pop_equals_full_replan(
            seed in any::<u64>(),
            channels in 2u32..5,
            placement in 0u32..4,
            switch_cost in 0u32..5,
            loss in 0u32..4,
            start_seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut levels = random_tree(&mut rng);
            let mut size = || rng.gen_range(1..3u64);
            let slots = if placement == 1 {
                let s = size();
                SlotPackets { leaf: s, internal: s, object: s }
            } else {
                SlotPackets { leaf: size(), internal: size(), object: size() }
            };
            let build = |levels: &[Vec<Children>], channels| {
                SegmentedAir::try_build(64, channels, slots, levels, |c| c)
                    .expect("the layout builds")
            };
            let one_channel = build(&levels, ChannelConfig::single());
            let placement = match placement {
                0 => Placement::Blocked,
                1 => {
                    // One unit size and a unit count divisible by C give
                    // every channel the same length, so each stripe row
                    // airs at one instant and reads on different channels
                    // tie.
                    let units = one_channel.program().unit_starts().iter().filter(|&&u| u).count();
                    let Some(Children::Objects { count, .. }) = levels[0].last_mut() else {
                        unreachable!("leaves hold objects");
                    };
                    *count += (channels - units as u32 % channels) % channels;
                    Placement::Stripe
                }
                2 => Placement::IndexData {
                    index_channels: rng.gen_range(1..channels as u64) as u32,
                },
                _ => {
                    let assignment = random_assignment(one_channel.program(), channels, &mut rng);
                    Placement::Explicit(assignment)
                }
            };
            let air = build(&levels, ChannelConfig {
                channels,
                placement,
                switch_cost,
            });
            let start = start_seed % air.program().len();
            let loss = match loss {
                0 => LossModel::None,
                1 => LossModel::iid(0.3),
                2 => LossModel::Gilbert(GilbertElliott::new(0.075, 0.25, 0.9)),
                _ => LossModel::outage(vec![OutageWindow {
                    channel: 0,
                    start,
                    len: rng.gen_range(20..300u64),
                }]),
            };
            let antennas = AntennaConfig::new(rng.gen_range(2..channels as u64 + 1) as u32);
            let tune_in =
                || Tuner::tune_in_with(air.program(), start, loss.clone(), seed, antennas);
            let (mut fast, mut full) = (tune_in(), tune_in());
            let mut fast_q = ReadQueue::seed(&air, &fast, ());
            let mut full_q = ReadQueue::seed(&air, &full, ());
            loop {
                let read = fast_q.pop(&air, &mut fast);
                prop_assert_eq!(read, pop_replanned(&mut full_q, &air, &mut full));
                let Some((kind, idx, (), flat)) = read else {
                    break;
                };
                prop_assert_eq!(fast.goto(flat), full.goto(flat));
                let ok = air.read_unit(&mut fast, kind);
                prop_assert_eq!(ok, air.read_unit(&mut full, kind));
                let mut push = |level, idx| {
                    for (q, t) in [(&mut fast_q, &fast), (&mut full_q, &full)] {
                        if level == OBJECT {
                            q.push_object(&air, t, idx, ());
                        } else {
                            q.push_node(&air, t, level, idx, ());
                        }
                    }
                };
                if !ok {
                    push(kind, idx);
                } else if kind != OBJECT {
                    match &levels[kind as usize][idx as usize] {
                        Children::Nodes(kids) => {
                            for &kid in kids.iter().filter(|_| rng.gen_bool(0.8)) {
                                push(kind - 1, kid);
                            }
                        }
                        Children::Objects { start, count } => {
                            for obj in (*start..start + count).filter(|_| rng.gen_bool(0.8)) {
                                push(OBJECT, obj);
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(fast.stats(), full.stats());
            prop_assert_eq!(fast.channel_stats(), full.channel_stats());
        }
    }
}
