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

/// A tree client's pending reads, each keyed by the arrival computed at
/// push time and then by its [`PendingRead`] fields. Ties break on the
/// key in that order; the goldens pin it.
///
/// A one-antenna client pops the smallest key, that is, by the arrival
/// computed at push time. That arrival goes stale when the client
/// retunes, which it does on any program with more than one channel, so
/// such a client can read in a stale order. A client with two or more
/// antennas re-plans every pop instead: it derives each pending read's
/// earliest copy again (a replicated path node has one copy per covering
/// segment, and the earliest changes as time passes) and picks through
/// [`Tuner::plan`]. With antennas retuning, pushed keys go
/// stale in both directions: an airing can be missed (key too low) or a
/// switch penalty can vanish once the channel is monitored (key too
/// high), and either error costs up to a full channel cycle.
#[derive(Debug, Clone)]
pub enum ReadQueue<X> {
    /// One antenna: a heap of full keys.
    Scheduled(BinaryHeap<Reverse<(u64, PendingRead<X>)>>),
    /// Two or more antennas: planned at every pop.
    Planned {
        /// The pending reads.
        items: Vec<PendingRead<X>>,
        /// Reused flat-position buffer for the planner.
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
                flats: Vec::new(),
            }
        } else {
            ReadQueue::Scheduled(BinaryHeap::new())
        };
        queue.push_node(air, tuner, air.root_level(), 0, extra);
        queue
    }

    fn push(&mut self, at: u64, read: PendingRead<X>) {
        match self {
            ReadQueue::Scheduled(heap) => heap.push(Reverse((at, read))),
            ReadQueue::Planned { items, .. } => items.push(read),
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
            ReadQueue::Planned { items, flats } => {
                for item in items.iter_mut() {
                    if item.0 != OBJECT {
                        item.3 = air.node_arrival(tuner, item.0, item.1).1;
                    }
                }
                flats.clear();
                flats.extend(items.iter().map(|item| item.3));
                let (pick, _) = tuner.plan(flats, |i| air.unit_dur(items[i].0))?;
                Some(items.swap_remove(pick))
            }
        }
    }
}
