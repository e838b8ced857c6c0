//! Building the DSI broadcast: server side.

use dsi_broadcast::{AirScheme, ChannelConfig, LayoutError, PacketClass, Payload, Program, Tuner};
use dsi_datagen::{Object, SpatialDataset};
use dsi_geom::GridMapper;
use dsi_geom::{Point, Rect};
use dsi_hilbert::HilbertCurve;

use crate::config::{compute_framing, DsiConfig};
use crate::layout::DsiLayout;
use crate::table::{build_tables, IndexTable};

/// One packet of a DSI broadcast. Packets reference the logical content by
/// (slot, object index) — the simulator's equivalent of the bytes on the
/// air; [`DsiAir::object`] and [`DsiAir::table`] resolve what a client
/// receives when it reads the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DsiPacket {
    /// Part `part` of the index table of broadcast slot `slot`.
    Table {
        /// Broadcast slot.
        slot: u32,
        /// Packet index within the (possibly multi-packet) table.
        part: u32,
    },
    /// First packet of a data object: carries its coordinates and HC value.
    ObjHeader {
        /// Broadcast slot.
        slot: u32,
        /// Object index within the slot.
        idx: u32,
    },
    /// Subsequent packet of a data object's 1024-byte record.
    ObjPayload {
        /// Broadcast slot.
        slot: u32,
        /// Object index within the slot.
        idx: u32,
        /// Packet sequence number within the object (1-based).
        seq: u32,
    },
}

impl Payload for DsiPacket {
    fn class(&self) -> PacketClass {
        match self {
            DsiPacket::Table { .. } => PacketClass::Index,
            DsiPacket::ObjHeader { .. } => PacketClass::ObjectHeader,
            DsiPacket::ObjPayload { .. } => PacketClass::ObjectPayload,
        }
    }

    fn unit_start(&self) -> bool {
        match self {
            DsiPacket::Table { part, .. } => *part == 0,
            DsiPacket::ObjHeader { .. } => true,
            DsiPacket::ObjPayload { .. } => false,
        }
    }

    fn frame_start(&self) -> bool {
        // A DSI frame is an index table plus the objects that follow it:
        // the granularity clients scan serially, which
        // `Placement::StripeFrames` keeps on one channel.
        matches!(self, DsiPacket::Table { part: 0, .. })
    }
}

/// Metadata of one broadcast slot (frame) — server side.
#[derive(Debug, Clone, Copy)]
pub struct FrameMeta {
    /// HC-order frame index carried by this slot.
    pub hc_index: u32,
    /// Smallest HC value of the frame's objects.
    pub min_hc: u64,
    /// Range of the HC-sorted object array held by this frame.
    pub obj_start: u32,
    /// Number of objects in the frame.
    pub n_obj: u32,
}

/// A complete DSI broadcast: layout (client schema), index tables, frame
/// metadata, HC-sorted objects, and the packet program.
#[derive(Debug, Clone)]
pub struct DsiAir {
    layout: DsiLayout,
    curve: HilbertCurve,
    mapper: GridMapper,
    tables: Vec<IndexTable>,
    frames: Vec<FrameMeta>,
    objects: Vec<Object>,
    program: Program<DsiPacket>,
}

impl DsiAir {
    /// Builds the single-channel broadcast for a dataset under a
    /// configuration.
    pub fn build(dataset: &SpatialDataset, config: DsiConfig) -> Self {
        Self::build_channels(dataset, config, ChannelConfig::single())
    }

    /// Builds the broadcast scheduled over the channels of `channels`.
    /// The flat cycle (the schema clients address) is identical to the
    /// single-channel build; only the on-air scheduling differs.
    ///
    /// Panics when the channel configuration cannot schedule this cycle;
    /// [`DsiAir::try_build_channels`] reports the defect as a
    /// [`LayoutError`] instead.
    pub fn build_channels(
        dataset: &SpatialDataset,
        config: DsiConfig,
        channels: ChannelConfig,
    ) -> Self {
        match Self::try_build_channels(dataset, config, channels) {
            Ok(air) => air,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`DsiAir::build_channels`]: a channel configuration that
    /// cannot schedule this cycle (zero channels, stranded explicit
    /// assignment, …) comes back as the structural [`LayoutError`] rather
    /// than a panic, so batch drivers can reject the cell and continue.
    pub fn try_build_channels(
        dataset: &SpatialDataset,
        config: DsiConfig,
        channels: ChannelConfig,
    ) -> Result<Self, LayoutError> {
        let objects: Vec<Object> = dataset.objects().to_vec();
        let n = objects.len() as u32;
        let framing = compute_framing(&config, n);

        // Chunk HC-sorted objects into HC-order frames and record minima.
        let mut frame_obj_start = Vec::with_capacity(framing.n_frames as usize);
        let mut frame_min_hc = Vec::with_capacity(framing.n_frames as usize);
        let mut at = 0u32;
        for &count in &framing.objects_per_frame {
            frame_obj_start.push(at);
            frame_min_hc.push(objects[at as usize].hc);
            at += count;
        }
        debug_assert_eq!(at, n);

        let layout = DsiLayout::new(config, n, &frame_min_hc);
        let tables = build_tables(&layout, &frame_min_hc);

        // Per-slot frame metadata and the packet program.
        let mut frames = Vec::with_capacity(layout.n_frames() as usize);
        let mut packets = Vec::with_capacity(layout.cycle_packets() as usize);
        for slot in 0..layout.n_frames() {
            let hc_index = layout.hc_index_of_slot(slot);
            let n_obj = framing.objects_per_frame[hc_index as usize];
            frames.push(FrameMeta {
                hc_index,
                min_hc: frame_min_hc[hc_index as usize],
                obj_start: frame_obj_start[hc_index as usize],
                n_obj,
            });
            for part in 0..framing.table_packets {
                packets.push(DsiPacket::Table { slot, part });
            }
            for idx in 0..n_obj {
                packets.push(DsiPacket::ObjHeader { slot, idx });
                for seq in 1..framing.object_packets {
                    packets.push(DsiPacket::ObjPayload { slot, idx, seq });
                }
            }
        }
        debug_assert_eq!(packets.len() as u64, layout.cycle_packets());
        let program = Program::try_with_channels(config.capacity, packets, channels)?;

        Ok(Self {
            layout,
            curve: *dataset.curve(),
            mapper: *dataset.mapper(),
            tables,
            frames,
            objects,
            program,
        })
    }

    /// The client-known broadcast schema.
    #[inline]
    pub fn layout(&self) -> &DsiLayout {
        &self.layout
    }

    /// The broadcast packet program (tune a [`dsi_broadcast::Tuner`] into it).
    #[inline]
    pub fn program(&self) -> &Program<DsiPacket> {
        &self.program
    }

    /// The Hilbert curve of the broadcast (schema).
    #[inline]
    pub fn curve(&self) -> &HilbertCurve {
        &self.curve
    }

    /// The grid mapping of the broadcast (schema).
    #[inline]
    pub fn mapper(&self) -> &GridMapper {
        &self.mapper
    }

    /// Index table of a broadcast slot (the content a client receives once
    /// it has read all the table's packets).
    #[inline]
    pub fn table(&self, slot: u32) -> &IndexTable {
        &self.tables[slot as usize]
    }

    /// Frame metadata of a broadcast slot.
    #[inline]
    pub fn frame(&self, slot: u32) -> &FrameMeta {
        &self.frames[slot as usize]
    }

    /// The object at `(slot, idx)` — what a client receives from the
    /// object's header packet.
    #[inline]
    pub fn object(&self, slot: u32, idx: u32) -> &Object {
        let f = &self.frames[slot as usize];
        debug_assert!(idx < f.n_obj);
        &self.objects[(f.obj_start + idx) as usize]
    }

    /// All objects in HC order.
    #[inline]
    pub fn objects(&self) -> &[Object] {
        &self.objects
    }
}

/// A [`DsiAir`] bound to a kNN navigation strategy — DSI as a unified
/// [`AirScheme`] the scheme-agnostic driver can run.
#[derive(Debug, Clone)]
pub struct DsiScheme {
    /// The built broadcast.
    pub air: DsiAir,
    /// Navigation strategy used for kNN queries.
    pub strategy: crate::knn::KnnStrategy,
}

impl AirScheme for DsiScheme {
    type Packet = DsiPacket;

    fn program(&self) -> &Program<DsiPacket> {
        self.air.program()
    }

    fn window(&self, tuner: &mut Tuner<'_, DsiPacket>, window: &Rect) -> Vec<u32> {
        self.air.window_query(tuner, window)
    }

    fn knn(&self, tuner: &mut Tuner<'_, DsiPacket>, q: Point, k: usize) -> Vec<u32> {
        self.air.knn_query(tuner, q, k, self.strategy)
    }

    /// A DSI client's first act on one channel is to doze to the next
    /// frame boundary (the same `next_frame_boundary` call the driver
    /// makes), so that boundary instant is the coalescing anchor.
    fn tune_anchor(&self, start: u64) -> Option<u64> {
        if self.program().n_channels() != 1 {
            return None;
        }
        Some(self.air.layout().next_frame_boundary(start).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_datagen::uniform;

    fn air(segments: u32, capacity: u32) -> DsiAir {
        let ds = SpatialDataset::build(&uniform(200, 5), 10);
        let cfg = DsiConfig {
            segments,
            ..DsiConfig::paper_default().with_capacity(capacity)
        };
        DsiAir::build(&ds, cfg)
    }

    /// The scheme-agnostic driver rejects a NaN or infinite query
    /// coordinate, naming the query, before this client sees it: a NaN
    /// kNN point used to panic deep inside the search, and a NaN window
    /// answered nothing.
    #[test]
    fn driver_rejects_non_finite_queries() {
        use dsi_broadcast::{drive, LossModel, Query};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let scheme = DsiScheme {
            air: air(2, 64),
            strategy: crate::knn::KnnStrategy::Conservative,
        };
        for query in [
            Query::Knn(Point::new(f64::NAN, 0.5), 3),
            Query::Knn(Point::new(0.5, f64::INFINITY), 1),
            Query::Window(Rect {
                min: Point::new(0.1, f64::NAN),
                max: Point::new(0.4, 0.4),
            }),
        ] {
            let err = catch_unwind(AssertUnwindSafe(|| {
                drive(&scheme, 0, LossModel::None, 0, &query)
            }))
            .expect_err("a non-finite query was accepted");
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("non-finite coordinate"), "{query:?}: {msg}");
        }
    }

    #[test]
    fn program_packet_structure_matches_layout() {
        let a = air(1, 64);
        let l = a.layout();
        for slot in 0..l.n_frames() {
            // Frame starts with its table packets.
            match a.program().get(l.frame_start(slot)) {
                DsiPacket::Table { slot: s, part: 0 } => assert_eq!(*s, slot),
                p => panic!("frame {slot} does not start with a table: {p:?}"),
            }
            // Headers where the layout says they are.
            for idx in 0..l.objects_in_slot(slot) {
                match a.program().get(l.header_packet(slot, idx)) {
                    DsiPacket::ObjHeader { slot: s, idx: i } => {
                        assert_eq!((*s, *i), (slot, idx));
                    }
                    p => panic!("expected header at ({slot},{idx}), got {p:?}"),
                }
            }
        }
    }

    #[test]
    fn objects_ascend_in_hc_order_within_frames() {
        let a = air(1, 64);
        for slot in 0..a.layout().n_frames() {
            let f = a.frame(slot);
            for idx in 1..f.n_obj {
                assert!(a.object(slot, idx - 1).hc < a.object(slot, idx).hc);
            }
            assert_eq!(a.object(slot, 0).hc, f.min_hc);
        }
    }

    #[test]
    fn reorganization_keeps_all_objects_once() {
        let a1 = air(1, 64);
        let a2 = air(2, 64);
        assert_eq!(a1.program().len(), a2.program().len());
        let count_headers = |a: &DsiAir| {
            a.program()
                .iter()
                .filter(|p| matches!(p, DsiPacket::ObjHeader { .. }))
                .count()
        };
        assert_eq!(count_headers(&a1), 200);
        assert_eq!(count_headers(&a2), 200);
        // Interleaved: slot 0 carries HC-frame 0, slot 1 carries a frame
        // from the second block.
        assert_eq!(a2.frame(0).hc_index, 0);
        assert!(a2.frame(1).hc_index >= a2.layout().block_start_frame(1));
    }

    #[test]
    fn table_entries_match_pointed_frames() {
        for m in [1, 2, 4] {
            let a = air(m, 64);
            let nf = a.layout().n_frames();
            for slot in 0..nf {
                for e in &a.table(slot).entries {
                    let target = (slot + e.delta) % nf;
                    assert_eq!(
                        e.hc,
                        a.frame(target).min_hc,
                        "slot {slot} entry δ={} (m={m})",
                        e.delta
                    );
                }
            }
        }
    }
}
