//! The R-tree's air layout: capacity-derived fanouts and slot sizes,
//! laid out as a segmented broadcast (see `dsi_broadcast::segmented`).

use dsi_broadcast::segmented::{SegmentedAir, SlotPackets, TreePacket};
use dsi_broadcast::{ChannelConfig, LayoutError, Program};
use dsi_geom::Point;

use crate::tree::{RTree, INTERNAL_ENTRY_BYTES, LEAF_ENTRY_BYTES, NODE_HEADER_BYTES};

/// Per-packet header (offset to next index information), as for DSI.
const PACKET_HEADER_BYTES: u32 = 2;
/// Data object size (paper §4).
const OBJECT_BYTES: u32 = 1024;

/// Air-layout configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtreeAirConfig {
    /// Packet capacity in bytes.
    pub capacity: u32,
}

impl RtreeAirConfig {
    /// The configuration at a packet capacity.
    pub fn new(capacity: u32) -> Self {
        Self { capacity }
    }

    /// Internal-node fanout at this capacity (≥ 2; nodes may span several
    /// packets when the capacity cannot fit two 34-byte entries).
    pub fn internal_fanout(&self) -> u32 {
        ((self
            .capacity
            .saturating_sub(PACKET_HEADER_BYTES + NODE_HEADER_BYTES))
            / INTERNAL_ENTRY_BYTES)
            .max(2)
    }

    /// Leaf fanout at this capacity.
    pub fn leaf_fanout(&self) -> u32 {
        ((self
            .capacity
            .saturating_sub(PACKET_HEADER_BYTES + NODE_HEADER_BYTES))
            / LEAF_ENTRY_BYTES)
            .max(2)
    }

    /// Packets per internal-node slot.
    pub fn internal_node_packets(&self) -> u32 {
        (NODE_HEADER_BYTES + self.internal_fanout() * INTERNAL_ENTRY_BYTES)
            .div_ceil(self.capacity - PACKET_HEADER_BYTES)
    }

    /// Packets per leaf-node slot.
    pub fn leaf_node_packets(&self) -> u32 {
        (NODE_HEADER_BYTES + self.leaf_fanout() * LEAF_ENTRY_BYTES)
            .div_ceil(self.capacity - PACKET_HEADER_BYTES)
    }

    /// Packets per data object.
    pub fn object_packets(&self) -> u32 {
        OBJECT_BYTES.div_ceil(self.capacity)
    }
}

/// The built R-tree broadcast.
#[derive(Debug, Clone)]
pub struct RTreeAir {
    pub(crate) tree: RTree,
    pub(crate) config: RtreeAirConfig,
    pub(crate) air: SegmentedAir,
}

impl RTreeAir {
    /// Builds the single-channel broadcast for a point set: STR-packs the
    /// tree with capacity-derived fanouts and lays out the cycle.
    pub fn build(objects: &[(u32, Point)], config: RtreeAirConfig) -> Self {
        Self::try_build_channels(objects, config, ChannelConfig::single())
            .expect("one channel schedules any cycle")
    }

    /// Builds the broadcast scheduled over the channels of `channels`.
    /// Structural channel-layout defects come back as a [`LayoutError`].
    pub fn try_build_channels(
        objects: &[(u32, Point)],
        config: RtreeAirConfig,
        channels: ChannelConfig,
    ) -> Result<Self, LayoutError> {
        let tree = crate::str_pack(objects, config.leaf_fanout(), config.internal_fanout());
        let slots = SlotPackets {
            leaf: config.leaf_node_packets() as u64,
            internal: config.internal_node_packets() as u64,
            object: config.object_packets() as u64,
        };
        let air = SegmentedAir::try_build(config.capacity, channels, slots, &tree.levels, |n| {
            &n.children
        })?;
        Ok(Self { tree, config, air })
    }

    /// The broadcast packet program.
    pub fn program(&self) -> &Program<TreePacket> {
        self.air.program()
    }

    /// The packed tree (server side; clients only see packets).
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// Air-layout configuration.
    pub fn config(&self) -> &RtreeAirConfig {
        &self.config
    }

    /// The segmented layout: where every node copy and object airs.
    pub fn layout(&self) -> &SegmentedAir {
        &self.air
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanouts_match_paper_accounting() {
        let c = RtreeAirConfig::new(64);
        assert_eq!(c.internal_fanout(), 2); // forced minimum: 60/34 = 1
        assert_eq!(c.leaf_fanout(), 3);
        assert_eq!(c.internal_node_packets(), 2); // 70 bytes over 62-byte payloads
        assert_eq!(c.leaf_node_packets(), 1);
        let c = RtreeAirConfig::new(512);
        assert_eq!(c.internal_fanout(), 14);
        assert_eq!(c.leaf_fanout(), 28);
        assert_eq!(c.internal_node_packets(), 1);
    }
}
