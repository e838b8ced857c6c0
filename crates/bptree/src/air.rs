//! HCI's air layout: capacity-derived fanout and slot sizes, laid out as
//! a segmented broadcast (see `dsi_broadcast::segmented`). The objects
//! air in HC order: bulk loading gives every node a contiguous child
//! range, so the depth-first segment order is the index order.

use dsi_broadcast::segmented::{SegmentedAir, SlotPackets, TreePacket};
use dsi_broadcast::{ChannelConfig, LayoutError, Program};
use dsi_datagen::SpatialDataset;
use dsi_geom::GridMapper;
use dsi_hilbert::HilbertCurve;

use crate::tree::{bulk_load, BpTree, BP_ENTRY_BYTES, BP_NODE_HEADER_BYTES};

/// Per-packet header, as for DSI.
const PACKET_HEADER_BYTES: u32 = 2;
/// Data object size (paper §4).
const OBJECT_BYTES: u32 = 1024;

/// Air-layout configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpAirConfig {
    /// Packet capacity in bytes.
    pub capacity: u32,
}

impl BpAirConfig {
    /// The configuration at a packet capacity.
    pub fn new(capacity: u32) -> Self {
        Self { capacity }
    }

    /// Node fanout at this capacity (leaf and internal entries are both 18
    /// bytes).
    pub fn fanout(&self) -> u32 {
        ((self
            .capacity
            .saturating_sub(PACKET_HEADER_BYTES + BP_NODE_HEADER_BYTES))
            / BP_ENTRY_BYTES)
            .max(2)
    }

    /// Packets per node slot.
    pub fn node_packets(&self) -> u32 {
        (BP_NODE_HEADER_BYTES + self.fanout() * BP_ENTRY_BYTES)
            .div_ceil(self.capacity - PACKET_HEADER_BYTES)
    }

    /// Packets per data object.
    pub fn object_packets(&self) -> u32 {
        OBJECT_BYTES.div_ceil(self.capacity)
    }
}

/// The built HCI broadcast.
#[derive(Debug, Clone)]
pub struct BpAir {
    pub(crate) tree: BpTree,
    pub(crate) config: BpAirConfig,
    pub(crate) air: SegmentedAir,
    pub(crate) curve: HilbertCurve,
    pub(crate) mapper: GridMapper,
}

impl BpAir {
    /// Builds the single-channel HCI broadcast for a dataset.
    pub fn build(dataset: &SpatialDataset, config: BpAirConfig) -> Self {
        Self::try_build_channels(dataset, config, ChannelConfig::single())
            .expect("one channel schedules any cycle")
    }

    /// Builds the HCI broadcast scheduled over the channels of `channels`.
    /// Structural channel-layout defects come back as a [`LayoutError`].
    pub fn try_build_channels(
        dataset: &SpatialDataset,
        config: BpAirConfig,
        channels: ChannelConfig,
    ) -> Result<Self, LayoutError> {
        let tree = bulk_load(dataset.objects(), config.fanout());
        let node = config.node_packets() as u64;
        let slots = SlotPackets {
            leaf: node,
            internal: node,
            object: config.object_packets() as u64,
        };
        let air = SegmentedAir::try_build(config.capacity, channels, slots, &tree.levels, |n| {
            &n.children
        })?;
        Ok(Self {
            tree,
            config,
            air,
            curve: *dataset.curve(),
            mapper: *dataset.mapper(),
        })
    }

    /// The broadcast packet program.
    pub fn program(&self) -> &Program<TreePacket> {
        self.air.program()
    }

    /// The loaded tree (server side).
    pub fn tree(&self) -> &BpTree {
        &self.tree
    }

    /// Air configuration.
    pub fn config(&self) -> &BpAirConfig {
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
    use dsi_datagen::uniform;

    #[test]
    fn fanout_matches_paper_accounting() {
        assert_eq!(BpAirConfig::new(64).fanout(), 3); // (64-4)/18
        assert_eq!(BpAirConfig::new(64).node_packets(), 1);
        assert_eq!(BpAirConfig::new(32).fanout(), 2); // forced minimum
        assert_eq!(BpAirConfig::new(32).node_packets(), 2);
        assert_eq!(BpAirConfig::new(512).fanout(), 28);
    }

    #[test]
    fn data_is_broadcast_in_hc_order() {
        let ds = SpatialDataset::build(&uniform(300, 9), 10);
        let air = BpAir::build(&ds, BpAirConfig::new(128));
        let mut last = None;
        for p in air.program().iter() {
            if let TreePacket::ObjHeader { obj } = p {
                let hc = air.tree.objects[*obj as usize].hc;
                if let Some(prev) = last {
                    assert!(hc > prev, "HC order violated");
                }
                last = Some(hc);
            }
        }
    }
}
