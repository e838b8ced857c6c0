//! [`Verifiable`] for the HCI B+-tree broadcast: the shared
//! segmented-tree walk ([`StaticModel::from_segmented`]). Bulk loading
//! hands every node a contiguous child range, so the depth-first rank
//! that keys a data unit is the object's index.

use dsi_verify::{StaticModel, Verifiable};

use crate::air::BpAir;

impl Verifiable for BpAir {
    fn static_model(&self) -> StaticModel {
        StaticModel::from_segmented("HCI", &self.air, &self.tree.levels, |n| &n.children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::air::BpAirConfig;
    use dsi_broadcast::ChannelConfig;
    use dsi_datagen::SpatialDataset;

    #[test]
    fn grid_valid_hci_programs_verify_clean() {
        let ds = SpatialDataset::build(&dsi_datagen::uniform(220, 42), 10);
        for chan in [
            ChannelConfig::single(),
            ChannelConfig::blocked(2, 1),
            ChannelConfig::striped(2, 1),
            ChannelConfig::striped_frames(4, 1),
            ChannelConfig::index_data(2, 1, 2),
        ] {
            let air = BpAir::try_build_channels(&ds, BpAirConfig::new(64), chan.clone())
                .expect("the layout builds");
            let model = air.static_model();
            let report = dsi_verify::verify(&model).unwrap_or_else(|v| panic!("{chan:?}: {v:?}"));
            assert_eq!(report.n_data_units, 220);
        }
    }
}
