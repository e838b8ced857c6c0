//! [`Verifiable`] for the R-tree broadcast: the shared segmented-tree
//! walk ([`StaticModel::from_segmented`]) over the packed tree.
//!
//! STR packing re-sorts each internal level spatially, so a subtree does
//! not cover a contiguous range of raw `tree.objects` indices. The walk
//! keys objects by depth-first rank instead, the order the layout airs
//! them in, where every subtree owns exactly one rank range.

use dsi_verify::{StaticModel, Verifiable};

use crate::air::RTreeAir;

impl RTreeAir {
    /// The static model of this broadcast (see the module docs).
    pub fn static_model(&self) -> StaticModel {
        StaticModel::from_segmented("R-tree", &self.air, &self.tree.levels, |n| &n.children)
    }
}

impl Verifiable for RTreeAir {
    fn static_model(&self) -> StaticModel {
        RTreeAir::static_model(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::air::RtreeAirConfig;
    use dsi_broadcast::ChannelConfig;
    use dsi_geom::Point;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn points(n: usize, seed: u64) -> Vec<(u32, Point)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n as u32)
            .map(|id| (id, Point::new(rng.gen(), rng.gen())))
            .collect()
    }

    #[test]
    fn grid_valid_rtree_programs_verify_clean() {
        let pts = points(220, 7);
        for chan in [
            ChannelConfig::single(),
            ChannelConfig::blocked(2, 1),
            ChannelConfig::striped(2, 1),
            ChannelConfig::striped_frames(4, 1),
            ChannelConfig::index_data(2, 1, 2),
        ] {
            let air = RTreeAir::try_build_channels(&pts, RtreeAirConfig::new(64), chan.clone())
                .expect("the layout builds");
            let model = air.static_model();
            let report = dsi_verify::verify(&model).unwrap_or_else(|v| panic!("{chan:?}: {v:?}"));
            assert_eq!(report.n_data_units, 220);
            assert!(report.max_nav_hops as usize >= 1);
        }
    }
}
