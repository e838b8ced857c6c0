//! The client-known broadcast schema: where frames live in the cycle.
//!
//! A DSI broadcast has a rigid, statically computable geometry: the cycle
//! is a sequence of `nF` frames, each `[index table packets][object
//! packets…]`, with the objects-per-frame split fixed by the framing rule.
//! The paper's clients rely on this ("the index table associated with a
//! frame F is designed to cover the next (nF − 1) frames"): they know `nF`,
//! `no`, `r` and therefore where every frame starts. [`DsiLayout`] is that
//! knowledge, including the reorganization permutation σ (broadcast slot ↔
//! HC-order frame index) and the m block-boundary HC values of §3.5.
//! Clients hold the block boundaries before tuning in, so no query pays
//! air time for them: like `nF`, `no` and `r`, they change only when the
//! program is rebuilt.

use crate::config::{compute_framing, DsiConfig, Framing};

/// Static broadcast geometry shared by server and clients.
#[derive(Debug, Clone)]
pub struct DsiLayout {
    config: DsiConfig,
    framing: Framing,
    n_objects: u32,
    /// Broadcast slot → HC-order frame index.
    sigma: Vec<u32>,
    /// HC-order frame index → broadcast slot.
    sigma_inv: Vec<u32>,
    /// Broadcast slot → first packet of the frame (cycle-relative).
    frame_starts: Vec<u64>,
    /// Packets per cycle.
    cycle_packets: u64,
    /// HC-order frame index at which each block begins (`m` entries).
    block_start_frames: Vec<u32>,
    /// Minimum HC value of each block (`m` entries, ascending) — the
    /// data-dependent part of the schema.
    block_min_hc: Vec<u64>,
}

impl DsiLayout {
    /// Computes the layout for `n_objects` objects whose per-block minimum
    /// HC values are supplied by the builder.
    ///
    /// `frame_min_hc` must hold the minimum HC value of every HC-order
    /// frame (length `nF`), ascending.
    pub(crate) fn new(config: DsiConfig, n_objects: u32, frame_min_hc: &[u64]) -> Self {
        config.validate();
        let framing = compute_framing(&config, n_objects);
        let nf = framing.n_frames;
        assert_eq!(frame_min_hc.len(), nf as usize);
        debug_assert!(frame_min_hc.windows(2).all(|w| w[0] < w[1]));

        let m = config.segments.min(nf);
        // Blocks: m near-equal chunks of the HC-ordered frame list. When
        // nF is not divisible by m the trailing chunks may be empty
        // (nF = 4, m = 3 → chunk = 2 → only two blocks); drop them.
        let chunk = nf.div_ceil(m);
        let block_start_frames: Vec<u32> = (0..m)
            .map(|c| c * chunk)
            .filter(|&start| start < nf)
            .collect();
        let m = block_start_frames.len() as u32;
        let block_min_hc: Vec<u64> = block_start_frames
            .iter()
            .map(|&f| frame_min_hc[f as usize])
            .collect();

        // Interleave the blocks (σ). For m = 1 this is the identity, i.e.
        // the original ascending-HC broadcast. In the folded style, odd
        // blocks run backwards so that frames adjacent across a block
        // boundary stay adjacent in broadcast time.
        let mut sigma = Vec::with_capacity(nf as usize);
        for k in 0..chunk {
            for c in 0..m as usize {
                let start = block_start_frames[c];
                let end = block_start_frames.get(c + 1).copied().unwrap_or(nf);
                let len = end - start;
                if k >= len {
                    continue;
                }
                let idx = match config.reorg_style {
                    crate::config::ReorgStyle::RoundRobin => start + k,
                    crate::config::ReorgStyle::Folded => {
                        if c % 2 == 0 {
                            start + k
                        } else {
                            end - 1 - k
                        }
                    }
                };
                sigma.push(idx);
            }
        }
        debug_assert_eq!(sigma.len(), nf as usize);
        let mut sigma_inv = vec![0u32; nf as usize];
        for (slot, &hc_idx) in sigma.iter().enumerate() {
            sigma_inv[hc_idx as usize] = slot as u32;
        }

        // Frame starts: table packets + per-frame object packets.
        let mut frame_starts = Vec::with_capacity(nf as usize);
        let mut pos = 0u64;
        for &hc_idx in &sigma {
            frame_starts.push(pos);
            let n_obj = framing.objects_per_frame[hc_idx as usize] as u64;
            pos += framing.table_packets as u64 + n_obj * framing.object_packets as u64;
        }

        Self {
            config,
            framing,
            n_objects,
            sigma,
            sigma_inv,
            frame_starts,
            cycle_packets: pos,
            block_start_frames,
            block_min_hc,
        }
    }

    /// Build configuration.
    #[inline]
    pub fn config(&self) -> &DsiConfig {
        &self.config
    }

    /// Derived framing parameters.
    #[inline]
    pub fn framing(&self) -> &Framing {
        &self.framing
    }

    /// Total number of data objects in the cycle.
    #[inline]
    pub fn n_objects(&self) -> u32 {
        self.n_objects
    }

    /// Number of frames per cycle.
    #[inline]
    pub fn n_frames(&self) -> u32 {
        self.framing.n_frames
    }

    /// Packets per cycle.
    #[inline]
    pub fn cycle_packets(&self) -> u64 {
        self.cycle_packets
    }

    /// HC-order frame index broadcast in `slot`.
    #[inline]
    pub fn hc_index_of_slot(&self, slot: u32) -> u32 {
        self.sigma[slot as usize]
    }

    /// Broadcast slot carrying HC-order frame `hc_idx`.
    #[inline]
    pub fn slot_of_hc_index(&self, hc_idx: u32) -> u32 {
        self.sigma_inv[hc_idx as usize]
    }

    /// First packet (cycle-relative) of a broadcast slot.
    #[inline]
    pub fn frame_start(&self, slot: u32) -> u64 {
        self.frame_starts[slot as usize]
    }

    /// Number of objects in a broadcast slot.
    #[inline]
    pub fn objects_in_slot(&self, slot: u32) -> u32 {
        self.framing.objects_per_frame[self.sigma[slot as usize] as usize]
    }

    /// Cycle-relative packet of object `idx`'s header within `slot`.
    #[inline]
    pub fn header_packet(&self, slot: u32, idx: u32) -> u64 {
        debug_assert!(idx < self.objects_in_slot(slot));
        self.frame_starts[slot as usize]
            + self.framing.table_packets as u64
            + idx as u64 * self.framing.object_packets as u64
    }

    /// The broadcast slot containing the cycle-relative packet `pos`.
    pub fn slot_of_packet(&self, pos: u64) -> u32 {
        debug_assert!(pos < self.cycle_packets);
        match self.frame_starts.binary_search(&pos) {
            Ok(i) => i as u32,
            Err(i) => (i - 1) as u32,
        }
    }

    /// The first packet of the next frame boundary at or after the absolute
    /// instant `abs` (absolute, possibly rolling into the next cycle).
    pub fn next_frame_boundary(&self, abs: u64) -> (u64, u32) {
        let rel = abs % self.cycle_packets;
        match self.frame_starts.binary_search(&rel) {
            Ok(i) => (abs, i as u32),
            Err(i) => {
                if i == self.frame_starts.len() {
                    // Wrap to slot 0 of the next cycle.
                    (abs + (self.cycle_packets - rel), 0)
                } else {
                    (abs + (self.frame_starts[i] - rel), i as u32)
                }
            }
        }
    }

    /// Number of interleaved blocks (`m`, clamped to `nF`).
    #[inline]
    pub fn n_blocks(&self) -> u32 {
        self.block_start_frames.len() as u32
    }

    /// HC-order frame index at which block `c` starts.
    #[inline]
    pub fn block_start_frame(&self, c: u32) -> u32 {
        self.block_start_frames[c as usize]
    }

    /// Minimum HC value of each block (ascending) — the schema values a
    /// client uses to attribute a target HC to its block.
    #[inline]
    pub fn block_min_hc(&self) -> &[u64] {
        &self.block_min_hc
    }

    /// Smallest HC value of any object in the cycle.
    #[inline]
    pub fn global_min_hc(&self) -> u64 {
        self.block_min_hc[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FramingPolicy;

    fn layout(n: u32, m: u32, capacity: u32) -> DsiLayout {
        // Pin eight frames so the geometry below stays stable (1,250
        // objects and a one-packet table per frame at 64 B for 10,000
        // objects).
        let cfg = DsiConfig {
            segments: m,
            framing: FramingPolicy::FixedFrameCount(8),
            ..DsiConfig::paper_default().with_capacity(capacity)
        };
        // Synthetic ascending frame minima.
        let framing = compute_framing(&cfg, n);
        let mins: Vec<u64> = (0..framing.n_frames as u64).map(|i| i * 100 + 5).collect();
        DsiLayout::new(cfg, n, &mins)
    }

    #[test]
    fn sigma_is_identity_without_reorganization() {
        let l = layout(10_000, 1, 64);
        assert_eq!(l.n_frames(), 8);
        for slot in 0..8 {
            assert_eq!(l.hc_index_of_slot(slot), slot);
            assert_eq!(l.slot_of_hc_index(slot), slot);
        }
    }

    #[test]
    fn sigma_interleaves_two_blocks_folded() {
        // Default style folds the second block: adjacent HC frames 3 and 4
        // (across the block boundary) end up in adjacent slots.
        let l = layout(10_000, 2, 64);
        let order: Vec<u32> = (0..8).map(|s| l.hc_index_of_slot(s)).collect();
        assert_eq!(order, vec![0, 7, 1, 6, 2, 5, 3, 4]);
        for t in 0..8 {
            assert_eq!(l.hc_index_of_slot(l.slot_of_hc_index(t)), t);
        }
    }

    #[test]
    fn sigma_interleaves_two_blocks_round_robin() {
        let cfg = DsiConfig {
            segments: 2,
            framing: FramingPolicy::FixedFrameCount(8),
            reorg_style: crate::config::ReorgStyle::RoundRobin,
            ..DsiConfig::paper_default()
        };
        let framing = compute_framing(&cfg, 10_000);
        let mins: Vec<u64> = (0..framing.n_frames as u64).map(|i| i * 100 + 5).collect();
        let l = DsiLayout::new(cfg, 10_000, &mins);
        let order: Vec<u32> = (0..8).map(|s| l.hc_index_of_slot(s)).collect();
        assert_eq!(order, vec![0, 4, 1, 5, 2, 6, 3, 7]);
    }

    #[test]
    fn sigma_is_permutation_for_uneven_blocks() {
        // 10 objects in 8 frames; odd m exercises uneven chunks.
        let l = layout(10, 3, 64);
        let nf = l.n_frames();
        let mut seen = vec![false; nf as usize];
        for slot in 0..nf {
            let t = l.hc_index_of_slot(slot);
            assert!(!seen[t as usize]);
            seen[t as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn frame_geometry_consistent() {
        let l = layout(10_000, 2, 64);
        // Every frame: 1 table packet + 1250 × 16 object packets.
        assert_eq!(l.frame_start(0), 0);
        assert_eq!(l.frame_start(1), 1 + 1250 * 16);
        assert_eq!(l.cycle_packets(), 8 * (1 + 1250 * 16));
        assert_eq!(l.header_packet(0, 0), 1);
        assert_eq!(l.header_packet(0, 2), 1 + 32);
        // slot_of_packet inverts frame_start.
        for slot in 0..l.n_frames() {
            assert_eq!(l.slot_of_packet(l.frame_start(slot)), slot);
            assert_eq!(l.slot_of_packet(l.frame_start(slot) + 5), slot);
        }
    }

    #[test]
    fn next_frame_boundary_wraps() {
        let l = layout(10_000, 1, 64);
        let cyc = l.cycle_packets();
        // At a boundary: stays.
        assert_eq!(l.next_frame_boundary(0), (0, 0));
        let f1 = l.frame_start(1);
        assert_eq!(l.next_frame_boundary(f1 - 3), (f1, 1));
        // Inside the last frame: wraps to slot 0 of the next cycle.
        let (abs, slot) = l.next_frame_boundary(cyc - 1);
        assert_eq!((abs, slot), (cyc, 0));
        // Absolute positions beyond one cycle work too.
        let (abs, slot) = l.next_frame_boundary(cyc + f1 - 1);
        assert_eq!((abs, slot), (cyc + f1, 1));
    }

    #[test]
    fn block_metadata() {
        let l = layout(10_000, 2, 64);
        assert_eq!(l.n_blocks(), 2);
        assert_eq!(l.block_start_frame(0), 0);
        assert_eq!(l.block_start_frame(1), 4);
        assert_eq!(l.block_min_hc(), &[5, 405]);
        assert_eq!(l.global_min_hc(), 5);
    }
}
