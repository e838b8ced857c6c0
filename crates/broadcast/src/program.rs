//! Broadcast programs: the repeating packet cycle of a base station.

use crate::channel::{ChannelConfig, ChannelLayout, LayoutError};

/// Coarse classification of a packet's content, used by the link-error
/// model to decide whether a loss draw applies (see [`crate::LossScope`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketClass {
    /// Index information: DSI index tables, tree nodes, control tables.
    Index,
    /// The first packet of a data object, carrying its key/coordinates.
    ObjectHeader,
    /// Remaining packets of a data object's 1024-byte record.
    ObjectPayload,
}

/// Implemented by scheme-specific packet payload types so the generic
/// [`crate::Tuner`] can classify what a client is receiving.
pub trait Payload {
    /// The class of this packet.
    fn class(&self) -> PacketClass;

    /// Whether this packet begins an indivisible broadcast unit (an index
    /// table, a tree node, an object header). Continuation packets (later
    /// table/node parts, object payload packets) return `false`; the
    /// multi-channel scheduler never splits a unit across channels, so
    /// sequential multi-packet reads stay on one channel. Defaults to
    /// `true` (every packet its own unit).
    fn unit_start(&self) -> bool {
        true
    }

    /// Whether this packet begins a broadcast *frame* — the granularity a
    /// client scans serially (a DSI index table plus the objects that
    /// follow it). [`crate::Placement::StripeFrames`] keeps whole frames
    /// on one channel. Defaults to [`Payload::unit_start`] (every unit its
    /// own frame); schemes with a larger scan granularity override it, or
    /// pass explicit boundaries via
    /// [`Program::with_channels_frames`].
    fn frame_start(&self) -> bool {
        self.unit_start()
    }
}

/// One broadcast cycle: `len()` packets of `capacity` bytes each, repeated
/// forever by the base station. Absolute packet indices (`u64`, from an
/// arbitrary epoch) address the infinite repetition; `abs % len()` is the
/// cycle-relative position.
#[derive(Debug, Clone)]
pub struct Program<P> {
    capacity: u32,
    packets: Vec<P>,
    /// Channel assignment; `None` for the single-channel broadcast (flat
    /// position == channel position, no maps materialized).
    layout: Option<ChannelLayout>,
    switch_cost: u32,
    n_channels: u32,
}

impl<P> Program<P> {
    /// Creates a single-channel program from its packet sequence.
    ///
    /// # Panics
    ///
    /// Panics if the cycle is empty or the capacity is zero.
    pub fn new(capacity: u32, packets: Vec<P>) -> Self {
        match Self::try_new(capacity, packets) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Program::new`] returning a [`LayoutError`] instead of panicking.
    pub fn try_new(capacity: u32, packets: Vec<P>) -> Result<Self, LayoutError> {
        if capacity == 0 {
            return Err(LayoutError::ZeroCapacity);
        }
        if packets.is_empty() {
            return Err(LayoutError::EmptyCycle);
        }
        Ok(Self {
            capacity,
            packets,
            layout: None,
            switch_cost: 0,
            n_channels: 1,
        })
    }

    /// Packet capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Number of parallel channels.
    #[inline]
    pub fn n_channels(&self) -> u32 {
        self.n_channels
    }

    /// Latency cost of re-tuning to another channel, in packets.
    #[inline]
    pub fn switch_cost(&self) -> u32 {
        self.switch_cost
    }

    /// Whether the units were assigned by an explicit per-unit placement
    /// map ([`crate::Placement::Explicit`]). Explicit maps are the one
    /// placement whose every-tune-in-terminates guarantee is checked
    /// rather than structural, so static analyzers give them an extra
    /// per-channel index-coverage pass.
    #[inline]
    pub fn placement_is_explicit(&self) -> bool {
        self.layout.as_ref().is_some_and(|l| l.explicit)
    }

    /// The channel carrying the packet at flat cycle position `flat_pos`.
    #[inline]
    pub fn channel_of(&self, flat_pos: u64) -> u32 {
        match &self.layout {
            None => 0,
            Some(l) => l.chan_of[(flat_pos % self.len()) as usize],
        }
    }

    /// Packets per cycle of channel `channel` (channels repeat their own,
    /// possibly shorter, cycles; all tick in lockstep).
    #[inline]
    pub fn channel_len(&self, channel: u32) -> u64 {
        match &self.layout {
            None => self.len(),
            Some(l) => l.by_channel[channel as usize].len() as u64,
        }
    }

    /// Flat cycle position of the packet channel `channel` broadcasts at
    /// absolute instant `abs`.
    #[inline]
    pub fn flat_at(&self, channel: u32, abs: u64) -> u64 {
        match &self.layout {
            None => abs % self.len(),
            Some(l) => {
                let slots = &l.by_channel[channel as usize];
                slots[(abs % slots.len() as u64) as usize] as u64
            }
        }
    }

    /// The packet channel `channel` broadcasts at absolute instant `abs`.
    #[inline]
    pub fn packet_at(&self, channel: u32, abs: u64) -> &P {
        &self.packets[self.flat_at(channel, abs) as usize]
    }

    /// The earliest absolute instant `t >= from` at which the packet at
    /// flat position `flat_pos` airs **on its own channel**. This is the
    /// channel-aware generalization of [`Program::next_occurrence`]; for a
    /// single channel the two agree.
    #[inline]
    pub fn next_occurrence_on(&self, from: u64, flat_pos: u64) -> u64 {
        match &self.layout {
            None => self.next_occurrence(from, flat_pos),
            Some(l) => {
                let flat = (flat_pos % self.len()) as usize;
                let len = l.by_channel[l.chan_of[flat] as usize].len() as u64;
                let q = l.chan_pos[flat];
                let from_rel = from % len;
                from + (q + len - from_rel) % len
            }
        }
    }

    /// Packets per cycle.
    #[inline]
    pub fn len(&self) -> u64 {
        self.packets.len() as u64
    }

    /// A program is never empty (checked at construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Bytes per cycle.
    #[inline]
    pub fn cycle_bytes(&self) -> u64 {
        self.len() * self.capacity as u64
    }

    /// The packet broadcast at absolute instant `abs`.
    #[inline]
    pub fn get(&self, abs: u64) -> &P {
        &self.packets[(abs % self.len()) as usize]
    }

    /// Iterates over one cycle's packets in broadcast order.
    pub fn iter(&self) -> impl Iterator<Item = &P> {
        self.packets.iter()
    }

    /// The earliest absolute instant `t >= from` whose cycle-relative
    /// position equals `cycle_pos`. This is how a client converts an index
    /// pointer ("the object is at position *p* of the cycle") into a
    /// wake-up time; pointers into the past roll over to the next cycle.
    #[inline]
    pub fn next_occurrence(&self, from: u64, cycle_pos: u64) -> u64 {
        let len = self.len();
        debug_assert!(cycle_pos < len, "cycle position {cycle_pos} out of range");
        let from_rel = from % len;
        let delta = (cycle_pos + len - from_rel) % len;
        from + delta
    }
}

impl<P: Payload> Program<P> {
    /// Which flat positions begin an indivisible unit (`true` per
    /// [`Payload::unit_start`]). This is the unit structure the
    /// multi-channel scheduler and the placement optimizer
    /// ([`crate::optimize::UnitSchema`]) operate on.
    pub fn unit_starts(&self) -> Vec<bool> {
        self.packets.iter().map(|p| p.unit_start()).collect()
    }

    /// Creates a program scheduled over the channels of `cfg`. The packet
    /// sequence is the flat single-channel cycle (the schema clients
    /// address); the scheduler assigns its indivisible units to channels
    /// per the placement policy. `cfg.channels == 1` is exactly
    /// [`Program::new`].
    ///
    /// # Panics
    ///
    /// Panics on an empty cycle, zero capacity, an invalid channel
    /// configuration, or a placement that leaves some channel empty.
    pub fn with_channels(capacity: u32, packets: Vec<P>, cfg: ChannelConfig) -> Self {
        let frame_starts: Vec<bool> = packets.iter().map(|p| p.frame_start()).collect();
        Self::with_channels_frames(capacity, packets, cfg, &frame_starts)
    }

    /// [`Program::with_channels`] returning the first structural defect as
    /// a [`LayoutError`] instead of panicking.
    pub fn try_with_channels(
        capacity: u32,
        packets: Vec<P>,
        cfg: ChannelConfig,
    ) -> Result<Self, LayoutError> {
        let frame_starts: Vec<bool> = packets.iter().map(|p| p.frame_start()).collect();
        Self::try_with_channels_frames(capacity, packets, cfg, &frame_starts)
    }

    /// [`Program::with_channels`] with explicit frame boundaries, for
    /// schemes whose frame granularity is not computable from a packet
    /// alone (e.g. the R-tree's segments, whose replicated path copies
    /// look identical at every occurrence). `frame_starts[i]` marks the
    /// flat positions that begin a frame; every frame start must also be a
    /// unit start.
    pub fn with_channels_frames(
        capacity: u32,
        packets: Vec<P>,
        cfg: ChannelConfig,
        frame_starts: &[bool],
    ) -> Self {
        match Self::try_with_channels_frames(capacity, packets, cfg, frame_starts) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Program::with_channels_frames`] returning the first structural
    /// defect as a [`LayoutError`] instead of panicking.
    pub fn try_with_channels_frames(
        capacity: u32,
        packets: Vec<P>,
        cfg: ChannelConfig,
        frame_starts: &[bool],
    ) -> Result<Self, LayoutError> {
        cfg.try_validate()?;
        assert_eq!(
            frame_starts.len(),
            packets.len(),
            "one frame flag per packet"
        );
        let mut prog = Self::try_new(capacity, packets)?;
        if cfg.channels > 1 {
            let unit_starts: Vec<bool> = prog.packets.iter().map(|p| p.unit_start()).collect();
            debug_assert!(
                frame_starts
                    .iter()
                    .zip(unit_starts.iter())
                    .all(|(&f, &u)| !f || u),
                "every frame start must be a unit start"
            );
            let is_index: Vec<bool> = prog
                .packets
                .iter()
                .map(|p| p.class() == PacketClass::Index)
                .collect();
            prog.layout = Some(ChannelLayout::try_build(
                &cfg,
                &unit_starts,
                &is_index,
                frame_starts,
            )?);
            prog.n_channels = cfg.channels;
        }
        prog.switch_cost = cfg.switch_cost;
        Ok(prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct P(u32);
    impl Payload for P {
        fn class(&self) -> PacketClass {
            PacketClass::Index
        }
    }

    fn program() -> Program<P> {
        Program::new(64, (0..10).map(P).collect())
    }

    #[test]
    fn wraps_around_cycle() {
        let p = program();
        assert_eq!(p.get(3), &P(3));
        assert_eq!(p.get(13), &P(3));
        assert_eq!(p.get(10_000_000_007), &P(7));
    }

    #[test]
    fn cycle_bytes() {
        assert_eq!(program().cycle_bytes(), 640);
    }

    #[test]
    fn next_occurrence_now_or_future() {
        let p = program();
        // Already at the position: zero wait.
        assert_eq!(p.next_occurrence(23, 3), 23);
        // Position ahead in the same cycle.
        assert_eq!(p.next_occurrence(23, 7), 27);
        // Position behind: wait for next cycle.
        assert_eq!(p.next_occurrence(23, 1), 31);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_program_rejected() {
        let _: Program<P> = Program::new(64, vec![]);
    }

    #[test]
    fn channelized_program_is_consistent() {
        use crate::channel::ChannelConfig;
        // 10 one-packet units striped over 3 channels: 4 + 3 + 3 units.
        let p = Program::with_channels(64, (0..10).map(P).collect(), ChannelConfig::striped(3, 2));
        assert_eq!(p.n_channels(), 3);
        assert_eq!(p.switch_cost(), 2);
        let total: u64 = (0..3).map(|c| p.channel_len(c)).sum();
        assert_eq!(total, p.len());
        assert_eq!(p.channel_len(0), 4);
        for flat in 0..p.len() {
            let c = p.channel_of(flat);
            // The packet airs on its channel at its next occurrence, and
            // never earlier.
            let t = p.next_occurrence_on(17, flat);
            assert!(t >= 17 && t - 17 < p.channel_len(c));
            assert_eq!(p.flat_at(c, t), flat);
            assert_eq!(p.packet_at(c, t), p.get(flat));
        }
    }

    #[test]
    fn single_channel_program_keeps_flat_semantics() {
        let p = program();
        assert_eq!(p.n_channels(), 1);
        assert_eq!(p.channel_len(0), p.len());
        for flat in 0..p.len() {
            assert_eq!(p.channel_of(flat), 0);
            assert_eq!(p.flat_at(0, flat + 3 * p.len()), flat);
            assert_eq!(p.next_occurrence_on(23, flat), p.next_occurrence(23, flat));
        }
    }
}
