//! Multi-channel broadcast scheduling.
//!
//! The paper's evaluation runs on a single broadcast channel; the standard
//! scaling lever for broadcast systems is to spread the cycle over `C`
//! parallel channels (cf. multichannel XML broadcast streams). This module
//! adds that dimension **without changing how schemes address content**:
//! index algorithms keep thinking in *flat* cycle positions (the
//! single-channel schema), and the channel layer maps every flat position
//! to a `(channel, per-channel slot)` pair. A [`crate::Tuner`] listens to
//! one channel at a time and pays a configurable switch cost (in packets
//! of latency) to move; per-channel tuning and switch counts surface in
//! [`ChannelStats`].
//!
//! Placement never splits an *indivisible unit* — a maximal packet run
//! beginning at a [`crate::Payload::unit_start`] packet (an index table,
//! a tree node, an object header plus its payload packets) — so the
//! sequential multi-packet reads of every scheme keep working: a unit's
//! packets occupy consecutive slots of one channel. All channels tick in
//! lockstep (one packet per channel per instant); each channel repeats its
//! own, possibly shorter, cycle.

/// A structural defect in a channel configuration or in the layout it
/// produces over a concrete cycle.
///
/// Every condition [`ChannelConfig::try_validate`],
/// [`crate::Program::try_with_channels`] and the layout builder check is
/// named here, so the static analyzer (`dsi-verify`) and the runtime share
/// one error vocabulary. The panicking constructors ([`crate::Program::new`],
/// [`crate::Program::with_channels`]) format these errors verbatim as their
/// panic messages.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LayoutError {
    /// Packet capacity of zero — no payload can be framed.
    ZeroCapacity,
    /// An empty broadcast cycle — nothing to repeat.
    EmptyCycle,
    /// `channels == 0`.
    NoChannels,
    /// [`Placement::IndexData`] with `index_channels` outside `1..channels`.
    BadIndexSplit {
        /// The offending `index_channels` value.
        index_channels: u32,
        /// The configured channel count.
        channels: u32,
    },
    /// [`Placement::StripeFrames`] with a zero-frame block.
    ZeroFrameBlock,
    /// [`Placement::Explicit`] naming a channel `>= channels`.
    ExplicitOutOfRange {
        /// The configured channel count.
        channels: u32,
    },
    /// [`Placement::Explicit`] whose length differs from the cycle's unit
    /// count.
    ExplicitWrongLength {
        /// Entries in the assignment vector.
        got: usize,
        /// Units in the cycle.
        units: usize,
    },
    /// The cycle's first packet is not a unit start.
    CycleNotUnitAligned,
    /// The cycle's first packet is not a frame start (required by
    /// [`Placement::StripeFrames`]).
    CycleNotFrameAligned,
    /// Some channel received no units at all.
    EmptyChannel {
        /// The starved channel.
        channel: u32,
    },
    /// An [`Placement::Explicit`] assignment left a channel without any
    /// index unit while the cycle has index units: a client tuning into
    /// that channel can scan data packets forever without ever reading a
    /// pointer, so some tune-ins never terminate. Analytic placements
    /// cannot produce this (`IndexData` deliberately reserves data-only
    /// channels *and* a dedicated index cycle the client camps on), so the
    /// check applies to explicit maps only.
    StrandedChannel {
        /// The index-starved channel.
        channel: u32,
    },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::ZeroCapacity => write!(f, "packet capacity must be positive"),
            LayoutError::EmptyCycle => write!(f, "broadcast cycle must not be empty"),
            LayoutError::NoChannels => write!(f, "need at least one channel"),
            LayoutError::BadIndexSplit {
                index_channels,
                channels,
            } => write!(
                f,
                "index_channels must be in 1..channels, got {index_channels} of {channels}"
            ),
            LayoutError::ZeroFrameBlock => {
                write!(f, "StripeFrames needs at least one frame per block")
            }
            LayoutError::ExplicitOutOfRange { channels } => {
                write!(f, "explicit assignment names a channel >= {channels}")
            }
            LayoutError::ExplicitWrongLength { got, units } => write!(
                f,
                "explicit assignment covers {got} units but the cycle has {units}"
            ),
            LayoutError::CycleNotUnitAligned => write!(f, "cycle must begin at a unit boundary"),
            LayoutError::CycleNotFrameAligned => write!(f, "cycle must begin at a frame boundary"),
            LayoutError::EmptyChannel { channel } => write!(
                f,
                "channel {channel} received no units; use fewer channels or another placement"
            ),
            LayoutError::StrandedChannel { channel } => write!(
                f,
                "channel {channel} received no index unit; an explicit placement must give \
                 every channel index access or some tune-ins can never terminate"
            ),
        }
    }
}

impl std::error::Error for LayoutError {}

/// How the flat cycle's units are assigned to channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Each channel carries one contiguous arc of the flat cycle (arcs
    /// balanced by packet count, split only at unit boundaries). Adjacent
    /// units stay adjacent on one channel, so sequential frame scans keep
    /// their locality while every channel's cycle shortens roughly
    /// `C`-fold — the placement that actually lowers access latency.
    Blocked,
    /// Units round-robin over all channels, preserving their relative
    /// order within each channel. Maximally uniform load, but consecutive
    /// units land on *parallel* channels: a client scanning a frame
    /// serially misses each next unit's concurrent airing and waits a full
    /// per-channel cycle for it, so sequential-scan-heavy schemes pay
    /// dearly (measured in the `channels` experiment).
    Stripe,
    /// *Frames* round-robin over all channels in blocks of the given
    /// number of frames (a frame is a maximal unit run beginning at a
    /// [`crate::Payload::frame_start`] packet — a DSI index table plus its
    /// objects, an R-tree segment). Units of one frame stay consecutive on
    /// one channel, so the serial frame scans that unit-granular
    /// [`Placement::Stripe`] penalizes keep their intra-frame locality,
    /// while load still spreads uniformly at frame granularity.
    StripeFrames(u32),
    /// Dedicated index channels: units starting with a
    /// [`crate::PacketClass::Index`] packet round-robin over channels
    /// `0..index_channels`, object units over the remaining channels. A
    /// client can camp on a short index cycle and hop to a data channel
    /// only to retrieve records.
    IndexData {
        /// Number of leading channels reserved for index units (must be
        /// `>= 1` and `< channels`; the split needs at least two channels
        /// to mean anything, so `IndexData` rejects `channels == 1`).
        index_channels: u32,
    },
    /// An arbitrary, fully materialized unit→channel assignment: entry
    /// `u` names the channel of the `u`-th unit of the flat cycle (units
    /// in flat order). This is the output format of the workload-aware
    /// placement optimizer ([`crate::optimize`]); every analytic policy
    /// above is expressible as an `Explicit` vector. Units keep their
    /// flat relative order within each channel, so intra-channel
    /// adjacency (and with it serial-scan locality) is controlled purely
    /// by the assignment.
    ///
    /// The layout builder rejects (see [`LayoutError`]) a vector whose
    /// length differs from the cycle's unit count, an entry naming a
    /// channel `>= channels`, a channel receiving no unit, and — when the
    /// cycle has index units — a channel receiving no *index* unit.
    Explicit(Vec<u32>),
}

/// Channel count, placement policy and switch cost of a broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelConfig {
    /// Number of parallel channels `C >= 1`.
    pub channels: u32,
    /// Unit-to-channel assignment policy (ignored when `channels == 1`).
    pub placement: Placement,
    /// Latency cost, in packets, of re-tuning to another channel. While
    /// switching the client listens to nothing: the earliest packet it can
    /// read on the target channel airs `switch_cost` instants later.
    pub switch_cost: u32,
}

impl ChannelConfig {
    /// The classic single-channel broadcast (the paper's setting).
    pub fn single() -> Self {
        Self {
            channels: 1,
            placement: Placement::Blocked,
            switch_cost: 0,
        }
    }

    /// `channels` block-contiguous channels at a given switch cost.
    pub fn blocked(channels: u32, switch_cost: u32) -> Self {
        Self {
            channels,
            placement: Placement::Blocked,
            switch_cost,
        }
    }

    /// `channels` round-robin-striped channels at a given switch cost.
    pub fn striped(channels: u32, switch_cost: u32) -> Self {
        Self {
            channels,
            placement: Placement::Stripe,
            switch_cost,
        }
    }

    /// `channels` frame-granular striped channels (one frame per block) at
    /// a given switch cost.
    pub fn striped_frames(channels: u32, switch_cost: u32) -> Self {
        Self {
            channels,
            placement: Placement::StripeFrames(1),
            switch_cost,
        }
    }

    /// An index/data split: `index_channels` channels carry index units,
    /// the rest carry object units.
    pub fn index_data(channels: u32, index_channels: u32, switch_cost: u32) -> Self {
        Self {
            channels,
            placement: Placement::IndexData { index_channels },
            switch_cost,
        }
    }

    /// Checks the configuration's internal consistency, returning the
    /// first [`LayoutError`] found. Placement parameters are range-checked
    /// even when `channels == 1` (where the placement is otherwise
    /// ignored): a `StripeFrames(0)` or an out-of-range `IndexData` is a
    /// malformed configuration regardless of the channel count, and
    /// letting it validate silently masks bugs the moment the channel
    /// count is raised.
    pub fn try_validate(&self) -> Result<(), LayoutError> {
        if self.channels < 1 {
            return Err(LayoutError::NoChannels);
        }
        match &self.placement {
            Placement::IndexData { index_channels } => {
                if !(*index_channels >= 1 && *index_channels < self.channels) {
                    return Err(LayoutError::BadIndexSplit {
                        index_channels: *index_channels,
                        channels: self.channels,
                    });
                }
            }
            Placement::StripeFrames(g) => {
                if *g < 1 {
                    return Err(LayoutError::ZeroFrameBlock);
                }
            }
            Placement::Explicit(assignment) => {
                if !assignment.iter().all(|&c| c < self.channels) {
                    return Err(LayoutError::ExplicitOutOfRange {
                        channels: self.channels,
                    });
                }
            }
            Placement::Blocked | Placement::Stripe => {}
        }
        Ok(())
    }

    /// Panicking [`ChannelConfig::try_validate`], kept for the tests that
    /// pin the legacy panic messages.
    #[cfg(test)]
    pub(crate) fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

impl Default for ChannelConfig {
    fn default() -> Self {
        Self::single()
    }
}

/// The materialized unit-to-channel assignment of one broadcast cycle.
/// Only built for `C > 1`; the single-channel case stays map-free (flat
/// position == channel position).
#[derive(Debug, Clone)]
pub(crate) struct ChannelLayout {
    /// Flat position → channel.
    pub(crate) chan_of: Vec<u32>,
    /// Flat position → slot within its channel's cycle.
    pub(crate) chan_pos: Vec<u64>,
    /// Channel → slot → flat position (each channel's own cycle).
    pub(crate) by_channel: Vec<Vec<u32>>,
    /// Whether the layout came from a [`Placement::Explicit`] map — the
    /// one placement whose termination guarantee rests on the checked
    /// per-channel index coverage rather than on construction.
    pub(crate) explicit: bool,
}

impl ChannelLayout {
    /// Assigns units (maximal runs starting at `unit_starts[i] == true`)
    /// to channels. `is_index[i]` classifies the unit *starting* at `i`
    /// (only read at unit starts); `frame_starts[i]` marks units that
    /// begin a *frame* (only read at unit starts, and only by
    /// [`Placement::StripeFrames`]).
    /// Panicking [`ChannelLayout::try_build`], kept for the tests that
    /// pin the legacy panic messages.
    #[cfg(test)]
    pub(crate) fn build(
        cfg: &ChannelConfig,
        unit_starts: &[bool],
        is_index: &[bool],
        frame_starts: &[bool],
    ) -> Self {
        match Self::try_build(cfg, unit_starts, is_index, frame_starts) {
            Ok(l) => l,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the layout, returning the first structural defect as a
    /// [`LayoutError`].
    pub(crate) fn try_build(
        cfg: &ChannelConfig,
        unit_starts: &[bool],
        is_index: &[bool],
        frame_starts: &[bool],
    ) -> Result<Self, LayoutError> {
        cfg.try_validate()?;
        let n = unit_starts.len();
        if !unit_starts.first().copied().unwrap_or(false) {
            return Err(LayoutError::CycleNotUnitAligned);
        }
        if matches!(cfg.placement, Placement::StripeFrames(_))
            && !frame_starts.first().copied().unwrap_or(false)
        {
            return Err(LayoutError::CycleNotFrameAligned);
        }
        if let Placement::Explicit(assignment) = &cfg.placement {
            let units = unit_starts.iter().filter(|&&s| s).count();
            if assignment.len() != units {
                return Err(LayoutError::ExplicitWrongLength {
                    got: assignment.len(),
                    units,
                });
            }
        }
        let c = cfg.channels as usize;
        let mut chan_of = vec![0u32; n];
        let mut chan_pos = vec![0u64; n];
        let mut by_channel: Vec<Vec<u32>> = vec![Vec::new(); c];
        // Independent round-robin cursors per unit class.
        let mut next_index_chan = 0usize;
        let mut next_data_chan = 0usize;
        // Frames seen so far (StripeFrames counts them as units stream by).
        let mut frames_seen = 0u64;
        // Units seen so far (Explicit assignments index by unit ordinal).
        let mut units_seen = 0usize;
        let mut i = 0usize;
        while i < n {
            let mut end = i + 1;
            while end < n && !unit_starts[end] {
                end += 1;
            }
            if frame_starts[i] {
                frames_seen += 1;
            }
            let ch = match &cfg.placement {
                Placement::Blocked => {
                    // Arc boundaries at multiples of n/C packets: a unit
                    // belongs to the arc its first packet falls into.
                    (i * c) / n
                }
                Placement::Stripe => {
                    let ch = next_data_chan;
                    next_data_chan = (next_data_chan + 1) % c;
                    ch
                }
                Placement::StripeFrames(g) => {
                    // All units of a frame share its channel; the channel
                    // advances once per `g` frames (`g >= 1` is enforced
                    // by `validate`).
                    (((frames_seen - 1) / *g as u64) % c as u64) as usize
                }
                Placement::IndexData { index_channels } => {
                    let ic = *index_channels as usize;
                    if is_index[i] {
                        let ch = next_index_chan;
                        next_index_chan = (next_index_chan + 1) % ic;
                        ch
                    } else {
                        let ch = ic + next_data_chan;
                        next_data_chan = (next_data_chan + 1) % (c - ic);
                        ch
                    }
                }
                Placement::Explicit(assignment) => assignment[units_seen] as usize,
            };
            units_seen += 1;
            for (p, chan_slot) in chan_of
                .iter_mut()
                .zip(chan_pos.iter_mut())
                .take(end)
                .skip(i)
            {
                *p = ch as u32;
                *chan_slot = by_channel[ch].len() as u64;
                by_channel[ch].push(0); // placeholder, fixed below
            }
            let base = by_channel[ch].len() - (end - i);
            for (off, slot) in by_channel[ch][base..].iter_mut().enumerate() {
                *slot = (i + off) as u32;
            }
            i = end;
        }
        for (ch, slots) in by_channel.iter().enumerate() {
            if slots.is_empty() {
                return Err(LayoutError::EmptyChannel { channel: ch as u32 });
            }
        }
        // An explicit map can strand a channel without index access: a
        // client tuned there sees only data packets and has no pointer to
        // follow, so (unlike every analytic placement) termination is no
        // longer guaranteed from all tune-in points. Reject it here rather
        // than let the broadcast build and livelock clients at runtime.
        // Cycles without any index units (pure-data broadcasts, as in some
        // scheduler tests) are exempt: there is no index to navigate.
        if matches!(cfg.placement, Placement::Explicit(_))
            && (0..n).any(|i| unit_starts[i] && is_index[i])
        {
            for (ch, slots) in by_channel.iter().enumerate() {
                let has_index = slots
                    .iter()
                    .any(|&p| unit_starts[p as usize] && is_index[p as usize]);
                if !has_index {
                    return Err(LayoutError::StrandedChannel { channel: ch as u32 });
                }
            }
        }
        Ok(Self {
            chan_of,
            chan_pos,
            by_channel,
            explicit: matches!(cfg.placement, Placement::Explicit(_)),
        })
    }
}

/// The client's receiver hardware: how many channels it can monitor
/// concurrently, and whether it re-plans reads off a fading channel.
///
/// With `antennas = k` the [`crate::Tuner`] keeps up to `k` channels tuned
/// at once: content on any monitored channel is readable without a retune
/// delay, and [`crate::Tuner::goto`]/[`crate::Tuner::arrival`] pick the
/// earliest airing across the monitored set. Retuning an antenna to a new
/// channel costs [`ChannelConfig::switch_cost`] packets of latency and
/// counts one switch in [`ChannelStats`]; moving attention between
/// already-tuned antennas is free. `antennas = 1` is the classic
/// single-receiver client and reproduces its accounting bit-for-bit.
///
/// Loss resilience: burst detection counts consecutive
/// [`crate::PacketLost`] reads; once a burst reaches the tuner's burst
/// threshold, a multi-antenna client with `loss_retune` on biases its
/// resilient planners (`Tuner::plan_resilient` /
/// `Tuner::earliest_resilient`) away from the fading channel onto another
/// monitored channel instead of waiting out the fade. A k = 1 client (or
/// a single-channel program) always falls back to plain next-occurrence
/// retries. Whatever the configuration, the tuner's livelock guard aborts
/// a query after its retry cap of consecutive losses with a diagnostic
/// panic rather than spinning forever on a schedule that never frees the
/// packet. The policy only engages under observed bursts, so lossless
/// runs reproduce classic behaviour bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AntennaConfig {
    /// Number of concurrently tunable receivers, `>= 1`. Capped at the
    /// program's channel count (extra antennas are idle).
    pub antennas: u32,
    /// Whether a k ≥ 2 client re-plans reads off a fading channel.
    pub loss_retune: bool,
}

impl AntennaConfig {
    /// The classic single-receiver client.
    pub fn single() -> Self {
        Self::new(1)
    }

    /// A client with `antennas` receivers.
    ///
    /// # Panics
    ///
    /// Panics if `antennas` is zero.
    pub fn new(antennas: u32) -> Self {
        assert!(antennas >= 1, "a client needs at least one antenna");
        Self {
            antennas,
            loss_retune: true,
        }
    }

    /// Disables loss-aware retuning (the wait-out-the-fade ablation
    /// client: bursts are ridden out at the next occurrence, as a k = 1
    /// client must).
    pub fn without_loss_retune(mut self) -> Self {
        self.loss_retune = false;
        self
    }
}

impl Default for AntennaConfig {
    fn default() -> Self {
        Self::single()
    }
}

/// Channel-aware metrics of one query: how often the client re-tuned and
/// how much it listened to each channel. Complements [`crate::QueryStats`]
/// (which aggregates over channels).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChannelStats {
    /// Number of channel switches performed.
    pub switches: u64,
    /// Packets actively received per channel (length = channel count).
    pub tuning_packets: Vec<u64>,
    /// Packet capacity, for byte conversion.
    pub capacity: u32,
    /// Channel switches forced by loss bursts: times the resilient
    /// planner deviated from the loss-blind pick to dodge a fading
    /// channel. Zero on lossless channels and for k = 1 clients.
    pub loss_retunes: u64,
}

impl ChannelStats {
    /// Tuning time spent on channel `c`, in bytes.
    pub fn tuning_bytes(&self, c: usize) -> u64 {
        self.tuning_packets.get(c).copied().unwrap_or(0) * self.capacity as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn starts(pattern: &[(bool, bool)]) -> (Vec<bool>, Vec<bool>) {
        (
            pattern.iter().map(|&(s, _)| s).collect(),
            pattern.iter().map(|&(_, i)| i).collect(),
        )
    }

    #[test]
    fn stripe_keeps_units_contiguous() {
        // Units: [0,1], [2], [3,4,5], [6].
        let (us, ix) = starts(&[
            (true, true),
            (false, true),
            (true, false),
            (true, false),
            (false, false),
            (false, false),
            (true, true),
        ]);
        let l = ChannelLayout::build(&ChannelConfig::striped(2, 1), &us, &ix, &us);
        // Units round-robin: ch0 gets [0,1] and [3,4,5]; ch1 gets [2], [6].
        assert_eq!(l.chan_of, vec![0, 0, 1, 0, 0, 0, 1]);
        assert_eq!(l.by_channel[0], vec![0, 1, 3, 4, 5]);
        assert_eq!(l.by_channel[1], vec![2, 6]);
        // Per-channel slots are consecutive within a unit.
        assert_eq!(l.chan_pos[3], 2);
        assert_eq!(l.chan_pos[4], 3);
        assert_eq!(l.chan_pos[5], 4);
    }

    #[test]
    fn blocked_assigns_contiguous_arcs() {
        // Six one-packet units over three channels: two per arc.
        let (us, ix) = starts(&[(true, false); 6]);
        let l = ChannelLayout::build(&ChannelConfig::blocked(3, 0), &us, &ix, &us);
        assert_eq!(l.chan_of, vec![0, 0, 1, 1, 2, 2]);
        assert_eq!(l.by_channel[1], vec![2, 3]);
        // A unit straddling an arc boundary stays whole on the arc of its
        // first packet.
        let (us, ix) = starts(&[
            (true, false),
            (true, false),
            (false, false),
            (false, false),
            (true, false),
            (true, false),
        ]);
        let l = ChannelLayout::build(&ChannelConfig::blocked(2, 0), &us, &ix, &us);
        assert_eq!(l.chan_of, vec![0, 0, 0, 0, 1, 1]);
    }

    #[test]
    fn index_data_separates_classes() {
        let (us, ix) = starts(&[
            (true, true),
            (true, false),
            (false, false),
            (true, true),
            (true, false),
        ]);
        let l = ChannelLayout::build(&ChannelConfig::index_data(3, 1, 2), &us, &ix, &us);
        // Index units on channel 0, data units round-robin on 1 and 2.
        assert_eq!(l.chan_of, vec![0, 1, 1, 0, 2]);
        assert_eq!(l.by_channel[0], vec![0, 3]);
        assert_eq!(l.by_channel[1], vec![1, 2]);
        assert_eq!(l.by_channel[2], vec![4]);
    }

    #[test]
    fn stripe_frames_keeps_frames_contiguous() {
        // Two-unit frames: [0,1][2,3], [4][5], [6,7][8].
        let us = vec![true, false, true, false, true, true, true, false, true];
        let ix = vec![false; 9];
        let fs = vec![true, false, false, false, true, false, true, false, false];
        let l = ChannelLayout::build(
            &ChannelConfig {
                channels: 2,
                placement: Placement::StripeFrames(1),
                switch_cost: 1,
            },
            &us,
            &ix,
            &fs,
        );
        // Frames round-robin: ch0 gets frames 0 and 2, ch1 gets frame 1.
        assert_eq!(l.chan_of, vec![0, 0, 0, 0, 1, 1, 0, 0, 0]);
        assert_eq!(l.by_channel[0], vec![0, 1, 2, 3, 6, 7, 8]);
        assert_eq!(l.by_channel[1], vec![4, 5]);
        // Two frames per block: frames 0 and 1 on ch0, frame 2 on ch1.
        let l = ChannelLayout::build(
            &ChannelConfig {
                channels: 2,
                placement: Placement::StripeFrames(2),
                switch_cost: 1,
            },
            &us,
            &ix,
            &fs,
        );
        assert_eq!(l.chan_of, vec![0, 0, 0, 0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn explicit_assignment_places_units_verbatim() {
        // Units: [0,1], [2], [3,4,5], [6] → channels 1, 0, 1, 0.
        let (us, ix) = starts(&[
            (true, false),
            (false, false),
            (true, false),
            (true, false),
            (false, false),
            (false, false),
            (true, false),
        ]);
        let cfg = ChannelConfig {
            channels: 2,
            placement: Placement::Explicit(vec![1, 0, 1, 0]),
            switch_cost: 1,
        };
        let l = ChannelLayout::build(&cfg, &us, &ix, &us);
        assert_eq!(l.chan_of, vec![1, 1, 0, 1, 1, 1, 0]);
        // Flat order is preserved within each channel; units stay whole.
        assert_eq!(l.by_channel[0], vec![2, 6]);
        assert_eq!(l.by_channel[1], vec![0, 1, 3, 4, 5]);
        assert_eq!(l.chan_pos[4], 3);
    }

    #[test]
    #[should_panic(expected = "explicit assignment covers")]
    fn explicit_assignment_must_cover_every_unit() {
        let (us, ix) = starts(&[(true, false), (true, false), (true, false)]);
        let cfg = ChannelConfig {
            channels: 2,
            placement: Placement::Explicit(vec![0, 1]),
            switch_cost: 0,
        };
        let _ = ChannelLayout::build(&cfg, &us, &ix, &us);
    }

    #[test]
    #[should_panic(expected = "names a channel >= 2")]
    fn explicit_assignment_rejects_out_of_range_channel() {
        ChannelConfig {
            channels: 2,
            placement: Placement::Explicit(vec![0, 2]),
            switch_cost: 0,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "at least one frame per block")]
    fn stripe_frames_zero_is_rejected_even_on_one_channel() {
        // Placement parameters are checked regardless of the channel
        // count; before the fix `channels == 1` skipped them entirely.
        ChannelConfig {
            channels: 1,
            placement: Placement::StripeFrames(0),
            switch_cost: 0,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "index_channels must be in")]
    fn index_data_is_rejected_on_one_channel() {
        // An index/data split needs at least two channels; `channels ==
        // 1` used to validate silently.
        ChannelConfig {
            channels: 1,
            placement: Placement::IndexData { index_channels: 1 },
            switch_cost: 0,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "received no units")]
    fn starving_a_channel_is_rejected() {
        let (us, ix) = starts(&[(true, true), (false, true)]);
        let _ = ChannelLayout::build(&ChannelConfig::striped(2, 0), &us, &ix, &us);
    }

    #[test]
    #[should_panic(expected = "index_channels must be in")]
    fn bad_split_is_rejected() {
        let (us, ix) = starts(&[(true, true), (true, false)]);
        let _ = ChannelLayout::build(&ChannelConfig::index_data(2, 2, 0), &us, &ix, &us);
    }

    #[test]
    fn explicit_assignment_must_give_every_channel_an_index_unit() {
        // Units: index [0], index [1], data [2] → packing both index units
        // onto channel 0 leaves channel 1 data-only, so a client tuning in
        // there never reads a pointer. Regression test for the `Explicit`
        // stranding gap: this used to build.
        let (us, ix) = starts(&[(true, true), (true, true), (true, false)]);
        let cfg = ChannelConfig {
            channels: 2,
            placement: Placement::Explicit(vec![0, 0, 1]),
            switch_cost: 0,
        };
        let err = ChannelLayout::try_build(&cfg, &us, &ix, &us).unwrap_err();
        assert_eq!(err, LayoutError::StrandedChannel { channel: 1 });
        // Spreading the index units over both channels clears the error.
        let cfg = ChannelConfig {
            channels: 2,
            placement: Placement::Explicit(vec![0, 1, 1]),
            switch_cost: 0,
        };
        assert!(ChannelLayout::try_build(&cfg, &us, &ix, &us).is_ok());
        // A pure-data cycle is exempt: there is no index to strand.
        let (us, ix) = starts(&[(true, false), (true, false), (true, false)]);
        let cfg = ChannelConfig {
            channels: 2,
            placement: Placement::Explicit(vec![0, 0, 1]),
            switch_cost: 0,
        };
        assert!(ChannelLayout::try_build(&cfg, &us, &ix, &us).is_ok());
    }

    #[test]
    #[should_panic(expected = "received no index unit")]
    fn stranded_explicit_channel_panics_through_build() {
        let (us, ix) = starts(&[(true, true), (true, false)]);
        let cfg = ChannelConfig {
            channels: 2,
            placement: Placement::Explicit(vec![0, 1]),
            switch_cost: 0,
        };
        let _ = ChannelLayout::build(&cfg, &us, &ix, &us);
    }

    #[test]
    fn layout_errors_format_their_invariant() {
        // The `Display` strings are the panic messages of the legacy
        // constructors; tests elsewhere match on these substrings.
        assert_eq!(
            LayoutError::NoChannels.to_string(),
            "need at least one channel"
        );
        assert!(LayoutError::EmptyChannel { channel: 3 }
            .to_string()
            .contains("channel 3 received no units"));
        assert!(LayoutError::ExplicitWrongLength { got: 2, units: 5 }
            .to_string()
            .contains("covers 2 units but the cycle has 5"));
    }
}
