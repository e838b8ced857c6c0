//! The mobile client's channel interface.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::channel::{AntennaConfig, ChannelStats};
use crate::loss::{
    stream_seed, FaultTrace, GilbertElliott, LossModel, TraceEntry, GE_DRAW_SALT, GE_STATE_SALT,
    KEYED_DRAW_SALT,
};
use crate::program::{PacketClass, Payload, Program};
use crate::stats::QueryStats;

/// Consecutive lost reads before a burst is declared and a multi-antenna
/// client's resilient planners start dodging the fading channel.
const BURST_THRESHOLD: u32 = 2;

/// Consecutive lost reads before the livelock guard aborts the query.
const RETRY_CAP: u32 = 512;

/// Error returned by [`Tuner::read`] when the packet was corrupted by the
/// link-error model. The client has still *listened* (tuning time accrues)
/// and the instant has passed (latency accrues); recovery strategy is up to
/// the index's search algorithm — this asymmetry between DSI (resume at
/// next frame) and tree indexes (wait for a new root/index segment) is the
/// heart of the paper's §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketLost;

/// A client tuned into a broadcast channel.
///
/// The tuner owns the client-side clock: `pos` is the absolute packet
/// instant about to be broadcast. Reading consumes the instant actively;
/// dozing skips ahead without listening. Both metrics of the paper fall out
/// of this bookkeeping:
///
/// * access latency = `pos - tune-in instant`
/// * tuning time   = number of `read` calls
///
/// With a multi-antenna [`AntennaConfig`] the client keeps up to `k`
/// channels tuned concurrently: [`Tuner::arrival`] and [`Tuner::goto`]
/// treat every monitored channel as reachable without a retune delay, and
/// a retune (evicting the least-recently-used antenna) is charged only
/// when the target channel is on none of them.
pub struct Tuner<'a, P> {
    program: &'a Program<P>,
    start: u64,
    pos: u64,
    tuning: u64,
    loss: LossModel,
    rng: StdRng,
    /// Channel currently listened to (clients tune in on channel 0, the
    /// first index channel under every placement policy).
    channel: u32,
    /// Number of concurrently tunable receivers (capped at the channel
    /// count).
    antennas: u32,
    /// Channels the antennas are currently tuned to, most recently focused
    /// first (`monitored[0] == channel`); a retune evicts the tail. Left
    /// empty on single-channel programs so the classic tuner stays
    /// allocation-free.
    monitored: Vec<u32>,
    switches: u64,
    /// Per-channel tuning counters; left empty on single-channel programs
    /// (the aggregate counter covers channel 0), so the classic
    /// single-channel tuner stays allocation-free and pays nothing per
    /// read.
    tuning_by_channel: Vec<u64>,
    /// Per-model fault state (the [`LossModel::None`]/[`LossModel::Iid`]
    /// arm is the frozen historical draw path; see the loss module docs).
    fault: FaultDriver,
    /// Whether a k ≥ 2 client re-plans reads off a fading channel (from
    /// the [`AntennaConfig`]).
    loss_retune: bool,
    /// Total reads corrupted by the link-error model.
    lost_reads: u64,
    /// Consecutive lost reads (reset by any successful read).
    burst: u32,
    /// Instant of the first lost read of the open burst.
    stall_start: u64,
    /// Longest loss stall observed, in packets of broadcast time.
    longest_stall: u64,
    /// Retunes forced by loss (resilient planner deviated from the
    /// loss-blind pick).
    loss_retunes: u64,
    /// Per-read journal (channel, instant, loss outcome), recorded when
    /// [`Tuner::enable_fault_recording`] was called: the fault harness
    /// replays it and the placement optimizer profiles from it
    /// ([`crate::optimize::AccessProfile::from_journals`]).
    record: Option<Vec<TraceEntry>>,
}

/// Per-model fault state behind [`Tuner::read`]'s loss decision.
enum FaultDriver {
    /// `None`/`Iid`: the historical path — one shared RNG, one draw per
    /// scoped read, in read order. Frozen bit-for-bit.
    Classic,
    /// `KeyedIid`: one draw stream per channel.
    Keyed { rngs: Vec<StdRng> },
    /// `Gilbert`: one independent two-state chain per channel.
    Ge { chains: Vec<GeChain> },
    /// `Outage`: pure schedule lookup, no state.
    Outage,
    /// `Trace`: replay cursor over the recorded entries.
    Trace { cursor: usize },
}

/// One channel's Gilbert–Elliott chain. The state trajectory is sampled
/// lazily over absolute broadcast time from its own keyed stream (one
/// geometric sojourn draw per transition), so where the chain is at
/// instant `t` is a pure function of (seed, channel, t) — independent of
/// when or how often the client reads.
struct GeChain {
    /// Currently in the bad (burst) state?
    bad: bool,
    /// Absolute instant at which the current state's sojourn ends.
    until: u64,
    /// Sojourn-length stream (`GE_STATE_SALT`).
    state_rng: StdRng,
    /// Within-state loss-draw stream (`GE_DRAW_SALT`).
    draw_rng: StdRng,
}

impl GeChain {
    fn new(seed: u64, channel: u32, ge: &GilbertElliott) -> Self {
        let mut state_rng = StdRng::seed_from_u64(stream_seed(seed, channel, GE_STATE_SALT));
        // Chains start in the good state; the first transition instant is
        // the initial good sojourn.
        let until = sojourn(&mut state_rng, ge.p_gb);
        Self {
            bad: false,
            until,
            state_rng,
            draw_rng: StdRng::seed_from_u64(stream_seed(seed, channel, GE_DRAW_SALT)),
        }
    }

    /// Advances the chain to instant `t` (amortized O(1): one geometric
    /// draw per state transition).
    fn advance(&mut self, t: u64, ge: &GilbertElliott) {
        while self.until <= t {
            self.bad = !self.bad;
            let leave = if self.bad { ge.p_bg } else { ge.p_gb };
            self.until += sojourn(&mut self.state_rng, leave);
        }
    }
}

/// One geometric sojourn length (≥ 1 instants) for a state left with
/// per-instant probability `leave`.
fn sojourn(rng: &mut StdRng, leave: f64) -> u64 {
    if leave >= 1.0 {
        return 1;
    }
    let u: f64 = rng.gen();
    let len = 1.0 + ((1.0 - u).ln() / (1.0 - leave).ln()).floor();
    (len as u64).clamp(1, 1 << 32)
}

impl<'a, P: Payload> Tuner<'a, P> {
    /// Tunes in at the absolute packet instant `start` (the initial probe
    /// happens at the first subsequent `read`), on channel 0, with a
    /// single antenna.
    pub fn tune_in(program: &'a Program<P>, start: u64, loss: LossModel, seed: u64) -> Self {
        Self::tune_in_with(program, start, loss, seed, AntennaConfig::single())
    }

    /// Tunes in with an explicit receiver configuration: all `antennas`
    /// start parked on channel 0 conceptually, but only channel 0 counts
    /// as monitored until the client actually spreads out (so an unused
    /// second antenna changes nothing).
    pub fn tune_in_with(
        program: &'a Program<P>,
        start: u64,
        loss: LossModel,
        seed: u64,
        antennas: AntennaConfig,
    ) -> Self {
        assert!(
            antennas.antennas >= 1,
            "a client needs at least one antenna"
        );
        let n_channels = program.n_channels();
        let fault = match &loss {
            LossModel::None | LossModel::Iid { .. } => FaultDriver::Classic,
            LossModel::KeyedIid { .. } => FaultDriver::Keyed {
                rngs: (0..n_channels)
                    .map(|c| StdRng::seed_from_u64(stream_seed(seed, c, KEYED_DRAW_SALT)))
                    .collect(),
            },
            LossModel::Gilbert(ge) => FaultDriver::Ge {
                chains: (0..n_channels).map(|c| GeChain::new(seed, c, ge)).collect(),
            },
            LossModel::Outage(_) => FaultDriver::Outage,
            LossModel::Trace(_) => FaultDriver::Trace { cursor: 0 },
        };
        Self {
            program,
            start,
            pos: start,
            tuning: 0,
            loss,
            rng: StdRng::seed_from_u64(seed),
            channel: 0,
            antennas: antennas.antennas.min(n_channels),
            monitored: if n_channels > 1 { vec![0] } else { Vec::new() },
            switches: 0,
            tuning_by_channel: if n_channels > 1 {
                vec![0; n_channels as usize]
            } else {
                Vec::new()
            },
            fault,
            loss_retune: antennas.loss_retune,
            lost_reads: 0,
            burst: 0,
            stall_start: 0,
            longest_stall: 0,
            loss_retunes: 0,
            record: None,
        }
    }

    /// Starts journaling every read's channel, instant and loss outcome;
    /// retrieve the script with [`Tuner::fault_trace`] and replay it via
    /// [`LossModel::Trace`].
    pub fn enable_fault_recording(&mut self) {
        self.record = Some(Vec::new());
    }

    /// The fault journal recorded since [`Tuner::enable_fault_recording`]
    /// (empty if recording was never enabled).
    pub fn fault_trace(&self) -> FaultTrace {
        FaultTrace::new(self.record.clone().unwrap_or_default())
    }

    /// The broadcast program being listened to.
    #[inline]
    pub fn program(&self) -> &'a Program<P> {
        self.program
    }

    /// Absolute instant of the next packet to be broadcast.
    #[inline]
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Cycle-relative position of the next packet **on the listened
    /// channel**: each channel repeats its own cycle of
    /// [`Program::channel_len`] packets, so the slot about to air on the
    /// current channel is `pos % channel_len(channel)`. On a
    /// single-channel program this is the classic flat cycle position.
    /// (It used to be `pos % program.len()`, which on `C > 1` programs
    /// was neither the channel slot nor a flat position.)
    #[inline]
    pub fn cycle_pos(&self) -> u64 {
        self.pos % self.program.channel_len(self.channel)
    }

    /// Channel currently listened to.
    #[inline]
    pub fn channel(&self) -> u32 {
        self.channel
    }

    /// Number of usable antennas (the configured count capped at the
    /// program's channel count).
    #[inline]
    pub fn antennas(&self) -> u32 {
        self.antennas
    }

    /// Channels currently monitored by the antennas, most recently focused
    /// first. Empty on single-channel programs (the one channel is
    /// implicitly monitored).
    #[inline]
    pub fn monitored_channels(&self) -> &[u32] {
        &self.monitored
    }

    /// Whether an antenna is currently tuned to `ch` (reads from it need
    /// no retune delay).
    #[inline]
    fn is_monitored(&self, ch: u32) -> bool {
        if self.monitored.is_empty() {
            ch == self.channel
        } else {
            self.monitored.contains(&ch)
        }
    }

    /// Makes `ch` the actively decoded channel: free if an antenna is
    /// already tuned to it, otherwise a retune of the least-recently-used
    /// antenna (one switch).
    fn focus(&mut self, ch: u32) {
        if ch == self.channel {
            return;
        }
        if let Some(i) = self.monitored.iter().position(|&c| c == ch) {
            // Already tuned by another antenna: selecting its stream is
            // free, just refresh the recency order.
            self.monitored.remove(i);
        } else {
            self.switches += 1;
            if self.monitored.len() as u32 >= self.antennas {
                self.monitored.pop();
            }
        }
        self.monitored.insert(0, ch);
        self.channel = ch;
    }

    /// Flat cycle position of the packet about to air on the current
    /// channel — "where in the schema" the client is listening. Equal to
    /// [`Tuner::cycle_pos`] on a single channel.
    #[inline]
    pub fn flat_pos(&self) -> u64 {
        self.program.flat_at(self.channel, self.pos)
    }

    /// The packet about to air on the current channel (schema knowledge;
    /// reading it still costs a [`Tuner::read`]).
    #[inline]
    pub fn current_packet(&self) -> &'a P {
        self.program.packet_at(self.channel, self.pos)
    }

    /// The earliest instant at which the packet at flat schema position
    /// `flat_pos` can be **read** from here: its next airing on its
    /// channel, no earlier than a retune (if no antenna monitors that
    /// channel yet) allows.
    #[inline]
    pub fn arrival(&self, flat_pos: u64) -> u64 {
        self.arrival_from(self.pos, flat_pos)
    }

    /// [`Tuner::arrival`] from a hypothetical future instant `from`: the
    /// earliest the packet at `flat_pos` could be read if the client were
    /// free at `from`, charging the retune delay if no antenna currently
    /// monitors the target's channel. This is the costing primitive of
    /// [`Tuner::plan_earliest`]'s conflict model.
    #[inline]
    fn arrival_from(&self, from: u64, flat_pos: u64) -> u64 {
        let ready = if self.is_monitored(self.program.channel_of(flat_pos)) {
            from
        } else {
            from + self.program.switch_cost() as u64
        };
        self.program.next_occurrence_on(ready, flat_pos)
    }

    /// The batch arrival planner: the earliest-arriving position among
    /// `flats` and its arrival instant (ties go to the lowest index).
    /// Equals the minimum over per-position [`Tuner::arrival`] calls;
    /// `None` on an empty slice. This is how channel-aware clients pick
    /// their next read across candidate targets airing on parallel
    /// channels.
    #[inline]
    pub fn arrival_earliest(&self, flats: &[u64]) -> Option<(usize, u64)> {
        let mut best: Option<(usize, u64)> = None;
        for (i, &flat) in flats.iter().enumerate() {
            let t = self.arrival(flat);
            if best.is_none_or(|(_, bt)| t < bt) {
                best = Some((i, t));
            }
        }
        best
    }

    /// The duration-aware batch planner: like [`Tuner::arrival_earliest`],
    /// but accounts for reads occupying the receiver. A read of candidate
    /// `i` holds the receiver for `dur(i)` packets, so blindly taking the
    /// earliest airing can trample the runner-up's airing and push it a
    /// full channel cycle out. When the runner-up airs before the
    /// leader's read completes, both orders are costed by the completion
    /// of the later read — the deferred read's re-occurrence charged
    /// exactly like [`Tuner::arrival`] (retune delay included when its
    /// channel is on no antenna) — and the cheaper order's first read
    /// wins. Arrivals are computed once per candidate; `dur` is only
    /// consulted for the top two. Ties go to the lowest index.
    pub fn plan_earliest(&self, flats: &[u64], dur: impl Fn(usize) -> u64) -> Option<(usize, u64)> {
        let mut best: Option<(usize, u64)> = None;
        let mut second: Option<(usize, u64)> = None;
        for (i, &flat) in flats.iter().enumerate() {
            let t = self.arrival(flat);
            if best.is_none_or(|(_, bt)| t < bt) {
                second = best;
                best = Some((i, t));
            } else if second.is_none_or(|(_, st)| t < st) {
                second = Some((i, t));
            }
        }
        let (x, t_x) = best?;
        if let Some((y, t_y)) = second {
            let dx = dur(x);
            if t_y < t_x + dx {
                let dy = dur(y);
                // The deferred read re-occurs under the same charging
                // rules as any other arrival: if its channel is
                // unmonitored, the retune delay applies. Costing it with
                // a bare `next_occurrence_on` (the pre-fix behaviour)
                // understated the deferred side by the switch cost, so a
                // large `switch_cost` could flip the decision the wrong
                // way.
                let y_after_x = self.arrival_from(t_x + dx, flats[y]) + dy;
                let x_after_y = self.arrival_from(t_y + dy, flats[x]) + dx;
                if x_after_y < y_after_x {
                    return Some((y, t_y));
                }
            }
        }
        Some((x, t_x))
    }

    /// Consecutive lost reads of the currently open burst (0 after any
    /// successful read).
    #[inline]
    pub fn current_burst(&self) -> u32 {
        self.burst
    }

    /// Total reads corrupted by the link-error model since tune-in.
    #[inline]
    pub fn lost_reads(&self) -> u64 {
        self.lost_reads
    }

    /// Whether the resilient planners are currently biasing picks away
    /// from the listened channel: a burst of at least [`BURST_THRESHOLD`]
    /// losses is open, loss-aware retune is enabled, and the client has a
    /// spare antenna on a multi-channel program to dodge with.
    #[inline]
    fn fade_active(&self) -> bool {
        self.loss_retune
            && self.antennas > 1
            && self.program.n_channels() > 1
            && self.burst >= BURST_THRESHOLD
    }

    /// Loss-aware [`Tuner::arrival_earliest`]: identical (and loss-blind —
    /// it consumes no RNG draws) until burst detection declares a fade on
    /// the listened channel, then candidates on that channel are costed
    /// with an exponential backoff (`2^min(burst, 6)` instants) so an
    /// airing on another monitored channel wins instead of waiting out
    /// the fade. Deviations from the loss-blind pick are counted in
    /// [`QueryStats::loss_retunes`]. The returned instant is always the
    /// chosen candidate's *true* arrival.
    pub fn earliest_resilient(&mut self, flats: &[u64]) -> Option<(usize, u64)> {
        if !self.fade_active() {
            return self.arrival_earliest(flats);
        }
        self.pick_avoiding_fade(flats)
    }

    /// Loss-aware [`Tuner::plan_earliest`]: identical until a fade is
    /// declared (see [`Tuner::earliest_resilient`]); under a fade the
    /// dodge dominates duration-conflict costing, so the biased arrival
    /// pick is used directly.
    pub fn plan_resilient(
        &mut self,
        flats: &[u64],
        dur: impl Fn(usize) -> u64,
    ) -> Option<(usize, u64)> {
        if !self.fade_active() {
            return self.plan_earliest(flats, dur);
        }
        self.pick_avoiding_fade(flats)
    }

    /// The fade-biased pick: cost candidates on the fading (listened)
    /// channel as if the client backed off exponentially in the burst
    /// length before retrying there; candidates on other channels keep
    /// their true arrivals. The dodge only ever diverts to a *different*
    /// channel: when the biased winner still lives on the fading channel
    /// there is nowhere to escape to, and the loss-blind pick stands —
    /// reordering reads *within* the fading channel would defer each
    /// skipped candidate by a whole channel cycle for no loss-avoidance
    /// gain at all.
    fn pick_avoiding_fade(&mut self, flats: &[u64]) -> Option<(usize, u64)> {
        let fading = self.channel;
        let backoff = 1u64 << self.burst.min(6);
        let mut naive: Option<(usize, u64)> = None;
        let mut best: Option<(usize, u64, u64)> = None;
        for (i, &flat) in flats.iter().enumerate() {
            let real = self.arrival(flat);
            if naive.is_none_or(|(_, nt)| real < nt) {
                naive = Some((i, real));
            }
            let biased = if self.program.channel_of(flat) == fading {
                self.arrival_from(self.pos + backoff, flat)
            } else {
                real
            };
            if best.is_none_or(|(_, bb, _)| biased < bb) {
                best = Some((i, biased, real));
            }
        }
        let (i, _, real) = best?;
        if naive.map(|(j, _)| j) == Some(i) {
            return Some((i, real));
        }
        if self.program.channel_of(flats[i]) == fading {
            return naive;
        }
        self.loss_retunes += 1;
        Some((i, real))
    }

    /// Dozes (and re-tunes an antenna, if no antenna monitors the target's
    /// channel) to the arrival of flat schema position `flat_pos`,
    /// returning the instant reached; the next [`Tuner::read`] receives
    /// exactly that packet. Switch cost accrues as latency, never as
    /// tuning.
    #[inline]
    pub fn goto(&mut self, flat_pos: u64) -> u64 {
        let t = self.arrival(flat_pos);
        self.focus(self.program.channel_of(flat_pos));
        self.pos = t;
        t
    }

    /// Receives the packet at the current instant (active mode).
    ///
    /// Always advances time and accrues one packet of tuning; returns
    /// `Err(PacketLost)` if the link-error model corrupted the packet.
    #[inline]
    pub fn read(&mut self) -> Result<&'a P, PacketLost> {
        let packet = self.program.packet_at(self.channel, self.pos);
        let instant = self.pos;
        self.pos += 1;
        self.tuning += 1;
        if let Some(c) = self.tuning_by_channel.get_mut(self.channel as usize) {
            *c += 1;
        }
        let lost = self.decide_loss(packet.class(), instant);
        if let Some(rec) = self.record.as_mut() {
            rec.push(TraceEntry {
                channel: self.channel,
                instant,
                lost,
            });
        }
        if lost {
            self.lost_reads += 1;
            if self.burst == 0 {
                self.stall_start = instant;
            }
            self.burst += 1;
            let stall = self.pos - self.stall_start;
            if stall > self.longest_stall {
                self.longest_stall = stall;
            }
            // The livelock guard: a retry set that stops shrinking shows
            // up as an unbounded run of consecutive lost reads (each
            // retry re-reads at the next occurrence and loses again).
            // Abort with a diagnostic instead of spinning forever — e.g.
            // under an outage schedule that never frees this packet.
            if self.burst > RETRY_CAP {
                panic!(
                    "livelock guard: {} consecutive lost reads (cap {}) on channel {} \
                     at instant {} ({} losses total, monitored {:?}) under {:?} — \
                     the fault schedule never frees this read",
                    self.burst,
                    RETRY_CAP,
                    self.channel,
                    instant,
                    self.lost_reads,
                    self.monitored,
                    self.loss
                );
            }
            Err(PacketLost)
        } else {
            self.burst = 0;
            Ok(packet)
        }
    }

    /// One read's loss verdict at `instant` on the listened channel.
    /// The `Classic` arm is the frozen historical draw path (`None`/
    /// `Iid`): θ-gated single draws from the shared RNG in read order.
    fn decide_loss(&mut self, class: PacketClass, instant: u64) -> bool {
        match &mut self.fault {
            FaultDriver::Classic => {
                let theta = self.loss.theta_for(class);
                theta > 0.0 && self.rng.gen_bool(theta)
            }
            FaultDriver::Keyed { rngs } => {
                let theta = self.loss.theta_for(class);
                theta > 0.0 && rngs[self.channel as usize].gen_bool(theta)
            }
            FaultDriver::Ge { chains } => {
                let LossModel::Gilbert(ge) = &self.loss else {
                    unreachable!("Ge driver is only built for Gilbert models")
                };
                let chain = &mut chains[self.channel as usize];
                chain.advance(instant, ge);
                let theta = ge.theta_in(chain.bad, class);
                // A full fade (θ = 1) consumes no draw, so a channel's
                // draw stream stays aligned across fade severities.
                theta > 0.0 && (theta >= 1.0 || chain.draw_rng.gen_bool(theta))
            }
            FaultDriver::Outage => {
                let LossModel::Outage(schedule) = &self.loss else {
                    unreachable!("Outage driver is only built for Outage models")
                };
                schedule.is_dark(self.channel, instant)
            }
            FaultDriver::Trace { cursor } => {
                let LossModel::Trace(trace) = &self.loss else {
                    unreachable!("Trace driver is only built for Trace models")
                };
                let entries = trace.entries();
                if let Some(off) = entries[*cursor..]
                    .iter()
                    .position(|e| e.channel == self.channel && e.instant == instant)
                {
                    let lost = entries[*cursor + off].lost;
                    *cursor += off + 1;
                    lost
                } else {
                    false
                }
            }
        }
    }

    /// Switches to doze mode until absolute instant `abs` (latency accrues,
    /// tuning does not).
    ///
    /// # Panics
    ///
    /// Panics if `abs` is in the past — broadcast time is monotonic; use
    /// [`Program::next_occurrence`] to roll cycle positions forward.
    pub fn doze_to(&mut self, abs: u64) {
        assert!(
            abs >= self.pos,
            "cannot doze into the past: now {} target {abs}",
            self.pos
        );
        self.pos = abs;
    }

    /// Metrics accrued since tune-in.
    pub fn stats(&self) -> QueryStats {
        QueryStats {
            latency_packets: self.pos - self.start,
            tuning_packets: self.tuning,
            capacity: self.program.capacity(),
            lost_packets: self.lost_reads,
            longest_stall_packets: self.longest_stall,
            loss_retunes: self.loss_retunes,
        }
    }

    /// Channel-aware metrics accrued since tune-in: switch count and
    /// per-channel tuning.
    pub fn channel_stats(&self) -> ChannelStats {
        ChannelStats {
            switches: self.switches,
            tuning_packets: if self.tuning_by_channel.is_empty() {
                vec![self.tuning]
            } else {
                self.tuning_by_channel.clone()
            },
            capacity: self.program.capacity(),
            loss_retunes: self.loss_retunes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{LossScope, OutageWindow};
    use crate::program::PacketClass;

    #[derive(Debug, Clone, PartialEq)]
    enum P {
        Idx(u32),
        Hdr,
        Pay,
    }
    impl Payload for P {
        fn class(&self) -> PacketClass {
            match self {
                P::Idx(_) => PacketClass::Index,
                P::Hdr => PacketClass::ObjectHeader,
                P::Pay => PacketClass::ObjectPayload,
            }
        }
    }

    fn program() -> Program<P> {
        Program::new(
            64,
            vec![
                P::Idx(0),
                P::Hdr,
                P::Pay,
                P::Pay,
                P::Idx(1),
                P::Hdr,
                P::Pay,
                P::Pay,
            ],
        )
    }

    #[test]
    fn read_advances_and_accounts() {
        let prog = program();
        let mut t = Tuner::tune_in(&prog, 2, LossModel::None, 1);
        assert_eq!(t.read().unwrap(), &P::Pay);
        assert_eq!(t.read().unwrap(), &P::Pay);
        let s = t.stats();
        assert_eq!(s.latency_packets, 2);
        assert_eq!(s.tuning_packets, 2);
    }

    #[test]
    fn doze_costs_latency_only() {
        let prog = program();
        let mut t = Tuner::tune_in(&prog, 0, LossModel::None, 1);
        t.doze_to(6);
        assert_eq!(t.read().unwrap(), &P::Pay);
        let s = t.stats();
        assert_eq!(s.latency_packets, 7);
        assert_eq!(s.tuning_packets, 1);
    }

    #[test]
    fn goto_wraps_to_the_next_cycle() {
        let prog = program();
        let mut t = Tuner::tune_in(&prog, 5, LossModel::None, 1);
        // Position 4 is behind → next cycle (abs 12).
        assert_eq!(t.goto(4), 12);
        assert_eq!(t.read().unwrap(), &P::Idx(1));
        assert_eq!(t.pos(), 13);
        assert_eq!(t.stats().latency_packets, 8);
    }

    #[test]
    fn cycle_pos_is_the_listened_channels_slot() {
        use crate::channel::ChannelConfig;
        // Seven one-packet units striped over 3 channels: channel 0
        // carries flats {0,3,6} (3 slots), channel 2 carries {2,5} (2).
        let prog = Program::with_channels(
            64,
            (0..7).map(P::Idx).collect(),
            ChannelConfig::striped(3, 1),
        );
        let mut t = Tuner::tune_in(&prog, 7, LossModel::None, 1);
        assert_eq!(t.channel(), 0);
        // The listened channel's cycle is 3 packets, not the flat 7.
        assert_eq!(t.cycle_pos(), 7 % 3);
        assert_eq!(prog.flat_at(t.channel(), t.cycle_pos()), t.flat_pos());
        assert_ne!(t.cycle_pos(), t.pos() % prog.len(), "pre-fix value");
        t.goto(5);
        assert_eq!(t.channel(), 2);
        assert_eq!(t.pos(), 9);
        assert_eq!(t.cycle_pos(), 9 % prog.channel_len(2));
        assert_eq!(prog.flat_at(t.channel(), t.cycle_pos()), 5);
        assert_ne!(t.cycle_pos(), t.pos() % prog.len(), "pre-fix value");
    }

    #[test]
    fn plan_earliest_charges_retune_on_the_deferred_read() {
        use crate::channel::ChannelConfig;
        // Sixteen one-packet units blocked over 2 channels (flats 0..8 on
        // channel 0, 8..16 on channel 1), switch cost 6. From a fresh
        // client (monitoring channel 0 only): flat 14 airs at t = 6
        // (retune + slot 6), flat 7 at t = 7 — reading 14 first tramples
        // 7's airing. Deferring 14 costs a *second* retune; the pre-fix
        // costing ignored it (completion 16 < 17) and wrongly deferred
        // the leader, while the arrival-style charge (completion 24)
        // keeps it first.
        let prog = Program::with_channels(
            64,
            (0..16).map(P::Idx).collect(),
            ChannelConfig::blocked(2, 6),
        );
        let t = Tuner::tune_in(&prog, 0, LossModel::None, 1);
        assert_eq!(t.arrival(14), 6);
        assert_eq!(t.arrival(7), 7);
        assert_eq!(t.plan_earliest(&[14, 7], |_| 2), Some((0, 6)));
    }

    #[test]
    #[should_panic(expected = "doze into the past")]
    fn dozing_backwards_panics() {
        let prog = program();
        let mut t = Tuner::tune_in(&prog, 5, LossModel::None, 1);
        t.doze_to(3);
    }

    #[test]
    fn loss_scope_spares_payload() {
        let prog = program();
        let loss = LossModel::Iid {
            theta: 0.999_999,
            scope: LossScope::IndexOnly,
        };
        let mut t = Tuner::tune_in(&prog, 0, loss, 42);
        // Index packet: virtually always lost.
        assert_eq!(t.read(), Err(PacketLost));
        // Header and payload packets: never lost under IndexOnly (object
        // records are assumed FEC-protected; see the loss module docs).
        assert_eq!(t.read().unwrap(), &P::Hdr);
        assert_eq!(t.read().unwrap(), &P::Pay);
        assert_eq!(t.read().unwrap(), &P::Pay);
        // Tuning counted losses too: the client listened.
        assert_eq!(t.stats().tuning_packets, 4);
    }

    #[test]
    fn deterministic_under_seed() {
        let prog = program();
        let loss = LossModel::iid(0.5);
        let run = |seed| {
            let mut t = Tuner::tune_in(&prog, 0, loss.clone(), seed);
            (0..16).map(|_| t.read().is_ok()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }

    /// A cycle of index-class one-packet units (every read draws under
    /// index-scoped models).
    fn index_program() -> Program<P> {
        Program::new(64, (0..8).map(P::Idx).collect())
    }

    #[test]
    fn gilbert_is_deterministic_and_bursty() {
        let prog = index_program();
        // Certain loss inside a fade: the loss pattern is exactly the
        // bad-state trajectory, so runs of losses are fades by construction.
        let ge = GilbertElliott::new(0.2, 0.3, 1.0);
        let run = |seed| {
            let mut t = Tuner::tune_in(&prog, 0, LossModel::Gilbert(ge), seed);
            let seen: Vec<bool> = (0..64).map(|_| t.read().is_ok()).collect();
            (seen, t.stats())
        };
        let (a, sa) = run(3);
        assert_eq!((a.clone(), sa), run(3), "replayable under its seed");
        let lost = a.iter().filter(|ok| !**ok).count() as u64;
        assert_eq!(sa.lost_packets, lost);
        assert!(lost > 0, "fades hit within 64 reads");
        assert!(
            a.windows(2).any(|w| w == [false, false]),
            "losses arrive in bursts, not singletons only"
        );
        assert!(sa.longest_stall_packets >= 2, "stall spans the burst");
        assert_ne!(a, run(4).0, "different seeds diverge");
    }

    #[test]
    fn outage_darkens_exact_instants() {
        let prog = index_program();
        let loss = LossModel::outage(vec![OutageWindow {
            channel: 0,
            start: 2,
            len: 3,
        }]);
        let mut t = Tuner::tune_in(&prog, 0, loss, 9);
        let seen: Vec<bool> = (0..8).map(|_| t.read().is_ok()).collect();
        assert_eq!(
            seen,
            vec![true, true, false, false, false, true, true, true],
            "dark exactly over instants [2, 5)"
        );
        let s = t.stats();
        assert_eq!(s.lost_packets, 3);
        assert_eq!(s.longest_stall_packets, 3);
    }

    #[test]
    fn recorded_trace_replays_identically() {
        let prog = index_program();
        let ge = GilbertElliott::new(0.3, 0.4, 0.9);
        let mut live = Tuner::tune_in(&prog, 1, LossModel::Gilbert(ge), 21);
        live.enable_fault_recording();
        let lived: Vec<bool> = (0..48).map(|_| live.read().is_ok()).collect();
        let trace = live.fault_trace();
        assert!(lived.iter().any(|ok| !ok), "the run saw losses");
        // Round-trip the trace through its text format, then replay it.
        let replayed = FaultTrace::from_text(&trace.to_text()).expect("text round-trip");
        let mut replay = Tuner::tune_in(&prog, 1, LossModel::Trace(replayed), 999);
        let replays: Vec<bool> = (0..48).map(|_| replay.read().is_ok()).collect();
        assert_eq!(lived, replays, "trace replay is seed-independent");
        assert_eq!(live.stats(), replay.stats());
    }

    #[test]
    #[should_panic(expected = "livelock guard")]
    fn livelock_guard_stops_unbounded_retry() {
        let prog = index_program();
        // A permanent outage: reading past the retry cap must fire the
        // guard with a diagnostic rather than let the client spin forever.
        let loss = LossModel::outage(vec![OutageWindow {
            channel: 0,
            start: 0,
            len: u64::MAX / 2,
        }]);
        let mut t = Tuner::tune_in_with(&prog, 0, loss, 5, AntennaConfig::single());
        for _ in 0..=RETRY_CAP {
            let _ = t.read();
        }
    }

    #[test]
    fn resilient_pick_dodges_the_fading_channel() {
        use crate::channel::ChannelConfig;
        // Sixteen one-packet units blocked over 2 channels, free switches:
        // channel 0 airs flats 0..8, channel 1 airs flats 8..16.
        let prog = Program::with_channels(
            64,
            (0..16).map(P::Idx).collect(),
            ChannelConfig::blocked(2, 0),
        );
        let loss = LossModel::outage(vec![OutageWindow {
            channel: 0,
            start: 0,
            len: 100,
        }]);
        let mut t = Tuner::tune_in_with(&prog, 0, loss, 13, AntennaConfig::new(2));
        assert_eq!(t.read(), Err(PacketLost));
        assert_eq!(t.read(), Err(PacketLost));
        assert_eq!(t.current_burst(), 2, "burst detection is armed");
        // Loss-blind planning still prefers flat 3 (airs at t = 3 on the
        // fading channel) over flat 9 (t = 9 on channel 1)…
        assert_eq!(t.arrival_earliest(&[3, 9]), Some((0, 3)));
        assert_eq!(t.plan_earliest(&[3, 9], |_| 1), Some((0, 3)));
        // …but the resilient pick dodges to channel 1, reporting flat 9's
        // *true* arrival, and counts the forced retune.
        assert_eq!(t.earliest_resilient(&[3, 9]), Some((1, 9)));
        assert_eq!(t.plan_resilient(&[3, 9], |_| 1), Some((1, 9)));
        assert_eq!(t.stats().loss_retunes, 2);
        // A successful read closes the burst and restores blind picks.
        t.goto(9);
        assert_eq!(t.read().unwrap(), &P::Idx(9));
        assert_eq!(t.current_burst(), 0);
        assert_eq!(t.earliest_resilient(&[3, 12]), t.arrival_earliest(&[3, 12]));
    }

    #[test]
    fn keyed_channel0_draws_survive_adding_channels() {
        use crate::channel::{ChannelConfig, Placement};
        // Eight one-packet units; both layouts give channel 0 the same
        // four units, C=4 merely splits the rest across more channels.
        let explicit = |channels: u32, assignment: Vec<u32>| ChannelConfig {
            channels,
            placement: Placement::Explicit(assignment),
            switch_cost: 1,
        };
        let c2 = Program::with_channels(
            64,
            (0..8).map(P::Idx).collect(),
            explicit(2, vec![0, 0, 0, 0, 1, 1, 1, 1]),
        );
        let c4 = Program::with_channels(
            64,
            (0..8).map(P::Idx).collect(),
            explicit(4, vec![0, 0, 0, 0, 1, 2, 3, 1]),
        );
        let loss = LossModel::keyed_iid(0.5);
        let draws_on_channel0 = |prog: &Program<P>| {
            // Camp on channel 0 and read three of its cycles.
            let mut t = Tuner::tune_in(prog, 0, loss.clone(), 77);
            (0..12).map(|_| t.read().is_ok()).collect::<Vec<_>>()
        };
        assert_eq!(
            draws_on_channel0(&c2),
            draws_on_channel0(&c4),
            "channel 0's loss stream is keyed by (seed, channel), not by C"
        );
    }
}
