//! The link-error models: the paper's §5 i.i.d. channel plus bursty and
//! scheduled fault models for resilience testing.
//!
//! # Model catalogue
//!
//! * [`LossModel::None`] — the ideal channel of §4.
//! * [`LossModel::Iid`] — the paper's §5 channel: every packet (within a
//!   [`LossScope`]) corrupted independently with probability θ, drawn from
//!   **one** RNG stream shared by all channels in client read order. This
//!   is the historical model; its draw sequence is frozen bit-for-bit (the
//!   golden differential tests depend on it) and must never change.
//! * [`LossModel::KeyedIid`] — the same marginal distribution, but the
//!   draws are keyed per (query, channel): each channel consumes its own
//!   RNG stream, so adding channels or antennas to a run cannot perturb
//!   another channel's draw sequence (see *Stream keying* below).
//! * [`LossModel::Gilbert`] — a two-state Gilbert–Elliott Markov chain per
//!   channel: bursts of loss in the *bad* state, (near-)clean runs in the
//!   *good* state. Chains are independent across channels and evolve over
//!   absolute broadcast time, so a channel's good/bad trajectory is a pure
//!   function of (seed, channel) — replayable regardless of when or how
//!   often the client listens. For a 53-bit uniform `u` from the chain's
//!   state stream, a sojourn in a state left with probability `leave` is
//!   `1 + ⌊ln(1 − u) / ln(1 − leave)⌋` clamped to `[1, 2^32]` instants,
//!   bit for bit; how it is evaluated is an implementation detail.
//! * [`LossModel::Outage`] — scheduled whole-channel fades: a channel is
//!   dark (every packet lost, regardless of scope) for explicit packet
//!   spans. Fully deterministic; consumes no RNG draws.
//! * [`LossModel::Trace`] — a scripted [`FaultTrace`] replaying the exact
//!   per-read loss outcomes of a recorded run (see
//!   `Tuner::enable_fault_recording`), for deterministic reproduction of a
//!   failure independent of any RNG.
//!
//! # Stream keying
//!
//! The keyed models ([`LossModel::KeyedIid`], [`LossModel::Gilbert`])
//! derive one RNG stream per (query seed, channel, purpose):
//!
//! ```text
//! stream_seed(seed, channel, salt) =
//!     seed ^ (channel + 1) · 0x9E37_79B9_7F4A_7C15 ^ salt
//! ```
//!
//! where `seed` is the per-query loss seed the driver already derives from
//! the batch seed, and `salt` distinguishes the keyed-iid draw stream, the
//! Gilbert–Elliott state-trajectory stream, and its loss-draw stream. The
//! per-channel keying is the compatibility guarantee: a channel's draw
//! sequence depends only on (seed, channel) and the client's reads **on
//! that channel** — never on reads interleaved on other channels, the
//! total channel count, or the antenna count.
//!
//! # i.i.d. golden compatibility
//!
//! [`LossModel::None`] and [`LossModel::Iid`] are evaluated on the
//! historical path: one shared `StdRng` seeded directly from the query
//! seed, one `gen_bool(θ)` draw per read whose scoped θ is positive, in
//! read order. All new models are new enum variants with their own state,
//! so every pre-existing draw sequence — and thus the k = 1 `ChannelStats`
//! goldens and `golden_stats.rs` — reproduces bit-for-bit.

use std::sync::Arc;

use crate::program::PacketClass;

/// Which packets a loss draw applies to.
///
/// The paper applies θ to "link errors in the broadcast system" and reports
/// moderate deterioration even at θ = 0.7, which is only consistent with
/// data-object records surviving (a 1024-byte object spans 16 packets at
/// 64 B; with independent per-packet loss at θ = 0.7 a clean transfer has
/// probability 0.3¹⁶ ≈ 4·10⁻⁹ and *no* index could finish a query). We
/// therefore default to scoping loss to **index information** — the part
/// whose recovery §5 is about: DSI resumes at the next frame's table,
/// trees wait for node rebroadcasts — and treat object records (header
/// and payload alike) as protected by link-layer FEC/ARQ. `All` is
/// provided for ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossScope {
    /// Loss applies to every packet.
    All,
    /// Loss applies to [`PacketClass::Index`] packets only.
    IndexOnly,
}

impl LossScope {
    /// Whether a packet of `class` is subject to loss under this scope.
    #[inline]
    pub fn applies_to(self, class: PacketClass) -> bool {
        match self {
            LossScope::All => true,
            LossScope::IndexOnly => matches!(class, PacketClass::Index),
        }
    }
}

/// Parameters of the two-state Gilbert–Elliott channel.
///
/// The chain alternates between a *good* and a *bad* state; sojourn times
/// are geometric (the discrete-time chain leaves the good state with
/// probability `p_gb` per packet instant and the bad state with `p_bg`),
/// so the mean burst length is `1 / p_bg` packets. Within a state, packets
/// in `scope` are lost i.i.d. with that state's θ. Each channel runs an
/// independent chain over absolute broadcast time (see the module docs for
/// the stream keying).
///
/// Each sojourn takes one 53-bit uniform `u` from the chain's state stream
/// and lasts `1 + ⌊ln(1 − u) / ln(1 − leave)⌋` instants, clamped to
/// `[1, 2^32]`, bit for bit, where `leave` is `p_gb` or `p_bg`; how it is
/// evaluated is an implementation detail. When `1 − leave` rounds to 1
/// (`leave ≤ 2^-54`), `ln(1 − leave)` is taken as `ln_1p(−leave)`. A state
/// left with certainty (`leave = 1`) lasts one instant and takes no
/// uniform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-instant probability of leaving the good state (entering a burst).
    pub p_gb: f64,
    /// Per-instant probability of leaving the bad state (burst ends).
    pub p_bg: f64,
    /// Loss probability while in the good state (usually 0 or tiny).
    pub theta_good: f64,
    /// Loss probability while in the bad state (the burst severity).
    pub theta_bad: f64,
    /// Which packet classes are affected (state evolves regardless).
    pub scope: LossScope,
}

impl GilbertElliott {
    /// A clean-good-state chain: `theta_good = 0`, loss scoped to index
    /// packets (the module default; see [`LossScope`]).
    pub fn new(p_gb: f64, p_bg: f64, theta_bad: f64) -> Self {
        let ge = Self {
            p_gb,
            p_bg,
            theta_good: 0.0,
            theta_bad,
            scope: LossScope::IndexOnly,
        };
        ge.validate();
        ge
    }

    /// Sets the good-state loss probability (background noise).
    pub fn with_theta_good(mut self, theta_good: f64) -> Self {
        self.theta_good = theta_good;
        self.validate();
        self
    }

    /// Sets the loss scope (e.g. [`LossScope::All`] for whole-stream fades).
    pub fn with_scope(mut self, scope: LossScope) -> Self {
        self.scope = scope;
        self
    }

    fn validate(&self) {
        assert!(
            self.p_gb > 0.0 && self.p_gb <= 1.0,
            "p_gb must be in (0, 1], got {}",
            self.p_gb
        );
        assert!(
            self.p_bg > 0.0 && self.p_bg <= 1.0,
            "p_bg must be in (0, 1], got {}",
            self.p_bg
        );
        assert!(
            (0.0..=1.0).contains(&self.theta_good) && (0.0..=1.0).contains(&self.theta_bad),
            "state loss probabilities must be in [0, 1], got good {} bad {}",
            self.theta_good,
            self.theta_bad
        );
    }

    /// The loss probability of the given state for a packet of `class`.
    #[inline]
    pub fn theta_in(&self, bad: bool, class: PacketClass) -> f64 {
        if !self.scope.applies_to(class) {
            0.0
        } else if bad {
            self.theta_bad
        } else {
            self.theta_good
        }
    }
}

/// One scheduled whole-channel fade: channel `channel` is dark for
/// `len` packet instants starting at absolute instant `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// Faded channel.
    pub channel: u32,
    /// First dark packet instant (absolute; cycle-relative if the owning
    /// schedule repeats with a period).
    pub start: u64,
    /// Number of dark instants.
    pub len: u64,
}

/// A deterministic schedule of whole-channel [`OutageWindow`]s.
///
/// With `period == 0` the windows are one-shot spans of absolute
/// broadcast time (the channel is clean forever after the last window —
/// the shape the bounded-recovery property needs). With `period > 0`
/// each window repeats every `period` instants: a window is evaluated
/// against `instant % period`, modelling e.g. a jammed slot of every
/// broadcast cycle. Consumes no RNG draws.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutageSchedule {
    windows: Arc<Vec<OutageWindow>>,
    period: u64,
}

impl OutageSchedule {
    /// A one-shot schedule over absolute instants.
    pub fn new(windows: Vec<OutageWindow>) -> Self {
        Self {
            windows: Arc::new(windows),
            period: 0,
        }
    }

    /// A periodic schedule: windows repeat every `period` instants.
    pub fn periodic(windows: Vec<OutageWindow>, period: u64) -> Self {
        assert!(period > 0, "a periodic schedule needs period > 0");
        Self {
            windows: Arc::new(windows),
            period,
        }
    }

    /// The scheduled windows.
    pub fn windows(&self) -> &[OutageWindow] {
        &self.windows
    }

    /// Repeat period in instants (0 = one-shot).
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Whether `channel` is dark at `instant`.
    #[inline]
    pub fn is_dark(&self, channel: u32, instant: u64) -> bool {
        let t = if self.period > 0 {
            instant % self.period
        } else {
            instant
        };
        self.windows
            .iter()
            .any(|w| w.channel == channel && t >= w.start && t - w.start < w.len)
    }

    /// The last dark instant across all windows plus one — i.e. the
    /// instant from which every channel is clean forever. `None` when the
    /// schedule is periodic (it never goes permanently clean) — unless it
    /// has no windows.
    pub fn clean_after(&self) -> Option<u64> {
        if self.period > 0 && !self.windows.is_empty() {
            return None;
        }
        Some(
            self.windows
                .iter()
                .map(|w| w.start + w.len)
                .max()
                .unwrap_or(0),
        )
    }
}

/// One recorded read outcome: at absolute `instant`, listening on
/// `channel`, the packet was lost (`lost`) or received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Channel the client was listening on.
    pub channel: u32,
    /// Absolute packet instant of the read.
    pub instant: u64,
    /// Whether the link-error model corrupted the packet.
    pub lost: bool,
}

/// A scripted per-read loss sequence for deterministic replay.
///
/// Recorded by `Tuner::enable_fault_recording` under any model, then
/// replayed with [`LossModel::Trace`]: a read at (channel, instant) is
/// lost iff the trace's next matching entry says so; reads the trace does
/// not cover are received cleanly. Replay consumes no RNG draws, so a
/// recorded failure reproduces exactly on any machine from the trace file
/// alone.
///
/// # Replay text format
///
/// ```text
/// dsi-fault-trace v1
/// <channel> <instant> <0|1>
/// ...
/// ```
///
/// One entry per line after the header, in the recorded read order;
/// `1` = lost. Parsed by [`FaultTrace::from_text`], written by
/// [`FaultTrace::to_text`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultTrace {
    entries: Arc<Vec<TraceEntry>>,
}

/// Header line of the trace text format.
const TRACE_HEADER: &str = "dsi-fault-trace v1";

impl FaultTrace {
    /// Wraps recorded entries.
    pub fn new(entries: Vec<TraceEntry>) -> Self {
        Self {
            entries: Arc::new(entries),
        }
    }

    /// The recorded entries, in read order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Serializes to the replay text format (see the type docs).
    pub fn to_text(&self) -> String {
        let mut s = String::with_capacity(16 + self.entries.len() * 12);
        s.push_str(TRACE_HEADER);
        s.push('\n');
        for e in self.entries.iter() {
            s.push_str(&format!(
                "{} {} {}\n",
                e.channel,
                e.instant,
                u8::from(e.lost)
            ));
        }
        s
    }

    /// Parses the replay text format. A malformed document is an
    /// [`std::io::ErrorKind::InvalidData`] error naming the first bad line
    /// and what is wrong with it.
    pub fn from_text(text: &str) -> std::io::Result<Self> {
        let bad = |n: usize, problem: String| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line {n}: {problem}"),
            )
        };
        let mut lines = text.lines();
        match lines.next().map(str::trim) {
            Some(TRACE_HEADER) => {}
            Some(found) => {
                return Err(bad(
                    1,
                    format!("expected header {TRACE_HEADER:?}, found {found:?}"),
                ))
            }
            None => return Err(bad(1, format!("missing header {TRACE_HEADER:?}"))),
        }
        let mut entries = Vec::new();
        for (i, line) in lines.enumerate() {
            let (n, line) = (i + 2, line.trim());
            if line.is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            let channel = it.next().and_then(|t| t.parse::<u32>().ok());
            let instant = it.next().and_then(|t| t.parse::<u64>().ok());
            let lost = match it.next() {
                Some("0") => Some(false),
                Some("1") => Some(true),
                _ => None,
            };
            let problem = match (channel, instant, lost) {
                (None, ..) => "missing or unparseable channel",
                (_, None, _) => "missing or unparseable instant",
                (.., None) => "loss flag must be 0 or 1",
                _ if it.next().is_some() => "extra token",
                (Some(channel), Some(instant), Some(lost)) => {
                    entries.push(TraceEntry {
                        channel,
                        instant,
                        lost,
                    });
                    continue;
                }
            };
            return Err(bad(n, format!("{problem}: {line:?}")));
        }
        Ok(Self::new(entries))
    }
}

/// The link-error model of a run. `None`/`Iid` are the historical §5
/// models (frozen draw sequences); the remaining variants are the
/// resilience-testing fault models — see the module docs for the
/// catalogue, the stream keying, and the golden-compatibility guarantee.
#[derive(Debug, Clone, PartialEq)]
pub enum LossModel {
    /// The ideal channel of §4: no interference, no packet loss.
    None,
    /// Error-prone channel: each received packet (within `scope`) is
    /// corrupted independently with probability `theta`, drawn from one
    /// RNG stream shared across channels (the historical draw order).
    Iid {
        /// Loss probability θ ∈ [0, 1).
        theta: f64,
        /// Which packet classes are affected.
        scope: LossScope,
    },
    /// [`Iid`](LossModel::Iid) with per-(query, channel) keyed draw
    /// streams: channel count and antenna count cannot perturb another
    /// channel's draws.
    KeyedIid {
        /// Loss probability θ ∈ [0, 1).
        theta: f64,
        /// Which packet classes are affected.
        scope: LossScope,
    },
    /// Bursty two-state Gilbert–Elliott chain, independent per channel.
    Gilbert(GilbertElliott),
    /// Scheduled whole-channel fades (deterministic, scope-independent).
    Outage(OutageSchedule),
    /// Scripted replay of a recorded per-read loss sequence.
    Trace(FaultTrace),
}

impl LossModel {
    /// Convenience constructor for the paper's Table 1 configuration.
    pub fn iid(theta: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&theta),
            "theta must be in [0, 1), got {theta}"
        );
        if theta == 0.0 {
            LossModel::None
        } else {
            LossModel::Iid {
                theta,
                scope: LossScope::IndexOnly,
            }
        }
    }

    /// [`LossModel::iid`] with per-(query, channel) keyed draw streams.
    pub fn keyed_iid(theta: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&theta),
            "theta must be in [0, 1), got {theta}"
        );
        if theta == 0.0 {
            LossModel::None
        } else {
            LossModel::KeyedIid {
                theta,
                scope: LossScope::IndexOnly,
            }
        }
    }

    /// A Gilbert–Elliott bursty channel (see [`GilbertElliott::new`]).
    pub fn gilbert(p_gb: f64, p_bg: f64, theta_bad: f64) -> Self {
        LossModel::Gilbert(GilbertElliott::new(p_gb, p_bg, theta_bad))
    }

    /// A one-shot outage schedule.
    pub fn outage(windows: Vec<OutageWindow>) -> Self {
        LossModel::Outage(OutageSchedule::new(windows))
    }

    /// The loss probability for a packet of the given class, for the
    /// *stateless* models. The stateful models (Gilbert–Elliott, outage,
    /// trace) decide loss from per-channel state inside the tuner and
    /// report 0 here.
    #[inline]
    pub fn theta_for(&self, class: PacketClass) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Iid { theta, scope } | LossModel::KeyedIid { theta, scope } => {
                if scope.applies_to(class) {
                    theta
                } else {
                    0.0
                }
            }
            LossModel::Gilbert(_) | LossModel::Outage(_) | LossModel::Trace(_) => 0.0,
        }
    }
}

/// Multiplier that decorrelates per-channel streams (SplitMix64's golden
/// gamma, the same pre-mix constant the vendored `StdRng` uses).
const STREAM_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Salt of the keyed-iid per-channel draw streams.
pub(crate) const KEYED_DRAW_SALT: u64 = 0x1D1D_0DA7_A5EE_D001;

/// Salt of the Gilbert–Elliott per-channel state-trajectory streams.
pub(crate) const GE_STATE_SALT: u64 = 0x6E57_A7E0_5EED_0002;

/// Salt of the Gilbert–Elliott per-channel loss-draw streams.
pub(crate) const GE_DRAW_SALT: u64 = 0x6EDD_0A35_5EED_0003;

/// The per-(query, channel, purpose) stream seed of the module docs.
#[inline]
pub(crate) fn stream_seed(seed: u64, channel: u32, salt: u64) -> u64 {
    seed ^ (channel as u64 + 1).wrapping_mul(STREAM_GAMMA) ^ salt
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_theta_collapses_to_none() {
        assert_eq!(LossModel::iid(0.0), LossModel::None);
        assert_eq!(LossModel::keyed_iid(0.0), LossModel::None);
    }

    #[test]
    fn scope_filters_classes() {
        let m = LossModel::Iid {
            theta: 0.5,
            scope: LossScope::IndexOnly,
        };
        assert_eq!(m.theta_for(PacketClass::Index), 0.5);
        assert_eq!(m.theta_for(PacketClass::ObjectHeader), 0.0);
        assert_eq!(m.theta_for(PacketClass::ObjectPayload), 0.0);
        let all = LossModel::Iid {
            theta: 0.2,
            scope: LossScope::All,
        };
        assert_eq!(all.theta_for(PacketClass::ObjectPayload), 0.2);
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn theta_one_rejected() {
        let _ = LossModel::iid(1.0);
    }

    #[test]
    fn gilbert_state_thetas_respect_scope() {
        let ge = GilbertElliott::new(0.01, 0.1, 0.9).with_theta_good(0.05);
        assert_eq!(ge.theta_in(true, PacketClass::Index), 0.9);
        assert_eq!(ge.theta_in(false, PacketClass::Index), 0.05);
        assert_eq!(ge.theta_in(true, PacketClass::ObjectPayload), 0.0);
        let all = ge.with_scope(LossScope::All);
        assert_eq!(all.theta_in(true, PacketClass::ObjectPayload), 0.9);
    }

    #[test]
    #[should_panic(expected = "p_bg must be in")]
    fn gilbert_rejects_absorbing_bad_state() {
        let _ = GilbertElliott::new(0.01, 0.0, 0.9);
    }

    #[test]
    fn outage_windows_darken_exact_spans() {
        let s = OutageSchedule::new(vec![
            OutageWindow {
                channel: 1,
                start: 10,
                len: 5,
            },
            OutageWindow {
                channel: 0,
                start: 0,
                len: 2,
            },
        ]);
        assert!(s.is_dark(0, 0) && s.is_dark(0, 1) && !s.is_dark(0, 2));
        assert!(!s.is_dark(1, 9) && s.is_dark(1, 10) && s.is_dark(1, 14) && !s.is_dark(1, 15));
        assert!(!s.is_dark(2, 12), "other channels stay clean");
        assert_eq!(s.clean_after(), Some(15));
    }

    #[test]
    fn periodic_outage_repeats_and_never_goes_clean() {
        let s = OutageSchedule::periodic(
            vec![OutageWindow {
                channel: 0,
                start: 3,
                len: 2,
            }],
            10,
        );
        assert!(s.is_dark(0, 3) && s.is_dark(0, 13) && s.is_dark(0, 104));
        assert!(!s.is_dark(0, 5) && !s.is_dark(0, 15));
        assert_eq!(s.clean_after(), None);
    }

    #[test]
    fn trace_text_round_trips() {
        let t = FaultTrace::new(vec![
            TraceEntry {
                channel: 0,
                instant: 5,
                lost: true,
            },
            TraceEntry {
                channel: 2,
                instant: 9,
                lost: false,
            },
        ]);
        let text = t.to_text();
        assert!(text.starts_with("dsi-fault-trace v1\n"));
        assert_eq!(FaultTrace::from_text(&text).unwrap(), t);
    }

    /// The parse error of a malformed trace, as `chaos --replay-trace`
    /// prints it.
    fn trace_error(text: &str) -> String {
        let err = FaultTrace::from_text(text).expect_err("malformed trace accepted");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        err.to_string()
    }

    #[test]
    fn trace_without_header_names_line_one() {
        assert_eq!(
            trace_error(""),
            "line 1: missing header \"dsi-fault-trace v1\""
        );
    }

    #[test]
    fn trace_with_wrong_header_names_line_one() {
        assert_eq!(
            trace_error("dsi-fault-trace v2\n0 1 0\n"),
            "line 1: expected header \"dsi-fault-trace v1\", found \"dsi-fault-trace v2\""
        );
    }

    #[test]
    fn trace_with_bad_channel_names_its_line() {
        assert_eq!(
            trace_error("dsi-fault-trace v1\n0 1 0\n-1 2 0\n"),
            "line 3: missing or unparseable channel: \"-1 2 0\""
        );
    }

    #[test]
    fn trace_with_bad_instant_names_its_line() {
        assert_eq!(
            trace_error("dsi-fault-trace v1\n\n0 x 1\n"),
            "line 3: missing or unparseable instant: \"0 x 1\""
        );
    }

    #[test]
    fn trace_with_bad_flag_names_its_line() {
        assert_eq!(
            trace_error("dsi-fault-trace v1\n0 1 7\n"),
            "line 2: loss flag must be 0 or 1: \"0 1 7\""
        );
    }

    #[test]
    fn trace_with_extra_token_names_its_line() {
        assert_eq!(
            trace_error("dsi-fault-trace v1\n0 1 1\n2 3 0 4\n"),
            "line 3: extra token: \"2 3 0 4\""
        );
    }

    #[test]
    fn stream_seeds_differ_per_channel_and_purpose() {
        let a = stream_seed(7, 0, KEYED_DRAW_SALT);
        let b = stream_seed(7, 1, KEYED_DRAW_SALT);
        let c = stream_seed(7, 0, GE_STATE_SALT);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
