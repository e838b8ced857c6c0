//! The unified air-scheme layer.
//!
//! Every air index in this workspace (DSI, the STR R-tree, the HCI
//! B+-tree) is, from the harness's point of view, the same thing: a built
//! broadcast [`Program`] plus on-air window and kNN search algorithms that
//! drive a [`Tuner`]. [`AirScheme`] captures exactly that surface, and
//! [`drive_antennas`] is the one query loop every experiment goes through
//! — it owns tune-in, loss, and stats collection, so schemes never
//! reimplement the Tuner/loss/stats plumbing and new scenarios (channel
//! configurations, loss models, workloads) are wired once instead of per
//! index. [`drive_traced`] is the same loop with the tuner's read journal
//! switched on: the fault harness replays it, and the placement optimizer
//! profiles a training workload from it.
//!
//! Both drivers are generic over the scheme, so each index gets its own
//! monomorphized query loop. `dsi_sim::Engine` holds whichever index was
//! built and matches on it to reach them: the experiment matrix of
//! `dsi-sim` iterates scheme × channel-config × loss × workload through
//! that one type.

use dsi_geom::{Point, Rect};

use crate::channel::{AntennaConfig, ChannelStats};
use crate::loss::{FaultTrace, LossModel};
use crate::program::{Payload, Program};
use crate::stats::QueryStats;
use crate::tuner::Tuner;

/// A built air index: a broadcast program plus its on-air query
/// algorithms. Implementations answer exactly (ids ascending, validated
/// against brute force by the harness) and accrue all metrics on the
/// tuner they are handed.
pub trait AirScheme {
    /// The scheme's packet type.
    type Packet: Payload;

    /// The broadcast program clients tune into.
    fn program(&self) -> &Program<Self::Packet>;

    /// Answers a window query on the air: ids of all objects inside
    /// `window`, ascending.
    fn window(&self, tuner: &mut Tuner<'_, Self::Packet>, window: &Rect) -> Vec<u32>;

    /// Answers a kNN query on the air: ids of the `k` objects nearest to
    /// `q` (ties by id), ascending.
    fn knn(&self, tuner: &mut Tuner<'_, Self::Packet>, q: Point, k: usize) -> Vec<u32>;

    /// The **cohort-coalescing anchor** of a tune-in at `start`: the
    /// absolute instant of the client's first scheme-defined action (DSI:
    /// the next frame boundary; the tree schemes: the next airing of a
    /// root copy), or `None` when no sound anchor exists.
    ///
    /// The contract backing the fleet engine's deduplication
    /// (`dsi_sim::fleet`): under [`LossModel::None`] on a
    /// **single-channel** program, two clients tuning in at `a` and `b`
    /// with `tune_anchor(a) == tune_anchor(b) != None` and running the
    /// same query traverse the *identical* absolute trajectory after the
    /// anchor — same reads, same answer, same tuning time, same switch
    /// count — and differ only in access latency, by exactly `a - b`.
    /// This holds because (1) lossless drives consume no randomness, so
    /// the outcome is a pure function of `(query, start)`; (2) every
    /// scheme's first act is to doze to a start-independent schedule
    /// point — the anchor — carrying no state but the anchor instant; and
    /// (3) at one channel there is nothing else (no monitored set, no
    /// retune) for `start` to influence. Multi-channel programs return
    /// `None`: the entry there plans arrivals *from `start`* across
    /// channels, so distinct starts can enter at different slots.
    ///
    /// The default is the always-sound `None` (no coalescing).
    fn tune_anchor(&self, start: u64) -> Option<u64> {
        let _ = start;
        None
    }
}

/// One client query, scheme-agnostic. Its coordinates must be finite:
/// the drivers reject a NaN or infinite coordinate before any scheme sees
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// All objects inside a rectangle.
    Window(Rect),
    /// The `k` nearest objects to a point.
    Knn(Point, usize),
}

/// What one driven query produced: the answer and both metric views.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Result ids, ascending.
    pub ids: Vec<u32>,
    /// Access latency / tuning time, aggregated over channels.
    pub stats: QueryStats,
    /// Switch count and per-channel tuning.
    pub channels: ChannelStats,
}

/// Dispatches `query` to the scheme's search algorithm on `tuner`: the
/// one place every driver below hands a query to a scheme.
///
/// # Panics
///
/// Panics if a coordinate of the query — the kNN point or a window corner
/// — is NaN or infinite, with a message naming the query. The schemes'
/// distance and containment arithmetic assumes finite coordinates: a NaN
/// point would otherwise panic deep inside a client and a NaN window
/// would quietly answer nothing.
fn answer<S: AirScheme + ?Sized>(
    scheme: &S,
    tuner: &mut Tuner<'_, S::Packet>,
    query: &Query,
) -> Vec<u32> {
    let finite = |p: &Point| p.x.is_finite() && p.y.is_finite();
    match query {
        Query::Window(w) => {
            assert!(
                finite(&w.min) && finite(&w.max),
                "window query {w:?} has a non-finite coordinate"
            );
            scheme.window(tuner, w)
        }
        Query::Knn(q, k) => {
            assert!(
                finite(q),
                "{k}NN query at {q:?} has a non-finite coordinate"
            );
            scheme.knn(tuner, *q, *k)
        }
    }
}

/// Runs one query to completion: tunes a client with the receiver
/// configuration `antennas` in at `start` under `loss` (seeded by
/// `seed`), dispatches the query to the scheme's search algorithm, and
/// collects both metric views. Together with [`drive_traced`] this is the
/// only place the harness touches a [`Tuner`]. The client monitors up to
/// `antennas.antennas` channels concurrently; antennas change latency and
/// tuning, never answers (the conformance suite pins this for every
/// scheme × placement × channel-count × loss combination).
///
/// # Panics
///
/// Panics if a query coordinate is NaN or infinite (see [`Query`]).
pub fn drive_antennas<S: AirScheme + ?Sized>(
    scheme: &S,
    start: u64,
    loss: LossModel,
    seed: u64,
    antennas: AntennaConfig,
    query: &Query,
) -> QueryOutcome {
    let mut tuner = Tuner::tune_in_with(scheme.program(), start, loss, seed, antennas);
    let ids = answer(scheme, &mut tuner, query);
    QueryOutcome {
        ids,
        stats: tuner.stats(),
        channels: tuner.channel_stats(),
    }
}

/// [`drive_antennas`] with a read journal: every read's channel, instant
/// and loss outcome is recorded and returned as a [`FaultTrace`]
/// alongside the outcome. Replaying the trace via [`LossModel::Trace`]
/// (same scheme, same start, same antennas) reproduces the run's loss
/// sequence exactly, with no RNG involved — the deterministic-reproduction
/// entry point of the fault harness. The same journal, recorded on a
/// single-channel build, is a training query's access profile
/// ([`crate::optimize::AccessProfile::from_journals`]).
///
/// # Panics
///
/// Panics if a query coordinate is NaN or infinite (see [`Query`]).
pub fn drive_traced<S: AirScheme + ?Sized>(
    scheme: &S,
    start: u64,
    loss: LossModel,
    seed: u64,
    antennas: AntennaConfig,
    query: &Query,
) -> (QueryOutcome, FaultTrace) {
    let mut tuner = Tuner::tune_in_with(scheme.program(), start, loss, seed, antennas);
    tuner.enable_fault_recording();
    let ids = answer(scheme, &mut tuner, query);
    let outcome = QueryOutcome {
        ids,
        stats: tuner.stats(),
        channels: tuner.channel_stats(),
    };
    (outcome, tuner.into_fault_trace())
}
