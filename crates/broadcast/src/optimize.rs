//! Workload-aware server-side placement optimization.
//!
//! The paper fixes one on-air layout and lets the client adapt; with the
//! multi-channel scheduler ([`crate::ChannelConfig`]) and the
//! multi-antenna tuner in place, the remaining free variable is *which
//! channel each unit airs on*. All channels tick in lockstep but each
//! repeats its **own** cycle, so a channel carrying few packets repeats
//! often: content placed there recurs with a short period and costs
//! little access latency. A workload whose access probabilities are
//! skewed (hotspot queries, navigation-heavy index tables) therefore has
//! a better layout than any uniform policy — put the hot units on short
//! channels, keep serially-scanned runs adjacent, and balance the cold
//! bulk across the rest.
//!
//! This module is that server-side optimizer, in three parts:
//!
//! * [`AccessProfile`] — a training workload's read journals, recorded by
//!   [`crate::drive_traced`] on the single-channel build (every read
//!   counts against its flat position): expected reads per query of
//!   every flat position, plus each query's read runs. A hotspot query
//!   concentrates thousands of reads on one region of the schema, which
//!   mean weights alone cannot express and which dominates real sweep
//!   latency.
//! * The sample scorer ([`predict_latency_packets`]) — the expected
//!   per-query access latency of a placement, priced query by query. A
//!   query's reads on channel `c` form `m` read runs; the arrival-order
//!   client sweeps them in airing order, so passing all of them from a
//!   random instant costs about `(L_c − 1) · m / (m + 1)` packets (`L_c`
//!   = packets on that channel; one run waits half a channel cycle, many
//!   runs approach a full one). A run that continues into the next unit
//!   on the same channel streams on without re-waiting. The per-channel
//!   sweeps of one query overlap, and retunes add `switch_cost` per run
//!   with probability `1 − k/C` for a `k`-antenna client.
//! * [`optimize_placement`] — the search. It moves the `C` cut points of
//!   the **contiguous circular-arc family** (one arc per channel in flat
//!   order: `Blocked`'s dependency structure with free cut positions) by
//!   coordinate descent on the sample scorer, and returns a
//!   [`crate::Placement::Explicit`] assignment, its predicted latency
//!   and its cuts ([`OptimizedPlacement::arc_cuts`]). A harness can
//!   refine the cuts further by *measuring* shifted variants (see
//!   [`arc_assignment`]), which is how `dsi-sim`'s experiment matrix
//!   resolves its `optimized` placement entries.
//!
//! The optimizer never changes the flat schema — clients keep addressing
//! the single-channel cycle — so query answers are placement-invariant;
//! only latency and tuning move (the conformance suite pins this).

use crate::channel::{AntennaConfig, ChannelConfig, Placement};
use crate::loss::FaultTrace;

/// A training workload as the optimizer consumes it: expected reads per
/// query of each flat schema position, and every query's read runs.
///
/// The mean weights say how hot each unit is; the runs let the scorer
/// see *per-query channel concentration* (a hotspot query reads
/// thousands of packets on one region of the schema, not a thin slice
/// of everything).
#[derive(Debug, Clone)]
pub struct AccessProfile {
    weights: Vec<f64>,
    /// Per training query that read anything: its maximal read runs as
    /// `(flat_start, len)` in packets, ascending.
    samples: Vec<Vec<(u32, u32)>>,
}

impl AccessProfile {
    /// Builds a profile from one read journal per training query, each
    /// recorded by [`crate::drive_traced`] on the single-channel build of
    /// a `cycle`-packet program. Every read, lost ones included, counts
    /// against its flat position `instant % cycle`. The weights are the
    /// summed counts over the number of journals; every journal that
    /// holds a read adds its maximal read runs as one sample.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is zero, if an entry is on a channel other than
    /// 0 (a multi-channel instant is not a flat position), or if no
    /// journal holds a read.
    pub fn from_journals(cycle: u64, journals: &[FaultTrace]) -> Self {
        assert!(cycle > 0, "profile needs at least one position");
        let mut counts = vec![0u64; cycle as usize];
        let mut per_query = vec![0u64; cycle as usize];
        let mut samples = Vec::new();
        for journal in journals {
            per_query.fill(0);
            for e in journal.entries() {
                assert_eq!(
                    e.channel, 0,
                    "profiles are read on the single-channel build"
                );
                per_query[(e.instant % cycle) as usize] += 1;
            }
            let runs = read_runs(&per_query);
            if !runs.is_empty() {
                samples.push(runs);
            }
            for (a, b) in counts.iter_mut().zip(&per_query) {
                *a += b;
            }
        }
        assert!(
            !samples.is_empty(),
            "profile needs a query that read something"
        );
        let queries = journals.len() as f64;
        Self {
            weights: counts.iter().map(|&c| c as f64 / queries).collect(),
            samples,
        }
    }

    /// Expected reads per query, per flat position.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The per-query read-run samples.
    pub fn samples(&self) -> &[Vec<(u32, u32)>] {
        &self.samples
    }

    /// Number of flat positions covered.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// A profile always covers at least one position.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Collapses one query's per-position read counts into its maximal read
/// runs `(flat_start, len)` — the sample format of [`AccessProfile`].
fn read_runs(counts: &[u64]) -> Vec<(u32, u32)> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for (f, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        match runs.last_mut() {
            Some((start, len)) if *start as usize + *len as usize == f => *len += 1,
            _ => runs.push((f as u32, 1)),
        }
    }
    runs
}

/// The unit structure of a flat broadcast cycle: where each indivisible
/// unit starts and how many packets it spans (see
/// [`crate::Payload::unit_start`] / [`crate::Program::unit_starts`]).
#[derive(Debug, Clone)]
pub struct UnitSchema {
    starts: Vec<u32>,
    lens: Vec<u32>,
}

impl UnitSchema {
    /// Derives the schema from per-position unit-start flags.
    ///
    /// # Panics
    ///
    /// Panics if `unit_starts` is empty or does not begin with a unit
    /// boundary.
    pub fn from_unit_starts(unit_starts: &[bool]) -> Self {
        assert!(
            unit_starts.first().copied().unwrap_or(false),
            "cycle must begin at a unit boundary"
        );
        let mut starts = Vec::new();
        let mut lens = Vec::new();
        for (i, &s) in unit_starts.iter().enumerate() {
            if s {
                starts.push(i as u32);
                lens.push(0);
            }
            *lens.last_mut().expect("first position starts a unit") += 1;
        }
        Self { starts, lens }
    }

    /// Number of units in the cycle.
    pub fn n_units(&self) -> usize {
        self.starts.len()
    }

    /// A schema always holds at least one unit.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Flat position of unit `u`'s first packet.
    pub fn start(&self, u: usize) -> u32 {
        self.starts[u]
    }

    /// Packets of unit `u`.
    pub fn len_of(&self, u: usize) -> u32 {
        self.lens[u]
    }

    /// Total packets of the flat cycle.
    pub fn total_packets(&self) -> u64 {
        self.lens.iter().map(|&l| l as u64).sum()
    }
}

/// An optimized unit→channel assignment and its predicted access
/// latency.
#[derive(Debug, Clone)]
pub struct OptimizedPlacement {
    /// Channel of each unit, in flat order (feed to
    /// [`Placement::Explicit`]).
    pub assignment: Vec<u32>,
    /// The sample scorer's expected per-query access latency, in packets.
    pub predicted_latency_packets: f64,
    /// The contiguous-arc cut points the assignment was built from (unit
    /// index of each channel's arc start, ascending, pre-relabeling; see
    /// [`arc_assignment`]). Lets a harness refine the cuts further — e.g.
    /// by *measuring* shifted variants on the training workload — without
    /// leaving the dependency-order-preserving arc family.
    pub arc_cuts: Vec<usize>,
}

impl OptimizedPlacement {
    /// The optimized assignment as a ready-to-build [`ChannelConfig`].
    pub fn config(&self, channels: u32, switch_cost: u32) -> ChannelConfig {
        ChannelConfig {
            channels,
            placement: Placement::Explicit(self.assignment.clone()),
            switch_cost,
        }
    }
}

/// Most candidate placements one [`optimize_placement`] call scores.
const MAX_EVALS: usize = 65_536;

/// Searches the **contiguous circular-arc family** for the unit→channel
/// assignment with the lowest sampled latency: `C` cut points around the
/// flat cycle, one arc per channel in flat order — the same shape as
/// [`Placement::Blocked`] but with free cut positions (unequal arc
/// lengths, cuts snapped to workload boundaries, an arbitrary rotation).
/// Staying in this family keeps the client's navigation-dependency order
/// aligned with air order on every channel, exactly as under `Blocked` —
/// free-form assignments can score well under any profile-based model
/// while measuring terribly, because the model cannot see dependency
/// chains.
///
/// The search seeds from equal-packet arcs at eight rotations of the
/// cycle and moves one cut at a time (coordinate descent) while the
/// sample scorer improves. Channels are finally relabeled so channel 0 —
/// where clients tune in — carries the hottest traffic per packet.
/// Deterministic.
///
/// # Panics
///
/// Panics if `channels` is zero, exceeds the unit count, or leaves no
/// rotation of equal-packet arcs with a unit on every channel.
pub fn optimize_placement(
    schema: &UnitSchema,
    profile: &AccessProfile,
    channels: u32,
    switch_cost: u32,
    antennas: AntennaConfig,
) -> OptimizedPlacement {
    assert!(channels >= 1, "need at least one channel");
    let n = schema.n_units();
    assert!(
        n >= channels as usize,
        "cannot spread {n} units over {channels} channels"
    );
    let c = channels as usize;
    // Atoms in flat order; fall back to unit granularity when the
    // density bands are too coarse to give the search room.
    let units = unit_atoms(schema, profile);
    let mut atoms = flat_density_atoms(&units, 8);
    if atoms.len() < c * 4 {
        atoms = units;
    }
    let n_atoms = atoms.len();
    let mut eval = SampleEval::new(schema, profile, &atoms, channels, switch_cost, antennas);

    // Cumulative packets per atom prefix, for packet-balanced cuts.
    let mut cum = vec![0u64; n_atoms + 1];
    for (t, a) in atoms.iter().enumerate() {
        cum[t + 1] = cum[t] + a.packets;
    }
    let total = cum[n_atoms];
    // Seed cuts: equal packet shares at several rotations of the cycle.
    let mut seed_cuts: Vec<Vec<usize>> = Vec::new();
    for rot in 0..8u64 {
        let cuts: Vec<usize> = (0..c)
            .map(|g| {
                let target = (total * (8 * g as u64 + rot)) / (8 * c as u64);
                // First atom whose preceding packet count reaches the
                // target share (cum[t] = packets before atom t).
                cum[..n_atoms]
                    .partition_point(|&x| x < target)
                    .min(n_atoms - 1)
            })
            .collect();
        if cuts.windows(2).all(|w| w[0] < w[1]) {
            seed_cuts.push(cuts);
        }
    }
    let mut best_cuts = seed_cuts
        .into_iter()
        .min_by(|a, b| {
            let ca = eval.cost_of(&cuts_to_assignment(a, n_atoms, channels));
            let cb = eval.cost_of(&cuts_to_assignment(b, n_atoms, channels));
            ca.total_cmp(&cb)
        })
        .expect("at least one seed");
    let mut cost = eval.cost_of(&cuts_to_assignment(&best_cuts, n_atoms, channels));

    // Cyclic coordinate descent on the cut positions: for each cut in
    // turn, scan its feasible range at a coarse stride, then refine
    // around the best coarse position at stride 1. Deterministic; a few
    // rounds suffice, and `MAX_EVALS` caps the candidate evaluations. A
    // single arc has no cut to move.
    let rounds = if c > 1 { 6 } else { 0 };
    let mut evals = 0usize;
    let coarse = (n_atoms / 256).max(1);
    'descent: for _ in 0..rounds {
        let mut improved = false;
        for i in 0..c {
            let prev = best_cuts[(i + c - 1) % c];
            let next = best_cuts[(i + 1) % c];
            // Keep every arc non-empty; cut 0 may rotate anywhere below
            // cut 1, the last cut anywhere above its predecessor.
            let (lo, hi) = if i == 0 {
                (0usize, next - 1)
            } else if i == c - 1 {
                (prev + 1, n_atoms - 1)
            } else {
                (prev + 1, next - 1)
            };
            if lo > hi {
                continue;
            }
            let mut try_pos =
                |pos: usize, cuts: &mut Vec<usize>, cost: &mut f64, evals: &mut usize| -> bool {
                    if pos == cuts[i] {
                        return false;
                    }
                    let old = cuts[i];
                    cuts[i] = pos;
                    *evals += 1;
                    let next_cost = eval.cost_of(&cuts_to_assignment(cuts, n_atoms, channels));
                    if next_cost < *cost - 1e-9 {
                        *cost = next_cost;
                        true
                    } else {
                        cuts[i] = old;
                        false
                    }
                };
            let mut pos = lo;
            while pos <= hi {
                improved |= try_pos(pos, &mut best_cuts, &mut cost, &mut evals);
                if evals >= MAX_EVALS {
                    break 'descent;
                }
                pos += coarse;
            }
            if coarse > 1 {
                let center = best_cuts[i];
                let rlo = center.saturating_sub(coarse).max(lo);
                let rhi = (center + coarse).min(hi);
                for pos in rlo..=rhi {
                    improved |= try_pos(pos, &mut best_cuts, &mut cost, &mut evals);
                    if evals >= MAX_EVALS {
                        break 'descent;
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }

    // Relabel channels hottest-per-packet first (channel 0 is where
    // clients tune in), then expand atoms to units.
    let mut best = cuts_to_assignment(&best_cuts, n_atoms, channels);
    relabel_hottest_first(&atoms, &mut best, channels);
    let predicted = eval.cost_of(&best);
    let mut assignment = vec![0u32; n];
    for (t, a) in atoms.iter().enumerate() {
        for ch in assignment[a.lo..a.hi].iter_mut() {
            *ch = best[t];
        }
    }
    // Cut atoms → cut units, for harness-side refinement.
    let arc_cuts: Vec<usize> = best_cuts.iter().map(|&t| atoms[t].lo).collect();
    OptimizedPlacement {
        assignment,
        predicted_latency_packets: predicted,
        arc_cuts,
    }
}

/// Predicted mean per-query access latency, in packets, of `assignment`
/// under a profile: the sample scorer that [`optimize_placement`]
/// minimizes, applied to the assignment exactly as given.
///
/// # Panics
///
/// Panics if the profile does not cover the schema's packets, or the
/// assignment does not give every unit a channel below `channels`.
pub fn predict_latency_packets(
    schema: &UnitSchema,
    profile: &AccessProfile,
    channels: u32,
    switch_cost: u32,
    antennas: AntennaConfig,
    assignment: &[u32],
) -> f64 {
    let atoms = unit_atoms(schema, profile);
    assert_eq!(assignment.len(), atoms.len(), "one channel per unit");
    SampleEval::new(schema, profile, &atoms, channels, switch_cost, antennas).cost_of(assignment)
}

/// Expands contiguous circular-arc cut points over *units* (`cuts[g]` =
/// first unit of channel `g`'s arc, ascending; the wrap-around tail
/// joins the last arc) into a unit→channel assignment with channels
/// relabeled hottest-per-packet first under `profile` (channel 0 is
/// where clients tune in). This is the building block for harness-side
/// *measured* refinement of [`OptimizedPlacement::arc_cuts`]: shift the
/// cuts, rebuild, re-measure — every variant stays in the
/// dependency-order-preserving arc family.
///
/// # Panics
///
/// Panics if the cuts are not strictly ascending unit indices.
pub fn arc_assignment(schema: &UnitSchema, profile: &AccessProfile, cuts: &[usize]) -> Vec<u32> {
    let n = schema.n_units();
    let c = cuts.len();
    assert!(
        c >= 1 && cuts[c - 1] < n && cuts.windows(2).all(|w| w[0] < w[1]),
        "cuts must be strictly ascending unit indices"
    );
    let mut a = cuts_to_assignment(cuts, n, c as u32);
    relabel_hottest_first(&unit_atoms(schema, profile), &mut a, c as u32);
    a
}

/// Expands circular cut points (`cuts[g]` = first atom of channel `g`'s
/// arc; ascending) into a per-atom channel assignment: atoms in
/// `[cuts[g], cuts[g+1])` belong to channel `g`, the wrap-around tail
/// `[cuts[C−1], A) ∪ [0, cuts[0])` to channel `C − 1`.
fn cuts_to_assignment(cuts: &[usize], n_atoms: usize, channels: u32) -> Vec<u32> {
    let c = channels as usize;
    let mut a = vec![(c - 1) as u32; n_atoms];
    for g in 0..c - 1 {
        for ch in a[cuts[g]..cuts[g + 1]].iter_mut() {
            *ch = g as u32;
        }
    }
    // Atoms before the first cut wrap onto the last channel's arc.
    for ch in a[..cuts[0]].iter_mut() {
        *ch = (c - 1) as u32;
    }
    a
}

/// How much of a query's *non-dominant* channel sweeps still shows up
/// as latency. Channels air in parallel and the arrival-order client
/// interleaves its reads, so per-query channel sweeps overlap: the
/// longest sweep is paid in full, the others only partially (retunes,
/// missed concurrent airings and read contention keep the overlap from
/// being perfect).
const OVERLAP_BETA: f64 = 0.9;

/// Incremental sample-based scorer: per sampled query `q` and channel
/// `c` it maintains `m[q][c]`, the number of read runs the current atom
/// assignment places on that channel (continuations across same-channel
/// atom boundaries are free). A query's cost combines its per-channel
/// sweeps `s_qc = (L_c − 1) · m/(m + 1)` as `max_c s_qc +
/// OVERLAP_BETA · (Σ_c s_qc − max_c s_qc)`. Atom moves update `m` in
/// O(queries on the atom); the cost sum is recomputed per proposal in
/// O(queries × channels).
struct SampleEval {
    /// Atom → channel.
    a: Vec<u32>,
    /// Packets per channel.
    len_c: Vec<u64>,
    /// Atom packet counts.
    atom_packets: Vec<u64>,
    /// `(query, runs)` whose run *starts* lie in each atom.
    starts_at: Vec<Vec<(u32, f64)>>,
    /// `(query, runs)` crossing into each atom from its flat
    /// predecessor (charged only when the two atoms sit on different
    /// channels).
    cross_into: Vec<Vec<(u32, f64)>>,
    /// `m[q * C + c]`: read runs of query `q` on channel `c`.
    m: Vec<f64>,
    /// `Σ m` over all queries and channels (retune charge).
    m_total: f64,
    queries: f64,
    /// Expected packets read per query (placement-invariant).
    read_packets: f64,
    /// Expected retune charge per read run: `switch_cost` times the
    /// chance `1 − min(k, C)/C` that a `k`-antenna client monitors none
    /// of the run's channel.
    retune: f64,
    channels: usize,
}

impl SampleEval {
    fn new(
        schema: &UnitSchema,
        profile: &AccessProfile,
        atoms: &[Atom],
        channels: u32,
        switch_cost: u32,
        antennas: AntennaConfig,
    ) -> Self {
        let c = channels as usize;
        let n_atoms = atoms.len();
        // Packet → atom lookup.
        let mut atom_of = vec![0u32; schema.total_packets() as usize];
        for (t, a) in atoms.iter().enumerate() {
            let lo = schema.start(a.lo) as usize;
            atom_of[lo..lo + a.packets as usize].fill(t as u32);
        }
        let mut starts_at: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_atoms];
        let mut cross_into: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_atoms];
        for (q, runs) in profile.samples().iter().enumerate() {
            for &(start, len) in runs {
                let t0 = atom_of[start as usize] as usize;
                let t1 = atom_of[(start + len - 1) as usize] as usize;
                bump(&mut starts_at[t0], q as u32);
                for crossed in cross_into.iter_mut().take(t1 + 1).skip(t0 + 1) {
                    bump(crossed, q as u32);
                }
            }
        }
        let queries = profile.samples().len() as f64;
        let p_miss = 1.0 - f64::from(antennas.antennas.min(channels)) / f64::from(channels);
        let mut s = Self {
            a: vec![0; n_atoms],
            len_c: vec![0; c],
            atom_packets: atoms.iter().map(|a| a.packets).collect(),
            starts_at,
            cross_into,
            m: vec![0.0; profile.samples().len() * c],
            m_total: 0.0,
            queries,
            read_packets: profile.weights().iter().sum(),
            retune: p_miss * f64::from(switch_cost),
            channels: c,
        };
        let zeros = vec![0u32; n_atoms];
        s.reset(&zeros);
        s
    }

    /// Rebuilds all aggregates for a full assignment.
    fn reset(&mut self, assignment: &[u32]) {
        self.a.copy_from_slice(assignment);
        self.len_c.fill(0);
        self.m.fill(0.0);
        self.m_total = 0.0;
        for (t, &ch) in assignment.iter().enumerate() {
            self.len_c[ch as usize] += self.atom_packets[t];
        }
        for t in 0..self.a.len() {
            let ch = self.a[t];
            for i in 0..self.starts_at[t].len() {
                let (q, k) = self.starts_at[t][i];
                self.add_runs(q as usize, ch as usize, k);
            }
            if t > 0 && self.a[t - 1] != ch {
                for i in 0..self.cross_into[t].len() {
                    let (q, k) = self.cross_into[t][i];
                    self.add_runs(q as usize, ch as usize, k);
                }
            }
        }
    }

    /// Evaluates a full assignment (resets internal state to it).
    fn cost_of(&mut self, assignment: &[u32]) -> f64 {
        self.reset(assignment);
        self.cost()
    }

    #[inline]
    fn add_runs(&mut self, q: usize, ch: usize, k: f64) {
        self.m[q * self.channels + ch] += k;
        self.m_total += k;
    }

    /// Mean per-query latency of the current assignment, in packets.
    fn cost(&self) -> f64 {
        let c = self.channels;
        let mut sweep = 0.0f64;
        for q in 0..self.m.len() / c {
            let mut sum = 0.0f64;
            let mut max = 0.0f64;
            for ch in 0..c {
                let m = self.m[q * c + ch].max(0.0);
                if m <= 0.0 {
                    continue;
                }
                let s = (self.len_c[ch].saturating_sub(1)) as f64 * (m / (m + 1.0));
                sum += s;
                max = max.max(s);
            }
            sweep += max + OVERLAP_BETA * (sum - max);
        }
        self.read_packets + (sweep + self.retune * self.m_total) / self.queries
    }
}

/// Adds one run for `q` to a sparse `(query, runs)` list (the last entry
/// is `q`'s while a query's runs are pushed consecutively).
fn bump(list: &mut Vec<(u32, f64)>, q: u32) {
    match list.last_mut() {
        Some((lq, k)) if *lq == q => *k += 1.0,
        _ => list.push((q, 1.0)),
    }
}

/// Relabels channels so channel 0 carries the highest weight per packet
/// (clients tune in on channel 0).
fn relabel_hottest_first(atoms: &[Atom], assignment: &mut [u32], channels: u32) {
    let c = channels as usize;
    let mut weight = vec![0.0f64; c];
    let mut len = vec![0u64; c];
    for (t, &ch) in assignment.iter().enumerate() {
        weight[ch as usize] += atoms[t].weight;
        len[ch as usize] += atoms[t].packets;
    }
    let mut order: Vec<usize> = (0..c).collect();
    order.sort_by(|&a, &b| {
        let da = weight[a] / len[a].max(1) as f64;
        let db = weight[b] / len[b].max(1) as f64;
        db.total_cmp(&da).then(a.cmp(&b))
    });
    let mut relabel = vec![0u32; c];
    for (new, &old) in order.iter().enumerate() {
        relabel[old] = new as u32;
    }
    for ch in assignment.iter_mut() {
        *ch = relabel[*ch as usize];
    }
}

/// A run of flat-consecutive units `[lo, hi)` moved between channels as
/// one piece, with its aggregate profile weight and packet count.
struct Atom {
    lo: usize,
    hi: usize,
    weight: f64,
    packets: u64,
}

/// Every unit as its own atom, in flat order.
///
/// # Panics
///
/// Panics if the profile does not cover the schema's packets.
fn unit_atoms(schema: &UnitSchema, profile: &AccessProfile) -> Vec<Atom> {
    assert_eq!(
        profile.len() as u64,
        schema.total_packets(),
        "profile must cover every flat position"
    );
    let w = profile.weights();
    (0..schema.n_units())
        .map(|u| {
            let s = schema.start(u) as usize;
            let l = schema.len_of(u) as usize;
            Atom {
                lo: u,
                hi: u + 1,
                weight: w[s..s + l].iter().sum(),
                packets: l as u64,
            }
        })
        .collect()
}

/// Maximal flat runs of units in the same factor-2 density band
/// (`buckets` bands below the peak profile weight per packet; colder or
/// zero-weight units all land in the last), in flat order. A hotspot's
/// units share a band, so the whole region moves to a channel as one
/// adjacent run.
fn flat_density_atoms(units: &[Atom], buckets: u32) -> Vec<Atom> {
    let n = units.len();
    let density = |u: usize| units[u].weight / units[u].packets as f64;
    let dmax = (0..n).map(density).fold(0.0f64, f64::max);
    let band = |u: usize| -> u32 {
        let d = density(u);
        if dmax <= 0.0 || d <= 0.0 {
            buckets - 1
        } else {
            ((dmax / d).log2().floor() as i64).clamp(0, i64::from(buckets) - 1) as u32
        }
    };
    let mut atoms: Vec<Atom> = Vec::new();
    let mut u = 0usize;
    while u < n {
        let b = band(u);
        let mut hi = u + 1;
        while hi < n && band(hi) == b {
            hi += 1;
        }
        atoms.push(Atom {
            lo: u,
            hi,
            weight: units[u..hi].iter().map(|a| a.weight).sum(),
            packets: units[u..hi].iter().map(|a| a.packets).sum(),
        });
        u = hi;
    }
    atoms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{LossModel, TraceEntry};
    use crate::program::{PacketClass, Payload, Program};
    use crate::tuner::Tuner;

    fn schema(lens: &[u32]) -> UnitSchema {
        let mut starts = Vec::new();
        for &l in lens {
            starts.push(true);
            starts.extend(std::iter::repeat_n(false, l as usize - 1));
        }
        UnitSchema::from_unit_starts(&starts)
    }

    /// A single-channel read journal of the flat positions `reads`.
    fn journal(reads: &[usize]) -> FaultTrace {
        FaultTrace::new(
            reads
                .iter()
                .map(|&f| TraceEntry {
                    channel: 0,
                    instant: f as u64,
                    lost: false,
                })
                .collect(),
        )
    }

    /// A profile of queries given as the flat positions each one reads.
    fn profile(n_packets: usize, queries: &[Vec<usize>]) -> AccessProfile {
        let journals: Vec<FaultTrace> = queries.iter().map(|r| journal(r)).collect();
        AccessProfile::from_journals(n_packets as u64, &journals)
    }

    fn predict(s: &UnitSchema, p: &AccessProfile, channels: u32, a: &[u32]) -> f64 {
        predict_latency_packets(s, p, channels, 0, AntennaConfig::single(), a)
    }

    #[test]
    fn schema_derives_starts_and_lens() {
        let s = schema(&[2, 1, 3]);
        assert_eq!(s.n_units(), 3);
        assert_eq!((s.start(0), s.len_of(0)), (0, 2));
        assert_eq!((s.start(2), s.len_of(2)), (3, 3));
        assert_eq!(s.total_packets(), 6);
    }

    #[test]
    fn profile_weights_count_every_query() {
        // A query that read nothing leaves no sample but still counts
        // towards the per-query weights.
        let p = profile(4, &[vec![0, 1, 1, 3], vec![]]);
        assert_eq!(p.weights(), &[0.5, 1.0, 0.0, 0.5]);
        assert_eq!(p.samples(), &[vec![(0, 2), (3, 1)]]);
    }

    #[test]
    fn profile_counts_a_tuner_journal_per_flat_position() {
        struct Pkt;
        impl Payload for Pkt {
            fn class(&self) -> PacketClass {
                PacketClass::Index
            }
        }
        let prog = Program::new(64, (0..8).map(|_| Pkt).collect());
        let mut t = Tuner::tune_in(&prog, 2, LossModel::None, 1);
        t.enable_fault_recording();
        let _ = t.read(); // flat 2
        let _ = t.read(); // flat 3
        t.goto(2);
        let _ = t.read(); // flat 2 again, one cycle later
        let p = AccessProfile::from_journals(prog.len(), &[t.fault_trace()]);
        assert_eq!(p.weights(), &[0.0, 0.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(p.samples(), &[vec![(2, 2)]]);
    }

    #[test]
    #[should_panic(expected = "single-channel build")]
    fn profile_rejects_a_multi_channel_journal() {
        let mut j = journal(&[0, 1]).entries().to_vec();
        j[1].channel = 1;
        AccessProfile::from_journals(4, &[FaultTrace::new(j)]);
    }

    #[test]
    fn scorer_prefers_hot_units_on_short_channels() {
        // Eight one-packet units; unit 0 is read by every query, each
        // other unit by one query in a thousand. A placement that
        // isolates unit 0 on its own channel (cycle length 1) must beat
        // the balanced split.
        let s = schema(&[1; 8]);
        let queries: Vec<Vec<usize>> = (0..1000)
            .map(|q| {
                if (1..8).contains(&q) {
                    vec![0, q]
                } else {
                    vec![0]
                }
            })
            .collect();
        let p = profile(8, &queries);
        let isolated = predict(&s, &p, 2, &[1, 0, 0, 0, 0, 0, 0, 0]);
        let balanced = predict(&s, &p, 2, &[0, 0, 0, 0, 1, 1, 1, 1]);
        assert!(isolated < balanced, "{isolated} !< {balanced}");
    }

    #[test]
    fn scorer_rewards_preserved_adjacency() {
        // Full scans: blocked arcs (adjacency kept) must beat a stripe
        // (every unit re-waits) at equal channel lengths.
        let s = schema(&[1; 8]);
        let p = profile(8, &vec![(0..8).collect(); 4]);
        let blocked = predict(&s, &p, 2, &[0, 0, 0, 0, 1, 1, 1, 1]);
        let stripe = predict(&s, &p, 2, &[0, 1, 0, 1, 0, 1, 0, 1]);
        assert!(blocked < stripe, "{blocked} !< {stripe}");
    }

    #[test]
    fn optimizer_isolates_the_hotspot() {
        // 16 two-packet units: 90 of 100 queries read units 0..4 (a
        // contiguous hotspot), the rest one cold unit each. The optimizer
        // must place the hotspot on a short channel: well below a
        // balanced quarter of the cycle.
        let lens = vec![2u32; 16];
        let s = schema(&lens);
        let queries: Vec<Vec<usize>> = (0..100)
            .map(|q| {
                if q < 90 {
                    (0..8).collect()
                } else {
                    let u = 4 + q % 12;
                    vec![2 * u, 2 * u + 1]
                }
            })
            .collect();
        let p = profile(32, &queries);
        let opt = optimize_placement(&s, &p, 4, 2, AntennaConfig::single());
        // Hot units all share one channel (and after relabeling it is
        // channel 0, where clients tune in).
        let hot_ch = opt.assignment[0];
        assert_eq!(hot_ch, 0);
        assert!(opt.assignment[..4].iter().all(|&c| c == hot_ch));
        let hot_packets: u64 = opt
            .assignment
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == hot_ch)
            .map(|(u, _)| lens[u] as u64)
            .sum();
        assert!(hot_packets <= 10, "hot channel too long: {hot_packets}");
        assert_eq!(opt.arc_cuts, vec![0, 4, 8, 12]);
        // And the result is never worse than the balanced blocked
        // baseline under the same scorer (here the hotspot happens to
        // align with a blocked arc, so the two can tie).
        let blocked: Vec<u32> = (0..16).map(|u| (u / 4) as u32).collect();
        let blocked_cost = predict_latency_packets(&s, &p, 4, 2, AntennaConfig::single(), &blocked);
        assert!(
            opt.predicted_latency_packets <= blocked_cost + 1e-9,
            "optimizer lost to the blocked arcs"
        );
    }

    #[test]
    fn optimizer_is_deterministic_and_valid() {
        let s = schema(&[3, 1, 2, 2, 1, 1, 4, 2, 1, 1]);
        let queries: Vec<Vec<usize>> = (0..10)
            .map(|q| vec![0, 9, (5 * q) % 18, (5 * q + 1) % 18])
            .collect();
        let p = profile(18, &queries);
        let run = || optimize_placement(&s, &p, 3, 1, AntennaConfig::new(2));
        let a = run();
        let b = run();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.arc_cuts, b.arc_cuts);
        assert_eq!(a.assignment.len(), s.n_units());
        for c in 0..3u32 {
            assert!(a.assignment.contains(&c), "channel {c} starved");
        }
        // The prediction is the scorer's value of the returned layout.
        let again = predict_latency_packets(&s, &p, 3, 1, AntennaConfig::new(2), &a.assignment);
        assert_eq!(a.predicted_latency_packets.to_bits(), again.to_bits());
        let cfg = a.config(3, 1);
        assert_eq!(cfg.channels, 3);
        assert!(matches!(cfg.placement, Placement::Explicit(_)));
    }

    #[test]
    fn single_channel_is_the_trivial_assignment() {
        let s = schema(&[1, 2, 1]);
        let p = profile(4, &[vec![0, 1, 2, 3]]);
        let opt = optimize_placement(&s, &p, 1, 0, AntennaConfig::single());
        assert_eq!(opt.assignment, vec![0, 0, 0]);
        assert_eq!(opt.arc_cuts, vec![0]);
        // One run on a four-packet channel: four reads plus half a
        // cycle's wait.
        assert_eq!(opt.predicted_latency_packets, 4.0 + 1.5);
    }
}
