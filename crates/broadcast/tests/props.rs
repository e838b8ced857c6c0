//! Property tests for the channel substrate: occurrence arithmetic,
//! tuner accounting, the multi-antenna tuner surface (batch arrival
//! planning, monitored-set bounds, switch-cost accounting vs a
//! step-by-step reference tuner), and the fault-trace text format.

use dsi_broadcast::optimize::{predict_latency_packets, AccessProfile, UnitSchema};
use dsi_broadcast::{
    drive_antennas, drive_traced, AirScheme, AntennaConfig, ChannelConfig, FaultTrace,
    GilbertElliott, LossModel, OutageWindow, PacketClass, Payload, Placement, Program, Query,
    TraceEntry, Tuner,
};
use dsi_geom::{Point, Rect};
use proptest::prelude::*;

#[derive(Debug, Clone, PartialEq)]
struct P(u64);
impl Payload for P {
    fn class(&self) -> PacketClass {
        if self.0.is_multiple_of(3) {
            PacketClass::Index
        } else if self.0 % 3 == 1 {
            PacketClass::ObjectHeader
        } else {
            PacketClass::ObjectPayload
        }
    }
}

/// Packet type with explicit unit boundaries, for the layout round-trip
/// and latency-prediction properties.
#[derive(Debug, Clone, PartialEq)]
struct B {
    unit: u32,
    start: bool,
}
impl Payload for B {
    fn class(&self) -> PacketClass {
        PacketClass::Index
    }
    fn unit_start(&self) -> bool {
        self.start
    }
}

/// A toy air scheme whose every query reads exactly one unit (`goto` its
/// first packet, then read it to the end): the one workload whose
/// expected latency the sample scorer predicts *exactly*, making
/// predicted-vs-measured comparable bit-for-float.
struct OneUnit<'a> {
    program: &'a Program<B>,
    flat: u64,
    len: u64,
}
impl AirScheme for OneUnit<'_> {
    type Packet = B;
    fn program(&self) -> &Program<B> {
        self.program
    }
    fn window(&self, tuner: &mut Tuner<'_, B>, _w: &Rect) -> Vec<u32> {
        tuner.goto(self.flat);
        for _ in 0..self.len {
            let _ = tuner.read();
        }
        Vec::new()
    }
    fn knn(&self, tuner: &mut Tuner<'_, B>, _q: Point, _k: usize) -> Vec<u32> {
        self.window(tuner, &Rect::new(0.0, 0.0, 1.0, 1.0))
    }
}

/// A step-by-step reference model of the multi-antenna tuner: arrivals by
/// scanning instants one at a time, the monitored set as an explicit
/// most-recently-focused-first list with LRU eviction, one switch charged
/// per retune.
struct RefTuner {
    pos: u64,
    switches: u64,
    monitored: Vec<u32>,
    antennas: u32,
}

impl RefTuner {
    fn new(start: u64, antennas: u32, n_channels: u32) -> Self {
        Self {
            pos: start,
            switches: 0,
            monitored: vec![0],
            antennas: antennas.min(n_channels),
        }
    }

    fn arrival(&self, prog: &Program<P>, flat: u64) -> u64 {
        let ch = prog.channel_of(flat);
        let mut t = if self.monitored.contains(&ch) {
            self.pos
        } else {
            self.pos + prog.switch_cost() as u64
        };
        // Scan forward one instant at a time until the packet airs.
        while prog.flat_at(ch, t) != flat {
            t += 1;
        }
        t
    }

    fn goto(&mut self, prog: &Program<P>, flat: u64) -> u64 {
        let t = self.arrival(prog, flat);
        let ch = prog.channel_of(flat);
        if let Some(i) = self.monitored.iter().position(|&c| c == ch) {
            self.monitored.remove(i);
        } else {
            self.switches += 1;
            if self.monitored.len() as u32 >= self.antennas {
                self.monitored.pop();
            }
        }
        self.monitored.insert(0, ch);
        self.pos = t;
        t
    }
}

fn multi_channel_program(len: u64, cfg: ChannelConfig) -> Program<P> {
    Program::with_channels(16, (0..len).map(P).collect(), cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn next_occurrence_is_minimal(len in 1u64..200, from in 0u64..10_000, pos in 0u64..200) {
        let pos = pos % len;
        let prog = Program::new(16, (0..len).map(P).collect());
        let t = prog.next_occurrence(from, pos);
        prop_assert!(t >= from);
        prop_assert_eq!(t % len, pos);
        prop_assert!(t - from < len, "not the first occurrence");
    }

    #[test]
    fn tuner_accounting_is_exact(
        len in 2u64..100,
        start in 0u64..1_000,
        steps in prop::collection::vec((0u64..30, any::<bool>()), 1..40),
    ) {
        let prog = Program::new(16, (0..len).map(P).collect());
        let mut t = Tuner::tune_in(&prog, start, LossModel::None, 1);
        let mut expected_reads = 0u64;
        let mut expected_pos = start;
        for (skip, read) in steps {
            expected_pos += skip;
            t.doze_to(expected_pos);
            if read {
                let _ = t.read();
                expected_reads += 1;
                expected_pos += 1;
            }
        }
        let s = t.stats();
        prop_assert_eq!(s.tuning_packets, expected_reads);
        prop_assert_eq!(s.latency_packets, expected_pos - start);
    }

    #[test]
    fn arrival_earliest_agrees_with_min_over_arrival(
        len in 8u64..60,
        channels in 2u32..5,
        switch_cost in 0u32..4,
        antennas in 1u32..4,
        blocked in any::<bool>(),
        start in 0u64..1_000,
        warmup in prop::collection::vec(0u64..60, 0..8),
        targets in prop::collection::vec(0u64..60, 1..12),
    ) {
        let cfg = if blocked {
            ChannelConfig::blocked(channels, switch_cost)
        } else {
            ChannelConfig::striped(channels, switch_cost)
        };
        let prog = multi_channel_program(len, cfg);
        let mut t = Tuner::tune_in_with(
            &prog, start, LossModel::None, 1, AntennaConfig::new(antennas),
        );
        for w in warmup {
            t.goto(w % len);
        }
        let flats: Vec<u64> = targets.into_iter().map(|x| x % len).collect();
        let (i, at) = t.arrival_earliest(&flats).expect("non-empty");
        // Agrees with the min over per-position arrivals, ties to the
        // lowest index.
        let arrivals: Vec<u64> = flats.iter().map(|&f| t.arrival(f)).collect();
        let min = arrivals.iter().copied().min().expect("non-empty");
        prop_assert_eq!(at, min);
        prop_assert_eq!(arrivals[i], min);
        prop_assert!(arrivals[..i].iter().all(|&a| a > min), "not the first minimum");
    }

    #[test]
    fn monitored_set_bounded_and_reference_tuner_agrees(
        len in 8u64..60,
        channels in 2u32..5,
        switch_cost in 0u32..4,
        antennas in 1u32..4,
        blocked in any::<bool>(),
        start in 0u64..1_000,
        ops in prop::collection::vec((0u64..60, any::<bool>()), 1..40),
    ) {
        let cfg = if blocked {
            ChannelConfig::blocked(channels, switch_cost)
        } else {
            ChannelConfig::striped(channels, switch_cost)
        };
        let prog = multi_channel_program(len, cfg);
        let mut t = Tuner::tune_in_with(
            &prog, start, LossModel::None, 1, AntennaConfig::new(antennas),
        );
        let mut r = RefTuner::new(start, antennas, prog.n_channels());
        for (target, read) in ops {
            let flat = target % len;
            // Arrival and goto agree with the step-by-step reference at
            // every step.
            prop_assert_eq!(t.arrival(flat), r.arrival(&prog, flat));
            prop_assert_eq!(t.goto(flat), r.goto(&prog, flat));
            prop_assert_eq!(t.pos(), r.pos);
            prop_assert_eq!(t.monitored_channels(), r.monitored.as_slice());
            if read {
                let _ = t.read();
                r.pos += 1;
            }
            // The monitored set never exceeds the antenna count, holds no
            // duplicates, and leads with the active channel.
            let mon = t.monitored_channels();
            prop_assert!(mon.len() as u32 <= antennas.min(prog.n_channels()));
            let mut dedup = mon.to_vec();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), mon.len(), "duplicate monitored channel");
            prop_assert_eq!(mon[0], t.channel());
        }
        // Switch-cost accounting matches the reference exactly.
        prop_assert_eq!(t.channel_stats().switches, r.switches);
    }

    #[test]
    fn single_antenna_matches_legacy_switch_model(
        len in 8u64..60,
        channels in 2u32..5,
        switch_cost in 0u32..4,
        start in 0u64..1_000,
        ops in prop::collection::vec(0u64..60, 1..30),
    ) {
        // k = 1 through the antenna-aware tuner must equal the classic
        // single-receiver accounting: a switch whenever the target's
        // channel differs from the current one.
        let prog = multi_channel_program(len, ChannelConfig::striped(channels, switch_cost));
        let mut t = Tuner::tune_in(&prog, start, LossModel::None, 1);
        let mut channel = 0u32;
        let mut switches = 0u64;
        let mut pos = start;
        for target in ops {
            let flat = target % len;
            let ch = prog.channel_of(flat);
            let ready = if ch == channel { pos } else { pos + prog.switch_cost() as u64 };
            let want = prog.next_occurrence_on(ready, flat);
            prop_assert_eq!(t.goto(flat), want);
            if ch != channel {
                switches += 1;
                channel = ch;
            }
            pos = want;
        }
        prop_assert_eq!(t.channel_stats().switches, switches);
    }

    #[test]
    fn plan_earliest_picks_the_cheaper_order_under_any_switch_cost(
        len in 8u64..60,
        channels in 2u32..5,
        // Deliberately includes costs far beyond a channel cycle: the
        // deferred candidate's re-occurrence must be charged the retune
        // like any arrival, which only shows at large costs.
        switch_cost in 0u32..150,
        antennas in 1u32..3,
        blocked in any::<bool>(),
        start in 0u64..1_000,
        warmup in prop::collection::vec(0u64..60, 0..6),
        targets in prop::collection::vec((0u64..60, 1u64..12), 2..10),
    ) {
        let cfg = if blocked {
            ChannelConfig::blocked(channels, switch_cost)
        } else {
            ChannelConfig::striped(channels, switch_cost)
        };
        let prog = multi_channel_program(len, cfg);
        let mut t = Tuner::tune_in_with(
            &prog, start, LossModel::None, 1, AntennaConfig::new(antennas),
        );
        for w in warmup {
            t.goto(w % len);
        }
        let flats: Vec<u64> = targets.iter().map(|&(x, _)| x % len).collect();
        let durs: Vec<u64> = targets.iter().map(|&(_, d)| d).collect();
        let (pick, at) = t.plan_earliest(&flats, |i| durs[i]).expect("non-empty");
        prop_assert_eq!(at, t.arrival(flats[pick]));
        // Reference model: arrivals per candidate; earliest is x. If the
        // runner-up y airs before x's read completes, both orders are
        // costed by the completion of the later read, charging the
        // deferred read's re-occurrence exactly like an arrival (retune
        // delay when its channel is on no antenna); the cheaper order's
        // first read wins, ties to x, earlier index on arrival ties.
        let arrivals: Vec<u64> = flats.iter().map(|&f| t.arrival(f)).collect();
        let x = (0..flats.len())
            .min_by_key(|&i| (arrivals[i], i))
            .expect("non-empty");
        let y = (0..flats.len())
            .filter(|&i| i != x)
            .min_by_key(|&i| (arrivals[i], i))
            .expect("two candidates");
        let charged = |from: u64, i: usize| -> u64 {
            let ch = prog.channel_of(flats[i]);
            let monitored = if t.monitored_channels().is_empty() {
                ch == t.channel()
            } else {
                t.monitored_channels().contains(&ch)
            };
            let ready = if monitored { from } else { from + switch_cost as u64 };
            prog.next_occurrence_on(ready, flats[i])
        };
        let mut want = x;
        if arrivals[y] < arrivals[x] + durs[x] {
            let y_after_x = charged(arrivals[x] + durs[x], y) + durs[y];
            let x_after_y = charged(arrivals[y] + durs[y], x) + durs[x];
            if x_after_y < y_after_x {
                want = y;
            }
        }
        prop_assert_eq!(pick, want, "flats {:?} durs {:?}", &flats, &durs);
    }

    #[test]
    fn explicit_layout_round_trips_through_build(
        unit_lens in prop::collection::vec(1u32..5, 2..24),
        channels in 2u32..5,
        assign_raw in prop::collection::vec(0u32..4, 24..25),
        switch_cost in 0u32..4,
    ) {
        // Derive a valid assignment: channel ids in range, every channel
        // hit at least once (walk the raw values, forcing the first
        // `channels` units onto distinct channels).
        let n_units = unit_lens.len();
        prop_assume!(n_units >= channels as usize);
        let assignment: Vec<u32> = (0..n_units)
            .map(|u| if u < channels as usize { u as u32 } else { assign_raw[u % assign_raw.len()] % channels })
            .collect();
        // Materialize the packet cycle: unit u spans unit_lens[u] packets.
        let mut packets = Vec::new();
        for (u, &l) in unit_lens.iter().enumerate() {
            for i in 0..l {
                packets.push(B { unit: u as u32, start: i == 0 });
            }
        }
        let cfg = ChannelConfig {
            channels,
            placement: Placement::Explicit(assignment.clone()),
            switch_cost,
        };
        let prog = Program::with_channels(64, packets, cfg);
        // Round trip: every unit lands intact on its assigned channel —
        // all packets of unit u on channel assignment[u], in consecutive
        // per-channel slots — no channel is empty, and flat order is
        // preserved within each channel.
        let mut flat = 0u64;
        for (u, &l) in unit_lens.iter().enumerate() {
            let ch = assignment[u];
            let t0 = prog.next_occurrence_on(0, flat);
            for k in 0..l as u64 {
                prop_assert_eq!(prog.channel_of(flat + k), ch, "unit {} split", u);
                // Consecutive packets of the unit air at consecutive
                // instants of the channel.
                prop_assert_eq!(prog.flat_at(ch, t0 + k), flat + k);
            }
            flat += l as u64;
        }
        let total: u64 = (0..channels).map(|c| prog.channel_len(c)).sum();
        prop_assert_eq!(total, prog.len());
        for c in 0..channels {
            prop_assert!(prog.channel_len(c) > 0, "channel {} empty", c);
            // Flat order preserved: the channel's slots are increasing
            // in flat position.
            let slots: Vec<u64> = (0..prog.channel_len(c)).map(|s| prog.flat_at(c, s)).collect();
            prop_assert!(slots.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn predicted_latency_matches_measured_drive_latency(
        unit_lens in prop::collection::vec(1u32..4, 2..16),
        channels in 2u32..4,
        assign_raw in prop::collection::vec(0u32..4, 16..17),
    ) {
        // Zero switch cost: the sample scorer's expected wait for reading
        // one unit from a uniform random tune-in, `l + (L_c − 1)/2`, is
        // exact, so the mean measured `drive_antennas()` latency over one
        // full channel period must equal the per-unit prediction.
        let n_units = unit_lens.len();
        prop_assume!(n_units >= channels as usize);
        let assignment: Vec<u32> = (0..n_units)
            .map(|u| if u < channels as usize { u as u32 } else { assign_raw[u % assign_raw.len()] % channels })
            .collect();
        let mut packets = Vec::new();
        let mut starts = Vec::new();
        for (u, &l) in unit_lens.iter().enumerate() {
            starts.push(packets.len() as u64);
            for i in 0..l {
                packets.push(B { unit: u as u32, start: i == 0 });
            }
        }
        let n_flat = packets.len();
        let cfg = ChannelConfig {
            channels,
            placement: Placement::Explicit(assignment.clone()),
            switch_cost: 0,
        };
        let single = Program::new(64, packets.clone());
        let prog = Program::with_channels(64, packets, cfg);
        let schema = UnitSchema::from_unit_starts(&single.unit_starts());
        let query = Query::Window(Rect::new(0.0, 0.0, 1.0, 1.0));
        for (u, &l) in unit_lens.iter().enumerate() {
            // Profile of one query that reads exactly unit u (one run),
            // journaled on the single-channel build.
            let trainer = OneUnit { program: &single, flat: starts[u], len: l as u64 };
            let (_, journal) =
                drive_traced(&trainer, 0, LossModel::None, 1, AntennaConfig::single(), &query);
            let profile = AccessProfile::from_journals(n_flat as u64, &[journal]);
            let predicted = predict_latency_packets(
                &schema, &profile, channels, 0, AntennaConfig::single(), &assignment,
            );
            // Measure through the real driver: the toy scheme reads unit
            // u and nothing else; average over one period of the unit's
            // channel (latency is periodic in it).
            let scheme = OneUnit { program: &prog, flat: starts[u], len: l as u64 };
            let period = prog.channel_len(assignment[u]);
            let mean = (0..period)
                .map(|s| drive_antennas(&scheme, s, LossModel::None, 1, AntennaConfig::single(), &query).stats.latency_packets as f64)
                .sum::<f64>() / period as f64;
            prop_assert!(
                (mean - predicted).abs() < 1e-9,
                "unit {}: measured {} model {}", u, mean, predicted
            );
        }
    }

    #[test]
    fn planning_never_peeks_at_the_fault_model(
        len in 8u64..60,
        channels in 2u32..5,
        switch_cost in 0u32..4,
        antennas in 1u32..4,
        blocked in any::<bool>(),
        start in 0u64..1_000,
        model_sel in 0u8..5,
        theta in 0.05..0.9f64,
        seed in any::<u64>(),
        targets in prop::collection::vec(0u64..60, 2..10),
    ) {
        let cfg = if blocked {
            ChannelConfig::blocked(channels, switch_cost)
        } else {
            ChannelConfig::striped(channels, switch_cost)
        };
        let prog = multi_channel_program(len, cfg);
        let loss = match model_sel {
            0 => LossModel::None,
            1 => LossModel::iid(theta),
            2 => LossModel::keyed_iid(theta),
            3 => LossModel::Gilbert(GilbertElliott::new(0.2, 0.3, theta)),
            _ => LossModel::outage(vec![OutageWindow { channel: 0, start, len: 16 }]),
        };
        let flats: Vec<u64> = targets.iter().map(|&x| x % len).collect();
        let dur = |i: usize| (i as u64 % 3) + 1;

        // The loss-blind planners decide identically under every fault
        // model: swapping the model changes nothing about planning.
        let lossless = Tuner::tune_in_with(
            &prog, start, LossModel::None, seed, AntennaConfig::new(antennas),
        );
        let lossy = Tuner::tune_in_with(
            &prog, start, loss.clone(), seed, AntennaConfig::new(antennas),
        );
        prop_assert_eq!(lossless.arrival_earliest(&flats), lossy.arrival_earliest(&flats));
        prop_assert_eq!(lossless.plan_earliest(&flats, dur), lossy.plan_earliest(&flats, dur));

        // And planning consumes no loss draws: interleaving planner calls
        // (including the resilient wrappers) between reads leaves the
        // loss outcome of every subsequent read untouched.
        let run = |plan: bool| {
            let mut t = Tuner::tune_in_with(
                &prog, start, loss.clone(), seed, AntennaConfig::new(antennas),
            );
            (0..24)
                .map(|_| {
                    if plan {
                        let _ = t.arrival_earliest(&flats);
                        let _ = t.plan_earliest(&flats, dur);
                        let _ = t.earliest_resilient(&flats);
                        let _ = t.plan_resilient(&flats, dur);
                    }
                    t.read().is_ok()
                })
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(false), run(true), "a planner consumed a loss draw");
    }

    #[test]
    fn loss_rate_respects_scope(theta in 0.1..0.9f64, seed in any::<u64>()) {
        let prog = Program::new(16, (0..300u64).map(P).collect());
        let loss = LossModel::Iid { theta, scope: dsi_broadcast::LossScope::IndexOnly };
        let mut t = Tuner::tune_in(&prog, 0, loss, seed);
        let mut object_losses = 0;
        for i in 0..300u64 {
            let lost = t.read().is_err();
            if lost && P(i).class() != PacketClass::Index {
                object_losses += 1;
            }
        }
        prop_assert_eq!(object_losses, 0, "object packets must never be lost under IndexOnly");
    }
}

/// Tokens the trace-text fuzzer builds lines from: valid fields, values
/// just out of a field's range, and junk.
const TRACE_TOKENS: [&str; 10] = [
    "0",
    "1",
    "7",
    "-1",
    "x",
    "0.5",
    "4294967296",
    "18446744073709551616",
    "dsi-fault-trace",
    "v1",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fault_traces_round_trip_through_text(
        entries in prop::collection::vec((any::<u32>(), any::<u64>(), any::<bool>()), 0..40),
    ) {
        let trace = FaultTrace::new(
            entries
                .into_iter()
                .map(|(channel, instant, lost)| TraceEntry { channel, instant, lost })
                .collect(),
        );
        prop_assert_eq!(FaultTrace::from_text(&trace.to_text()).unwrap(), trace);
    }

    /// Random documents never panic the parser: each either parses (and
    /// then round-trips) or is rejected naming a line.
    #[test]
    fn random_trace_lines_never_panic(
        header in any::<bool>(),
        lines in prop::collection::vec(prop::collection::vec(0usize..10, 0..5), 0..6),
    ) {
        let mut text = String::new();
        if header {
            text.push_str("dsi-fault-trace v1\n");
        }
        for line in &lines {
            let tokens: Vec<&str> = line.iter().map(|&t| TRACE_TOKENS[t]).collect();
            text.push_str(&tokens.join(" "));
            text.push('\n');
        }
        match FaultTrace::from_text(&text) {
            Ok(trace) => prop_assert_eq!(FaultTrace::from_text(&trace.to_text()).unwrap(), trace),
            Err(e) => prop_assert!(e.to_string().starts_with("line "), "{e}"),
        }
    }
}
