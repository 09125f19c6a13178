//! `flow_hot_path`: old-vs-new `flow_until` on the acceptance scenario —
//! 100 reserves, 200 constant taps, one simulated hour at the default
//! 100 ms flow tick (36,000 ticks).
//!
//! "Old" is the seed's naive per-tick loop (a fresh `BTreeMap` snapshot of
//! every reserve and a scan of every tap, per tick), retained as
//! `ResourceGraph::flow_until_reference` behind the `reference-flow`
//! feature. "New" is the `FlowEngine`: per-source index, reusable scratch,
//! and closed-form fast-forward of all-constant runs.
//!
//! Besides the criterion entries, the bench measures a fixed-iteration
//! speedup (asserting the two implementations end in the identical state)
//! and writes `BENCH_flow_hot_path.json` at the repo root to seed the
//! benchmark trajectory.
//!
//! `single_tick_browser` is the kernel's cadence instead: Fig 6b's browser
//! graph flowed one 100 ms tick per call for an hour, with the plugin's
//! CPU charge between calls — the compiled single tick the full run loop
//! pays every quantum, against the reference's tick.
//!
//! `idle_decay_lanes` is a sleeping device's idle jumps: the uncoop
//! pollers' graph (a battery feeding two decaying reserves) with the
//! default decay, flowed in 100-tick spans for an hour — the decay lanes
//! against the reference's ticks.
//!
//! `plan_vs_tick` is the evidence behind the planner's break-even
//! (`MIN_PARTITIONED_SPAN`, 16 ticks): an hour flowed in spans of 4 to 64
//! ticks, each span through the run planner alone and through the
//! compiled tick alone (`ResourceGraph::flow_ticks`), on a battery
//! feeding one decaying reserve and on Fig 6b's graph. It reports ns per
//! span on each side and asserts the two sides end bit-identical.
//!
//! `lane_closed_forms` times the lanes' counted paths. Its hog is a
//! `steady` spinner's charged lane: a decaying reserve fed 68.5 mW, whose
//! 137 mW quanta run about every other tick, settled as one 30,000-tick
//! `ResourceGraph::settle_duty` against the same quanta charged between
//! the reference's ticks. Its bands are the evidence behind the lanes'
//! band threshold (`MIN_BAND_JUMP`): a fed lane whose leak bands last 1 to
//! 64 ticks, flowed through the planner with every band jumped and with
//! every tick stepped (`ResourceGraph::flow_lane_ticks`). Its hovering
//! lane, fed half a µJ a tick over a leak, crosses a band boundary every
//! tick, in 100-tick spans both ways: the cost of the lanes' back-off
//! after short bands. It asserts every pair of sides ends bit-identical,
//! with equal run and throttle counts.
//!
//! `lane_pairs` is a coop poller's lanes while they fill: the pollers'
//! graph (two lanes fed from the battery) against the same graph with one
//! lane, each flowed from empty in 200-tick spans through `flow_until`
//! while every lane-tick is stepped. Lanes fed at most once step two at a
//! time, so the two graphs time a pair against a lone lane. It reports ns
//! per lane-tick on each side and asserts each ends bit-identical with the
//! reference.
//!
//! `ticked_runs` is the browser plugin's sole-Ready window: Fig 6b's graph
//! flowed an hour in windows of 1, 2, 4 and 20 ticks, each settled as one
//! duty run of the plugin in the flow kernel against as many compiled
//! ticks with the plugin charged after each while its reserve is positive.
//! A run pays for loading and writing back the kernel's slots once, so
//! short windows show where the kernel stops paying. It reports ns per
//! tick on each side per window and asserts both end bit-identical with
//! equal run and throttle counts.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use cinder_core::{
    Actor, Duty, GraphConfig, Quantity, RateSpec, ReserveId, ReserveStats, ResourceGraph,
    ResourceKind,
};
use cinder_label::Label;
use cinder_sim::{Energy, Power, SimDuration, SimTime};

const RESERVES: usize = 100;
const TAPS: usize = 200;
const BYTE_RESERVES: usize = 50;
const BYTE_TAPS: usize = 100;
const SIM_SPAN: SimTime = SimTime::from_secs(3_600);

/// The hot-path scenario: a battery fanning out through constant taps (the
/// paper's Fig-1/Fig-8 shape), sized so no source clamps within the hour.
fn const_graph() -> ResourceGraph {
    let mut g = ResourceGraph::with_config(
        Energy::from_joules(1_000_000),
        GraphConfig {
            decay: None,
            ..GraphConfig::default()
        },
    );
    let k = Actor::kernel();
    let battery = g.battery();
    let mut reserves = Vec::with_capacity(RESERVES);
    for i in 0..RESERVES {
        reserves.push(
            g.create_reserve(&k, &format!("r{i}"), Label::default_label())
                .unwrap(),
        );
    }
    for i in 0..TAPS {
        g.create_tap(
            &k,
            &format!("t{i}"),
            battery,
            reserves[i % RESERVES],
            RateSpec::constant(Power::from_milliwatts(1 + (i as u64 % 100))),
            Label::default_label(),
        )
        .unwrap();
    }
    g
}

/// The multi-kind variant: the const scenario plus a `NetworkBytes` root
/// pool fanning out through constant byte taps — one engine pass flows both
/// kinds per tick, and the whole graph stays fast-forward eligible (every
/// tap constant-rate). The multi-kind engine must not regress the
/// all-Energy closed-form factor.
fn multi_kind_graph() -> ResourceGraph {
    let mut g = const_graph();
    let k = Actor::kernel();
    let pool = g
        .create_root(&k, "byte-pool", Quantity::network_bytes(100_000_000_000))
        .unwrap();
    let mut byte_reserves = Vec::with_capacity(BYTE_RESERVES);
    for i in 0..BYTE_RESERVES {
        byte_reserves.push(
            g.create_reserve_kind(
                &k,
                &format!("b{i}"),
                Label::default_label(),
                ResourceKind::NetworkBytes,
            )
            .unwrap(),
        );
    }
    for i in 0..BYTE_TAPS {
        g.create_tap(
            &k,
            &format!("bt{i}"),
            pool,
            byte_reserves[i % BYTE_RESERVES],
            RateSpec::constant(Power::from_microwatts(1_000 + 97 * i as u64)),
            Label::default_label(),
        )
        .unwrap();
    }
    g
}

/// A mixed variant: one reserve in five gains a backward-proportional tap.
/// The engine partitions the graph per run — the proportional island ticks
/// over SoA arrays while the untouched constant fan-out is closed-formed.
fn mixed_graph() -> ResourceGraph {
    let mut g = const_graph();
    let k = Actor::kernel();
    let battery = g.battery();
    let reserves: Vec<_> = g
        .reserves()
        .map(|(id, _)| id)
        .filter(|&id| id != battery)
        .collect();
    for (i, &r) in reserves.iter().enumerate().take(RESERVES) {
        if i % 5 == 0 {
            g.create_tap(
                &k,
                &format!("bwd{i}"),
                r,
                battery,
                RateSpec::proportional(0.1),
                Label::default_label(),
            )
            .unwrap();
        }
    }
    g
}

/// The partitioned showcase: a const-heavy graph with one small
/// proportional *island* (a plugin reserve with a backward tap, fed by its
/// own battery tap). The ticked partition is 2 taps; the other ~200 are
/// closed-formed — the shape the per-source partitioning is built for.
fn mixed_partitioned_graph() -> ResourceGraph {
    let mut g = const_graph();
    let k = Actor::kernel();
    let battery = g.battery();
    let island = g
        .create_reserve(&k, "island", Label::default_label())
        .unwrap();
    g.create_tap(
        &k,
        "island-feed",
        battery,
        island,
        RateSpec::constant(Power::from_milliwatts(70)),
        Label::default_label(),
    )
    .unwrap();
    g.create_tap(
        &k,
        "island-bwd",
        island,
        battery,
        RateSpec::proportional(0.1),
        Label::default_label(),
    )
    .unwrap();
    g
}

/// Fig 6b's browser graph on a 15 kJ battery with the default decay:
/// battery → browser (694 mW) → plugin (70 mW) and extension (20 mW),
/// with 0.1× backward taps from the browser and the plugin. Returns the
/// graph and the plugin's reserve.
fn browser_graph() -> (ResourceGraph, ReserveId) {
    let mut g = ResourceGraph::new(Energy::from_joules(15_000));
    let k = Actor::kernel();
    let battery = g.battery();
    let mut reserve = |name| g.create_reserve(&k, name, Label::default_label()).unwrap();
    let (browser, plugin, extension) =
        (reserve("browser"), reserve("plugin"), reserve("extension"));
    let mw = |p| RateSpec::constant(Power::from_milliwatts(p));
    let back = RateSpec::proportional(0.1);
    for (name, source, sink, rate) in [
        ("feed", battery, browser, mw(694)),
        ("plugin", browser, plugin, mw(70)),
        ("extension", browser, extension, mw(20)),
        ("browser-back", browser, battery, back),
        ("plugin-back", plugin, battery, back),
    ] {
        g.create_tap(&k, name, source, sink, rate, Label::default_label())
            .unwrap();
    }
    (g, plugin)
}

/// Simulated hour of `single_tick_browser`, in 100 ms ticks.
const BROWSER_TICKS: u64 = 36_000;

/// Flows the browser graph one tick per call for an hour; whenever the
/// plugin's reserve is positive it is charged one 100 ms quantum of the
/// 137 mW CPU, as the scheduler would. Returns the wall time in ns per
/// tick and the end state.
fn browser_single_ticks(engine: bool) -> (f64, Vec<(Energy, ReserveStats)>) {
    let (mut g, plugin) = browser_graph();
    let k = Actor::kernel();
    let quantum_cost = Power::from_milliwatts(137).energy_over(SimDuration::from_millis(100));
    let start = Instant::now();
    for tick in 1..=BROWSER_TICKS {
        let now = black_box(SimTime::from_millis(100 * tick));
        if engine {
            g.flow_until(now);
        } else {
            g.flow_until_reference(now);
        }
        if g.reserve(plugin).unwrap().is_nonempty() {
            g.consume_with_debt(&k, plugin, quantum_cost).unwrap();
        }
    }
    let ns_per_tick = start.elapsed().as_secs_f64() * 1e9 / BROWSER_TICKS as f64;
    let state = g
        .reserves()
        .map(|(_, r)| (r.balance(), r.stats()))
        .collect();
    (ns_per_tick, state)
}

/// The uncoop pollers' graph with the default decay: a 15 kJ battery
/// feeding the rss and mail reserves 37.5 mW each. Neither reserve has an
/// out-tap, so under decay each is a lane.
fn idle_pollers_graph() -> ResourceGraph {
    let mut g = ResourceGraph::new(Energy::from_joules(15_000));
    let k = Actor::kernel();
    let battery = g.battery();
    for name in ["rss", "mail"] {
        let r = g.create_reserve(&k, name, Label::default_label()).unwrap();
        g.create_tap(
            &k,
            name,
            battery,
            r,
            RateSpec::constant(Power::from_microwatts(37_500)),
            Label::default_label(),
        )
        .unwrap();
    }
    g
}

/// Ticks per `flow_until` call of `idle_decay_lanes`: a ten-second idle
/// jump on the fleet's 100 ms grid.
const LANE_SPAN_TICKS: u64 = 100;

/// Flows the idle pollers' graph an hour in `LANE_SPAN_TICKS`-tick spans.
/// Returns the wall time in ms and the end state.
fn idle_lane_spans(engine: bool) -> (f64, Vec<(Energy, ReserveStats)>) {
    let mut g = idle_pollers_graph();
    let start = Instant::now();
    for span in 1..=BROWSER_TICKS / LANE_SPAN_TICKS {
        let now = black_box(SimTime::from_millis(100 * LANE_SPAN_TICKS * span));
        if engine {
            g.flow_until(now);
        } else {
            g.flow_until_reference(now);
        }
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let state = g
        .reserves()
        .map(|(_, r)| (r.balance(), r.stats()))
        .collect();
    (ms, state)
}

/// The span lengths `plan_vs_tick` times, in ticks.
const PLAN_SPANS: [u64; 5] = [4, 8, 16, 32, 64];

/// A battery feeding one decaying reserve 37.5 mW, with the default decay:
/// the graph of a stalled gallery's idle jumps.
fn decay_lane_graph() -> ResourceGraph {
    let mut g = ResourceGraph::new(Energy::from_joules(15_000));
    let k = Actor::kernel();
    let battery = g.battery();
    let r = g
        .create_reserve(&k, "lane", Label::default_label())
        .unwrap();
    g.create_tap(
        &k,
        "feed",
        battery,
        r,
        RateSpec::constant(Power::from_microwatts(37_500)),
        Label::default_label(),
    )
    .unwrap();
    g
}

/// Flows `g` an hour in `span`-tick calls, each through the run planner
/// alone (`planned`) or the compiled tick alone. Returns the wall time in
/// ns per span and the end state.
fn plan_or_tick(
    mut g: ResourceGraph,
    span: u64,
    planned: bool,
) -> (f64, Vec<(Energy, ReserveStats)>) {
    let spans = BROWSER_TICKS / span;
    let start = Instant::now();
    for _ in 0..spans {
        g.flow_ticks(black_box(span), planned);
    }
    let ns_per_span = start.elapsed().as_secs_f64() * 1e9 / spans as f64;
    let state = g
        .reserves()
        .map(|(_, r)| (r.balance(), r.stats()))
        .collect();
    (ns_per_span, state)
}

/// `plan_vs_tick` on one graph: for each of [`PLAN_SPANS`], the median ns
/// per span of seven alternating hours per side, as JSON lists of the
/// planned side and the ticked side.
fn plan_vs_tick(build: fn() -> ResourceGraph, graph: &str) -> [String; 2] {
    let (medians_planned, medians_ticked): (Vec<String>, Vec<String>) = PLAN_SPANS
        .iter()
        .map(|&span| {
            let (mut planned, mut ticked) = (Vec::new(), Vec::new());
            for pair in 0..7 {
                let mut sides = [None, None];
                for plan in [pair % 2 == 0, pair % 2 == 1] {
                    sides[usize::from(plan)] = Some(plan_or_tick(build(), span, plan));
                }
                let [Some((tick_ns, tick_end)), Some((plan_ns, plan_end))] = sides else {
                    unreachable!("both sides ran");
                };
                assert_eq!(
                    plan_end, tick_end,
                    "planned and ticked {span}-tick spans diverged on {graph}"
                );
                planned.push(plan_ns);
                ticked.push(tick_ns);
            }
            let ns = |v: &mut Vec<f64>| format!("{:.0}", median(v));
            (ns(&mut planned), ns(&mut ticked))
        })
        .unzip();
    [medians_planned, medians_ticked].map(|ns| format!("[{}]", ns.join(", ")))
}

/// Every reserve's balance and stats: the state two sides must agree on.
fn end_state(g: &ResourceGraph) -> Vec<(Energy, ReserveStats)> {
    g.reserves()
        .map(|(_, r)| (r.balance(), r.stats()))
        .collect()
}

/// The median of `v`.
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Ticks of `lane_closed_forms`' duty run.
const HOG_TICKS: u64 = 30_000;

/// The hog's 137 mW over a 100 ms quantum, in µJ.
const HOG_COST_UJ: i64 = 13_700;

/// Settles the hog's `HOG_TICKS` ticks as one duty run (`engine`), or ticks
/// the reference and charges each quantum while the reserve is positive.
/// Returns the wall time in µs, the end state, and the runs and throttles.
fn hog_duty(engine: bool) -> (f64, Vec<(Energy, ReserveStats)>, (u64, u64)) {
    let mut g = ResourceGraph::new(Energy::from_joules(15_000));
    let k = Actor::kernel();
    let battery = g.battery();
    let hog = g.create_reserve(&k, "hog", Label::default_label()).unwrap();
    g.create_tap(
        &k,
        "feed",
        battery,
        hog,
        RateSpec::constant(Power::from_microwatts(68_500)),
        Label::default_label(),
    )
    .unwrap();
    let cost = Energy::from_microjoules(HOG_COST_UJ);
    let start = Instant::now();
    let counts = if engine {
        let mut duty = Duty::new(hog, cost, 0, 1, 10);
        let ticks = g.duty_run(hog, black_box(HOG_TICKS)).unwrap();
        assert_eq!(g.settle_duty(&mut duty, ticks), HOG_TICKS);
        (duty.runs, duty.throttles)
    } else {
        let (mut runs, mut throttles) = (0, 0);
        for tick in 1..=HOG_TICKS {
            g.flow_until_reference(black_box(SimTime::from_millis(100 * tick)));
            if g.reserve(hog).unwrap().is_nonempty() {
                g.consume_with_debt(&k, hog, cost).unwrap();
                runs += 1;
            } else {
                throttles += 1;
            }
        }
        (runs, throttles)
    };
    (start.elapsed().as_secs_f64() * 1e6, end_state(&g), counts)
}

/// The `ticked_runs` windows, in ticks: 18-19 ticks is the plugin's
/// sole-Ready window between page loads, and a fleet browser's shorter
/// windows are a fraction of a percent of its ticked duty runs.
const TICKED_WINDOWS: [u64; 4] = [1, 2, 4, 20];

/// Flows Fig 6b's graph an hour in `window`-tick windows, each one duty run
/// of the plugin in the flow kernel (`kernel`), or the compiled tick alone
/// with the plugin charged after each tick while its reserve is positive.
/// Returns the wall time in ns per tick, the end state, and the runs and
/// throttles.
fn ticked_runs(kernel: bool, window: u64) -> (f64, Vec<(Energy, ReserveStats)>, (u64, u64)) {
    let (mut g, plugin) = browser_graph();
    let k = Actor::kernel();
    let cost = Energy::from_microjoules(HOG_COST_UJ);
    let (mut runs, mut throttles) = (0, 0);
    let start = Instant::now();
    for _ in 0..BROWSER_TICKS / window {
        if kernel {
            let mut duty = Duty::new(plugin, cost, 0, 1, 10);
            let ticks = g.duty_run(plugin, black_box(window)).unwrap();
            assert_eq!(g.settle_duty(&mut duty, ticks), window);
            (runs, throttles) = (runs + duty.runs, throttles + duty.throttles);
        } else {
            for _ in 0..window {
                g.flow_ticks(black_box(1), false);
                if g.reserve(plugin).unwrap().is_nonempty() {
                    g.consume_with_debt(&k, plugin, cost).unwrap();
                    runs += 1;
                } else {
                    throttles += 1;
                }
            }
        }
    }
    let ns_per_tick = start.elapsed().as_secs_f64() * 1e9 / BROWSER_TICKS as f64;
    (ns_per_tick, end_state(&g), (runs, throttles))
}

/// `ticked_runs`, as a JSON object: per window, seven alternating hours per
/// side and their medians, every pair of sides asserted bit-identical.
fn ticked_runs_report() -> String {
    let (mut kernel_ns, mut compiled_ns, mut counts) = (Vec::new(), Vec::new(), (0, 0));
    for window in TICKED_WINDOWS {
        let (compiled, kernel) = paired(&format!("{window}-tick duty runs"), |kernel| {
            let (ns, end, duty) = ticked_runs(kernel, window);
            counts = duty;
            (ns, (end, duty))
        });
        println!("flow_hot_path ticked runs (Fig 6b, {window}-tick duty windows): kernel {kernel:.1} ns/tick, compiled ticks {compiled:.1} ns/tick, {} runs {} throttles", counts.0, counts.1);
        kernel_ns.push(format!("{kernel:.1}"));
        compiled_ns.push(format!("{compiled:.1}"));
    }
    let [kernel_ns, compiled_ns] =
        [kernel_ns, compiled_ns].map(|ns| format!("[{}]", ns.join(", ")));
    format!(
        "{{ \"ticks\": {BROWSER_TICKS}, \"window_ticks\": {TICKED_WINDOWS:?}, \"kernel_ns_per_tick\": {kernel_ns}, \"compiled_ns_per_tick\": {compiled_ns}, \"runs\": {}, \"throttles\": {}, \"bit_identical\": true }}",
        counts.0, counts.1
    )
}

/// Ticks `lane_pairs` flows each graph from empty: the pollers' lanes,
/// fed 37.5 mW, reach their band-jump range after about 10,750.
const PAIR_TICKS: u64 = 10_000;

/// Ticks per `flow_until` call of `lane_pairs`.
const PAIR_SPAN_TICKS: u64 = 200;

/// Graphs per timed `lane_pairs` run.
const PAIR_GRAPHS: u64 = 8;

/// Flows `PAIR_GRAPHS` fresh `build()` graphs `PAIR_TICKS` ticks each in
/// `PAIR_SPAN_TICKS`-tick spans, through the engine or the reference.
/// Returns the wall time in ns per lane-tick, `lanes` lanes a graph, and
/// the last graph's end state. On the engine every lane-tick is stepped.
fn pair_spans(
    build: fn() -> ResourceGraph,
    lanes: u64,
    engine: bool,
) -> (f64, Vec<(Energy, ReserveStats)>) {
    let mut graphs: Vec<_> = (0..PAIR_GRAPHS).map(|_| build()).collect();
    let start = Instant::now();
    for g in &mut graphs {
        for span in 1..=PAIR_TICKS / PAIR_SPAN_TICKS {
            let now = black_box(SimTime::from_millis(100 * PAIR_SPAN_TICKS * span));
            if engine {
                g.flow_until(now);
            } else {
                g.flow_until_reference(now);
            }
        }
    }
    let lane_ticks = PAIR_GRAPHS * PAIR_TICKS * lanes;
    let ns = start.elapsed().as_secs_f64() * 1e9 / lane_ticks as f64;
    let last = graphs.last().expect("PAIR_GRAPHS > 0");
    if engine {
        assert_eq!(last.lane_ticks(), (PAIR_TICKS * lanes, PAIR_TICKS * lanes));
    }
    (ns, end_state(last))
}

/// `lane_pairs`, as a JSON object: ns per lane-tick of two lanes stepped
/// as a pair and of one stepped alone, the median of seven runs a side,
/// alternating which goes first, each side's end state asserted
/// bit-identical with the reference's.
fn lane_pairs() -> String {
    let sides: [(fn() -> ResourceGraph, u64); 2] = [(decay_lane_graph, 1), (idle_pollers_graph, 2)];
    for (build, lanes) in sides {
        assert_eq!(
            pair_spans(build, lanes, true).1,
            pair_spans(build, lanes, false).1,
            "engine and reference diverged on {lanes} lanes"
        );
    }
    let mut ns = [Vec::new(), Vec::new()];
    for run in 0..7 {
        for side in [run % 2, 1 - run % 2] {
            let (build, lanes) = sides[side];
            ns[side].push(pair_spans(build, lanes, true).0);
        }
    }
    let [alone, paired] = ns.map(|mut v| median(&mut v));
    println!("flow_hot_path lane pairs: {paired:.2} ns per lane-tick paired, {alone:.2} alone ({PAIR_TICKS} ticks in {PAIR_SPAN_TICKS}-tick spans)");
    format!(
        "{{ \"ticks\": {PAIR_TICKS}, \"ticks_per_span\": {PAIR_SPAN_TICKS}, \"paired_ns_per_lane_tick\": {paired:.2}, \"alone_ns_per_lane_tick\": {alone:.2}, \"bit_identical\": true }}"
    )
}

/// The band lengths `lane_closed_forms` times, in ticks.
const BAND_TICKS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Leak bands per timed span.
const SPAN_BANDS: u64 = 16;

/// A lane the battery feeds 100 mW (10¹⁰ µJ·10⁻⁶ a tick), started below
/// its equilibrium x* = 10¹⁰/ppm µJ by 10¹²/(ppm²·`band`): there it rises
/// 10⁶/(ppm·`band`) µJ a tick, so it crosses each leak band, 10⁶/ppm µJ
/// wide, in about `band` ticks.
fn band_graph(band: u64) -> ResourceGraph {
    let config = GraphConfig::default();
    let ppm = i64::try_from(config.decay.unwrap().leak_ppm_per_tick(config.flow_tick)).unwrap();
    let mut g = ResourceGraph::new(Energy::from_joules(15_000));
    let k = Actor::kernel();
    let battery = g.battery();
    let lane = g
        .create_reserve(&k, "lane", Label::default_label())
        .unwrap();
    let below = 1_000_000_000_000 / (ppm * ppm * band as i64);
    let start = Energy::from_microjoules(10_000_000_000 / ppm - below);
    g.transfer(&k, battery, lane, start).unwrap();
    g.create_tap(
        &k,
        "feed",
        battery,
        lane,
        RateSpec::constant(Power::from_milliwatts(100)),
        Label::default_label(),
    )
    .unwrap();
    g
}

/// A lane the battery feeds 37.505 mW, half a µJ a tick over leak q =
/// 3,750, started at the top of q's band: it hovers at the boundary with
/// q + 1's band, on one side of it one tick and on the other the next.
fn hover_graph() -> ResourceGraph {
    let config = GraphConfig::default();
    let ppm = config.decay.unwrap().leak_ppm_per_tick(config.flow_tick);
    let q: u64 = 3_750;
    let top = ((q + 1) * 1_000_000).div_ceil(ppm) - 1;
    let mut g = ResourceGraph::new(Energy::from_joules(15_000));
    let k = Actor::kernel();
    let battery = g.battery();
    let lane = g
        .create_reserve(&k, "lane", Label::default_label())
        .unwrap();
    let start = Energy::from_microjoules(i64::try_from(top - q).unwrap());
    g.transfer(&k, battery, lane, start).unwrap();
    g.create_tap(
        &k,
        "feed",
        battery,
        lane,
        RateSpec::constant(Power::from_microwatts(q * 10 + 5)),
        Label::default_label(),
    )
    .unwrap();
    g
}

/// Flows fresh `build()` graphs `span` ticks each, an hour of ticks in
/// all, jumping bands (`jumps`) or stepping every tick. Returns the wall
/// time in ns per span and the end state.
fn lane_spans(
    build: impl Fn() -> ResourceGraph,
    span: u64,
    jumps: bool,
) -> (f64, Vec<(Energy, ReserveStats)>) {
    let mut graphs: Vec<_> = (0..BROWSER_TICKS / span).map(|_| build()).collect();
    let start = Instant::now();
    for g in &mut graphs {
        g.flow_lane_ticks(black_box(span), jumps);
    }
    let ns_per_span = start.elapsed().as_secs_f64() * 1e9 / graphs.len() as f64;
    (ns_per_span, end_state(&graphs[0]))
}

/// Seven runs of each side of `what`, alternating which goes first; the
/// sides' outcomes must agree run by run. Returns the median times of
/// `side(false)` and `side(true)`.
fn paired<T: PartialEq + std::fmt::Debug>(
    what: &str,
    mut side: impl FnMut(bool) -> (f64, T),
) -> (f64, f64) {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for pair in 0..7 {
        let mut sides = [None, None];
        for flag in [pair % 2 == 0, pair % 2 == 1] {
            sides[usize::from(flag)] = Some(side(flag));
        }
        let [Some((off_time, off_end)), Some((on_time, on_end))] = sides else {
            unreachable!("both sides ran");
        };
        assert_eq!(on_end, off_end, "{what} diverged");
        off.push(off_time);
        on.push(on_time);
    }
    (median(&mut off), median(&mut on))
}

/// `lane_closed_forms`, as a JSON object: seven alternating runs per side,
/// their medians, and every pair of sides asserted bit-identical.
fn lane_closed_forms() -> String {
    let mut counts = (0, 0);
    let (reference_us, settle_us) = paired("the hog's duty run", |engine| {
        let (us, end, duty) = hog_duty(engine);
        counts = duty;
        (us, (end, duty))
    });
    let (step_ns, jump_ns): (Vec<String>, Vec<String>) = BAND_TICKS
        .iter()
        .map(|&band| {
            let span = SPAN_BANDS * band;
            let (step, jump) = paired(&format!("{band}-tick bands"), |jumps| {
                lane_spans(|| band_graph(band), span, jumps)
            });
            let per_band = |ns: f64| format!("{:.0}", ns / SPAN_BANDS as f64);
            (per_band(step), per_band(jump))
        })
        .unzip();
    let [jump_ns, step_ns] = [jump_ns, step_ns].map(|ns| format!("[{}]", ns.join(", ")));
    let (hover_step, hover_jump) = paired("the hovering lane", |jumps| {
        lane_spans(hover_graph, LANE_SPAN_TICKS, jumps)
    });
    let [hover_step, hover_jump] = [hover_step, hover_jump].map(|ns| ns / LANE_SPAN_TICKS as f64);
    println!("flow_hot_path lane closed forms: hog duty run of {HOG_TICKS} ticks {settle_us:.1} us (reference {reference_us:.0} us), {} runs {} throttles; ns per band of {BAND_TICKS:?} ticks jumped {jump_ns} stepped {step_ns}; hovering lane {hover_jump:.1} ns per tick with band jumps, {hover_step:.1} stepped", counts.0, counts.1);
    format!(
        "{{ \"hog_ticks\": {HOG_TICKS}, \"hog_settle_us\": {settle_us:.2}, \"hog_reference_us\": {reference_us:.0}, \"hog_runs\": {}, \"hog_throttles\": {}, \"band_ticks\": {BAND_TICKS:?}, \"band_jumped_ns\": {jump_ns}, \"band_stepped_ns\": {step_ns}, \"hover_ticks_per_span\": {LANE_SPAN_TICKS}, \"hover_jumped_ns_per_tick\": {hover_jump:.1}, \"hover_stepped_ns_per_tick\": {hover_step:.1}, \"bit_identical\": true }}",
        counts.0, counts.1
    )
}

fn bench_flow_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_hot_path_1h_100r_200t");
    group.bench_function("engine", |b| {
        b.iter_with_setup(const_graph, |mut g| {
            g.flow_until(black_box(SIM_SPAN));
            g
        })
    });
    group.bench_function("reference", |b| {
        b.iter_with_setup(const_graph, |mut g| {
            g.flow_until_reference(black_box(SIM_SPAN));
            g
        })
    });
    group.bench_function("engine_mixed", |b| {
        b.iter_with_setup(mixed_graph, |mut g| {
            g.flow_until(black_box(SIM_SPAN));
            g
        })
    });
    group.bench_function("reference_mixed", |b| {
        b.iter_with_setup(mixed_graph, |mut g| {
            g.flow_until_reference(black_box(SIM_SPAN));
            g
        })
    });
    group.bench_function("engine_mixed_partitioned", |b| {
        b.iter_with_setup(mixed_partitioned_graph, |mut g| {
            g.flow_until(black_box(SIM_SPAN));
            g
        })
    });
    group.bench_function("reference_mixed_partitioned", |b| {
        b.iter_with_setup(mixed_partitioned_graph, |mut g| {
            g.flow_until_reference(black_box(SIM_SPAN));
            g
        })
    });
    group.bench_function("engine_multi_kind", |b| {
        b.iter_with_setup(multi_kind_graph, |mut g| {
            g.flow_until(black_box(SIM_SPAN));
            g
        })
    });
    group.bench_function("reference_multi_kind", |b| {
        b.iter_with_setup(multi_kind_graph, |mut g| {
            g.flow_until_reference(black_box(SIM_SPAN));
            g
        })
    });
    group.bench_function("engine_single_tick_browser", |b| {
        b.iter(|| browser_single_ticks(true))
    });
    group.bench_function("reference_single_tick_browser", |b| {
        b.iter(|| browser_single_ticks(false))
    });
    group.bench_function("engine_idle_decay_lanes", |b| {
        b.iter(|| idle_lane_spans(true))
    });
    group.bench_function("reference_idle_decay_lanes", |b| {
        b.iter(|| idle_lane_spans(false))
    });
    group.finish();
}

/// Timed head-to-head with a fixed iteration count, asserting bit-identical
/// results, then recorded to `BENCH_flow_hot_path.json`.
fn speedup_report(_c: &mut Criterion) {
    fn time_runs<F: Fn() -> ResourceGraph>(build: F, engine: bool, iters: u32) -> (f64, Vec<i64>) {
        let mut total = 0.0;
        let mut balances = Vec::new();
        for _ in 0..iters {
            let mut g = build();
            let start = Instant::now();
            if engine {
                g.flow_until(black_box(SIM_SPAN));
            } else {
                g.flow_until_reference(black_box(SIM_SPAN));
            }
            total += start.elapsed().as_secs_f64() * 1e3;
            balances = g
                .reserves()
                .map(|(_, r)| r.balance().as_microjoules())
                .collect();
        }
        (total / iters as f64, balances)
    }

    let (engine_ms, engine_state) = time_runs(const_graph, true, 20);
    let (reference_ms, reference_state) = time_runs(const_graph, false, 5);
    assert_eq!(
        engine_state, reference_state,
        "engine and reference diverged on the const scenario"
    );
    let speedup = reference_ms / engine_ms;

    let (engine_mixed_ms, engine_mixed_state) = time_runs(mixed_graph, true, 5);
    let (reference_mixed_ms, reference_mixed_state) = time_runs(mixed_graph, false, 5);
    assert_eq!(
        engine_mixed_state, reference_mixed_state,
        "engine and reference diverged on the mixed scenario"
    );
    let mixed_speedup = reference_mixed_ms / engine_mixed_ms;

    let (engine_island_ms, engine_island_state) = time_runs(mixed_partitioned_graph, true, 20);
    let (reference_island_ms, reference_island_state) =
        time_runs(mixed_partitioned_graph, false, 5);
    assert_eq!(
        engine_island_state, reference_island_state,
        "engine and reference diverged on the mixed-partitioned scenario"
    );
    let island_speedup = reference_island_ms / engine_island_ms;

    let (engine_mk_ms, engine_mk_state) = time_runs(multi_kind_graph, true, 20);
    let (reference_mk_ms, reference_mk_state) = time_runs(multi_kind_graph, false, 5);
    assert_eq!(
        engine_mk_state, reference_mk_state,
        "engine and reference diverged on the multi-kind scenario"
    );
    let multi_kind_speedup = reference_mk_ms / engine_mk_ms;

    // The kernel's cadence: median of seven alternating hours per side.
    let (mut engine_ns, mut reference_ns) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        let (engine_tick_ns, engine_end) = browser_single_ticks(true);
        let (reference_tick_ns, reference_end) = browser_single_ticks(false);
        assert_eq!(
            engine_end, reference_end,
            "engine and reference diverged on the single-tick browser"
        );
        engine_ns.push(engine_tick_ns);
        reference_ns.push(reference_tick_ns);
    }
    let (tick_ns, reference_tick_ns) = (median(&mut engine_ns), median(&mut reference_ns));

    // A sleeping device's idle jumps: median of seven alternating hours.
    let (mut lane_runs, mut reference_lane_runs) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        let (engine_run_ms, engine_end) = idle_lane_spans(true);
        let (reference_run_ms, reference_end) = idle_lane_spans(false);
        assert_eq!(
            engine_end, reference_end,
            "engine and reference diverged on the idle decay lanes"
        );
        lane_runs.push(engine_run_ms);
        reference_lane_runs.push(reference_run_ms);
    }
    let (lanes_ms, reference_lanes_ms) = (median(&mut lane_runs), median(&mut reference_lane_runs));
    let lanes_speedup = reference_lanes_ms / lanes_ms;

    // The planner's break-even, on both graphs.
    let [lane_planned, lane_ticked] = plan_vs_tick(decay_lane_graph, "the decay lane");
    let [fig6b_planned, fig6b_ticked] = plan_vs_tick(|| browser_graph().0, "Fig 6b");
    let closed_forms = lane_closed_forms();
    let ticked = ticked_runs_report();
    let pairs = lane_pairs();

    println!("flow_hot_path speedup (const, fast-forward): {speedup:.1}x  (reference {reference_ms:.2} ms -> engine {engine_ms:.4} ms)");
    println!("flow_hot_path speedup (mixed, partitioned):  {mixed_speedup:.1}x  (reference {reference_mixed_ms:.2} ms -> engine {engine_mixed_ms:.2} ms)");
    println!("flow_hot_path speedup (prop island):         {island_speedup:.1}x  (reference {reference_island_ms:.2} ms -> engine {engine_island_ms:.2} ms)");
    println!("flow_hot_path speedup (multi-kind, ff):      {multi_kind_speedup:.1}x  (reference {reference_mk_ms:.2} ms -> engine {engine_mk_ms:.4} ms)");
    println!("flow_hot_path single tick (Fig 6b browser):  {tick_ns:.1} ns/tick (reference {reference_tick_ns:.1} ns/tick)");
    println!("flow_hot_path idle decay lanes:              {lanes_speedup:.1}x  (reference {reference_lanes_ms:.3} ms -> engine {lanes_ms:.3} ms)");
    println!("flow_hot_path plan vs tick, ns per span of {PLAN_SPANS:?} ticks: decay lane planned {lane_planned} ticked {lane_ticked}; Fig 6b planned {fig6b_planned} ticked {fig6b_ticked}");
    assert!(
        speedup >= 5.0,
        "acceptance criterion: >=5x on the const scenario, got {speedup:.1}x"
    );
    assert!(
        mixed_speedup >= 10.0,
        "acceptance criterion: >=10x on the 20%-proportional scenario, got {mixed_speedup:.1}x"
    );
    assert!(
        multi_kind_speedup >= 5.0,
        "the multi-kind engine must not regress the all-Energy fast-forward factor: got {multi_kind_speedup:.1}x"
    );

    let json = format!(
        "{{\n  \"bench\": \"flow_hot_path\",\n  \"scenario\": {{ \"reserves\": {RESERVES}, \"taps\": {TAPS}, \"sim_seconds\": 3600, \"flow_tick_ms\": 100 }},\n  \"multi_kind_scenario\": {{ \"byte_reserves\": {BYTE_RESERVES}, \"byte_taps\": {BYTE_TAPS} }},\n  \"const_all_fast_forward\": {{ \"reference_ms\": {reference_ms:.3}, \"engine_ms\": {engine_ms:.4}, \"speedup\": {speedup:.1} }},\n  \"mixed_20pct_proportional\": {{ \"reference_ms\": {reference_mixed_ms:.3}, \"engine_ms\": {engine_mixed_ms:.3}, \"speedup\": {mixed_speedup:.2} }},\n  \"mixed_partitioned_island\": {{ \"reference_ms\": {reference_island_ms:.3}, \"engine_ms\": {engine_island_ms:.3}, \"speedup\": {island_speedup:.1} }},\n  \"multi_kind_all_fast_forward\": {{ \"reference_ms\": {reference_mk_ms:.3}, \"engine_ms\": {engine_mk_ms:.4}, \"speedup\": {multi_kind_speedup:.1} }},\n  \"single_tick_browser\": {{ \"ticks\": {BROWSER_TICKS}, \"engine_ns_per_tick\": {tick_ns:.1}, \"reference_ns_per_tick\": {reference_tick_ns:.1}, \"bit_identical\": true }},\n  \"idle_decay_lanes\": {{ \"ticks\": {BROWSER_TICKS}, \"ticks_per_span\": {LANE_SPAN_TICKS}, \"engine_ms\": {lanes_ms:.4}, \"reference_ms\": {reference_lanes_ms:.3}, \"speedup\": {lanes_speedup:.1}, \"bit_identical\": true }},\n  \"plan_vs_tick\": {{ \"ticks\": {BROWSER_TICKS}, \"ticks_per_span\": {PLAN_SPANS:?}, \"decay_lane_planned_ns\": {lane_planned}, \"decay_lane_ticked_ns\": {lane_ticked}, \"fig6b_planned_ns\": {fig6b_planned}, \"fig6b_ticked_ns\": {fig6b_ticked}, \"bit_identical\": true }},\n  \"lane_closed_forms\": {closed_forms},\n  \"ticked_runs\": {ticked},\n  \"lane_pairs\": {pairs}\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_flow_hot_path.json"
    );
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("(wrote {path})");
    }
}

criterion_group!(benches, bench_flow_hot_path, speedup_report);
criterion_main!(benches);
