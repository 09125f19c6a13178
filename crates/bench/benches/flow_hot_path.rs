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
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use cinder_core::{
    Actor, GraphConfig, Quantity, RateSpec, ReserveId, ReserveStats, ResourceGraph, ResourceKind,
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
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
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

    println!("flow_hot_path speedup (const, fast-forward): {speedup:.1}x  (reference {reference_ms:.2} ms -> engine {engine_ms:.4} ms)");
    println!("flow_hot_path speedup (mixed, partitioned):  {mixed_speedup:.1}x  (reference {reference_mixed_ms:.2} ms -> engine {engine_mixed_ms:.2} ms)");
    println!("flow_hot_path speedup (prop island):         {island_speedup:.1}x  (reference {reference_island_ms:.2} ms -> engine {engine_island_ms:.2} ms)");
    println!("flow_hot_path speedup (multi-kind, ff):      {multi_kind_speedup:.1}x  (reference {reference_mk_ms:.2} ms -> engine {engine_mk_ms:.4} ms)");
    println!("flow_hot_path single tick (Fig 6b browser):  {tick_ns:.1} ns/tick (reference {reference_tick_ns:.1} ns/tick)");
    println!("flow_hot_path idle decay lanes:              {lanes_speedup:.1}x  (reference {reference_lanes_ms:.3} ms -> engine {lanes_ms:.3} ms)");
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
        "{{\n  \"bench\": \"flow_hot_path\",\n  \"scenario\": {{ \"reserves\": {RESERVES}, \"taps\": {TAPS}, \"sim_seconds\": 3600, \"flow_tick_ms\": 100 }},\n  \"multi_kind_scenario\": {{ \"byte_reserves\": {BYTE_RESERVES}, \"byte_taps\": {BYTE_TAPS} }},\n  \"const_all_fast_forward\": {{ \"reference_ms\": {reference_ms:.3}, \"engine_ms\": {engine_ms:.4}, \"speedup\": {speedup:.1} }},\n  \"mixed_20pct_proportional\": {{ \"reference_ms\": {reference_mixed_ms:.3}, \"engine_ms\": {engine_mixed_ms:.3}, \"speedup\": {mixed_speedup:.2} }},\n  \"mixed_partitioned_island\": {{ \"reference_ms\": {reference_island_ms:.3}, \"engine_ms\": {engine_island_ms:.3}, \"speedup\": {island_speedup:.1} }},\n  \"multi_kind_all_fast_forward\": {{ \"reference_ms\": {reference_mk_ms:.3}, \"engine_ms\": {engine_mk_ms:.4}, \"speedup\": {multi_kind_speedup:.1} }},\n  \"single_tick_browser\": {{ \"ticks\": {BROWSER_TICKS}, \"engine_ns_per_tick\": {tick_ns:.1}, \"reference_ns_per_tick\": {reference_tick_ns:.1}, \"bit_identical\": true }},\n  \"idle_decay_lanes\": {{ \"ticks\": {BROWSER_TICKS}, \"ticks_per_span\": {LANE_SPAN_TICKS}, \"engine_ms\": {lanes_ms:.4}, \"reference_ms\": {reference_lanes_ms:.3}, \"speedup\": {lanes_speedup:.1}, \"bit_identical\": true }}\n}}\n"
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
