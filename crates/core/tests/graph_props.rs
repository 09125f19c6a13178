//! Property tests for the resource consumption graph.
//!
//! The central invariant: **energy is conserved exactly**. Whatever random
//! topology of reserves and taps is built, however flows/transfers/consumes
//! interleave, `injected == Σ balances + consumed` holds to the microjoule.

use cinder_core::{Actor, GraphConfig, GraphError, RateSpec, ReserveId, ResourceGraph};
use cinder_label::Label;
use cinder_sim::{Energy, Power, SimDuration, SimTime};
use proptest::prelude::*;

/// A randomised graph operation.
#[derive(Debug, Clone)]
enum Op {
    CreateReserve,
    CreateConstTap { src: usize, dst: usize, mw: u64 },
    CreatePropTap { src: usize, dst: usize, ppm: u64 },
    Transfer { src: usize, dst: usize, mj: u64 },
    Consume { r: usize, mj: u64 },
    ConsumeWithDebt { r: usize, mj: u64 },
    DeleteReserve { r: usize },
    Flow { ms: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::CreateReserve),
        (0usize..8, 0usize..8, 0u64..2_000).prop_map(|(src, dst, mw)| Op::CreateConstTap {
            src,
            dst,
            mw
        }),
        (0usize..8, 0usize..8, 0u64..1_000_000).prop_map(|(src, dst, ppm)| Op::CreatePropTap {
            src,
            dst,
            ppm
        }),
        (0usize..8, 0usize..8, 0u64..5_000).prop_map(|(src, dst, mj)| Op::Transfer {
            src,
            dst,
            mj
        }),
        (0usize..8, 0u64..5_000).prop_map(|(r, mj)| Op::Consume { r, mj }),
        (0usize..8, 0u64..5_000).prop_map(|(r, mj)| Op::ConsumeWithDebt { r, mj }),
        (1usize..8).prop_map(|r| Op::DeleteReserve { r }),
        (1u64..5_000).prop_map(|ms| Op::Flow { ms }),
    ]
}

/// Applies ops to a graph, tolerating expected errors (insufficient funds,
/// stale ids), and asserts conservation after every step.
fn run_ops(mut g: ResourceGraph, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let k = Actor::kernel();
    let mut ids: Vec<ReserveId> = vec![g.battery()];
    let mut now = SimTime::ZERO;
    for op in ops {
        match op {
            Op::CreateReserve => {
                let id = g
                    .create_reserve(&k, "r", Label::default_label())
                    .expect("kernel create cannot fail");
                ids.push(id);
            }
            Op::CreateConstTap { src, dst, mw } => {
                let s = ids[src % ids.len()];
                let d = ids[dst % ids.len()];
                let _ = g.create_tap(
                    &k,
                    "t",
                    s,
                    d,
                    RateSpec::constant(Power::from_milliwatts(mw)),
                    Label::default_label(),
                );
            }
            Op::CreatePropTap { src, dst, ppm } => {
                let s = ids[src % ids.len()];
                let d = ids[dst % ids.len()];
                let _ = g.create_tap(
                    &k,
                    "p",
                    s,
                    d,
                    RateSpec::Proportional { ppm_per_s: ppm },
                    Label::default_label(),
                );
            }
            Op::Transfer { src, dst, mj } => {
                let s = ids[src % ids.len()];
                let d = ids[dst % ids.len()];
                let _ = g.transfer(&k, s, d, Energy::from_millijoules(mj as i64));
            }
            Op::Consume { r, mj } => {
                let id = ids[r % ids.len()];
                let _ = g.consume(&k, id, Energy::from_millijoules(mj as i64));
            }
            Op::ConsumeWithDebt { r, mj } => {
                let id = ids[r % ids.len()];
                let _ = g.consume_with_debt(&k, id, Energy::from_millijoules(mj as i64));
            }
            Op::DeleteReserve { r } => {
                if ids.len() > 1 {
                    let idx = 1 + (r % (ids.len() - 1));
                    let id = ids.remove(idx);
                    let _ = g.delete_reserve(&k, id);
                }
            }
            Op::Flow { ms } => {
                now += SimDuration::from_millis(ms);
                g.flow_until(now);
            }
        }
        let t = g.totals();
        prop_assert!(
            t.conserved(),
            "conservation violated after {op:?}: injected={:?} balances={:?} consumed={:?}",
            t.injected,
            t.balances,
            t.consumed
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conservation_with_decay(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let g = ResourceGraph::new(Energy::from_joules(15_000));
        run_ops(g, ops)?;
    }

    #[test]
    fn conservation_without_decay(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let g = ResourceGraph::with_config(
            Energy::from_joules(15_000),
            GraphConfig { decay: None, ..GraphConfig::default() },
        );
        run_ops(g, ops)?;
    }

    #[test]
    fn conservation_in_strict_mode(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let g = ResourceGraph::with_config(
            Energy::from_joules(15_000),
            GraphConfig { strict_anti_hoarding: true, ..GraphConfig::default() },
        );
        run_ops(g, ops)?;
    }

    /// Taps never manufacture energy: with no consumption, a fully-connected
    /// random tap mesh leaves the total balance exactly equal to the initial
    /// injection.
    #[test]
    fn tap_mesh_preserves_total(
        taps in proptest::collection::vec((0usize..5, 0usize..5, 0u64..3_000), 0..15),
        secs in 1u64..120,
    ) {
        let mut g = ResourceGraph::with_config(
            Energy::from_joules(100),
            GraphConfig { decay: None, ..GraphConfig::default() },
        );
        let k = Actor::kernel();
        let mut ids = vec![g.battery()];
        for i in 0..4 {
            ids.push(g.create_reserve(&k, &format!("r{i}"), Label::default_label()).unwrap());
        }
        for (s, d, mw) in taps {
            let _ = g.create_tap(
                &k,
                "t",
                ids[s % ids.len()],
                ids[d % ids.len()],
                RateSpec::constant(Power::from_milliwatts(mw)),
                Label::default_label(),
            );
        }
        g.flow_until(SimTime::from_secs(secs));
        let t = g.totals();
        prop_assert_eq!(t.balances, Energy::from_joules(100));
        prop_assert_eq!(t.consumed, Energy::ZERO);
    }

    /// A reserve fed only by a constant tap never exceeds rate × time.
    #[test]
    fn const_tap_rate_is_an_upper_bound(mw in 1u64..5_000, secs in 1u64..600) {
        let mut g = ResourceGraph::with_config(
            Energy::from_joules(15_000),
            GraphConfig { decay: None, ..GraphConfig::default() },
        );
        let k = Actor::kernel();
        let r = g.create_reserve(&k, "r", Label::default_label()).unwrap();
        g.create_tap(
            &k,
            "t",
            g.battery(),
            r,
            RateSpec::constant(Power::from_milliwatts(mw)),
            Label::default_label(),
        ).unwrap();
        g.flow_until(SimTime::from_secs(secs));
        let level = g.level(&k, r).unwrap();
        let bound = Power::from_milliwatts(mw).energy_over(SimDuration::from_secs(secs));
        prop_assert!(level <= bound, "level {level:?} > bound {bound:?}");
        // And it is within one tick of the bound (no systematic loss).
        let one_tick = Power::from_milliwatts(mw).energy_over(SimDuration::from_millis(100));
        prop_assert!(bound - level <= one_tick + Energy::from_microjoules(1));
    }

    /// Decay only ever moves energy back to the battery: an untouched
    /// reserve's balance is non-increasing and never negative.
    #[test]
    fn decay_is_monotone_and_bounded(start_j in 1i64..1_000, steps in 1u64..50) {
        let mut g = ResourceGraph::new(Energy::from_joules(15_000));
        let k = Actor::kernel();
        let r = g.create_reserve(&k, "idle", Label::default_label()).unwrap();
        g.transfer(&k, g.battery(), r, Energy::from_joules(start_j)).unwrap();
        let mut prev = g.level(&k, r).unwrap();
        for i in 1..=steps {
            g.flow_until(SimTime::from_secs(i * 30));
            let cur = g.level(&k, r).unwrap();
            prop_assert!(cur <= prev);
            prop_assert!(!cur.is_negative());
            prev = cur;
        }
        prop_assert!(g.totals().conserved());
    }
}

/// A proportional rate above 1,000,000 ppm/s — more than the whole source
/// level per second — is refused at creation and on re-rate, so no flow
/// tick can move more than the source holds.
#[test]
fn out_of_range_proportional_rates_are_refused() {
    let mut g = ResourceGraph::with_config(
        Energy::from_joules(1_000),
        GraphConfig {
            decay: None,
            ..GraphConfig::default()
        },
    );
    let k = Actor::kernel();
    let source = g
        .create_reserve(&k, "source", Label::default_label())
        .unwrap();
    let sink = g
        .create_reserve(&k, "sink", Label::default_label())
        .unwrap();
    g.transfer(&k, g.battery(), source, Energy::from_joules(10))
        .unwrap();
    for ppm_per_s in [1_000_001, u64::MAX] {
        let hog = RateSpec::Proportional { ppm_per_s };
        assert_eq!(
            g.create_tap(&k, "hog", source, sink, hog, Label::default_label()),
            Err(GraphError::InvalidAmount),
            "{ppm_per_s} ppm/s"
        );
    }
    // The whole level per second is the legal maximum.
    let whole = RateSpec::Proportional {
        ppm_per_s: 1_000_000,
    };
    let tap = g
        .create_tap(&k, "whole", source, sink, whole, Label::default_label())
        .unwrap();
    assert_eq!(
        g.set_tap_rate(
            &k,
            tap,
            RateSpec::Proportional {
                ppm_per_s: u64::MAX
            }
        ),
        Err(GraphError::InvalidAmount)
    );
    assert_eq!(g.tap(tap).unwrap().rate(), whole);
    g.flow_until(SimTime::from_millis(100));
    assert_eq!(g.level(&k, sink).unwrap(), Energy::from_joules(1));
    assert_eq!(g.level(&k, source).unwrap(), Energy::from_joules(9));
    assert!(g.totals().conserved());
}
