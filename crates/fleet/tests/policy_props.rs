//! Policy-engine fleet properties: the user-aware policy layer must ride
//! the determinism contract unchanged.
//!
//! * `policy_heavy` fleets are byte-identical across 1/2/4 workers, in
//!   both the retained and the streaming path.
//! * Fast-forward on vs off yields byte-identical per-device reports with
//!   a policy ticking (a pending re-rate must end the run span).
//! * A checkpointed split run with policies enabled equals a single run
//!   byte-for-byte through the v4 text format.
//! * Old checkpoint format versions (v1–v3) are rejected with an error
//!   naming both versions.
//! * Adding a policy to a scenario must not perturb the per-device RNG
//!   draws (battery, jitter, kernel seed are drawn before the config is
//!   copied in).

use cinder_fleet::{
    checkpoint_fleet, resume_fleet, run_fleet_with, simulate_device, stream_fleet_with,
    FleetCheckpoint, PolicyConfig, PolicyVariant, Scenario, CHECKPOINT_FORMAT,
};
use cinder_sim::SimDuration;
use proptest::prelude::*;

fn quick(seed: u64, devices: u32) -> Scenario {
    Scenario {
        horizon: SimDuration::from_secs(600),
        ..Scenario::policy_heavy("policy-prop", seed, devices)
    }
}

#[test]
fn policy_fleet_is_worker_invariant() {
    let scenario = quick(31, 24);
    let retained_one = run_fleet_with(&scenario, 1);
    let streamed_one = stream_fleet_with(&scenario, 1);
    assert!(
        streamed_one.summary.policy_rerates() > 0,
        "a user-aware fleet must actually re-rate taps"
    );
    for threads in [2usize, 4] {
        let retained = run_fleet_with(&scenario, threads);
        assert_eq!(retained_one, retained, "{threads} workers (retained)");
        assert_eq!(
            retained_one.to_csv(),
            retained.to_csv(),
            "{threads} workers (CSV)"
        );
        let streamed = stream_fleet_with(&scenario, threads);
        assert_eq!(
            streamed_one.summary, streamed.summary,
            "{threads} workers (streamed)"
        );
        assert_eq!(
            streamed_one.to_json(),
            streamed.to_json(),
            "{threads} workers (JSON)"
        );
    }
}

#[test]
fn split_run_equals_single_run_with_policies() {
    let scenario = quick(47, 18);
    let single = stream_fleet_with(&scenario, 1).to_json();
    for split in [0u64, 5, 16, 18] {
        let cp = checkpoint_fleet(&scenario, split, 2);
        let revived = FleetCheckpoint::from_text(&cp.to_text()).expect("round-trip");
        assert_eq!(revived, cp, "split at {split}");
        let resumed = resume_fleet(&revived, &scenario, 3).expect("identity matches");
        assert_eq!(resumed.to_json(), single, "split at {split}");
    }
}

#[test]
fn old_checkpoint_versions_are_rejected_by_name() {
    let scenario = quick(3, 4);
    let current = checkpoint_fleet(&scenario, 2, 1).to_text();
    assert!(current.starts_with(CHECKPOINT_FORMAT));
    for old in ["v1", "v2", "v3"] {
        // A real current-format body under an old header: the parser must
        // refuse at the version line, not limp through the layout.
        let downgraded = current.replacen("v4", old, 1);
        let err = FleetCheckpoint::from_text(&downgraded).unwrap_err();
        assert!(
            err.contains(old) && err.contains("v4"),
            "error must name both versions: {err}"
        );
    }
}

#[test]
fn policy_config_does_not_perturb_device_draws() {
    let with = quick(71, 12);
    let without = Scenario {
        policy: None,
        ..with.clone()
    };
    for id in 0..12u64 {
        let mut a = with.spec_for(id);
        let b = without.spec_for(id);
        assert!(a.policy.is_some() && b.policy.is_none());
        a.policy = None;
        assert_eq!(a, b, "device {id}: policy config leaked into the draws");
    }
}

#[test]
fn variant_none_matches_no_policy_kernel_behaviour() {
    // `Some(Variant::None)` runs the tick loop (and generates presence
    // telemetry) but must leave the kernel untouched: every
    // kernel-observed field equals the policy-free run.
    let base = quick(53, 6);
    let none = Scenario {
        policy: Some(PolicyConfig::new(
            PolicyVariant::None,
            SimDuration::from_secs(3_600),
        )),
        ..base.clone()
    };
    let bare = Scenario {
        policy: None,
        ..base
    };
    for id in 0..6u64 {
        let mut ticked = simulate_device(&none.spec_for(id));
        let plain = simulate_device(&bare.spec_for(id));
        assert_eq!(ticked.policy_rerates, 0, "device {id}");
        assert_eq!(ticked.policy_demotions, 0, "device {id}");
        // Presence telemetry and the target verdict are the only deltas.
        ticked.presence_active_s = 0;
        ticked.presence_ambient_s = 0;
        ticked.presence_away_s = 0;
        ticked.presence_asleep_s = 0;
        ticked.lifetime_target_hit = false;
        assert_eq!(ticked, plain, "device {id}");
    }
}

#[test]
fn user_aware_policy_extends_lifetime_over_no_policy() {
    let aware = quick(11, 16);
    let bare = Scenario {
        policy: None,
        ..aware.clone()
    };
    let with = stream_fleet_with(&aware, 2).summary;
    let without = stream_fleet_with(&bare, 2).summary;
    assert!(
        with.fleet_energy_j() < without.fleet_energy_j(),
        "throttling must save energy: {} vs {} J",
        with.fleet_energy_j(),
        without.fleet_energy_j()
    );
    assert!(with.policy_rerates() > 0);
    // Whole-second truncation loses at most a second per presence
    // segment, so the sum sits just under devices × horizon.
    let p = with.presence_s();
    let total: u128 = p.iter().sum();
    assert!(
        (16 * 600 * 95 / 100..=16 * 600).contains(&total),
        "presence seconds must cover the device-horizons: {p:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole's determinism clause: with a policy ticking, random
    /// `policy_heavy` fleets simulate byte-identically with fast-forward
    /// on and off, and stream byte-identically across worker counts.
    #[test]
    fn policy_steady_vs_stepped_and_worker_counts(
        seed in 0u64..1_000,
        devices in 3u32..8,
        threads in 2usize..5,
    ) {
        let scenario = Scenario {
            horizon: SimDuration::from_secs(300),
            ..Scenario::policy_heavy("policy-diff", seed, devices)
        };
        for spec in scenario.specs() {
            let mut on = spec.clone();
            on.fast_forward = true;
            let mut off = spec;
            off.fast_forward = false;
            prop_assert_eq!(simulate_device(&on), simulate_device(&off));
        }
        let a = stream_fleet_with(&scenario, 1);
        let b = stream_fleet_with(&scenario, threads);
        prop_assert_eq!(a.summary.clone(), b.summary.clone());
        prop_assert_eq!(a.to_json(), b.to_json());
    }
}
