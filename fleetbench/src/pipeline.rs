//! The three scenario families and the untraced end-to-end pipeline each
//! one runs through the public fleet API.

use cinder_fleet::{
    checkpoint_fleet, resume_fleet, run_fleet_with, stream_fleet_with, FleetCheckpoint,
    FleetReport, Scenario,
};

/// A benchmark workload: one existing scenario family plus the fleet path
/// it is driven through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `Scenario::mixed`, 1 h, retained path with CSV + JSON export.
    Mixed,
    /// `Scenario::steady_heavy`, 24 h, streaming path.
    Steady,
    /// Every workload tag under the fault-heavy offload/policy/fault layers,
    /// 1 h, streamed to a split point, checkpointed and resumed.
    Storm,
}

impl Family {
    /// Every family, in the order the docs list them.
    pub const ALL: [Family; 3] = [Family::Mixed, Family::Steady, Family::Storm];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Family::Mixed => "mixed",
            Family::Steady => "steady",
            Family::Storm => "storm",
        }
    }

    /// Inverse of [`Family::name`].
    pub fn parse(name: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.name() == name)
    }

    /// The family's fleet: a pure function of the fleet seed and size.
    pub fn scenario(self, seed: u64, devices: u32) -> Scenario {
        let name = format!("fleetbench-{}", self.name());
        match self {
            Family::Mixed => Scenario::mixed(&name, seed, devices),
            Family::Steady => Scenario::steady_heavy(&name, seed, devices),
            Family::Storm => Scenario {
                mix: Scenario::all_workloads(&name, seed, devices).mix,
                ..Scenario::fault_heavy(&name, seed, devices)
            },
        }
    }
}

/// Where `storm` pauses its fleet: three sevenths of the way, which falls
/// off the executors' 16-device chunk grid.
pub fn split_point(devices: u32) -> u64 {
    u64::from(devices) * 3 / 7
}

/// What one pipeline run leaves behind.
pub struct Output {
    /// The exported text the digest covers: `mixed` JSON followed by CSV,
    /// `steady` stream JSON, `storm` resumed stream JSON.
    pub text: String,
    /// The retained report (`mixed` only), for the per-row cross check.
    pub retained: Option<FleetReport>,
    /// The paused fleet (`storm` only), for the checkpoint layer metrics.
    pub checkpoint: Option<FleetCheckpoint>,
}

/// Runs the family's whole pipeline on `workers` threads: simulate,
/// aggregate, and export (or checkpoint, reload and resume).
pub fn run(family: Family, scenario: &Scenario, workers: usize) -> Result<Output, String> {
    match family {
        Family::Mixed => {
            let report = run_fleet_with(scenario, workers);
            let mut text = report.to_json();
            text.push_str(&report.to_csv());
            Ok(Output {
                text,
                retained: Some(report),
                checkpoint: None,
            })
        }
        Family::Steady => Ok(Output {
            text: stream_fleet_with(scenario, workers).to_json(),
            retained: None,
            checkpoint: None,
        }),
        Family::Storm => {
            let checkpoint = checkpoint_fleet(scenario, split_point(scenario.devices), workers);
            let restored = FleetCheckpoint::from_text(&checkpoint.to_text())?;
            let resumed = resume_fleet(&restored, scenario, workers)?;
            Ok(Output {
                text: resumed.to_json(),
                retained: None,
                checkpoint: Some(checkpoint),
            })
        }
    }
}
