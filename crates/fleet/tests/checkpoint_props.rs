//! Checkpoint byte pins and hostile-input properties.
//!
//! * The checkpoint text and the streamed histogram CSV of a small fleet
//!   with live offload, policy and fault telemetry are pinned by digest:
//!   the fleetbench pins cover the report JSON and CSV, and nothing else
//!   covers these bytes.
//! * Random mutations of a real checkpoint — byte flips, truncations,
//!   adjacent-line swaps, and digit flips re-signed with a valid checksum
//!   — never panic the parser, and any checkpoint it accepts resumes and
//!   renders without panicking.

use std::sync::OnceLock;

use cinder_fleet::{checkpoint_fleet, resume_fleet, FleetCheckpoint, Scenario};
use cinder_sim::SimDuration;
use proptest::prelude::*;

/// FNV-1a 64, the checkpoint's own checksum function.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Offloaders, coop pollers and spinners under heavy faults with the
/// user-aware policy: every accumulator family is live.
fn pinned_fleet() -> Scenario {
    Scenario {
        horizon: SimDuration::from_secs(1_800),
        ..Scenario::fault_heavy("pin", 41, 8)
    }
}

/// The pinned fleet checkpointed at its last device, as text.
fn pinned_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let scenario = pinned_fleet();
        checkpoint_fleet(&scenario, u64::from(scenario.devices), 2).to_text()
    })
}

/// Replaces the checksum line of `text` with one computed over its body.
fn resign(text: &str) -> String {
    let body_end = text.rfind("\nchecksum ").map_or(text.len(), |i| i + 1);
    let body = &text[..body_end];
    format!("{body}checksum {:016x}\nend\n", fnv1a_64(body.as_bytes()))
}

#[test]
fn checkpoint_and_histogram_bytes_are_pinned() {
    let scenario = pinned_fleet();
    let text = pinned_text();
    let cp = FleetCheckpoint::from_text(text).expect("a fresh checkpoint parses");
    let report = resume_fleet(&cp, &scenario, 1).expect("identity matches");
    let s = &report.summary;
    assert!(s.offload_completed() > 0, "{}", report.to_json());
    assert!(s.policy_rerates() > 0, "{}", report.to_json());
    assert!(
        s.link_flaps() > 0 && s.crashes() > 0,
        "{}",
        report.to_json()
    );
    assert!(s.retries() > 0, "{}", report.to_json());
    assert_eq!(
        format!("{:016x}", fnv1a_64(text.as_bytes())),
        "23503bf1d3c360db",
        "checkpoint text moved"
    );
    assert_eq!(
        format!("{:016x}", fnv1a_64(report.histograms_csv().as_bytes())),
        "c5711ce133a3d2e2",
        "histogram CSV moved"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever the mutation, `from_text` returns instead of panicking, and
    /// an accepted checkpoint resumes (or names an identity mismatch) and
    /// renders its JSON and histograms.
    #[test]
    fn mutated_checkpoints_never_panic(
        kind in 0u8..4,
        at in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let text = pinned_text();
        let mutated = match kind {
            // One flipped bit in one byte (low seven bits keep it ASCII).
            0 => {
                let mut bytes = text.as_bytes().to_vec();
                let i = (at % bytes.len() as u64) as usize;
                bytes[i] ^= 1 << (pick % 7);
                String::from_utf8(bytes).expect("ASCII stays ASCII")
            }
            // Truncation at any byte.
            1 => text[..(at % text.len() as u64) as usize].to_string(),
            // Two adjacent lines swapped.
            2 => {
                let mut lines: Vec<&str> = text.lines().collect();
                let i = (at % (lines.len() as u64 - 1)) as usize;
                lines.swap(i, i + 1);
                lines.join("\n") + "\n"
            }
            // One body digit changed, then re-signed so only the field
            // parser stands between the edit and the summary.
            _ => {
                let body_end = text.rfind("\nchecksum ").expect("checksum line");
                let digits: Vec<usize> = text[..body_end]
                    .bytes()
                    .enumerate()
                    .filter(|(_, b)| b.is_ascii_digit())
                    .map(|(i, _)| i)
                    .collect();
                let i = digits[(at % digits.len() as u64) as usize];
                let old = text.as_bytes()[i] - b'0';
                let new = (old + 1 + (pick % 9) as u8) % 10;
                let mut edited = text.to_string();
                edited.replace_range(i..i + 1, &new.to_string());
                resign(&edited)
            }
        };
        if let Ok(cp) = FleetCheckpoint::from_text(&mutated) {
            if let Ok(report) = resume_fleet(&cp, &pinned_fleet(), 1) {
                let json = report.to_json();
                prop_assert!(json.ends_with("}\n"), "unterminated JSON: {json}");
                prop_assert!(!report.histograms_csv().is_empty(), "empty histograms");
            }
        }
    }
}
