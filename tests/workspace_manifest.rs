//! The root manifest's `default-members` must name every workspace member:
//! `cargo test` at the root (the tier-1 and CI test command) runs exactly
//! the default members, so a crate missing there drops out of the suite.

fn list(manifest: &str, key: &str) -> Vec<String> {
    let start = manifest
        .find(&format!("\n{key} = ["))
        .unwrap_or_else(|| panic!("`{key}` not found in Cargo.toml"));
    let body = &manifest[start + 1..];
    let end = body.find(']').expect("unterminated list");
    body[..end]
        .lines()
        .skip(1)
        .map(|line| line.trim().trim_end_matches(',').trim_matches('"'))
        .filter(|entry| !entry.is_empty() && !entry.starts_with('#'))
        .map(str::to_owned)
        .collect()
}

#[test]
fn default_members_cover_every_member() {
    let manifest = include_str!("../Cargo.toml");
    let members = list(manifest, "members");
    let defaults = list(manifest, "default-members");
    assert!(members.len() >= 12, "parsed members: {members:?}");
    let missing: Vec<_> = members.iter().filter(|m| !defaults.contains(m)).collect();
    assert!(missing.is_empty(), "not in default-members: {missing:?}");
    assert!(defaults.iter().any(|d| d == "."), "the facade itself");
}
