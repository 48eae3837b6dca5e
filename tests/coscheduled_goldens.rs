//! Byte-exact golden pins for the co-scheduled experiments (DESIGN.md
//! §13) and the phased scenario generator: `tenants_shared` (three
//! tenants, one arbitrated pool) and `scen_storm` (32 mixed-policy
//! tenants) are the registry entries whose event order the co-scheduled
//! runner decides, so any drift in that order shows up here as changed
//! bytes; `scen_fleet` runs the phased generator on the sharded path, so
//! drift in the generator's stream shows up here without the scheduler.
//!
//! `scripts/golden.sh check` compares within per-field float bands; this
//! test holds the artifacts to the committed `goldens/<id>.json` byte for
//! byte, in tier-1.

use thermostat_suite::bench::experiments;
use thermostat_suite::bench::golden::{canonical_json, golden_dir};
use thermostat_suite::bench::EvalParams;

fn assert_matches_golden(id: &str) {
    let exp = experiments::by_id(id).unwrap_or_else(|| panic!("`{id}` is not registered"));
    let got = canonical_json(&(exp.run)(&EvalParams::smoke()));
    let path = golden_dir().join(format!("{id}.json"));
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert!(
        got == want,
        "{id}: artifact bytes differ from {} — the event order or the workload stream changed",
        path.display()
    );
}

#[test]
fn tenants_shared_matches_its_golden_byte_for_byte() {
    assert_matches_golden("tenants_shared");
}

#[test]
fn scen_storm_matches_its_golden_byte_for_byte() {
    assert_matches_golden("scen_storm");
}

#[test]
fn scen_fleet_matches_its_golden_byte_for_byte() {
    assert_matches_golden("scen_fleet");
}
