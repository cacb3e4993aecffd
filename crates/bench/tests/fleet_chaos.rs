//! Fleets under faults: a `coordinate` run whose workers are killed, hang
//! or tear their journal tails must print exactly the `merge` of a
//! fault-free batch journal.  Each test runs the invariance matrix's fleet
//! cells (`matrix/mod.rs`) of the campaigns it names, at 2 and 3 worker
//! processes; exhausted retries must quarantine the poisoned range instead
//! of wedging the fleet.

mod matrix;

use std::fs;

use matrix::*;

#[test]
fn fleet_under_faults_matches_batch_at_two_worker_counts() {
    concurrently(&[&|| assert_invariant(&table1(), &[FleetFaults]), &|| {
        assert_invariant(&table4(), &[FleetFaults])
    }]);
}

#[test]
fn table3_and_table5_fleets_under_faults_match_batch() {
    concurrently(&[&|| assert_invariant(&table3(), &[FleetFaults]), &|| {
        assert_invariant(&table5(), &[FleetFaults])
    }]);
}

/// A fleet whose lease keeps dying is quarantined to the dead letters,
/// prints the partial table of the rest, and exits with its own code.
#[test]
fn exhausted_retries_quarantine_the_range_and_exit_nonzero() {
    let dir = scratch("quarantine");
    let fleet_dir = dir.join("fleet");
    let out = campaign_bin("table1", Bytecode)
        .args([
            "coordinate",
            "1",
            "--no-store",
            "--workers",
            "2",
            "--lease-jobs",
            "3",
        ])
        .args(["--faults", "kill@0x99", "--max-retries", "1", "--fleet-dir"])
        .arg(&fleet_dir)
        .output()
        .expect("spawn coordinate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(bench::fleet::FLEET_EXIT_QUARANTINE),
        "expected quarantine exit\nstderr:\n{stderr}"
    );
    let dead = fs::read_to_string(fleet_dir.join("dead-letters.log")).expect("dead-letters.log");
    assert!(dead.contains("DEAD 0-3"), "poisoned range missing:\n{dead}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("merged from journals"),
        "no partial table:\n{stdout}"
    );
    let _ = fs::remove_dir_all(&dir);
}
