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

/// `coordinate --follow` re-renders the table after every completed lease:
/// one partial table per lease, counting up, the last of them exactly the
/// final table, which is exactly the `merge` of the fleet's lease journals.
#[test]
fn follow_streams_a_partial_table_per_lease_ending_on_the_merge() {
    let dir = scratch("follow");
    let fleet_dir = dir.join("fleet");
    let out = campaign_bin("table4", Bytecode)
        .args(["coordinate", "1", "--no-store", "--threads", "1"])
        .args(["--workers", "1", "--lease-jobs", "2", "--fleet-dir"])
        .arg(&fleet_dir)
        .arg("--follow")
        .output()
        .expect("spawn coordinate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 table");

    let mut journals: Vec<_> = fs::read_dir(&fleet_dir)
        .expect("fleet dir")
        .map(|entry| entry.expect("fleet dir entry").path())
        .filter(|path| {
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            name.starts_with("lease-") && name.ends_with(".journal")
        })
        .collect();
    journals.sort();
    assert!(journals.len() > 1, "expected several leases: {journals:?}");
    let merged = campaign_bin("table4", Bytecode)
        .arg("merge")
        .args(&journals)
        .output()
        .expect("spawn merge");
    assert!(merged.status.success(), "merge failed");
    assert_eq!(stdout, String::from_utf8_lossy(&merged.stdout));

    let lines: Vec<&str> = stderr.lines().collect();
    let headers: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("fleet: partial table after "))
        .collect();
    assert_eq!(headers.len(), journals.len(), "stderr:\n{stderr}");
    for (n, &i) in headers.iter().enumerate() {
        assert_eq!(
            lines[i],
            format!("fleet: partial table after {} lease(s):", n + 1)
        );
    }
    let last: Vec<&str> = lines[headers[headers.len() - 1] + 1..]
        .iter()
        .take(stdout.lines().count())
        .map(|line| line.strip_prefix("fleet: ").unwrap_or(line))
        .collect();
    assert_eq!(last, stdout.lines().collect::<Vec<_>>());
    let _ = fs::remove_dir_all(&dir);
}
