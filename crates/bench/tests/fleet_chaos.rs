//! End-to-end chaos test for the fleet coordinator: a `table1 coordinate`
//! run with worker kills, torn journal tails and hung lease renewals must
//! produce a merged table byte-identical to `table1 merge` over a fault-free
//! batch journal of the same campaign — the core crash-tolerance invariant
//! — and so must `table3` and `table5`, whose campaigns run through the
//! same generic fleet runner.  Exhausted retries must quarantine the
//! poisoned range instead of wedging the fleet.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Kernels per mode: 12 jobs total (6 modes x 2), four 3-job leases.
const KERNELS: &str = "2";
/// One fault in lease 1 attempt 1 (kill@3), one in lease 1 attempt 2
/// (hang@5), one in lease 2 attempt 1 (torn@7); every lease still has a
/// fault-free attempt within the default retry budget.
const FAULTS: &str = "kill@3,hang@5,torn@7";

fn campaign_bin(name: &str) -> Command {
    let mut cmd = Command::new(match name {
        "table1" => env!("CARGO_BIN_EXE_table1"),
        "table3" => env!("CARGO_BIN_EXE_table3"),
        "table5" => env!("CARGO_BIN_EXE_table5"),
        other => panic!("no campaign binary {other}"),
    });
    // The ambient environment must not redirect the store or inject extra
    // faults into either side of the differential.
    for var in ["CLFUZZ_FAULTS", "CLFUZZ_STORE", "CLFUZZ_STORE_CAP"] {
        cmd.env_remove(var);
    }
    cmd
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clfuzz-fleet-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed (status {:?})\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The canonical merged table: a fault-free single-process batch run
/// journalled to disk, merged by the `merge` subcommand.
fn batch_baseline(dir: &Path) -> Vec<u8> {
    batch_baseline_of("table1", &[KERNELS], dir)
}

fn batch_baseline_of(bin: &str, scale: &[&str], dir: &Path) -> Vec<u8> {
    let journal = dir.join("batch.journal");
    let batch = campaign_bin(bin)
        .args(scale)
        .arg("--no-store")
        .arg("--journal")
        .arg(&journal)
        .output()
        .expect("spawn batch run");
    assert_success(&batch, "batch run");
    let merged = campaign_bin(bin)
        .arg("merge")
        .arg(&journal)
        .output()
        .expect("spawn merge");
    assert_success(&merged, "batch merge");
    assert!(!merged.stdout.is_empty(), "baseline table is empty");
    merged.stdout
}

fn coordinate(fleet_dir: &Path, workers: &str, faults: &str, extra: &[&str]) -> Output {
    let scale = [KERNELS];
    coordinate_of("table1", &scale, "3", fleet_dir, workers, faults, extra)
}

fn coordinate_of(
    bin: &str,
    scale: &[&str],
    lease_jobs: &str,
    fleet_dir: &Path,
    workers: &str,
    faults: &str,
    extra: &[&str],
) -> Output {
    campaign_bin(bin)
        .arg("coordinate")
        .args(scale)
        .arg("--no-store")
        .args(["--workers", workers])
        .args(["--lease-jobs", lease_jobs])
        .args(["--lease-timeout-ms", "2000"])
        .args(["--faults", faults])
        .args(extra)
        .arg("--fleet-dir")
        .arg(fleet_dir)
        .output()
        .expect("spawn coordinate")
}

/// Asserts every kind of the chaos schedule actually fired — a silently
/// inert fault plan (say, an index past the job space) would make the
/// differential vacuous.
fn assert_faults_fired(fleet_dir: &Path, what: &str) {
    let worker_log = fs::read_to_string(fleet_dir.join("workers.log")).expect("read workers.log");
    for kind in ["kill", "hang", "torn"] {
        assert!(
            worker_log.contains(&format!("FAULT {kind}")),
            "{kind} fault never fired ({what}); workers.log:\n{worker_log}"
        );
    }
}

/// `table3` (168 cells at one body, four 42-cell leases) and `table5` (four
/// live bases, two 2-base leases, the bases probed once per worker
/// process): each fleet under a kill, a hang and a torn tail prints exactly
/// the merge of its fault-free batch journal.
#[test]
fn table3_and_table5_fleets_under_faults_match_batch() {
    let cases: [(&str, &[&str], &str, &str); 2] = [
        ("table3", &["1"], "42", "kill@50,hang@100,torn@150"),
        ("table5", &["4", "3"], "2", "kill@1,torn@1,hang@3"),
    ];
    for (bin, scale, lease_jobs, faults) in cases {
        let dir = scratch_dir(&format!("{bin}-diff"));
        let baseline = batch_baseline_of(bin, scale, &dir);
        let fleet_dir = dir.join("fleet");
        let out = coordinate_of(bin, scale, lease_jobs, &fleet_dir, "2", faults, &[]);
        assert_success(&out, &format!("{bin} coordinate"));
        assert_eq!(
            out.stdout,
            baseline,
            "{bin} fleet table (faults {faults}) is not byte-identical to the batch \
             merge\nfleet stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_faults_fired(&fleet_dir, bin);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn fleet_under_faults_matches_batch_at_two_worker_counts() {
    let dir = scratch_dir("diff");
    let baseline = batch_baseline(&dir);
    for workers in ["2", "3"] {
        let fleet_dir = dir.join(format!("fleet-w{workers}"));
        let out = coordinate(&fleet_dir, workers, FAULTS, &[]);
        assert_success(&out, &format!("fleet coordinate ({workers} workers)"));
        assert_eq!(
            out.stdout,
            baseline,
            "fleet table ({workers} workers, faults {FAULTS}) is not \
             byte-identical to the batch merge\nfleet stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // The schedule must actually have fired — a silently inert fault
        // plan would make this differential vacuous.
        let worker_log =
            fs::read_to_string(fleet_dir.join("workers.log")).expect("read workers.log");
        for kind in ["kill", "hang", "torn"] {
            assert!(
                worker_log.contains(&format!("FAULT {kind}")),
                "{kind} fault never fired ({workers} workers); workers.log:\n{worker_log}"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_retries_quarantine_the_range_and_exit_nonzero() {
    let dir = scratch_dir("quarantine");
    let fleet_dir = dir.join("fleet");
    // Every attempt on lease 0 is killed; with a single retry the range is
    // poisoned, the rest of the fleet completes, and the coordinator exits
    // with the quarantine code instead of hanging.
    let out = coordinate(&fleet_dir, "2", "kill@0x99", &["--max-retries", "1"]);
    assert_eq!(
        out.status.code(),
        Some(bench::fleet::FLEET_EXIT_QUARANTINE),
        "expected quarantine exit\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dead = fs::read_to_string(fleet_dir.join("dead-letters.log")).expect("dead-letters.log");
    assert!(
        dead.contains("DEAD 0-3"),
        "poisoned range missing from dead letters:\n{dead}"
    );
    // The surviving leases still merge into a (partial) table on stdout.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("merged from journals"),
        "partial table missing from stdout:\n{stdout}"
    );
    let _ = fs::remove_dir_all(&dir);
}
