//! Journal input that contradicts its campaign — every line carrying a
//! valid checksum, so nothing is dropped as a torn tail — must make `merge`
//! and `--resume` exit with status 1 and an `error:` line, never a panic,
//! and so must a fleet whose lease journal is such input.
//! A command line the binary does not take, and a malformed
//! `CLFUZZ_STORE_CAP` where a store would be opened, must exit with status
//! 2 before any campaign runs.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use fuzz_harness::checksum;

/// The campaign binary `name` with no ambient store.
fn bare_bin(name: &str) -> Command {
    let mut cmd = Command::new(match name {
        "table1" => env!("CARGO_BIN_EXE_table1"),
        "table3" => env!("CARGO_BIN_EXE_table3"),
        "table4" => env!("CARGO_BIN_EXE_table4"),
        "table5" => env!("CARGO_BIN_EXE_table5"),
        other => panic!("no campaign binary {other}"),
    });
    for var in ["CLFUZZ_STORE", "CLFUZZ_STORE_CAP"] {
        cmd.env_remove(var);
    }
    cmd
}

/// [`bare_bin`] on one worker without a store.
fn campaign_bin(name: &str) -> Command {
    let mut cmd = bare_bin(name);
    cmd.args(["--no-store", "--threads", "1"]);
    cmd
}

/// A journal line: `body` plus its checksum.
fn line(body: &str) -> String {
    format!("{body} {:016x}\n", checksum(body.as_bytes()))
}

/// A record line for job `index` carrying `payload`.
fn record(index: u64, payload: &str) -> String {
    let digest = checksum(payload.as_bytes());
    line(&format!("R {index} {index:016x} {digest:016x} {payload}"))
}

/// The header fields (without the checksum) of a fresh whole-campaign
/// journal of `bin` at `scale`.
fn header_fields(bin: &str, scale: &[&str], dir: &Path) -> Vec<String> {
    let journal = dir.join(format!("{bin}-fresh.journal"));
    let out = campaign_bin(bin)
        .args(scale)
        .arg("--journal")
        .arg(&journal)
        .output()
        .expect("spawn fresh run");
    assert!(out.status.success(), "fresh {bin} run failed");
    let text = fs::read_to_string(&journal).expect("read fresh journal");
    let header = text.lines().next().expect("journal has a header");
    let (body, _) = header.rsplit_once(' ').expect("header carries a checksum");
    body.split(' ').map(str::to_string).collect()
}

fn write_journal(dir: &Path, name: &str, header: &[String], body: &str) -> PathBuf {
    let path = dir.join(name);
    fs::write(&path, line(&header.join(" ")) + body).expect("write journal");
    path
}

/// Asserts exit status `code` with an `error:` line, and returns stderr.
fn assert_error(out: Output, code: i32, what: &str) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(code),
        "{what}: expected exit status {code}\nstderr:\n{stderr}"
    );
    assert!(stderr.contains("error:"), "{what}: no error line\n{stderr}");
    stderr
}

fn assert_journal_error(out: Output, what: &str) {
    assert_error(out, 1, what);
}

#[test]
fn stray_arguments_are_usage_errors() {
    let cases: [(&str, &[&str]); 8] = [
        ("table4", &["2", "merge"]),
        ("table5", &["2", "1", "7"]),
        ("table1", &["1", "bogus"]),
        ("table4", &["1", "--checkpoint-every", "16"]),
        ("table4", &["worker", "1", "--checkpoint-every=16"]),
        // A worker's campaign comes from the header in its fleet
        // directory, so it takes no scale and no --paper-scale.
        ("table5", &["worker", "1", "--fleet-dir", "unused"]),
        (
            "table5",
            &["worker", "--paper-scale", "--fleet-dir", "unused"],
        ),
        (
            "table1",
            &["worker", "2", "--paper-scale", "--fleet-dir", "unused"],
        ),
    ];
    for (bin, args) in cases {
        let out = campaign_bin(bin).args(args).output().expect("spawn");
        assert_error(out, 2, &format!("{bin} {}", args.join(" ")));
    }
}

/// A journal in the v2 format, whose descriptors fingerprinted the
/// generator options instead of naming them, is refused like any other
/// journal without a valid header.
#[test]
fn v2_journals_are_errors_in_merge_and_resume() {
    let dir = std::env::temp_dir().join(format!("clfuzz-hostile-v2-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    let mut v2 = header_fields("table4", &["1"], &dir);
    assert_eq!(v2[1], "3", "this build writes v3 journals");
    v2[1] = "2".to_string();
    let journal = write_journal(&dir, "v2.journal", &v2, &record(0, &"k".repeat(20)));
    let merge = campaign_bin("table4").arg("merge").arg(&journal).output();
    let stderr = assert_error(merge.expect("spawn merge"), 1, "table4 merge v2");
    assert!(stderr.contains("no valid journal header"), "{stderr}");
    let resume = campaign_bin("table4")
        .args(["1", "--resume", "--journal"])
        .arg(&journal)
        .output();
    assert_journal_error(resume.expect("spawn resume"), "table4 resume v2");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_store_cap_that_is_not_a_byte_count_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("clfuzz-hostile-cap-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let out = bare_bin("table4")
        .args(["1", "--threads", "1", "--store"])
        .arg(&dir)
        .env("CLFUZZ_STORE_CAP", "256M")
        .output()
        .expect("spawn");
    let opened = dir.exists();
    let _ = fs::remove_dir_all(&dir);
    let stderr = assert_error(out, 2, "table4 1 --store DIR with CLFUZZ_STORE_CAP=256M");
    assert!(stderr.contains("CLFUZZ_STORE_CAP"), "{stderr}");
    assert!(!opened, "the store was opened");
}

#[test]
fn contradictory_journals_are_errors_in_merge_and_resume() {
    let dir = std::env::temp_dir().join(format!("clfuzz-hostile-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");

    // Table 4 at one kernel per mode: six jobs over 20 target columns.
    let table4 = header_fields("table4", &["1"], &dir);
    assert_eq!(table4[4], "6", "table4 1 has six jobs");
    let one_mode = vec!["0,0,0,0,1,0"; 20].join(";");
    let cases = [
        ("job-past-range", record(100, &"k".repeat(20))),
        ("short-row", record(0, "kk")),
        ("one-mode-checkpoint", line(&format!("K 1 1 {one_mode}"))),
    ];
    for (name, body) in cases {
        let journal = write_journal(&dir, &format!("{name}.journal"), &table4, &body);
        let merge = campaign_bin("table4").arg("merge").arg(&journal).output();
        assert_journal_error(merge.expect("spawn merge"), &format!("table4 merge {name}"));
        let resume = campaign_bin("table4")
            .arg("1")
            .arg("--journal")
            .arg(&journal)
            .arg("--resume")
            .output();
        assert_journal_error(
            resume.expect("spawn resume"),
            &format!("table4 resume {name}"),
        );
    }

    // A lease journal as older builds wrote it: the header and one `K`
    // checkpoint line holding the lease's folded tally.  It is refused
    // whole, naming the line.
    let mut lease = table4.clone();
    lease[5] = "0/0".to_string();
    let six_modes = [one_mode.as_str(); 6].join("|");
    let body = line(&format!("K 6 6 {six_modes}"));
    let journal = write_journal(&dir, "checkpointed-lease.journal", &lease, &body);
    let merge = campaign_bin("table4").arg("merge").arg(&journal).output();
    let stderr = assert_error(merge.expect("spawn merge"), 1, "table4 merge old lease");
    assert!(stderr.contains("line 2 is a checkpoint"), "{stderr}");
    // A fleet that finds it as a lease journal stops at the worker's
    // failure instead of retrying a lease that fails the same way again.
    let fleet_dir = dir.join("fleet");
    fs::create_dir_all(&fleet_dir).expect("create fleet dir");
    fs::copy(&journal, fleet_dir.join("lease-0000.journal")).expect("plant lease journal");
    let fleet = campaign_bin("table4")
        .args(["coordinate", "1", "--workers", "1", "--fleet-dir"])
        .arg(&fleet_dir)
        .output()
        .expect("spawn coordinator");
    let stderr = assert_error(fleet, 1, "table4 fleet old lease");
    assert!(stderr.contains("lease-0000.journal"), "{stderr}");
    let log = fs::read_to_string(fleet_dir.join("fleet.log")).expect("fleet.log");
    assert!(!log.contains("RETRY"), "{log}");

    // Table 4 with a descriptor claiming 2⁶⁴ − 1 kernels per mode: six modes
    // of them overflow the job index.
    let mut overflow = table4.clone();
    assert!(overflow[2].contains(":k1:"), "{}", overflow[2]);
    overflow[2] = overflow[2].replace(":k1:", ":k18446744073709551615:");
    let journal = write_journal(&dir, "overflow.journal", &overflow, "");
    let merge = campaign_bin("table4").arg("merge").arg(&journal).output();
    assert_journal_error(merge.expect("spawn merge"), "table4 merge overflow");
    // So does that scale on the command line: a usage error.
    let run = campaign_bin("table4")
        .args(["18446744073709551615", "--shard", "0/100000000"])
        .output()
        .expect("spawn table4");
    assert_error(run, 2, "table4 overflowing scale");

    // Table 3 with a header claiming 4·10¹⁸ jobs.
    let mut table3 = header_fields("table3", &["1"], &dir);
    let huge = "4000000000000000000";
    table3[4] = huge.to_string();
    table3[6] = format!("0-{huge}");
    let journal = write_journal(&dir, "huge.journal", &table3, "");
    let merge = campaign_bin("table3").arg("merge").arg(&journal).output();
    assert_journal_error(merge.expect("spawn merge"), "table3 merge huge");
    let resume = campaign_bin("table3")
        .arg("1")
        .arg("--journal")
        .arg(&journal)
        .arg("--resume")
        .output();
    assert_journal_error(resume.expect("spawn resume"), "table3 resume huge");
    let _ = fs::remove_dir_all(&dir);
}
