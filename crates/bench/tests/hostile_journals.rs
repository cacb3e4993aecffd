//! Journal input that contradicts its campaign — every line carrying a
//! valid checksum, so nothing is dropped as a torn tail — must make `merge`
//! and `--resume` exit with status 1 and an `error:` line, never a panic.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use fuzz_harness::checksum;

fn campaign_bin(name: &str) -> Command {
    let mut cmd = Command::new(match name {
        "table3" => env!("CARGO_BIN_EXE_table3"),
        "table4" => env!("CARGO_BIN_EXE_table4"),
        other => panic!("no campaign binary {other}"),
    });
    for var in ["CLFUZZ_FAULTS", "CLFUZZ_STORE"] {
        cmd.env_remove(var);
    }
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
/// journal of `bin 1`.
fn header_fields(bin: &str, dir: &Path) -> Vec<String> {
    let journal = dir.join(format!("{bin}-fresh.journal"));
    let out = campaign_bin(bin)
        .arg("1")
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

fn assert_journal_error(out: Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{what}: expected exit status 1\nstderr:\n{stderr}"
    );
    assert!(stderr.contains("error:"), "{what}: no error line\n{stderr}");
}

#[test]
fn contradictory_journals_are_errors_in_merge_and_resume() {
    let dir = std::env::temp_dir().join(format!("clfuzz-hostile-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");

    // Table 4 at one kernel per mode: six jobs over 20 target columns.
    let table4 = header_fields("table4", &dir);
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

    // Table 3 with a header claiming 4·10¹⁸ jobs.
    let mut table3 = header_fields("table3", &dir);
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
