//! Plain-text table rendering for the reproduction binaries.
//!
//! The campaign-specific renderers ([`render_campaign_table`],
//! [`render_emi_table`], [`render_reliability_table`]) are the *single*
//! source of the Table 1 / Table 4 / Table 5 artefacts: the table binaries
//! print them, and the scheduler determinism, cache equivalence and shard
//! equivalence tests (plus the campaign benchmark's pinned digests) compare
//! them byte for byte — so any rendering change stays under the
//! bit-identical guarantees automatically.
//!
//! All three renderers accept **partial** tallies — the streaming tables a
//! shard, a journal prefix, or a subset of shard journals produces.  A
//! target column (or Table 1 row) that no job has reached yet renders as
//! [`EMPTY_CELL`] (`–`) instead of a misleading row of zeros, so a partial
//! table is readable at a glance.

use crate::campaign::{CampaignResult, ReliabilityRow};
use crate::emi_campaign::EmiCampaignResult;

/// What a cell with no tallied data renders as in partial tables.
pub const EMPTY_CELL: &str = "–";

/// Renders an ASCII table with a header row.
pub fn render_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let columns = headers
        .len()
        .max(rows.iter().map(Vec::len).max().unwrap_or(0));
    // Widths count chars, not bytes: `format!`'s padding is char-based, and
    // the EMPTY_CELL dash is multi-byte.
    let mut widths = vec![0usize; columns];
    for (i, h) in headers.iter().enumerate() {
        widths[i] = widths[i].max(h.chars().count());
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, width) in widths.iter().enumerate() {
            let empty = String::new();
            let cell = cells.get(i).unwrap_or(&empty);
            line.push_str(&format!(" {cell:width$} |"));
        }
        line
    };
    let separator = {
        let mut line = String::from("+");
        for w in &widths {
            line.push_str(&"-".repeat(w + 2));
            line.push('+');
        }
        line
    };
    out.push_str(&separator);
    out.push('\n');
    out.push_str(&render_row(headers, &widths));
    out.push('\n');
    out.push_str(&separator);
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out.push_str(&separator);
    out.push('\n');
    out
}

/// Formats a percentage with one decimal, as the paper's `w%` rows do.
pub fn percent(value: f64) -> String {
    format!("{value:.1}")
}

/// Renders one mode block of Table 4 from a [`CampaignResult`]: per-target
/// `w`/`bf`/`c`/`to`/`ok` counts, a `Total` column, and the `w%` row.
///
/// Streaming-aware: a target that no tallied kernel has reached (its stats
/// total 0 — e.g. in a table refolded from an empty journal prefix)
/// renders as [`EMPTY_CELL`] down its whole column.
pub fn render_campaign_table(result: &CampaignResult) -> String {
    let headers: Vec<String> = std::iter::once(String::new())
        .chain(result.targets.iter().map(|t| t.label()))
        .chain(std::iter::once("Total".to_string()))
        .collect();
    let any_data = result.stats.iter().any(|s| s.total() > 0);
    // The `sk` row only appears when the static pre-filter skipped at least
    // one kernel, so tables from prefilter-off runs render unchanged.
    let any_skipped = result.stats.iter().any(|s| s.skipped > 0);
    let mut rows = Vec::new();
    let mut keys = vec![("w", 0usize), ("bf", 1), ("c", 2), ("to", 3), ("ok", 4)];
    if any_skipped {
        keys.push(("sk", 5));
    }
    for (key, pick) in keys {
        let mut row = vec![key.to_string()];
        let mut total = 0usize;
        for stat in &result.stats {
            let value = match pick {
                0 => stat.wrong,
                1 => stat.build_failures,
                2 => stat.crashes,
                3 => stat.timeouts,
                4 => stat.ok,
                _ => stat.skipped,
            };
            total += value;
            if stat.total() == 0 {
                row.push(EMPTY_CELL.to_string());
            } else {
                row.push(value.to_string());
            }
        }
        row.push(if any_data {
            total.to_string()
        } else {
            EMPTY_CELL.to_string()
        });
        rows.push(row);
    }
    let mut wpct = vec!["w%".to_string()];
    for stat in &result.stats {
        if stat.total() == 0 {
            wpct.push(EMPTY_CELL.to_string());
        } else {
            wpct.push(percent(stat.wrong_code_percentage()));
        }
    }
    wpct.push(if any_data {
        percent(result.total_wrong_code_percentage())
    } else {
        EMPTY_CELL.to_string()
    });
    rows.push(wpct);
    render_table(&headers, &rows)
}

/// Renders Table 5 from an [`EmiCampaignResult`]: per-target base-level
/// outcome counts.
///
/// Streaming-aware: a target with no judged base yet renders as
/// [`EMPTY_CELL`] down its whole column.
pub fn render_emi_table(result: &EmiCampaignResult) -> String {
    let headers: Vec<String> = std::iter::once(String::new())
        .chain(result.labels.iter().cloned())
        .collect();
    let mut rows = Vec::new();
    for (name, pick) in [
        ("base fails", 0usize),
        ("w", 1),
        ("bf", 2),
        ("c", 3),
        ("to", 4),
        ("stable", 5),
    ] {
        let mut row = vec![name.to_string()];
        for stat in &result.stats {
            if stat.is_empty() {
                row.push(EMPTY_CELL.to_string());
                continue;
            }
            let value = match pick {
                0 => stat.base_fails,
                1 => stat.wrong,
                2 => stat.build_failures,
                3 => stat.crashes,
                4 => stat.timeouts,
                _ => stat.stable,
            };
            row.push(value.to_string());
        }
        rows.push(row);
    }
    render_table(&headers, &rows)
}

/// Renders Table 1 from §7.1 reliability rows: configuration metadata, the
/// measured failure percentage, the threshold judgement, and the paper's
/// own judgement for comparison.
///
/// Streaming-aware: a configuration with no tallied kernels yet renders
/// [`EMPTY_CELL`] in its data columns.
pub fn render_reliability_table(rows: &[ReliabilityRow]) -> String {
    let headers: Vec<String> = [
        "Conf.",
        "SDK",
        "Device",
        "Driver/compiler",
        "OpenCL",
        "Device type",
        "Failure %",
        "Above threshold?",
        "Paper",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut table = Vec::new();
    for row in rows {
        let (failure, above) = if row.kernels == 0 {
            (EMPTY_CELL.to_string(), EMPTY_CELL.to_string())
        } else {
            (
                format!("{:.1}", row.failure_fraction * 100.0),
                if row.above_threshold { "yes" } else { "no" }.to_string(),
            )
        };
        table.push(vec![
            row.config.id.to_string(),
            row.config.sdk.to_string(),
            row.config.device.to_string(),
            row.config.driver.to_string(),
            row.config.opencl.to_string(),
            row.config.device_type.name().to_string(),
            failure,
            above,
            if row.config.expected_above_threshold {
                "yes"
            } else {
                "no"
            }
            .to_string(),
        ]);
    }
    render_table(&headers, &table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_tables() {
        let headers = vec!["mode".to_string(), "w".to_string(), "w%".to_string()];
        let rows = vec![
            vec!["BASIC".to_string(), "12".to_string(), percent(0.123)],
            vec!["ALL".to_string(), "3".to_string(), percent(12.0)],
        ];
        let table = render_table(&headers, &rows);
        assert!(table.contains("| BASIC | 12 | 0.1"), "{table}");
        assert!(table.contains("| ALL   | 3  | 12.0"), "{table}");
        assert!(table
            .lines()
            .all(|l| l.starts_with('+') || l.starts_with('|')));
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(percent(7.65), "7.7");
        assert_eq!(percent(0.0), "0.0");
    }

    #[test]
    fn partial_campaign_table_renders_empty_columns_explicitly() {
        // Snapshot: a streaming Table 4 block where the second target has
        // not been reached yet — its column reads `–`, not zeros.
        use crate::campaign::TargetStats;
        use crate::differential::TestTarget;
        use opencl_sim::OptLevel;
        let config = opencl_sim::configuration(1);
        let result = CampaignResult {
            mode: clsmith::GenMode::Basic,
            kernels: 2,
            targets: vec![
                TestTarget::new(config.clone(), OptLevel::Disabled),
                TestTarget::new(config, OptLevel::Enabled),
            ],
            stats: vec![
                TargetStats {
                    wrong: 1,
                    ok: 1,
                    ..TargetStats::default()
                },
                TargetStats::default(),
            ],
        };
        let expected = "\
+----+------+----+-------+
|    | 1-   | 1+ | Total |
+----+------+----+-------+
| w  | 1    | –  | 1     |
| bf | 0    | –  | 0     |
| c  | 0    | –  | 0     |
| to | 0    | –  | 0     |
| ok | 1    | –  | 1     |
| w% | 50.0 | –  | 50.0  |
+----+------+----+-------+
";
        assert_eq!(render_campaign_table(&result), expected);
    }

    #[test]
    fn partial_emi_table_renders_empty_columns_explicitly() {
        use crate::emi_campaign::EmiStats;
        let result = EmiCampaignResult {
            bases: 1,
            variants_per_base: 4,
            labels: vec!["1-".to_string(), "1+".to_string()],
            stats: vec![
                EmiStats::default(),
                EmiStats {
                    stable: 1,
                    ..EmiStats::default()
                },
            ],
        };
        let expected = "\
+------------+----+----+
|            | 1- | 1+ |
+------------+----+----+
| base fails | –  | 0  |
| w          | –  | 0  |
| bf         | –  | 0  |
| c          | –  | 0  |
| to         | –  | 0  |
| stable     | –  | 1  |
+------------+----+----+
";
        assert_eq!(render_emi_table(&result), expected);
    }

    #[test]
    fn partial_reliability_table_renders_untallied_rows_explicitly() {
        use crate::campaign::{reliability_rows, ClassificationTally};
        let configs = vec![opencl_sim::configuration(1)];
        let rows = reliability_rows(&configs, &ClassificationTally::new(1));
        let table = render_reliability_table(&rows);
        let data_line = table
            .lines()
            .find(|l| l.starts_with("| 1 "))
            .expect("row for configuration 1");
        assert!(
            data_line.contains("| – "),
            "untallied failure% must render as –: {data_line}"
        );
        // Once data arrives the same renderer shows the numbers.
        let mut tally = ClassificationTally::new(1);
        tally.record(&[
            crate::differential::Verdict::Ok,
            crate::differential::Verdict::Ok,
        ]);
        let rows = reliability_rows(&configs, &tally);
        let table = render_reliability_table(&rows);
        assert!(table.contains("| 0.0 "), "{table}");
        assert!(table.contains("| yes "), "{table}");
    }
}
