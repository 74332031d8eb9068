//! Smoke test of the `repro` binary — the one harness behind the
//! paper's figures — at `--scale small`.

use std::process::Command;

/// Runs `repro --scale small --only <panel>` and returns its stdout.
fn repro(panel: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "small", "--only", panel])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "--only {panel}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("repro prints UTF-8")
}

/// The lines between the `## <header>` line and the next blank line,
/// column header excluded.
fn panel_rows<'a>(stdout: &'a str, header: &str) -> Vec<&'a str> {
    let mut lines = stdout.lines().skip_while(|l| *l != header);
    assert_eq!(lines.next(), Some(header), "missing panel in:\n{stdout}");
    lines.skip(1).take_while(|l| !l.is_empty()).collect()
}

#[test]
fn dblp_panel_has_every_query_with_ratios_in_range() {
    let stdout = repro("dblp");
    assert!(stdout.contains("## Keyword frequencies — dblp"), "{stdout}");
    assert!(!stdout.contains("xmark") && !stdout.contains("Ablations"));
    let rows = panel_rows(&stdout, "## Figure 5/6 panel — dblp");
    assert_eq!(rows.len(), 18, "{stdout}");
    for row in rows {
        // query, RTFs, MaxMatch, ValidRTF, CFR, APR', MaxAPR
        let cells: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cells.len(), 7, "{row}");
        for ratio in [cells[4], cells[6]] {
            let ratio: f64 = ratio.parse().expect("ratio column is a number");
            assert!((0.0..=1.0).contains(&ratio), "{row}");
        }
    }
}

#[test]
fn ablations_panel_has_one_row_per_ablation() {
    let stdout = repro("ablations");
    assert!(!stdout.contains("Figure 5/6") && !stdout.contains("frequencies"));
    let rows = panel_rows(&stdout, "## Ablations — xmark standard");
    let sides: Vec<&str> = rows.iter().map(|r| r[..36].trim_end()).collect();
    assert_eq!(
        sides,
        [
            "elca_stack / naive_elca",
            "get_rtf / get_rtf_unchecked",
            "ValidRTF / MaxMatch / MaxMatch-SLCA",
        ],
        "{stdout}"
    );
    for row in rows {
        // One time per side, after the sides and query columns.
        let sides = row[..36].matches(" / ").count();
        assert_eq!(row[36..].matches(" / ").count(), sides, "{row}");
    }
}
