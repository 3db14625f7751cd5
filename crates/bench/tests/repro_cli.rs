//! The `repro` command line. A rejected invocation is one reason line
//! plus the usage text on stderr and exit code 2 — never a panic, never
//! a silent exit 0 — the smallest real invocation prints the paper-style
//! three-representation table, `--autovec` carries the ablation rows, and
//! the committed `repro_output.md` has the columns the binary prints.

use std::collections::BTreeSet;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn assert_rejected(args: &[&str], reason: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} → {stderr}");
    assert!(!stderr.contains("panicked at"), "{args:?} → {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("repro: ") && first.contains(reason),
        "{args:?}: reason line {first:?} does not say {reason:?}"
    );
    assert!(stderr.contains("usage: repro"), "{args:?} → {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} measured before rejecting");
}

#[test]
fn a_flag_without_its_value_is_rejected() {
    for flag in [
        "--fig",
        "--level",
        "--iters",
        "--ranks",
        "--backend",
        "--trace",
    ] {
        assert_rejected(&[flag], "needs a value");
        assert_rejected(&["--mem", flag], "needs a value");
    }
}

#[test]
fn out_of_range_and_unparsable_values_are_rejected() {
    assert_rejected(&["--fig", "9"], "no such figure");
    assert_rejected(&["--fig", "1"], "no such figure");
    assert_rejected(&["--fig", "two"], "expected a figure number");
    assert_rejected(&["--fig", "2", "--ranks", "0"], "at least 1");
    assert_rejected(&["--fig", "2", "--ranks", "1,0,4"], "at least 1");
    assert_rejected(&["--fig", "2", "--ranks", "1,,4"], "expected rank counts");
    assert_rejected(&["--fig", "2", "--iters", "0"], "at least one");
    assert_rejected(&["--mem", "--level", "-1"], "expected an octree level");
    assert_rejected(&["--chaos", "--backend", "mpi"], "expected threads");
}

#[test]
fn an_unknown_flag_is_rejected() {
    assert_rejected(&["--frobnicate"], "unknown argument: --frobnicate");
    assert_rejected(&["--fig", "2", "extra"], "unknown argument: extra");
}

#[test]
fn help_lists_exactly_the_accepted_flags() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stderr.is_empty());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("usage: repro"), "{text}");
    let listed: BTreeSet<&str> = text
        .split_whitespace()
        .filter(|w| w.starts_with("--"))
        .map(|w| w.trim_end_matches([',', ')']))
        .collect();
    let accepted = [
        "--all",
        "--fig",
        "--mem",
        "--level",
        "--autovec",
        "--dim2",
        "--chaos",
        "--floor",
        "--backend",
        "--trace",
        "--iters",
        "--ranks",
        "--help",
    ];
    assert_eq!(listed, BTreeSet::from(accepted));
}

#[test]
fn figure_2_prints_the_three_representation_table() {
    let out = repro(&["--fig", "2", "--iters", "1", "--ranks", "1,2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("## Figure 2: Morton"), "{stdout}");
    assert!(
        stdout.contains("| P | standard (ms) | morton (ms) | avx (ms) |"),
        "{stdout}"
    );
    for p in ["| 1 |", "| 2 |"] {
        assert!(stdout.lines().any(|l| l.starts_with(p)), "{stdout}");
    }
    let speedup = stdout
        .lines()
        .find(|l| l.starts_with("speedup vs standard:"))
        .expect("speedup summary line");
    assert!(
        !speedup.contains("inf") && !speedup.contains("NaN"),
        "{speedup}"
    );
}

/// The header line of every markdown table in `text` (the line above a
/// `|---|` rule).
fn table_headers(text: &str) -> Vec<&str> {
    let lines: Vec<&str> = text.lines().collect();
    lines
        .windows(2)
        .filter(|w| w[0].starts_with("| ") && w[1].starts_with("|---"))
        .map(|w| w[0])
        .collect()
}

const COMMITTED_OUTPUT: &str = include_str!("../../../repro_output.md");

#[test]
fn autovec_prints_the_ablation_rows() {
    let out = repro(&["--autovec", "--iters", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("| ablation | alternative | (ms) | production | (ms) | production gain |"),
        "{stdout}"
    );
    for row in [
        "| A1 encode3 |",
        "| A1 decode3 |",
        "| A2 compare_sfc |",
        "| A3 from_morton |",
    ] {
        assert!(
            stdout.lines().any(|l| l.starts_with(row)),
            "{row}: {stdout}"
        );
    }
    assert!(
        !stdout.contains("inf") && !stdout.contains("NaN"),
        "{stdout}"
    );
    let committed = table_headers(COMMITTED_OUTPUT);
    for header in table_headers(&stdout) {
        assert!(
            committed.contains(&header),
            "repro_output.md lacks {header}"
        );
    }
}

#[test]
fn committed_output_has_the_columns_the_binary_prints() {
    // `--iters 4` because the 2D header names the repetition count and
    // repro_output.md is recorded from `repro --all --dim2 --iters 4`
    let out = repro(&["--fig", "2", "--dim2", "--iters", "4", "--ranks", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let printed = table_headers(&stdout);
    let [figure, dim2] = printed[..] else {
        panic!("one figure table and the 2D table expected: {printed:?}");
    };
    assert!(figure.ends_with("| standard (ms) | morton (ms) | avx (ms) |"));
    assert!(dim2.starts_with("| kernel | standard | morton | avx | (ms"));
    let committed = table_headers(COMMITTED_OUTPUT);
    let figures: Vec<_> = committed
        .iter()
        .filter(|h| h.starts_with("| P | standard"))
        .collect();
    assert_eq!(figures.len(), 6, "figures 2..=7: {figures:?}");
    assert!(figures.iter().all(|h| **h == figure), "{figures:?}");
    assert!(committed.contains(&dim2), "repro_output.md lacks {dim2}");
}
