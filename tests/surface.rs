//! The counted public surface: `pub` items per crate, pinned.
//!
//! An item is a line of `crates/<name>/src` whose trimmed form starts
//! with `pub ` and an item keyword (`fn` — also `const fn` / `unsafe fn` —
//! `struct`, `enum`, `trait`, `type`, `const`, `static`, `mod`, `use`).
//! `pub(crate)` items and fields do not count. The table may only fall:
//! a lower count fails until the table is lowered to match, a higher one
//! until the new item's user outside its crate is named in CHANGES.md and
//! the table raised with it.
//!
//! The quadrant interface is pinned the same way: the methods of
//! `pub trait Quadrant` are the paper's low-level algorithm set plus what
//! the layers above call, and their count may only fall.
//!
//! So are the non-test lines per crate: each `.rs` file of
//! `crates/<name>/src` counted up to its first line holding
//! `#[cfg(test)]`. A test helper therefore belongs inside the file's
//! trailing `mod tests`; a `#[cfg(test)]` item in mid-file would stop the
//! count early and hide the production lines below it.

use std::path::Path;

/// `(crate directory, pub items)` — 636 before the census existed, 477
/// before the caller-less items and their tests went.
const SURFACE: [(&str, usize); 9] = [
    ("bench", 30),
    ("comm", 77),
    ("connectivity", 16),
    ("core", 89),
    ("forest", 76),
    ("pde", 28),
    ("query", 34),
    ("telemetry", 84),
    ("vtk", 5),
];

/// `fn` declarations inside `pub trait Quadrant` — 42 before the
/// caller-less methods went, 32 before linearize sorted keys alone and
/// `sort_word` went with its second path.
const QUADRANT_METHODS: usize = 31;

/// `(crate directory, non-test lines)` — 18,006 in all when the census
/// was first counted by hand, with pde at 787: `patch.rs`'s mid-file test
/// helper then stopped its count 62 lines early. Forest read 3,339
/// before face iteration stepped in key space, and 3,317 before balance's
/// merge took a small-tail regime and its seed and rebuild a family of
/// leaves in one step. Core read 4,194 before linearize became one
/// key-space path, and 4,121 before its keys came in one pass over the
/// coordinates. Comm read 4,921 before a receive yielded before it
/// parked and a link's acked buffers all went back to its spares.
const LINES: [(&str, usize); 9] = [
    ("bench", 1_500),
    ("comm", 5_008),
    ("connectivity", 415),
    ("core", 4_144),
    ("forest", 3_349),
    ("pde", 849),
    ("query", 836),
    ("telemetry", 1_903),
    ("vtk", 148),
];

fn is_pub_item(line: &str) -> bool {
    let Some(rest) = line.trim_start().strip_prefix("pub ") else {
        return false;
    };
    // `const` is a constant or a `const fn`, `unsafe` an `unsafe fn`
    let keyword = rest.split(' ').next().unwrap_or_default();
    [
        "fn", "const", "unsafe", "struct", "enum", "trait", "type", "static", "mod", "use",
    ]
    .contains(&keyword)
}

/// The text of every `.rs` file under `dir`.
fn sources(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("crate source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            out.extend(sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(std::fs::read_to_string(&path).expect("source file"));
        }
    }
    out
}

fn count_pub_items(dir: &Path) -> usize {
    let count = |text: &String| text.lines().filter(|l| is_pub_item(l)).count();
    sources(dir).iter().map(count).sum()
}

/// The lines of `source` before its first line holding `#[cfg(test)]`.
fn non_test_lines(source: &str) -> usize {
    source
        .lines()
        .take_while(|l| !l.contains("#[cfg(test)]"))
        .count()
}

/// The `fn` lines between `pub trait Quadrant` and the trait's closing
/// brace (the first line that is exactly `}`).
fn count_trait_methods(source: &str) -> usize {
    source
        .lines()
        .skip_while(|l| !l.starts_with("pub trait Quadrant"))
        .take_while(|l| *l != "}")
        .filter(|l| l.trim_start().starts_with("fn "))
        .count()
}

#[test]
fn pub_items_per_crate_match_the_committed_table() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let on_disk = std::fs::read_dir(&crates).expect("crates/").count();
    assert_eq!(on_disk, SURFACE.len(), "a crate without a census row");
    for (name, pinned) in SURFACE {
        let counted = count_pub_items(&crates.join(name).join("src"));
        assert!(
            counted >= pinned,
            "crates/{name} exports {counted} pub items, the table says {pinned}: \
             lower the table in tests/surface.rs"
        );
        assert!(
            counted <= pinned,
            "crates/{name} exports {counted} pub items, the table says {pinned}: \
             name the outside user in CHANGES.md and raise the table, or make the item pub(crate)"
        );
    }
}

#[test]
fn non_test_lines_per_crate_match_the_committed_table() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let on_disk = std::fs::read_dir(&crates).expect("crates/").count();
    assert_eq!(on_disk, LINES.len(), "a crate without a line census row");
    for (name, pinned) in LINES {
        let counted: usize = sources(&crates.join(name).join("src"))
            .iter()
            .map(|text| non_test_lines(text))
            .sum();
        assert!(
            counted >= pinned,
            "crates/{name} has {counted} non-test lines, the table says {pinned}: \
             lower the table in tests/surface.rs"
        );
        assert!(
            counted <= pinned,
            "crates/{name} has {counted} non-test lines, the table says {pinned}: \
             say why it grew in CHANGES.md and raise the table"
        );
    }
}

#[test]
fn the_line_census_stops_at_the_first_test_item() {
    assert_eq!(non_test_lines("a\nb\n"), 2);
    assert_eq!(non_test_lines("a\n#[cfg(test)]\nmod tests {}\nb\n"), 1);
    assert_eq!(non_test_lines("a\n    #[cfg(test)]\n    fn f() {}\nb\n"), 1);
    assert_eq!(non_test_lines("#[cfg(test)]\n"), 0);
}

#[test]
fn the_census_counts_items_not_fields() {
    for item in [
        "pub fn f()",
        "    pub const fn f()",
        "pub unsafe fn f()",
        "pub const unsafe fn f()",
        "pub struct S;",
        "pub enum E {}",
        "pub trait T {}",
        "pub type A = u8;",
        "pub const N: u8 = 0;",
        "pub static S: u8 = 0;",
        "pub mod m;",
        "pub use a::b;",
    ] {
        assert!(is_pub_item(item), "{item}");
    }
    for other in [
        "pub(crate) fn f()",
        "    pub field: u8,",
        "fn f()",
        "// pub fn f()",
        "pub(super) mod m;",
    ] {
        assert!(!is_pub_item(other), "{other}");
    }
}

/// The non-test lines of `source` that read the environment.
fn env_reads(source: &str) -> Vec<&str> {
    let reads = ["env::var", "var_os(", "env!("];
    (source.lines())
        .take_while(|l| !l.contains("#[cfg(test)]"))
        .filter(|l| !l.trim_start().starts_with("//"))
        .filter(|l| reads.iter().any(|r| l.contains(r)))
        .collect()
}

/// The communicator reads one environment variable, the spawn record
/// that marks a worker process: its tuning (the receive spin budget,
/// the link's timeouts and schedules) stays constants, not knobs.
#[test]
fn comm_reads_one_environment_variable() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/comm/src");
    let texts = sources(&src);
    let reads: Vec<&str> = texts.iter().flat_map(|t| env_reads(t)).collect();
    assert!(
        reads.len() == 1 && reads[0].contains("(ENV_SPAWN)"),
        "crates/comm/src reads the environment other than through ENV_SPAWN: {reads:#?}"
    );
    assert_eq!(
        env_reads("let v = std::env::var(\"X\");\n#[cfg(test)]\nenv!(\"Y\")"),
        ["let v = std::env::var(\"X\");"]
    );
}

#[test]
fn quadrant_trait_methods_match_the_committed_count() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src/quadrant/mod.rs");
    let text = std::fs::read_to_string(path).expect("quadrant module");
    let counted = count_trait_methods(&text);
    let pinned = QUADRANT_METHODS;
    assert!(
        counted >= pinned,
        "trait Quadrant declares {counted} methods, the census says {pinned}: \
         lower the count in tests/surface.rs"
    );
    assert!(
        counted <= pinned,
        "trait Quadrant declares {counted} methods, the census says {pinned}: \
         name the outside user in CHANGES.md and raise the count"
    );
}
