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

use std::path::Path;

/// `(crate directory, pub items)` — 636 before the census existed, 477
/// before the caller-less items and their tests went.
const SURFACE: [(&str, usize); 9] = [
    ("bench", 30),
    ("comm", 77),
    ("connectivity", 16),
    ("core", 89),
    ("forest", 79),
    ("pde", 28),
    ("query", 34),
    ("telemetry", 84),
    ("vtk", 5),
];

/// `fn` declarations inside `pub trait Quadrant` — 42 before the
/// caller-less methods went.
const QUADRANT_METHODS: usize = 32;

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

fn count_pub_items(dir: &Path) -> usize {
    let mut count = 0;
    for entry in std::fs::read_dir(dir).expect("crate source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            count += count_pub_items(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("source file");
            count += text.lines().filter(|l| is_pub_item(l)).count();
        }
    }
    count
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
