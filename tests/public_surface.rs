//! Every public item has a product caller.
//!
//! Lists each `pub fn|struct|enum|trait|const|type` declared in
//! `crates/*/src` before the file's `#[cfg(test)]` module, and fails when
//! the item's name appears nowhere in the non-test code of the workspace
//! (`crates/*/src`, `shims/*/src`, `src/`) or of the benchmark probe
//! (`benchmark/probe/src`) except in its own declaration. Comments and
//! `pub use` re-exports are not uses; a mention inside a string literal
//! is. The check is by name: a name declared twice needs a use beyond both
//! declarations.
//!
//! The allowlist below names the exceptions, each with its reason; an
//! entry that gains a caller or loses its item fails the test too, so the
//! list stays as short as it is.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Public items without a product caller, and why they stay.
const ALLOWED: &[(&str, &str)] = &[
    (
        "brute_force_min_conflicts",
        "Theorem 1 oracle that tests/properties.rs holds integrity-greedy to",
    ),
    (
        "cg_of",
        "CG lookup the coloring property checks conflicting pairs with",
    ),
    (
        "conserves",
        "byte-conservation oracle of the ingest-buffer tests",
    ),
    (
        "normal",
        "Gaussian inputs of the layer gradchecks and step-scratch properties",
    ),
    ("mobilenet_v1_depthwise", "owned by ROADMAP item 11(c)"),
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, in a fixed order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|e| e.expect("a directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The `src` directories of every package under `parent` (`crates`,
/// `shims`).
fn package_sources(parent: &str) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root().join(parent))
        .expect("the workspace layout")
        .map(|e| e.expect("a directory entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    dirs.sort();
    dirs
}

/// A file's source before its first column-0 `#[cfg(test)]`.
fn non_test(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("a readable source file");
    let end = text
        .match_indices("#[cfg(test)]")
        .find(|&(at, _)| at == 0 || text.as_bytes()[at - 1] == b'\n')
        .map_or(text.len(), |(at, _)| at);
    text[..end].to_string()
}

/// `src` with comments and char literals blanked out; string literals stay.
fn code_only(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    while i < b.len() {
        let rest = &src[i..];
        if rest.starts_with("//") {
            i += rest.find('\n').unwrap_or(rest.len());
        } else if rest.starts_with("/*") {
            let mut depth = 0;
            while i < b.len() {
                if src[i..].starts_with("/*") {
                    depth += 1;
                    i += 2;
                } else if src[i..].starts_with("*/") {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            out.push(' ');
        } else if (b[i] == b'r' || rest.starts_with("br"))
            && (i == 0 || !ident(b[i - 1]))
            && rest
                .trim_start_matches('b')
                .strip_prefix('r')
                .is_some_and(|r| r.trim_start_matches('#').starts_with('"'))
        {
            // raw string: r"…", r#"…"#, br"…"
            let open = rest.find('"').expect("a raw string quote");
            let hashes = &rest[rest.find('r').expect("the r") + 1..open];
            let close = format!("\"{hashes}");
            let end = rest[open + 1..].find(&close).expect("a closed raw string");
            let len = open + 1 + end + close.len();
            out.push_str(&rest[..len]);
            i += len;
        } else if b[i] == b'"' {
            let start = i;
            i += 1;
            while b[i] != b'"' {
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            i += 1;
            out.push_str(&src[start..i]);
        } else if b[i] == b'\'' {
            // a char literal ('x', '\n', '\u{..}'); otherwise a lifetime
            let lit = if b.get(i + 1) == Some(&b'\\') {
                // the escaped char itself may be a quote: look past it
                rest[3..].find('\'').map(|end| end + 4)
            } else {
                let c = rest[1..].chars().next().map_or(0, char::len_utf8);
                (rest[1 + c..].starts_with('\'')).then_some(c + 2)
            };
            i += lit.unwrap_or(1);
            out.push(' ');
        } else {
            let c = rest.chars().next().expect("a char");
            out.push(c);
            i += c.len_utf8();
        }
    }
    out
}

/// The identifiers of `code`, in order.
fn identifiers(code: &str) -> Vec<&str> {
    code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|t| t.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
        .collect()
}

/// `code` without its `pub use …;` re-exports.
fn without_reexports(code: &str) -> String {
    let mut out = String::with_capacity(code.len());
    let mut rest = code;
    while let Some(at) = rest.find("pub use ") {
        let before_ok = rest[..at].ends_with(|c: char| c.is_whitespace()) || at == 0;
        let end = at + rest[at..].find(';').map_or(rest.len() - at, |e| e + 1);
        out.push_str(&rest[..at]);
        if !before_ok {
            out.push_str(&rest[at..end]);
        }
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

/// The names of the `pub fn|struct|enum|trait|const|type` items `code`
/// declares (not `pub(crate)` and the like).
fn declarations(code: &str) -> Vec<String> {
    let words: Vec<&str> = code.split_whitespace().collect();
    let mut names = Vec::new();
    for (i, w) in words.iter().enumerate() {
        if *w != "pub" {
            continue;
        }
        let mut j = i + 1;
        while words
            .get(j)
            .is_some_and(|w| matches!(*w, "const" | "unsafe" | "async"))
            && words
                .get(j + 1)
                .is_some_and(|w| matches!(*w, "fn" | "unsafe" | "async"))
        {
            j += 1;
        }
        let kind = words.get(j).copied().unwrap_or("");
        if matches!(kind, "fn" | "struct" | "enum" | "trait" | "const" | "type") {
            if let Some(name) = words
                .get(j + 1)
                .and_then(|n| identifiers(n).first().copied())
            {
                names.push(name.to_string());
            }
        }
    }
    names
}

#[test]
fn every_public_item_has_a_product_caller() {
    let mut declared: Vec<(String, PathBuf)> = Vec::new();
    let mut uses: HashMap<String, usize> = HashMap::new();
    let mut sources = package_sources("crates");
    let declaring = sources.len();
    sources.extend(package_sources("shims"));
    sources.push(root().join("src"));
    sources.push(root().join("benchmark/probe/src"));
    for (k, dir) in sources.iter().enumerate() {
        let mut files = Vec::new();
        rust_files(dir, &mut files);
        for path in files {
            let code = code_only(&non_test(&path));
            if k < declaring {
                for name in declarations(&code) {
                    declared.push((name, path.clone()));
                }
            }
            for id in identifiers(&without_reexports(&code)) {
                *uses.entry(id.to_string()).or_default() += 1;
            }
        }
    }
    assert!(declared.len() > 100, "found {} items", declared.len());

    let mut declarations_of: HashMap<&str, usize> = HashMap::new();
    for (name, _) in &declared {
        *declarations_of.entry(name).or_default() += 1;
    }
    let unused = |name: &str| uses.get(name).copied().unwrap_or(0) <= declarations_of[name];
    let allowed = |name: &str| ALLOWED.iter().any(|&(a, _)| a == name);
    let orphans: Vec<String> = declared
        .iter()
        .filter(|(name, _)| unused(name) && !allowed(name))
        .map(|(name, path)| {
            let path = path.strip_prefix(root()).unwrap_or(path);
            format!("{name} ({})", path.display())
        })
        .collect();
    assert!(
        orphans.is_empty(),
        "public items with no product caller — use them, delete them, or \
         allowlist them with a reason: {orphans:?}"
    );

    for &(name, reason) in ALLOWED {
        assert!(
            declarations_of.contains_key(name),
            "allowlisted `{name}` ({reason}) is no longer declared"
        );
        assert!(
            unused(name),
            "allowlisted `{name}` ({reason}) has a caller now: drop the entry"
        );
    }
}

#[test]
fn the_scanner_sees_what_it_should() {
    let code = code_only(
        "pub fn used() {} // pub fn in_a_comment\n\
         /* pub struct Hidden; */ pub(crate) fn private() {}\n\
         pub const fn konst() -> char { '\"' } const Q: char = '\\'';\n\
         fn caller<'a>(x: &'a str) { used(); let _ = (\"named // here\", r#\"raw\"#); }\n\
         pub use crate::reexported;\n",
    );
    assert_eq!(declarations(&code), ["used", "konst"]);
    let kept = without_reexports(&code);
    let ids = identifiers(&kept);
    assert_eq!(ids.iter().filter(|&&i| i == "used").count(), 2);
    for seen in ["named", "here", "raw"] {
        assert!(ids.contains(&seen), "{seen} in {ids:?}");
    }
    for gone in ["in_a_comment", "Hidden", "reexported"] {
        assert!(!ids.contains(&gone), "{gone} in {ids:?}");
    }
}
