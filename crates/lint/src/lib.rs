//! `thoth-lint` — a dependency-free source lint enforcing repo-wide
//! invariants that `clippy` cannot express:
//!
//! * [`Rule::StdHash`] — hot crates must use `FastMap`/`FastSet`
//!   (`thoth-sim-engine`) instead of `std::collections::HashMap`/
//!   `HashSet`: SipHash dominated simulator profiles before the switch,
//!   and a stray `HashMap` in a hot path silently regresses it.
//! * [`Rule::Println`] — no `println!`/`eprintln!` outside the designated
//!   output crates (`thoth-experiments`, `thoth-bench`, `thoth-testkit`,
//!   `thoth-lint`) and the diagnostics module: library crates must stay
//!   silent so experiment output remains machine-parseable.
//! * [`Rule::Unwrap`] — no `.unwrap()` in non-test library code: use
//!   `.expect("why this cannot fail")` so panics carry their invariant.
//! * [`Rule::Unsafe`] — `unsafe` only in `thoth-crypto` (the SIMD
//!   intrinsics live there behind runtime feature detection); anywhere
//!   else it needs an explicit `thoth-lint: allow(unsafe)` waiver, so
//!   unsound blocks cannot creep into the simulator unaudited.
//! * [`Rule::RelaxedAtomic`] — no `Ordering::Relaxed` atomics in hot
//!   crates: the simulator's determinism contract (and the sanitizer's
//!   happens-before model) assume acquire/release edges; a relaxed
//!   atomic snuck into shared state is exactly the fence-elision bug
//!   `thoth-psan` hunts in traces, appearing in the host program.
//! * [`Rule::StaticMut`] — no bare `static mut` in hot crates: mutable
//!   globals bypass both the borrow checker and the deterministic-replay
//!   story; use interior mutability behind an owned handle (or waive
//!   with justification).
//!
//! The scanner is a small Rust lexer that blanks comments, strings and
//! char literals (so `"HashMap"` in a doc comment never trips a rule),
//! detects `#[cfg(test)]` module spans by brace matching (test code is
//! exempt from every rule), and honors per-line waivers of the form
//! `// thoth-lint: allow(<rule>)`.

#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// The invariants the lint enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `HashMap`/`HashSet` in a hot crate (use `FastMap`/`FastSet`).
    StdHash,
    /// `println!`/`eprintln!` outside the designated output crates.
    Println,
    /// `.unwrap()` in non-test library code (use `.expect(...)`).
    Unwrap,
    /// `unsafe` outside `thoth-crypto` without an explicit waiver.
    Unsafe,
    /// `Ordering::Relaxed` atomics in a hot crate.
    RelaxedAtomic,
    /// Bare `static mut` in a hot crate.
    StaticMut,
}

impl Rule {
    /// Every rule.
    pub const ALL: [Rule; 6] = [
        Rule::StdHash,
        Rule::Println,
        Rule::Unwrap,
        Rule::Unsafe,
        Rule::RelaxedAtomic,
        Rule::StaticMut,
    ];

    /// Stable name, also the waiver token: `thoth-lint: allow(<name>)`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::StdHash => "std-hash",
            Rule::Println => "println",
            Rule::Unwrap => "unwrap",
            Rule::Unsafe => "unsafe",
            Rule::RelaxedAtomic => "relaxed-atomic",
            Rule::StaticMut => "static-mut",
        }
    }

    /// What the rule demands, for the report.
    #[must_use]
    pub fn message(self) -> &'static str {
        match self {
            Rule::StdHash => {
                "std HashMap/HashSet in a hot crate: use FastMap/FastSet (thoth-sim-engine)"
            }
            Rule::Println => {
                "println!/eprintln! in library code: only experiments/bench/testkit/diagnostics print"
            }
            Rule::Unwrap => ".unwrap() in non-test library code: use .expect(\"invariant\")",
            Rule::Unsafe => {
                "unsafe outside thoth-crypto: keep intrinsics in the crypto crate or waive explicitly"
            }
            Rule::RelaxedAtomic => {
                "Ordering::Relaxed atomic in a hot crate: use acquire/release (or waive with why)"
            }
            Rule::StaticMut => {
                "static mut in a hot crate: use interior mutability behind an owned handle"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Crates whose hot paths forbid std hashing.
pub const HOT_CRATES: [&str; 13] = [
    "cache",
    "core",
    "crashtest",
    "crypto",
    "memctrl",
    "merkle",
    "nvm",
    "psan",
    "service",
    "sim",
    "sim-engine",
    "telemetry",
    "workloads",
];

/// Crates allowed to print (their job is producing output).
pub const OUTPUT_CRATES: [&str; 4] = ["experiments", "bench", "testkit", "lint"];

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file,
            self.line,
            self.rule,
            self.rule.message(),
            self.excerpt
        )
    }
}

/// Replaces the contents of comments, string literals and char literals
/// with spaces, preserving byte offsets and newlines, so token searches
/// never match inside them. Handles nested block comments, raw strings
/// (`r"…"`, `r#"…"#`, `br#"…"#`), escapes, and the lifetime/char-literal
/// ambiguity (`'a` vs `'a'`).
#[must_use]
pub fn blank_code(src: &str) -> String {
    let b = src.as_bytes();
    let mut out: Vec<u8> = src.as_bytes().to_vec();
    let n = b.len();
    let mut i = 0;
    // Blank [from, to) keeping newlines.
    let blank = |out: &mut Vec<u8>, from: usize, to: usize| {
        for c in out.iter_mut().take(to).skip(from) {
            if *c != b'\n' {
                *c = b' ';
            }
        }
    };
    let is_ident = |c: u8| c == b'_' || c.is_ascii_alphanumeric();
    while i < n {
        match b[i] {
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                let end = src[i..].find('\n').map_or(n, |p| i + p);
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                let mut depth = 1;
                let mut j = i + 2;
                while j < n && depth > 0 {
                    if j + 1 < n && b[j] == b'/' && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if j + 1 < n && b[j] == b'*' && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i, j);
                i = j;
            }
            b'r' | b'b' if {
                // Raw (or byte) string start: r", r#", br", b".
                let mut j = i;
                if b[j] == b'b' && j + 1 < n && b[j + 1] == b'r' {
                    j += 1;
                }
                let mut k = j + 1;
                while k < n && b[k] == b'#' {
                    k += 1;
                }
                (b[j] == b'r' || (b[i] == b'b' && j == i)) && k < n && b[k] == b'"'
                    && (b[j] == b'r' || k == j + 1)
                    && (i == 0 || !is_ident(b[i - 1]))
            } =>
            {
                let mut j = i;
                if b[j] == b'b' && b[j + 1] == b'r' {
                    j += 1;
                }
                if b[j] == b'r' {
                    // Raw string: count hashes, find closing "### of same arity.
                    let mut hashes = 0;
                    let mut k = j + 1;
                    while b[k] == b'#' {
                        hashes += 1;
                        k += 1;
                    }
                    let open = k; // at the quote
                    let closer: Vec<u8> = std::iter::once(b'"')
                        .chain(std::iter::repeat_n(b'#', hashes))
                        .collect();
                    let rest = &b[open + 1..];
                    let end = rest
                        .windows(closer.len())
                        .position(|w| w == closer.as_slice())
                        .map_or(n, |p| open + 1 + p + closer.len());
                    blank(&mut out, i, end);
                    i = end;
                } else {
                    // b"…": plain string with a prefix; fall through by
                    // blanking from the quote.
                    let end = scan_string(b, i + 1);
                    blank(&mut out, i, end);
                    i = end;
                }
            }
            b'"' => {
                let end = scan_string(b, i);
                blank(&mut out, i, end);
                i = end;
            }
            b'\'' => {
                // Char literal or lifetime. A char literal is 'x', '\…';
                // a lifetime is 'ident not followed by a closing quote.
                if i + 1 < n && b[i + 1] == b'\\' {
                    // Escaped char: the escape body is one char (`'\n'`,
                    // `'\\'`, `'\''`), `\x##`, or `\u{…}` — in every case
                    // the first quote at or after i+3 is the closer.
                    let mut j = i + 3;
                    while j < n && b[j] != b'\'' {
                        j += 1;
                    }
                    blank(&mut out, i, (j + 1).min(n));
                    i = (j + 1).min(n);
                } else if i + 2 < n && b[i + 2] == b'\'' && b[i + 1] != b'\'' {
                    blank(&mut out, i, i + 3);
                    i += 3;
                } else {
                    i += 1; // lifetime: leave the identifier visible
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("blanking preserves UTF-8 structure")
}

/// Scans a plain string literal starting at the opening quote `start`;
/// returns the index one past the closing quote.
fn scan_string(b: &[u8], start: usize) -> usize {
    let n = b.len();
    let mut j = start + 1;
    while j < n {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    n
}

/// Byte spans of `#[cfg(test)]`-gated items (brace-matched from the
/// first `{` after the attribute).
#[must_use]
pub fn test_spans(blanked: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let b = blanked.as_bytes();
    let mut from = 0;
    while let Some(p) = blanked[from..].find("#[cfg(test)]") {
        let at = from + p;
        let Some(open_rel) = blanked[at..].find('{') else {
            break;
        };
        let open = at + open_rel;
        let mut depth = 0usize;
        let mut end = blanked.len();
        for (j, &c) in b.iter().enumerate().skip(open) {
            if c == b'{' {
                depth += 1;
            } else if c == b'}' {
                depth -= 1;
                if depth == 0 {
                    end = j + 1;
                    break;
                }
            }
        }
        spans.push((at, end));
        from = end.max(at + 1);
    }
    spans
}

/// Scans one file's source. `crate_name` decides rule applicability
/// (pass `""` for files outside `crates/`); `in_test_tree` marks files
/// under `tests/`/`benches/` (exempt from every rule).
#[must_use]
pub fn scan_source(
    src: &str,
    file: &str,
    crate_name: &str,
    in_test_tree: bool,
) -> Vec<Violation> {
    if in_test_tree {
        return Vec::new();
    }
    let blanked = blank_code(src);
    let spans = test_spans(&blanked);
    let lines: Vec<&str> = src.lines().collect();

    // Per-line waivers come from the ORIGINAL text (waivers live in
    // comments, which blanking erases).
    let waived = |line_no: usize, rule: Rule| -> bool {
        lines
            .get(line_no - 1)
            .is_some_and(|l| l.contains(&format!("thoth-lint: allow({})", rule.name())))
    };
    let in_test = |off: usize| spans.iter().any(|&(a, z)| off >= a && off < z);
    let line_of = |off: usize| blanked[..off].matches('\n').count() + 1;

    let hot = HOT_CRATES.contains(&crate_name);
    let prints_allowed =
        OUTPUT_CRATES.contains(&crate_name) || file.ends_with("diagnostics.rs");

    let mut out = Vec::new();
    let push = |rule: Rule, off: usize, out: &mut Vec<Violation>| {
        if in_test(off) {
            return;
        }
        let line = line_of(off);
        if waived(line, rule) {
            return;
        }
        out.push(Violation {
            file: file.to_string(),
            line,
            rule,
            excerpt: lines.get(line - 1).unwrap_or(&"").trim().to_string(),
        });
    };

    if hot {
        for tok in ["HashMap", "HashSet"] {
            for off in token_positions(&blanked, tok) {
                push(Rule::StdHash, off, &mut out);
            }
        }
        for off in token_positions(&blanked, "Ordering::Relaxed") {
            push(Rule::RelaxedAtomic, off, &mut out);
        }
        for off in token_positions(&blanked, "static mut") {
            push(Rule::StaticMut, off, &mut out);
        }
    }
    if !prints_allowed {
        for tok in ["println!", "eprintln!"] {
            for off in token_positions(&blanked, tok) {
                push(Rule::Println, off, &mut out);
            }
        }
    }
    for off in token_positions(&blanked, ".unwrap(") {
        push(Rule::Unwrap, off, &mut out);
    }
    if crate_name != "crypto" {
        for off in token_positions(&blanked, "unsafe") {
            push(Rule::Unsafe, off, &mut out);
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Offsets of `tok` in `text` at identifier boundaries (so `HashMapPm`
/// or `eprintln!` never matches a shorter token).
fn token_positions(text: &str, tok: &str) -> Vec<usize> {
    let is_ident = |c: u8| c == b'_' || c.is_ascii_alphanumeric();
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = text[from..].find(tok) {
        let at = from + p;
        let pre_ok = at == 0 || !is_ident(b[at - 1]) && b[at - 1] != b'.' || tok.starts_with('.');
        let post = at + tok.len();
        let post_ok = post >= b.len() || !is_ident(b[post]) || tok.ends_with('(') ;
        if pre_ok && post_ok {
            out.push(at);
        }
        from = at + 1;
    }
    out
}

/// Recursively scans every `.rs` file under `root/crates/*/src` and
/// `root/src`, returning all violations sorted by path and line.
///
/// # Errors
///
/// Returns an error when the directory tree cannot be read.
pub fn scan_repo(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files: Vec<(PathBuf, String, bool)> = Vec::new(); // (path, crate, test-tree)
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let dir = entry?.path();
            if !dir.is_dir() {
                continue;
            }
            let crate_name = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("")
                .to_string();
            for (sub, test_tree) in [("src", false), ("tests", true), ("benches", true)] {
                let p = dir.join(sub);
                if p.is_dir() {
                    collect_rs(&p, &crate_name, test_tree, &mut files)?;
                }
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, "", false, &mut files)?;
    }
    files.sort();

    let mut out = Vec::new();
    for (path, crate_name, test_tree) in files {
        let src = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned();
        out.extend(scan_source(&src, &rel, &crate_name, test_tree));
    }
    Ok(out)
}

fn collect_rs(
    dir: &Path,
    crate_name: &str,
    test_tree: bool,
    out: &mut Vec<(PathBuf, String, bool)>,
) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, crate_name, test_tree, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push((p, crate_name.to_string(), test_tree));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanking_erases_comments_and_strings() {
        let src = r##"let a = "HashMap"; // HashMap in comment
/* HashMap */ let b = 'x'; let r = r#"HashMap"#;
let life: &'static str = "s";"##;
        let out = blank_code(src);
        assert!(!out.contains("HashMap"), "{out}");
        assert!(out.contains("let a"));
        assert!(out.contains("'static"), "lifetimes survive: {out}");
        assert_eq!(out.len(), src.len());
        assert_eq!(out.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn nested_block_comments_blank_fully() {
        let src = "/* outer /* inner */ still comment */ HashMap";
        let out = blank_code(src);
        assert_eq!(out.trim(), "HashMap");
    }

    #[test]
    fn char_escapes_do_not_derail_the_lexer() {
        let src = r"let c = '\n'; let q = '\''; let s = 0.unwrap_marker;";
        let out = blank_code(src);
        assert!(out.contains("unwrap_marker"));
    }

    #[test]
    fn std_hash_flags_only_hot_crates_and_real_tokens() {
        let src = "use std::collections::HashMap;\nstruct HashMapPm;\n";
        let v = scan_source(src, "crates/core/src/x.rs", "core", false);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::StdHash);
        assert_eq!(v[0].line, 1);
        // Same source in a non-hot crate: clean.
        assert!(scan_source(src, "crates/experiments/src/x.rs", "experiments", false).is_empty());
    }

    #[test]
    fn test_mod_and_waivers_are_exempt() {
        let src = "\
use std::collections::HashMap; // thoth-lint: allow(std-hash)
#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    fn f() { None::<u8>.unwrap(); }
}
";
        let v = scan_source(src, "crates/core/src/x.rs", "core", false);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn println_rule_spares_output_crates_and_diagnostics() {
        let src = "fn f() { println!(\"x\"); eprintln!(\"y\"); }\n";
        let v = scan_source(src, "crates/sim/src/machine.rs", "sim", false);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.rule == Rule::Println));
        assert!(scan_source(src, "crates/sim/src/diagnostics.rs", "sim", false).is_empty());
        assert!(scan_source(src, "crates/bench/src/main.rs", "bench", false).is_empty());
    }

    #[test]
    fn unwrap_rule_spares_expect_and_unwrap_or() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) + x.expect(\"set\") }\n";
        assert!(scan_source(src, "crates/sim/src/x.rs", "sim", false).is_empty());
        let bad = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let v = scan_source(bad, "crates/sim/src/x.rs", "sim", false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Unwrap);
    }

    #[test]
    fn unsafe_rule_confines_intrinsics_to_crypto() {
        let src = "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        // Allowed in the crypto crate — that is where the SIMD backends live.
        assert!(scan_source(src, "crates/crypto/src/aes.rs", "crypto", false).is_empty());
        // Flagged anywhere else…
        let v = scan_source(src, "crates/sim/src/machine.rs", "sim", false);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::Unsafe);
        // …unless waived on the line.
        let waived = "fn f() { unsafe { x() } } // thoth-lint: allow(unsafe)\n";
        assert!(scan_source(waived, "crates/sim/src/machine.rs", "sim", false).is_empty());
        // `unsafe` inside strings/comments never trips the rule.
        let doc = "// unsafe is discussed here\nlet s = \"unsafe\";\n";
        assert!(scan_source(doc, "crates/sim/src/x.rs", "sim", false).is_empty());
    }

    #[test]
    fn relaxed_atomic_rule_flags_hot_crates_only() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        let v = scan_source(src, "crates/sim/src/machine.rs", "sim", false);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::RelaxedAtomic);
        // Output crates may pace progress counters however they like.
        assert!(scan_source(src, "crates/experiments/src/runner.rs", "experiments", false)
            .is_empty());
        // Acquire/release orderings are fine even in hot crates.
        let ok = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::AcqRel); }\n";
        assert!(scan_source(ok, "crates/sim/src/machine.rs", "sim", false).is_empty());
        // Waivers and comments/strings are honored as for every rule.
        let waived =
            "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); } // thoth-lint: allow(relaxed-atomic)\n";
        assert!(scan_source(waived, "crates/sim/src/machine.rs", "sim", false).is_empty());
        let doc = "// Ordering::Relaxed is discussed here\nlet s = \"Ordering::Relaxed\";\n";
        assert!(scan_source(doc, "crates/sim/src/x.rs", "sim", false).is_empty());
    }

    #[test]
    fn static_mut_rule_flags_bare_mutable_globals() {
        let src = "static mut COUNTER: u64 = 0;\n";
        let v = scan_source(src, "crates/memctrl/src/wpq.rs", "memctrl", false);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::StaticMut);
        // Immutable statics are fine; so are non-hot crates and waivers.
        assert!(scan_source("static N: u64 = 0;\n", "crates/memctrl/src/x.rs", "memctrl", false)
            .is_empty());
        assert!(scan_source(src, "crates/experiments/src/x.rs", "experiments", false).is_empty());
        let waived = "static mut C: u64 = 0; // thoth-lint: allow(static-mut)\n";
        assert!(scan_source(waived, "crates/memctrl/src/x.rs", "memctrl", false).is_empty());
    }

    #[test]
    fn test_tree_files_are_fully_exempt() {
        let src = "use std::collections::HashMap;\nfn f() { None::<u8>.unwrap(); }\n";
        assert!(scan_source(src, "crates/core/tests/t.rs", "core", true).is_empty());
    }

    #[test]
    fn the_repo_is_clean() {
        // The lint's own acceptance test: the repository it lives in
        // passes it. CARGO_MANIFEST_DIR = crates/lint.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/lint has a repo root");
        let violations = scan_repo(root).expect("scan");
        assert!(
            violations.is_empty(),
            "repo violates its own lints:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
