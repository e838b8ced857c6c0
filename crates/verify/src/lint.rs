//! `dsi-lint`: a lightweight source-token lint enforcing the repo's
//! determinism invariants.
//!
//! The whole test pyramid — 120 bit-for-bit `ChannelStats` goldens, the
//! conformance grid, the chaos harness — assumes the library is
//! *deterministic*: same dataset, same seed, same numbers. The
//! recurring ways that assumption has historically rotted in broadcast
//! codebases are codified as lint rules here. The pass is a token scan
//! over the workspace sources (no syn, no crates.io), wired into `cargo
//! test` (`crates/verify/tests/lint_workspace.rs`) and the CI `verify`
//! job, both of which fail on any finding.
//!
//! # Rules
//!
//! ## `rng` — no RNG construction in deterministic library crates
//!
//! **What it catches:** construction of random generators
//! (`seed_from_u64`, `thread_rng`, `from_entropy`, `rand::random`) inside
//! the library crates (`geom`, `hilbert`, `broadcast`, `core`, `rtree`,
//! `bptree`), outside the two sanctioned homes of randomness:
//! `broadcast::loss` (the link-error models) and `broadcast::tuner` (the
//! client's loss draws), with `datagen` (workload synthesis) out of scope
//! by design. **Why:** an RNG anywhere else in the library makes index
//! construction or navigation run-dependent, which silently invalidates
//! every golden. **How to silence:** append `// dsi-lint: allow(rng):
//! <why this site is deterministic>` on or directly above the line.
//!
//! ## `hash` — no `HashMap`/`HashSet` in golden-affecting paths
//!
//! **What it catches:** any `HashMap`/`HashSet` mention in library-crate
//! sources. **Why:** `std` hash iteration order is randomized per
//! process; iterating one in a stats- or answer-affecting path produces
//! run-dependent output that may pass locally and flake in CI. Keyed
//! *lookups* are fine — but the lint cannot tell a lookup from an
//! iteration, so every use must be audited once and annotated. **How to
//! silence:** `// dsi-lint: allow(hash): <why iteration order never
//! escapes>` on or directly above the line (e.g. contents are drained
//! through a sort before anything observable).
//!
//! ## `sync` — shim-scoped code must not use raw `std` primitives
//!
//! **What it catches:** `std::sync::{Mutex, Condvar, RwLock, atomic,
//! ...}` and `std::thread::{spawn, Builder, JoinHandle,
//! available_parallelism, sleep}` tokens (including inside grouped
//! imports) in the files holding what the fleet's workers share —
//! `dsi_sim::fleet` (the dispatch, ported to the `interleave` shims) and
//! `dsi_core::share` (the decomposition table, immutable once shared, so
//! it needs none). `Arc` and the non-scheduling helpers (`PoisonError`,
//! `std::thread::panicking`, ...) are exempt. **Why:** one raw `std`
//! primitive there is invisible to the `dsi-model` scheduler, so every
//! exploration result silently stops covering that path; a primitive
//! that code needs goes through the shim, model half first. **How to
//! silence:** `// dsi-lint: allow(sync): <why the model need not see
//! this primitive>`.
//!
//! # Scope
//!
//! `lint_workspace` walks `crates/*/src`, the umbrella `src/`, **and**
//! `vendor/*/src` — the vendored crates are first-party code here.
//! The `rng`/`hash` rules stay scoped to the library crates:
//! `vendor/rand` constructs RNGs by definition, and no vendor crate sits
//! on a golden-affecting path.
//! `target/`, test directories and `#[cfg(test)]` modules are skipped
//! (tests are free to use RNGs and hash maps).
//!
//! Token matching runs on *code only*: a cross-line state machine
//! strips `//` comments, nested `/* */` blocks, and the contents of
//! string, raw-string and char literals first, so tokens mentioned in
//! prose or embedded in strings never trip a rule — and a `//` inside a
//! string literal does not hide the code after it. Directives
//! (`dsi-lint: ...`) are parsed from the raw lines, where they live.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding: file, line, rule, and the offending source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier: `"rng"`, `"hash"` or `"sync"`.
    pub rule: &'static str,
    /// The trimmed source line.
    pub excerpt: String,
}

impl std::fmt::Display for LintFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.excerpt
        )
    }
}

/// Crates whose `src/` trees are golden-affecting ("library" scope for
/// the `rng` and `hash` rules). `datagen` (workload synthesis), `sim`,
/// `bench` and `verify` are harness code: their RNGs are seeded
/// experiment inputs, not hidden library state.
const LIBRARY_CRATES: &[&str] = &["geom", "hilbert", "broadcast", "core", "rtree", "bptree"];

/// Files inside library scope where RNG construction is the *point*:
/// the link-error models and the client's loss draws.
const RNG_HOMES: &[&str] = &[
    "crates/broadcast/src/loss.rs",
    "crates/broadcast/src/tuner.rs",
];

/// RNG construction tokens. Constructions, not uses: every `gen_range`
/// call needs a generator built somewhere, so flagging construction
/// keeps the findings one-per-site.
const RNG_TOKENS: &[&str] = &[
    "seed_from_u64",
    "thread_rng(",
    "from_entropy(",
    "rand::random",
];

/// Files holding what the fleet's workers share: raw `std`
/// synchronization there escapes the model scheduler (`sync` rule
/// scope). Entries are prefixes, matched against workspace-relative
/// paths.
const SYNC_SHIM_SCOPE: &[&str] = &["crates/core/src/share.rs", "crates/sim/src/fleet.rs"];

/// `std::sync` items banned in shim scope (the scheduling-relevant
/// primitives the shims replace). Everything else — `Arc`, the poison
/// error types — is inert.
const STD_SYNC_BANNED: &[&str] = &[
    "Mutex", "Condvar", "RwLock", "Barrier", "Once", "OnceLock", "mpsc", "atomic",
];

/// `std::thread` items banned in shim scope (the shims provide model
/// versions). `panicking`, `current`, `Result` stay allowed.
const STD_THREAD_BANNED: &[&str] = &[
    "spawn",
    "Builder",
    "JoinHandle",
    "available_parallelism",
    "sleep",
    "park",
];

/// Lints every workspace source file under `root` (`crates/*/src` and
/// the umbrella `src/`). Returns all findings; empty means clean.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<LintFinding>> {
    let mut files = Vec::new();
    for tree in ["crates", "vendor"] {
        let dir = root.join(tree);
        if dir.is_dir() {
            for entry in fs::read_dir(&dir)? {
                let src = entry?.path().join("src");
                if src.is_dir() {
                    collect_rs(&src, &mut files)?;
                }
            }
        }
    }
    let umbrella = root.join("src");
    if umbrella.is_dir() {
        collect_rs(&umbrella, &mut files)?;
    }
    files.sort();
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        findings.extend(lint_source(&rel, &src));
    }
    Ok(findings)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && name != "vendor" {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints one source file (`rel` is its workspace-relative path, which
/// determines rule scope). Exposed separately so rule behaviour is
/// unit-testable on synthetic sources.
pub fn lint_source(rel: &str, src: &str) -> Vec<LintFinding> {
    let in_library = LIBRARY_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")));
    let rng_scope = in_library && !RNG_HOMES.contains(&rel);
    let sync_scope = SYNC_SHIM_SCOPE
        .iter()
        .any(|p| rel.starts_with(p) || rel == *p);
    let lines: Vec<&str> = src.lines().collect();
    let stripped = strip_code(src);
    let mut findings = Vec::new();
    // `#[cfg(test)]` module skipping: once the attribute is seen, skip
    // until the brace opened by the following item closes.
    let mut skip_depth: i64 = 0;
    let mut pending_skip = false;
    for (i, raw) in lines.iter().enumerate() {
        let trimmed = raw.trim();
        if skip_depth > 0 || pending_skip {
            let opens = raw.matches('{').count() as i64;
            let closes = raw.matches('}').count() as i64;
            if pending_skip && opens > 0 {
                pending_skip = false;
                skip_depth = opens - closes;
            } else if skip_depth > 0 {
                skip_depth += opens - closes;
            }
            if skip_depth <= 0 && !pending_skip {
                skip_depth = 0;
            }
            continue;
        }
        if trimmed.starts_with("#[cfg(test)]") {
            pending_skip = true;
            continue;
        }
        // Directives are parsed from the raw line (they live in
        // comments); code tokens from the stripped line.
        let allow = |rule: &str| {
            let directive = format!("dsi-lint: allow({rule})");
            raw.contains(&directive) || (i > 0 && lines[i - 1].contains(&directive))
        };
        let code = stripped[i].as_str();
        let mut flag = |rule: &'static str| {
            if !allow(rule) {
                findings.push(LintFinding {
                    file: rel.to_string(),
                    line: i + 1,
                    rule,
                    excerpt: trimmed.chars().take(100).collect(),
                });
            }
        };
        if rng_scope && RNG_TOKENS.iter().any(|t| code.contains(t)) {
            flag("rng");
        }
        if in_library && (code.contains("HashMap") || code.contains("HashSet")) {
            flag("hash");
        }
        if sync_scope && uses_raw_sync(code) {
            flag("sync");
        }
    }
    findings
}

/// `true` when `code` names a banned `std::sync`/`std::thread` item,
/// including through grouped imports like `use std::sync::{Arc, Mutex}`.
fn uses_raw_sync(code: &str) -> bool {
    path_names_banned(code, "std::sync::", STD_SYNC_BANNED)
        || path_names_banned(code, "std::thread::", STD_THREAD_BANNED)
}

fn path_names_banned(code: &str, prefix: &str, banned: &[&str]) -> bool {
    let mut rest = code;
    while let Some(at) = rest.find(prefix) {
        let suffix = &rest[at + prefix.len()..];
        if let Some(group) = suffix.strip_prefix('{') {
            let group = group.split('}').next().unwrap_or(group);
            for item in group.split(',') {
                let ident = first_ident(item.trim());
                if banned.contains(&ident) {
                    return true;
                }
            }
        } else if banned.contains(&first_ident(suffix)) {
            return true;
        }
        rest = suffix;
    }
    false
}

/// The leading `[A-Za-z0-9_]+` run of `s` (empty when none).
fn first_ident(s: &str) -> &str {
    let end = s
        .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .unwrap_or(s.len());
    &s[..end]
}

/// Per-line code with comments and literal contents removed: a
/// cross-line state machine over `//` comments, nested `/* */` blocks,
/// string / raw-string / char literals (quotes are kept, contents
/// dropped) and lifetimes (kept — they are code).
fn strip_code(src: &str) -> Vec<String> {
    #[derive(Clone, Copy)]
    enum St {
        Code,
        Block(usize),
        Str,
        RawStr(usize),
    }
    let mut state = St::Code;
    let mut out = Vec::new();
    for line in src.lines() {
        let b: Vec<char> = line.chars().collect();
        let mut code = String::with_capacity(line.len());
        let mut i = 0;
        while i < b.len() {
            match state {
                St::Block(depth) => {
                    if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        state = St::Block(depth + 1);
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        state = if depth > 1 {
                            St::Block(depth - 1)
                        } else {
                            St::Code
                        };
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                St::Str => {
                    if b[i] == '\\' {
                        i += 2;
                    } else if b[i] == '"' {
                        code.push('"');
                        state = St::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                St::RawStr(hashes) => {
                    if b[i] == '"' && (1..=hashes).all(|k| b.get(i + k) == Some(&'#')) {
                        code.push('"');
                        state = St::Code;
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                }
                St::Code => {
                    let c = b[i];
                    if c == '/' && b.get(i + 1) == Some(&'/') {
                        break; // line comment: rest of the line is prose
                    } else if c == '/' && b.get(i + 1) == Some(&'*') {
                        state = St::Block(1);
                        i += 2;
                    } else if c == '"' {
                        code.push('"');
                        state = St::Str;
                        i += 1;
                    } else if c == 'r'
                        && (i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == '_'))
                        && matches!(b.get(i + 1), Some('"') | Some('#'))
                    {
                        let mut hashes = 0;
                        while b.get(i + 1 + hashes) == Some(&'#') {
                            hashes += 1;
                        }
                        if b.get(i + 1 + hashes) == Some(&'"') {
                            code.push('"');
                            state = St::RawStr(hashes);
                            i += 2 + hashes;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    } else if c == '\'' {
                        // Char literal vs lifetime: 'x' or '\n' is a
                        // literal (skip its contents); 'a as in a
                        // lifetime or loop label is code (keep going).
                        if b.get(i + 1) == Some(&'\\') {
                            let mut j = i + 2;
                            if j < b.len() {
                                j += 1; // the escaped character itself
                            }
                            while j < b.len() && b[j] != '\'' {
                                j += 1;
                            }
                            i = (j + 1).min(b.len());
                        } else if b.get(i + 2) == Some(&'\'') {
                            i += 3;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
            }
        }
        // A `//` comment or literal never carries `St::Str` across
        // lines in valid Rust we care about; reset dangling strings at
        // EOL only for line comments (handled by the break above).
        out.push(code);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_construction_in_library_scope_is_flagged() {
        let f = lint_source(
            "crates/core/src/build.rs",
            "let mut rng = StdRng::seed_from_u64(7);\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "rng");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn rng_homes_and_harness_crates_are_exempt() {
        let src = "let mut rng = StdRng::seed_from_u64(7);\n";
        assert!(lint_source("crates/broadcast/src/loss.rs", src).is_empty());
        assert!(lint_source("crates/broadcast/src/tuner.rs", src).is_empty());
        assert!(lint_source("crates/sim/src/matrix.rs", src).is_empty());
        assert!(lint_source("crates/datagen/src/lib.rs", src).is_empty());
        // rng/hash stay library-crate scoped: vendor/rand *is* the RNG.
        let vendored = "let mut rng = StdRng::seed_from_u64(7);\nuse std::collections::HashMap;\n";
        assert!(lint_source("vendor/rand/src/lib.rs", vendored).is_empty());
    }

    #[test]
    fn hash_in_library_scope_is_flagged_and_silencable() {
        let flagged = "use std::collections::HashMap;\n";
        let f = lint_source("crates/rtree/src/client.rs", flagged);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "hash");
        let silenced = "// dsi-lint: allow(hash): drained through a sort\n\
                        use std::collections::HashMap;\n";
        assert!(lint_source("crates/rtree/src/client.rs", silenced).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = "fn a() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use std::collections::HashMap;\n\
                       fn b() { let _ = StdRng::seed_from_u64(1); }\n\
                   }\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn tokens_in_comments_do_not_trip_rules() {
        let src = "// a HashMap would be wrong here; see seed_from_u64 docs\nlet x = 1;\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn tokens_in_string_literals_do_not_trip_rules() {
        // Regression: the pre-stripper lint matched tokens embedded in
        // string literals (error messages, doc strings fed to panics).
        let src = "let msg = \"prefer BTreeMap over HashMap here\";\n\
                   let hint = \"seed_from_u64 makes runs reproducible\";\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn comment_marker_inside_string_does_not_hide_code() {
        // Regression: the pre-stripper lint truncated at the `//`
        // inside the URL, hiding the HashMap after it.
        let src = "let url = \"https://example.com\"; use std::collections::HashMap;\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "hash");
    }

    #[test]
    fn multi_line_block_comments_are_stripped() {
        let src = "/*\n\
                    * a HashMap would flake here, and thread_rng( too\n\
                    */\n\
                   let x = 1; /* nested /* HashSet */ still comment */ let y = 2;\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn char_literals_and_lifetimes_are_handled() {
        // The '"' char literal must not open a string (which would
        // swallow the HashMap); the lifetime must stay code.
        let src = "fn f<'a>(x: &'a str) -> char { '\"' }\nuse std::collections::HashMap;\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "hash");
    }

    #[test]
    fn raw_sync_in_shim_scope_is_flagged() {
        let f = lint_source("crates/core/src/share.rs", "use std::sync::Mutex;\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "sync");
        // Grouped imports are seen through.
        let grouped = "use std::sync::{Arc, Mutex};\n";
        assert_eq!(lint_source("crates/core/src/share.rs", grouped).len(), 1);
        // Inline paths too, and std::thread spawns.
        let inline = "let m = std::sync::atomic::AtomicUsize::new(0);\n";
        assert_eq!(lint_source("crates/core/src/share.rs", inline).len(), 1);
        let f = lint_source("crates/core/src/share.rs", "std::thread::spawn(f);\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "sync");
        // The fleet dispatch is in scope too.
        let workers = "let w = std::thread::available_parallelism();\n";
        assert_eq!(lint_source("crates/sim/src/fleet.rs", workers).len(), 1);
    }

    #[test]
    fn sync_rule_exempts_arc_and_out_of_scope_files() {
        assert!(lint_source("crates/core/src/share.rs", "use std::sync::Arc;\n").is_empty());
        assert!(lint_source(
            "crates/core/src/share.rs",
            "use std::sync::{Arc, PoisonError};\nif std::thread::panicking() {}\n"
        )
        .is_empty());
        // Outside shim scope, raw std primitives are fine.
        assert!(lint_source("crates/sim/src/runner.rs", "use std::sync::Mutex;\n").is_empty());
        // And an audited allow silences it in scope.
        let allowed = "// dsi-lint: allow(sync): teardown-only, never explored\n\
                       use std::sync::Mutex;\n";
        assert!(lint_source("crates/core/src/share.rs", allowed).is_empty());
    }
}
