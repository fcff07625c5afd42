//! `mira-lint`: workspace-wide domain-invariant static analysis.
//!
//! The paper's conclusions rest on six years of trustworthy telemetry;
//! a single unit mix-up, silent `NaN`, or nondeterministic RNG call
//! invalidates every downstream figure. This crate machine-enforces the
//! conventions the workspace relies on, with zero registry dependencies
//! (a hand-rolled scanner in [`lexer`] and item parser in [`parser`],
//! not `syn`):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `raw-f64-in-public-api` | physics-crate public `fn`s use `mira-units` newtypes |
//! | `nondeterminism` | no wall clocks / unseeded RNGs in simulation crates |
//! | `panic-reachability` | no panic site reachable from audited public fns |
//! | `unit-flow` | no raw unit `f64` crossing crates untagged |
//! | `determinism-taint` | no nondeterminism reachable from sweep/summary |
//! | `alloc-in-hot-path` | no allocation reachable from the sweep and row-text hot roots |
//! | `cache-purity` | fns feeding memo layers are pure |
//! | `shared-state-escape` | no shared mutable state under spawned work |
//! | `lock-order` | no cycle in the workspace lock-acquisition graph |
//! | `guard-across-blocking` | no guard held across blocking I/O |
//! | `guard-across-panic` | no guard held across a panic-reachable call |
//! | `atomic-ordering` | orderings name the protocol, no blanket `SeqCst` |
//! | `unjoined-thread` | every `thread::spawn` handle is joined |
//!
//! The first two are *line* rules; the rest are *semantic* rules
//! that run over a workspace [`index::SymbolIndex`] and
//! [`callgraph::CallGraph`] built by [`parser`] (several also over the
//! per-body facts from [`dataflow`]; the five lock/atomic/thread rules
//! live in [`concurrency`]). Files are scanned in
//! parallel (`MIRA_LINT_THREADS`, same shard-claim discipline as
//! `mira-core::sweep`) and findings merge in deterministic file order,
//! so output is byte-identical at any worker count.
//!
//! What rustc or clippy already enforce is left to them: `unwrap()` /
//! `expect(..)` / `panic!`, lossy `as` casts, float `==`, and calls to
//! `#[deprecated]` items are denied by the clippy passes in `ci.sh`
//! (DESIGN.md §7 maps each retired rule to its lint).
//!
//! Violations can be waved through inline (`// mira-lint:
//! allow(<rule>)` on the offending line or the one above) or
//! grandfathered in bulk via `lint-allow.toml` budgets
//! ([`allowlist`]). The binary walks `crates/*/src/**/*.rs` and exits
//! nonzero on any unallowed finding; `tests/lint_gate.rs` runs the same
//! engine under `cargo test`, so the gate cannot be skipped.

pub mod allowlist;
pub mod callgraph;
pub(crate) mod concurrency;
pub mod dataflow;
pub mod index;
pub mod lexer;
pub mod parser;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

pub use allowlist::{gate, Allowlist, Gated};
pub use callgraph::CallGraph;
pub use index::SymbolIndex;
pub use rules::{check_file, semantic_findings, Finding, Rule};

/// Environment variable pinning the scan worker count.
pub const THREADS_ENV: &str = "MIRA_LINT_THREADS";

/// Worker count: `MIRA_LINT_THREADS` if set to a positive integer,
/// otherwise available parallelism capped at 8. The cap keeps the
/// file-claim loop from drowning in spawn overhead on big hosts; the
/// merge is deterministic at any value.
#[must_use]
pub fn effective_threads() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get().min(8)))
}

/// Scan one source string as though it lived at `path` (which decides
/// crate-specific rules). Line rules only — semantic rules need the
/// whole workspace; see [`Workspace::scan`].
#[must_use]
pub fn scan_source(path: &Path, source: &str) -> Vec<Finding> {
    check_file(path, &lexer::analyze(source))
}

/// All `.rs` files under `crates/*/src`, workspace-relative, sorted.
///
/// # Errors
/// Returns any I/O error hit while walking (a vanished dir mid-walk).
pub fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    for file in &mut files {
        if let Ok(rel) = file.strip_prefix(root) {
            *file = rel.to_path_buf();
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Everything the scan needs, loaded into memory: sources and crate
/// manifests, both workspace-relative.
#[derive(Debug)]
pub struct Workspace {
    /// `(relative path, contents)` of every `crates/*/src/**/*.rs`,
    /// sorted by path.
    pub sources: Vec<(PathBuf, String)>,
    /// `(relative path, contents)` of every `crates/*/Cargo.toml`.
    pub manifests: Vec<(PathBuf, String)>,
}

impl Workspace {
    /// Load a workspace from disk.
    ///
    /// # Errors
    /// Returns the first unreadable file or directory.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut sources = Vec::new();
        for rel in workspace_sources(root)? {
            let text = fs::read_to_string(root.join(&rel))?;
            sources.push((rel, text));
        }
        let mut manifests = Vec::new();
        let crates_dir = root.join("crates");
        let mut dirs: Vec<PathBuf> = Vec::new();
        for entry in fs::read_dir(&crates_dir)? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                dirs.push(entry.path());
            }
        }
        dirs.sort();
        for dir in dirs {
            let manifest = dir.join("Cargo.toml");
            if manifest.is_file() {
                let text = fs::read_to_string(&manifest)?;
                let rel = manifest
                    .strip_prefix(root)
                    .map_or_else(|_| manifest.clone(), Path::to_path_buf);
                manifests.push((rel, text));
            }
        }
        Ok(Workspace { sources, manifests })
    }

    /// Build a workspace from in-memory files (fixtures, tests). `.rs`
    /// entries become sources; `Cargo.toml` entries become manifests.
    #[must_use]
    pub fn from_files(files: Vec<(PathBuf, String)>) -> Workspace {
        let mut sources = Vec::new();
        let mut manifests = Vec::new();
        for (rel, text) in files {
            if rel.extension().is_some_and(|e| e == "rs") {
                sources.push((rel, text));
            } else if rel.file_name().is_some_and(|n| n == "Cargo.toml") {
                manifests.push((rel, text));
            }
        }
        sources.sort_by(|a, b| a.0.cmp(&b.0));
        manifests.sort_by(|a, b| a.0.cmp(&b.0));
        Workspace { sources, manifests }
    }

    /// Run every rule with `threads` workers. The per-file pass
    /// (lexing, line rules, parsing) is sharded exactly like
    /// `mira-core::sweep` — workers claim file indices from an atomic
    /// counter — and results merge in file order, so findings are
    /// byte-identical at any worker count. The semantic pass is
    /// single-threaded over the merged index (it is a small fraction of
    /// the work).
    #[must_use]
    pub fn scan(&self, threads: usize) -> Vec<Finding> {
        self.assemble(scan_files_sharded(&self.sources, threads.max(1)))
    }

    /// The post-shard pipeline: merge per-file passes in file order,
    /// build the index and call graph, run the semantic rules, and sort
    /// by the total key (file, line, column, rule, message).
    fn assemble(&self, per_file: Vec<FilePass>) -> Vec<Finding> {
        let mut findings = Vec::new();
        let mut parsed = Vec::with_capacity(per_file.len());
        for (mut file_findings, parsed_file) in per_file {
            findings.append(&mut file_findings);
            parsed.push(parsed_file);
        }

        let index = SymbolIndex::build(parsed, &self.manifests);

        // The per-file pass cannot see `#[cfg(test)] mod x;` pointing
        // at a sibling file; the index can. Drop line findings from
        // files it proved test-only so both layers agree on scope.
        let test_paths: std::collections::BTreeSet<&Path> = index
            .test_files
            .iter()
            .map(|&i| index.files[i].rel.as_path())
            .collect();
        findings.retain(|f| !test_paths.contains(f.file.as_path()));

        let graph = CallGraph::build(&index);
        findings.extend(semantic_findings(&index, &graph));

        findings.sort_by(|a, b| {
            (&a.file, a.line, a.column, a.rule, &a.matched)
                .cmp(&(&b.file, b.line, b.column, b.rule, &b.matched))
        });
        findings
    }
}

type FilePass = (Vec<Finding>, parser::ParsedFile);

/// One file's pass: lex, line rules, parse.
fn scan_file(rel: &Path, text: &str) -> FilePass {
    let lines = lexer::analyze(text);
    let findings = check_file(rel, &lines);
    let parsed = parser::parse_file(rel, text, &lines, &rules::UNIT_TYPES);
    (findings, parsed)
}

/// The deterministic shard scan: `workers` threads claim file indices
/// from a shared counter; each result lands in its file's slot; the
/// merge reads slots in file order.
fn scan_files_sharded(sources: &[(PathBuf, String)], threads: usize) -> Vec<FilePass> {
    let workers = threads.min(sources.len()).max(1);
    let slots: Vec<Mutex<Option<FilePass>>> = sources.iter().map(|_| Mutex::new(None)).collect();

    if workers > 1 {
        let cursor = AtomicUsize::new(0);
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some((rel, text)) = sources.get(i) else {
                        break;
                    };
                    let pass = scan_file(rel, text);
                    if let Ok(mut slot) = slots[i].lock() {
                        *slot = Some(pass);
                    }
                });
            }
        });
    }

    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            let inner = match slot.into_inner() {
                Ok(v) => v,
                Err(poisoned) => poisoned.into_inner(),
            };
            // Single-threaded mode, or a slot a worker failed to fill:
            // compute inline so the scan never silently drops a file.
            inner.unwrap_or_else(|| scan_file(&sources[i].0, &sources[i].1))
        })
        .collect()
}

/// Scan the whole workspace rooted at `root` with [`effective_threads`]
/// workers.
///
/// # Errors
/// Returns the first unreadable file or directory.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(Workspace::load(root)?.scan(effective_threads()))
}

/// Locate the workspace root: walk upward from `start` until a
/// directory holding both `Cargo.toml` and `crates/` appears.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(candidate) = dir {
        if candidate.join("Cargo.toml").is_file() && candidate.join("crates").is_dir() {
            return Some(candidate.to_path_buf());
        }
        dir = candidate.parent();
    }
    None
}

/// Render gated results as JSON with a fixed key order and sorted
/// findings, so output is byte-stable across runs and worker counts
/// (asserted by the golden-file test).
#[must_use]
pub fn render_json(gated: &Gated, allowlist_entries: usize) -> String {
    let mut out = String::from("{\n  \"rejected\": [");
    for (i, finding) in gated.rejected.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n");
        out.push_str(&format!(
            "      \"file\": {},\n",
            json_str(&finding.file.to_string_lossy().replace('\\', "/"))
        ));
        out.push_str(&format!("      \"line\": {},\n", finding.line));
        out.push_str(&format!("      \"column\": {},\n", finding.column));
        out.push_str(&format!(
            "      \"rule\": {},\n",
            json_str(finding.rule.name())
        ));
        out.push_str(&format!(
            "      \"message\": {},\n",
            json_str(&finding.matched)
        ));
        out.push_str(&format!(
            "      \"suggestion\": {},\n",
            json_str(finding.rule.suggestion())
        ));
        let chain: Vec<String> = finding.chain.iter().map(|c| json_str(c)).collect();
        out.push_str(&format!("      \"chain\": [{}]\n", chain.join(", ")));
        out.push_str("    }");
    }
    if gated.rejected.is_empty() {
        out.push(']');
    } else {
        out.push_str("\n  ]");
    }
    out.push_str(&format!(",\n  \"grandfathered\": {},", gated.grandfathered));
    out.push_str(&format!(
        "\n  \"allowlist_entries\": {allowlist_entries}\n}}\n"
    ));
    out
}

/// Minimal JSON string escaping (std-only).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_source_applies_path_sensitive_rules() {
        let src = "pub fn t(&self) -> f64 { self.at(Instant::now()) }\n";
        let cooling = scan_source(Path::new("crates/cooling/src/x.rs"), src);
        assert_eq!(cooling.len(), 2, "{cooling:?}"); // raw-f64 + nondeterminism
        let core = scan_source(Path::new("crates/core/src/x.rs"), src);
        assert_eq!(core.len(), 1, "{core:?}"); // nondeterminism only
        let nn = scan_source(Path::new("crates/nn/src/x.rs"), src);
        assert!(nn.is_empty(), "{nn:?}");
    }

    #[test]
    fn find_root_from_nested_dir() {
        let here = std::env::current_dir().expect("cwd exists");
        let root = find_workspace_root(&here).expect("inside the workspace");
        assert!(root.join("crates").is_dir());
    }

    fn fixture_workspace() -> Workspace {
        Workspace::from_files(vec![
            (
                PathBuf::from("crates/core/Cargo.toml"),
                "[package]\nname = \"mira-core\"\n[dependencies]\nmira-cooling.workspace = true\n"
                    .to_owned(),
            ),
            (
                PathBuf::from("crates/cooling/Cargo.toml"),
                "[package]\nname = \"mira-cooling\"\n".to_owned(),
            ),
            (
                PathBuf::from("crates/core/src/lib.rs"),
                "pub fn stamp() -> u64 {\n    let _ = std::time::Instant::now();\n    0\n}\n"
                    .to_owned(),
            ),
            (
                PathBuf::from("crates/cooling/src/lib.rs"),
                "pub fn scale(n: u64) -> f64 {\n    mira_units::convert::f64_from_u64(n)\n}\n"
                    .to_owned(),
            ),
        ])
    }

    #[test]
    fn workspace_scan_is_thread_count_invariant() {
        let ws = fixture_workspace();
        let one = ws.scan(1);
        let four = ws.scan(4);
        assert_eq!(one, four);
        assert!(!one.is_empty());
        // Sorted by (file, line, column, rule).
        let keys: Vec<_> = one
            .iter()
            .map(|f| (f.file.clone(), f.line, f.column, f.rule))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn render_json_escapes_and_is_stable() {
        let gated = Gated {
            rejected: vec![Finding {
                file: PathBuf::from("crates/a/src/x.rs"),
                line: 3,
                column: 17,
                rule: Rule::Nondeterminism,
                matched: "`Instant::now` in \"simulation\" code".to_owned(),
                chain: vec!["a".to_owned(), "b".to_owned()],
            }],
            grandfathered: 2,
            slack: Vec::new(),
        };
        let json = render_json(&gated, 5);
        assert!(json.contains("\"rule\": \"nondeterminism\""));
        assert!(json.contains("\"column\": 17"));
        assert!(json.contains("\\\"simulation\\\""));
        assert!(json.contains("\"chain\": [\"a\", \"b\"]"));
        assert!(json.contains("\"grandfathered\": 2"));
        assert!(json.contains("\"allowlist_entries\": 5"));
        assert_eq!(json, render_json(&gated, 5), "rendering is deterministic");
    }

    #[test]
    fn render_json_empty_rejected_is_compact() {
        let gated = Gated::default();
        let json = render_json(&gated, 0);
        assert!(json.contains("\"rejected\": []"));
    }
}
