//! The workspace symbol index.
//!
//! Aggregates every [`ParsedFile`] into one queryable structure: which
//! crate each file belongs to, which crates depend on which (from the
//! `crates/*/Cargo.toml` manifests), which files are test-only
//! (including `#[cfg(test)] mod tests;` declared in a *separate* file),
//! and name → function lookup tables the call-graph resolver uses.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};

use crate::parser::{FnItem, ParsedFile};

/// Global function id: an index into the flattened fn table.
pub type FnId = usize;

/// Per-crate metadata recovered from its manifest.
#[derive(Debug, Clone, Default)]
pub struct CrateMeta {
    /// Identifiers that name this crate in source paths
    /// (`mira_units`, a `[lib] name`, ...).
    pub idents: Vec<String>,
    /// Directories (under `crates/`) of direct `mira-*` dependencies.
    pub deps: Vec<String>,
}

/// The index over all parsed files.
#[derive(Debug)]
pub struct SymbolIndex {
    /// Parsed files, in the deterministic walk order.
    pub files: Vec<ParsedFile>,
    /// Crate directory (under `crates/`) per file.
    pub file_crate: Vec<String>,
    /// Crate metadata by directory name.
    pub crates: BTreeMap<String, CrateMeta>,
    /// Files that are test-only (their `fn`s never ship).
    pub test_files: BTreeSet<usize>,
    /// Path ident (`mira_units`) → crate directory (`units`).
    ident_to_dir: BTreeMap<String, String>,
    /// First global fn id of each file.
    fn_base: Vec<usize>,
    /// Total fn count across all files.
    pub total_fns: usize,
    /// (crate dir, fn name) → candidate ids, free fns and methods
    /// alike.
    by_name: BTreeMap<(String, String), Vec<FnId>>,
    /// (crate dir, type, fn name) → candidate ids for `Type::name`.
    by_type: BTreeMap<(String, String, String), Vec<FnId>>,
    /// Method name → candidate ids (fns with a `self` type), workspace
    /// wide; the resolver filters by crate.
    methods: BTreeMap<String, Vec<FnId>>,
}

/// Which crate directory a workspace-relative path belongs to.
#[must_use]
pub fn crate_dir_of(path: &Path) -> Option<String> {
    let mut components = path.components().map(|c| c.as_os_str().to_string_lossy());
    while let Some(c) = components.next() {
        if c == "crates" {
            return components.next().map(std::borrow::Cow::into_owned);
        }
    }
    None
}

/// Candidate relative paths for `mod <name>;` declared in `decl_file`.
fn child_candidates(decl_file: &Path, name: &str) -> [PathBuf; 2] {
    let parent = decl_file
        .parent()
        .map_or_else(PathBuf::new, Path::to_path_buf);
    let stem = decl_file
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned());
    let base = match stem.as_deref() {
        Some("lib" | "main" | "mod") | None => parent,
        Some(other) => parent.join(other),
    };
    [
        base.join(format!("{name}.rs")),
        base.join(name).join("mod.rs"),
    ]
}

/// Minimal line-oriented manifest read: `[package] name`, `[lib] name`,
/// and the `mira-*` entries of `[dependencies]` (dev-dependencies are
/// deliberately ignored — they do not create library-code call edges).
#[derive(Debug, Default)]
struct Manifest {
    package: Option<String>,
    lib_name: Option<String>,
    deps: Vec<String>,
}

fn parse_manifest(text: &str) -> Manifest {
    let mut manifest = Manifest::default();
    let mut section = String::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix('[') {
            section = rest.trim_end_matches(']').to_owned();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim().trim_end_matches(".workspace").trim();
        match section.as_str() {
            "package" if key == "name" => {
                manifest.package = Some(value.trim().trim_matches('"').to_owned());
            }
            "lib" if key == "name" => {
                manifest.lib_name = Some(value.trim().trim_matches('"').to_owned());
            }
            "dependencies" => {
                let dep = key.split('.').next().unwrap_or(key).trim();
                if dep.starts_with("mira-") {
                    manifest.deps.push(dep.to_owned());
                }
            }
            _ => {}
        }
    }
    manifest
}

impl SymbolIndex {
    /// Build the index. `manifests` are `(relative path, contents)` of
    /// the `crates/*/Cargo.toml` files; an empty slice degrades to
    /// "every crate may call every other" resolution.
    #[must_use]
    pub fn build(files: Vec<ParsedFile>, manifests: &[(PathBuf, String)]) -> SymbolIndex {
        let file_crate: Vec<String> = files
            .iter()
            .map(|f| crate_dir_of(&f.rel).unwrap_or_default())
            .collect();
        let all_dirs: BTreeSet<String> = file_crate.iter().cloned().collect();

        // Crate metadata from manifests, keyed by directory.
        let mut crates: BTreeMap<String, CrateMeta> = BTreeMap::new();
        let mut package_to_dir: BTreeMap<String, String> = BTreeMap::new();
        let mut raw_deps: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (rel, text) in manifests {
            let Some(dir) = crate_dir_of(rel) else {
                continue;
            };
            let manifest = parse_manifest(text);
            let meta = crates.entry(dir.clone()).or_default();
            if let Some(package) = &manifest.package {
                package_to_dir.insert(package.clone(), dir.clone());
                meta.idents.push(package.replace('-', "_"));
            }
            if let Some(lib) = &manifest.lib_name {
                meta.idents.push(lib.clone());
            }
            meta.idents.push(format!("mira_{}", dir.replace('-', "_")));
            meta.idents.sort();
            meta.idents.dedup();
            raw_deps.insert(dir, manifest.deps);
        }
        // Resolve dep package names to directories.
        for (dir, deps) in raw_deps {
            let resolved: Vec<String> = deps
                .iter()
                .filter_map(|package| package_to_dir.get(package).cloned())
                .collect();
            if let Some(meta) = crates.get_mut(&dir) {
                meta.deps = resolved;
            }
        }
        // Crates seen in source but with no manifest provided: assume
        // they may call anything (safe over-approximation for fixtures).
        for dir in &all_dirs {
            if !crates.contains_key(dir) {
                crates.insert(
                    dir.clone(),
                    CrateMeta {
                        idents: vec![format!("mira_{}", dir.replace('-', "_"))],
                        deps: all_dirs.iter().filter(|d| *d != dir).cloned().collect(),
                    },
                );
            }
        }

        let mut ident_to_dir = BTreeMap::new();
        for (dir, meta) in &crates {
            for ident in &meta.idents {
                ident_to_dir.insert(ident.clone(), dir.clone());
            }
        }

        // Flatten fns and build lookup tables.
        let mut fn_base = Vec::with_capacity(files.len());
        let mut total = 0usize;
        let mut by_name: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
        let mut by_type: BTreeMap<(String, String, String), Vec<FnId>> = BTreeMap::new();
        let mut methods: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        for (file_idx, file) in files.iter().enumerate() {
            fn_base.push(total);
            let dir = &file_crate[file_idx];
            for (offset, item) in file.fns.iter().enumerate() {
                let id = total + offset;
                by_name
                    .entry((dir.clone(), item.name.clone()))
                    .or_default()
                    .push(id);
                if let Some(ty) = &item.self_type {
                    by_type
                        .entry((dir.clone(), ty.clone(), item.name.clone()))
                        .or_default()
                        .push(id);
                    methods.entry(item.name.clone()).or_default().push(id);
                }
            }
            total += file.fns.len();
        }

        let test_files = propagate_test_files(&files);

        SymbolIndex {
            files,
            file_crate,
            crates,
            test_files,
            ident_to_dir,
            fn_base,
            total_fns: total,
            by_name,
            by_type,
            methods,
        }
    }

    /// The file index a global fn id lives in.
    #[must_use]
    pub fn file_of(&self, id: FnId) -> usize {
        match self.fn_base.binary_search(&id) {
            Ok(exact) => {
                // `id` is the first fn of `exact` — unless that file is
                // empty, in which case later bases repeat the value and
                // binary search may land on any of them; take the last
                // base equal to id.
                let mut idx = exact;
                while idx + 1 < self.fn_base.len() && self.fn_base[idx + 1] == id {
                    idx += 1;
                }
                idx
            }
            Err(insert) => insert.saturating_sub(1),
        }
    }

    /// The function item behind a global id.
    #[must_use]
    pub fn fn_at(&self, id: FnId) -> &FnItem {
        let file = self.file_of(id);
        &self.files[file].fns[id - self.fn_base[file]]
    }

    /// Global id of a (file index, fn offset) pair.
    #[must_use]
    pub fn id_of(&self, file: usize, offset: usize) -> FnId {
        self.fn_base[file] + offset
    }

    /// Crate directory of a fn.
    #[must_use]
    pub fn crate_of(&self, id: FnId) -> &str {
        &self.file_crate[self.file_of(id)]
    }

    /// Test-only: `#[test]`, `#[cfg(test)]`, or living in a test file.
    #[must_use]
    pub fn is_test_fn(&self, id: FnId) -> bool {
        self.fn_at(id).is_test || self.test_files.contains(&self.file_of(id))
    }

    /// Crate directory named by a path ident like `mira_units`, if any.
    #[must_use]
    pub fn dir_for_ident(&self, ident: &str) -> Option<&str> {
        self.ident_to_dir.get(ident).map(String::as_str)
    }

    /// Direct dependency directories of a crate.
    #[must_use]
    pub fn deps_of(&self, dir: &str) -> &[String] {
        self.crates.get(dir).map_or(&[], |meta| &meta.deps)
    }

    /// Candidate fns by (crate dir, name).
    #[must_use]
    pub fn fns_named(&self, dir: &str, name: &str) -> &[FnId] {
        self.by_name
            .get(&(dir.to_owned(), name.to_owned()))
            .map_or(&[], Vec::as_slice)
    }

    /// Candidate fns by (crate dir, self type, name).
    #[must_use]
    pub fn fns_on_type(&self, dir: &str, ty: &str, name: &str) -> &[FnId] {
        self.by_type
            .get(&(dir.to_owned(), ty.to_owned(), name.to_owned()))
            .map_or(&[], Vec::as_slice)
    }

    /// All methods (fns with a self type) named `name`, workspace-wide.
    #[must_use]
    pub fn methods_named(&self, name: &str) -> &[FnId] {
        self.methods.get(name).map_or(&[], Vec::as_slice)
    }

    /// Iterate all global fn ids.
    pub fn fn_ids(&self) -> impl Iterator<Item = FnId> {
        0..self.total_fns
    }
}

/// Mark files reachable from a `#[cfg(test)] mod x;` declaration (or
/// declared by an already-test file) as test-only, to fixpoint.
fn propagate_test_files(files: &[ParsedFile]) -> BTreeSet<usize> {
    let path_to_idx: BTreeMap<&Path, usize> = files
        .iter()
        .enumerate()
        .map(|(idx, f)| (f.rel.as_path(), idx))
        .collect();

    let mut test_files = BTreeSet::new();
    let mut queue: VecDeque<usize> = VecDeque::new();

    let resolve = |decl_file: &Path, name: &str| -> Option<usize> {
        child_candidates(decl_file, name)
            .iter()
            .find_map(|cand| path_to_idx.get(cand.as_path()).copied())
    };

    for file in files {
        for name in &file.test_mods {
            if let Some(child) = resolve(&file.rel, name) {
                queue.push_back(child);
            }
        }
    }
    while let Some(idx) = queue.pop_front() {
        if !test_files.insert(idx) {
            continue;
        }
        // Everything a test file declares is itself test-only.
        let file = &files[idx];
        for name in &file.child_mods {
            if let Some(child) = resolve(&file.rel, name) {
                queue.push_back(child);
            }
        }
    }
    test_files
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn parsed(rel: &str, src: &str) -> ParsedFile {
        parse_file(Path::new(rel), src, &["Celsius"])
    }

    #[test]
    fn manifest_parsing_extracts_names_and_deps() {
        let manifest = parse_manifest(
            "[package]\nname = \"mira-ops\"\n\n[lib]\nname = \"mira_ops_cli\"\n\n\
             [dependencies]\nmira-core.workspace = true\nserde.workspace = true\n\n\
             [dev-dependencies]\nmira-nn.workspace = true\n",
        );
        assert_eq!(manifest.package.as_deref(), Some("mira-ops"));
        assert_eq!(manifest.lib_name.as_deref(), Some("mira_ops_cli"));
        assert_eq!(manifest.deps, vec!["mira-core"]);
    }

    #[test]
    fn external_test_mod_marks_child_file_and_descendants() {
        let files = vec![
            parsed(
                "crates/a/src/lib.rs",
                "#[cfg(test)]\nmod tests;\nmod real;\n",
            ),
            parsed("crates/a/src/tests.rs", "mod helpers;\nfn t() {}\n"),
            parsed("crates/a/src/tests/helpers.rs", "fn aid() {}\n"),
            parsed("crates/a/src/real.rs", "pub fn work() {}\n"),
        ];
        let index = SymbolIndex::build(files, &[]);
        assert!(index.test_files.contains(&1), "tests.rs is test-only");
        assert!(index.test_files.contains(&2), "helpers propagates");
        assert!(!index.test_files.contains(&3), "real.rs is live");
        let t = index
            .fn_ids()
            .find(|&id| index.fn_at(id).name == "t")
            .expect("t indexed");
        assert!(index.is_test_fn(t));
        let work = index
            .fn_ids()
            .find(|&id| index.fn_at(id).name == "work")
            .expect("work indexed");
        assert!(!index.is_test_fn(work));
    }

    #[test]
    fn ident_and_dep_resolution_via_manifests() {
        let files = vec![
            parsed("crates/alpha/src/lib.rs", "pub fn a() {}\n"),
            parsed("crates/beta/src/lib.rs", "pub fn b() {}\n"),
        ];
        let manifests = vec![
            (
                PathBuf::from("crates/alpha/Cargo.toml"),
                "[package]\nname = \"mira-alpha\"\n[dependencies]\nmira-beta.workspace = true\n"
                    .to_owned(),
            ),
            (
                PathBuf::from("crates/beta/Cargo.toml"),
                "[package]\nname = \"mira-beta\"\n".to_owned(),
            ),
        ];
        let index = SymbolIndex::build(files, &manifests);
        assert_eq!(index.dir_for_ident("mira_alpha"), Some("alpha"));
        assert_eq!(index.dir_for_ident("mira_beta"), Some("beta"));
        assert_eq!(index.deps_of("alpha"), ["beta".to_owned()]);
        assert!(index.deps_of("beta").is_empty());
    }

    #[test]
    fn lookup_tables_cover_free_fns_and_methods() {
        let files = vec![parsed(
            "crates/a/src/lib.rs",
            "pub fn free() {}\nstruct S;\nimpl S {\n    pub fn method(&self) {}\n}\n",
        )];
        let index = SymbolIndex::build(files, &[]);
        assert_eq!(index.fns_named("a", "free").len(), 1);
        assert_eq!(index.fns_on_type("a", "S", "method").len(), 1);
        assert_eq!(index.methods_named("method").len(), 1);
        assert!(index.fns_named("a", "missing").is_empty());
    }
}
