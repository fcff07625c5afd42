//! The approximate workspace call graph.
//!
//! Edges come from the per-body call sites the parser collected,
//! resolved against the [`SymbolIndex`]:
//!
//! * **Path calls** (`a::b::f(..)`) expand their first segment through
//!   the caller file's `use` map, then resolve `crate`/`self`/`super`
//!   to the caller's crate, a `mira_*` ident to that crate, `Self` to
//!   the caller's impl type, and `Type::f` to methods on `Type` in the
//!   caller's crate or its direct dependencies.
//! * **Bare calls** (`f(..)`) resolve to free fns of the caller's own
//!   crate (capitalized single segments are constructors, skipped).
//! * **Method calls** (`.f(..)`) resolve by name to any method `f` in
//!   the caller's crate or its direct dependencies, except a stoplist
//!   of ubiquitous std names (`len`, `iter`, `clone`, ...), which would
//!   otherwise wire the graph to every `Vec`/`str` call site.
//!
//! Ambiguity keeps *all* candidate edges: the graph over-approximates,
//! so reachability rules err toward reporting. What resolution cannot
//! see (globs, trait objects, closures, macro bodies) is documented in
//! `DESIGN.md`.

use std::collections::{BTreeSet, VecDeque};

use crate::index::{FnId, SymbolIndex};
use crate::parser::CallKind;

/// Method names so common — on std types, or as workspace accessor /
/// builder idioms (`.step()` is an accessor on `IncrementalSweep`, a
/// builder setter on `SweepPlan`, and a simulation tick on two other
/// types) — that name-only resolution would drown the graph in false
/// edges; calls to them never resolve to workspace methods.
const METHOD_STOPLIST: [&str; 39] = [
    "abs",
    "as_ref",
    "as_str",
    "borrow",
    "chars",
    "clamp",
    "clone",
    "cloned",
    "collect",
    "contains",
    "copied",
    "count",
    "enumerate",
    "extend",
    "filter",
    "flat_map",
    "fold",
    "get",
    "insert",
    "into",
    "is_empty",
    "iter",
    "join",
    "len",
    "map",
    "max",
    "min",
    "next",
    "parse",
    "pop",
    "push",
    "rev",
    "split",
    "step",
    "sum",
    "to_owned",
    "to_string",
    "trim",
    "zip",
];

/// Adjacency list keyed by global fn id.
#[derive(Debug)]
pub struct CallGraph {
    edges: Vec<Vec<FnId>>,
}

impl CallGraph {
    /// Resolve every call site into edges.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn build(index: &SymbolIndex) -> CallGraph {
        let mut edges: Vec<Vec<FnId>> = vec![Vec::new(); index.total_fns];
        for caller in index.fn_ids() {
            let mut out: BTreeSet<FnId> = BTreeSet::new();
            for target in resolved_calls(index, caller) {
                if target != caller && !index.is_test_fn(target) {
                    out.insert(target);
                }
            }
            edges[caller] = out.into_iter().collect();
        }
        CallGraph { edges }
    }

    /// Direct callees of a fn.
    #[must_use]
    pub fn callees(&self, id: FnId) -> &[FnId] {
        self.edges.get(id).map_or(&[], Vec::as_slice)
    }

    /// Shortest path (BFS, id-ordered for determinism) from `root` to
    /// any fn satisfying `is_target`, as the full chain of fn ids
    /// including both endpoints. The root itself is tested first.
    #[must_use]
    pub fn first_chain_to(
        &self,
        root: FnId,
        is_target: &dyn Fn(FnId) -> bool,
    ) -> Option<Vec<FnId>> {
        if is_target(root) {
            return Some(vec![root]);
        }
        let mut parent: Vec<Option<FnId>> = vec![None; self.edges.len()];
        let mut seen: BTreeSet<FnId> = BTreeSet::new();
        seen.insert(root);
        let mut queue = VecDeque::from([root]);
        while let Some(at) = queue.pop_front() {
            for &next in self.callees(at) {
                if !seen.insert(next) {
                    continue;
                }
                parent[next] = Some(at);
                if is_target(next) {
                    let mut chain = vec![next];
                    let mut walk = at;
                    loop {
                        chain.push(walk);
                        match parent[walk] {
                            Some(up) => walk = up,
                            None => break,
                        }
                    }
                    chain.reverse();
                    return Some(chain);
                }
                queue.push_back(next);
            }
        }
        None
    }
}

/// All candidate callee ids for one caller's call sites.
fn resolved_calls(index: &SymbolIndex, caller: FnId) -> Vec<FnId> {
    let file_idx = index.file_of(caller);
    let item = index.fn_at(caller);
    let dir = index.crate_of(caller).to_owned();
    let mut out = Vec::new();
    for call in &item.calls {
        resolve_call(
            index,
            &dir,
            file_idx,
            item.self_type.as_deref(),
            &call.kind,
            &mut out,
        );
    }
    out
}

/// Resolve one call site, pushing candidate ids into `out`.
pub(crate) fn resolve_call(
    index: &SymbolIndex,
    caller_dir: &str,
    caller_file: usize,
    caller_self: Option<&str>,
    kind: &CallKind,
    out: &mut Vec<FnId>,
) {
    match kind {
        CallKind::Method(name) => {
            if METHOD_STOPLIST.contains(&name.as_str()) {
                return;
            }
            let allowed: BTreeSet<&str> = std::iter::once(caller_dir)
                .chain(index.deps_of(caller_dir).iter().map(String::as_str))
                .collect();
            for &id in index.methods_named(name) {
                if allowed.contains(index.crate_of(id)) {
                    out.push(id);
                }
            }
        }
        CallKind::Path(segs) => {
            resolve_path(index, caller_dir, caller_file, caller_self, segs, out);
        }
    }
}

fn resolve_path(
    index: &SymbolIndex,
    caller_dir: &str,
    caller_file: usize,
    caller_self: Option<&str>,
    segs: &[String],
    out: &mut Vec<FnId>,
) {
    let Some(first) = segs.first() else { return };
    let Some(name) = segs.last() else { return };

    // Expand the leading segment through the file's `use` map.
    if let Some(decl) = index.files[caller_file]
        .uses
        .iter()
        .find(|u| u.alias == *first)
    {
        // Avoid infinite recursion on `use x::y as y;`-style
        // self-aliases by only recursing when the expansion grows.
        let mut expanded = decl.path.clone();
        expanded.extend(segs.iter().skip(1).cloned());
        if expanded != segs {
            resolve_path(index, caller_dir, caller_file, caller_self, &expanded, out);
            return;
        }
    }

    if segs.len() == 1 {
        // Bare call: capitalized names are tuple-struct/variant
        // constructors, not fns we index.
        if first.chars().next().is_some_and(char::is_uppercase) {
            return;
        }
        // Free fns only — a bare name cannot name a method.
        for &id in index.fns_named(caller_dir, name) {
            if index.fn_at(id).self_type.is_none() {
                out.push(id);
            }
        }
        return;
    }

    // `crate::..` / `self::..` / `super::..` stay in the caller crate.
    let (head, rest): (&str, &[String]) = match first.as_str() {
        "crate" | "self" | "super" => (caller_dir, &segs[1..]),
        "Self" => {
            if let Some(ty) = caller_self {
                for &id in index.fns_on_type(caller_dir, ty, name) {
                    out.push(id);
                }
            }
            return;
        }
        "std" | "core" | "alloc" => return,
        _ => match index.dir_for_ident(first) {
            Some(dir) => (dir, &segs[1..]),
            None => {
                // `Type::name` — a type in scope of the caller crate or
                // a direct dependency.
                if first.chars().next().is_some_and(char::is_uppercase) {
                    let mut dirs: Vec<&str> = vec![caller_dir];
                    dirs.extend(index.deps_of(caller_dir).iter().map(String::as_str));
                    for dir in dirs {
                        let found = index.fns_on_type(dir, first, name);
                        if !found.is_empty() {
                            out.extend_from_slice(found);
                            return;
                        }
                    }
                }
                return;
            }
        },
    };

    let Some(name) = rest.last() else {
        return;
    };
    // Qualified by a type or module segment? Prefer the tighter match.
    if rest.len() >= 2 {
        let qual = &rest[rest.len() - 2];
        let typed = index.fns_on_type(head, qual, name);
        if !typed.is_empty() {
            out.extend_from_slice(typed);
            return;
        }
        let by_module: Vec<FnId> = index
            .fns_named(head, name)
            .iter()
            .copied()
            .filter(|&id| index.fn_at(id).module.iter().any(|m| m == qual))
            .collect();
        if !by_module.is_empty() {
            out.extend(by_module);
            return;
        }
    }
    out.extend_from_slice(index.fns_named(head, name));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;
    use std::path::{Path, PathBuf};

    fn build(sources: &[(&str, &str)]) -> (SymbolIndex, CallGraph) {
        let files = sources
            .iter()
            .map(|(rel, src)| parse_file(Path::new(rel), src, &["Celsius"]))
            .collect();
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
        let graph = CallGraph::build(&index);
        (index, graph)
    }

    fn id_of(index: &SymbolIndex, name: &str) -> FnId {
        index
            .fn_ids()
            .find(|&id| index.fn_at(id).name == name)
            .expect("fn indexed")
    }

    #[test]
    fn bare_call_resolves_within_crate() {
        let (index, graph) = build(&[(
            "crates/alpha/src/lib.rs",
            "pub fn outer() { inner(); }\nfn inner() {}\n",
        )]);
        let outer = id_of(&index, "outer");
        let inner = id_of(&index, "inner");
        assert_eq!(graph.callees(outer), &[inner]);
    }

    #[test]
    fn cross_crate_path_resolves_via_crate_ident() {
        let (index, graph) = build(&[
            (
                "crates/alpha/src/lib.rs",
                "pub fn outer() { mira_beta::helper(); }\n",
            ),
            ("crates/beta/src/lib.rs", "pub fn helper() {}\n"),
        ]);
        let outer = id_of(&index, "outer");
        let helper = id_of(&index, "helper");
        assert_eq!(graph.callees(outer), &[helper]);
    }

    #[test]
    fn use_alias_expands_before_resolution() {
        let (index, graph) = build(&[
            (
                "crates/alpha/src/lib.rs",
                "use mira_beta::stats;\npub fn outer() { stats::mean(); }\n",
            ),
            (
                "crates/beta/src/lib.rs",
                "pub mod stats {\n    pub fn mean() {}\n}\n",
            ),
        ]);
        let outer = id_of(&index, "outer");
        let mean = id_of(&index, "mean");
        assert_eq!(graph.callees(outer), &[mean]);
    }

    #[test]
    fn type_qualified_path_prefers_method_match() {
        let (index, graph) = build(&[
            (
                "crates/alpha/src/lib.rs",
                "use mira_beta::Pump;\npub fn outer() { Pump::rpm(); }\n",
            ),
            (
                "crates/beta/src/lib.rs",
                "pub struct Pump;\nimpl Pump {\n    pub fn rpm() {}\n}\npub fn rpm() {}\n",
            ),
        ]);
        let outer = id_of(&index, "outer");
        assert_eq!(graph.callees(outer).len(), 1);
        let callee = graph.callees(outer)[0];
        assert_eq!(index.fn_at(callee).self_type.as_deref(), Some("Pump"));
    }

    #[test]
    fn method_calls_resolve_to_caller_crate_and_deps_only() {
        let (index, graph) = build(&[
            (
                "crates/beta/src/lib.rs",
                "pub struct S;\nimpl S {\n    pub fn observe(&self) {}\n}\n",
            ),
            (
                "crates/alpha/src/lib.rs",
                "pub fn outer(s: &mira_beta::S) { s.observe(); }\n",
            ),
        ]);
        let outer = id_of(&index, "outer");
        let observe = id_of(&index, "observe");
        assert_eq!(graph.callees(outer), &[observe]);
        // beta does not depend on alpha: an observe() call in beta
        // would not link back (verified by the allowed-set logic above).
    }

    #[test]
    fn stoplisted_method_names_create_no_edges() {
        let (index, graph) = build(&[(
            "crates/alpha/src/lib.rs",
            "pub struct S;\nimpl S {\n    pub fn len(&self) -> usize { 0 }\n}\n\
             pub fn outer(v: &[u8]) -> usize { v.len() }\n",
        )]);
        let outer = id_of(&index, "outer");
        assert!(graph.callees(outer).is_empty());
    }

    #[test]
    fn edges_to_test_fns_are_dropped() {
        let (index, graph) = build(&[(
            "crates/alpha/src/lib.rs",
            "pub fn outer() { helper(); }\n#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n",
        )]);
        let outer = id_of(&index, "outer");
        assert!(graph.callees(outer).is_empty());
    }

    #[test]
    fn bfs_chain_is_shortest_and_ordered() {
        let (index, graph) = build(&[(
            "crates/alpha/src/lib.rs",
            "pub fn a() { b(); }\nfn b() { c(); }\nfn c() {}\n",
        )]);
        let a = id_of(&index, "a");
        let c = id_of(&index, "c");
        let chain = graph
            .first_chain_to(a, &|id| id == c)
            .expect("c reachable from a");
        let names: Vec<_> = chain
            .iter()
            .map(|&id| index.fn_at(id).name.clone())
            .collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert!(graph.first_chain_to(c, &|id| id == a).is_none());
    }

    #[test]
    fn self_path_resolves_to_impl_type() {
        let (index, graph) = build(&[(
            "crates/alpha/src/lib.rs",
            "pub struct S;\nimpl S {\n    pub fn go(&self) { Self::aid(); }\n    fn aid() {}\n}\n",
        )]);
        let go = id_of(&index, "go");
        let aid = id_of(&index, "aid");
        assert_eq!(graph.callees(go), &[aid]);
    }
}
