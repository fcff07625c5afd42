//! Dataflow-lite intraprocedural analysis over fn-body token streams.
//!
//! One extra pass per function body, walking the same scrubbed token
//! stream the parser already produced. It maintains a *binding table* —
//! local name → coarse type class — fed by parameter type annotations,
//! `let` type ascriptions, and `Type::ctor(..)` initializers, and uses
//! it to answer the questions the three hot-path rules ask:
//!
//! * **Allocation sites** (`alloc-in-hot-path`): heap-container
//!   constructors (`Vec::new`, `String::with_capacity`, `Box::new`,
//!   ...), allocating macros (`format!`, `vec!`), allocating methods
//!   (`.to_string()`, `.collect()`, ...), `.clone()` on a receiver the
//!   table resolves to a heap-owning local, and `.push(..)` onto a
//!   *locally built* heap buffer. Pushes onto parameters, fields, and
//!   destructured scratch (`scratch.truths.push(..)`) are sanctioned —
//!   that is exactly the `SweepScratch` reuse idiom the rule protects.
//! * **Purity hazards** (`cache-purity`): interior-mutable types,
//!   locks, atomics, `thread_local!`, local `static` items, wall-clock
//!   reads, nondeterministic RNG seeding, and I/O. Sites with
//!   [`PuritySite::shared`] set are the subset the
//!   `shared-state-escape` rule cares about.
//! * **Receiver-typed hash iteration** (`determinism-taint`): an
//!   iteration method only counts as a hash-order hazard when its
//!   receiver *resolves* to a `HashMap`/`HashSet` binding, or when the
//!   method name alone implies a keyed container (`.keys()`,
//!   `.values()`) and the body mentions a hash type. This replaces the
//!   earlier per-body heuristic ("a hash type appears somewhere AND an
//!   iteration method appears somewhere"), which fired on functions
//!   that looked up a `HashMap` but iterated a `Vec`.
//!
//! Approximations, deliberately: the table is flat (shadowing takes
//! the last writer; block scoping is ignored), field types are opaque
//! (`self.buf.push(..)` never resolves), and flows through returns or
//! collections are invisible. Every consumer of these facts treats an
//! unresolved receiver conservatively in whichever direction keeps the
//! rule's false positives down; see `DESIGN.md` §10.

use std::collections::BTreeMap;

use crate::lexer::{Tok, Token};
use crate::parser::{DetHazard, FnItem};

/// Coarse type classification for a local binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindClass {
    /// Heap-owning std container or smart pointer, hash-ordered.
    Hash,
    /// Heap-owning std container or smart pointer, deterministic order.
    Heap,
    /// A `mira-units` newtype.
    Unit,
    /// A lock guard (`MutexGuard`, `RwLockReadGuard`, `RwLockWriteGuard`
    /// annotation, or a `lock()/read()/write()` initializer).
    Guard,
    /// Annotated with something else (known, but none of the above).
    Other,
}

/// Where a binding came from — pushes onto locally built buffers are
/// allocation-adjacent; pushes onto parameters are the scratch-reuse
/// idiom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Function parameter (caller-owned storage).
    Param,
    /// `let`-bound local.
    Local,
}

/// One allocation site in a function body.
#[derive(Debug, Clone)]
pub struct AllocSite {
    /// 1-based line.
    pub line: usize,
    /// What was matched (`Vec::with_capacity`, `format! macro`, ...).
    pub what: String,
}

/// One purity hazard in a function body.
#[derive(Debug, Clone)]
pub struct PuritySite {
    /// 1-based line.
    pub line: usize,
    /// What was matched.
    pub what: &'static str,
    /// Interior-mutable or static state that must not be reachable
    /// from sweep worker closures (`shared-state-escape`); locks and
    /// atomics are excluded — they are the sanctioned slot-per-shard
    /// discipline.
    pub shared: bool,
}

/// How a lock was acquired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcqKind {
    /// `Mutex::lock` (exclusive).
    Lock,
    /// `RwLock::read` (shared).
    Read,
    /// `RwLock::write` (exclusive).
    Write,
}

/// One lock acquisition in a fn body: a `let`-bound guard live until
/// `end_line` (end of scope, `drop(guard)`, or a shadowing rebind), or
/// a statement temporary (`end_line == line`).
#[derive(Debug, Clone)]
pub struct GuardSpan {
    /// Binding name; empty for temporaries and `match` scrutinees.
    pub name: String,
    /// Lock identity: the receiver ident of the acquiring call
    /// (`"stats"` for `self.stats.lock()`), or — when [`Self::via_call`]
    /// — the helper method name pending interprocedural resolution.
    pub lock: String,
    /// Acquired through a call to a guard-returning workspace fn
    /// (`self.lock_stats()`); resolved by the concurrency pass.
    pub via_call: bool,
    /// Acquisition mode (placeholder [`AcqKind::Lock`] while
    /// [`Self::via_call`] is unresolved).
    pub kind: AcqKind,
    /// 1-based acquisition line.
    pub line: usize,
    /// 1-based last line on which the guard is live.
    pub end_line: usize,
}

impl GuardSpan {
    /// Whether a body line falls inside the live span, excluding the
    /// acquisition line itself (same-statement chains are not "across"
    /// the guard).
    #[must_use]
    pub fn covers(&self, line: usize) -> bool {
        line > self.line && line <= self.end_line
    }
}

/// One `Ordering::X` argument to an atomic operation.
#[derive(Debug, Clone)]
pub struct OrderingSite {
    /// 1-based line.
    pub line: usize,
    /// `Relaxed` / `Acquire` / `Release` / `AcqRel` / `SeqCst`.
    pub ordering: String,
    /// The atomic method consuming it (`load`, `store`, `fetch_add`,
    /// ...); empty when not attributable.
    pub op: String,
    /// The call feeds an `if`/`while` condition directly — a `Relaxed`
    /// load here gates control flow on unsynchronized state.
    pub gates_branch: bool,
}

/// One `thread::spawn(..)` producing a `JoinHandle`.
#[derive(Debug, Clone)]
pub struct SpawnSite {
    /// 1-based line.
    pub line: usize,
    /// `.join()` was observed — chained on the call or later on the
    /// `let`-bound handle.
    pub joined: bool,
}

/// One potentially blocking call: socket/console I/O, `accept`,
/// channel `recv`, thread `join`, `sleep`.
#[derive(Debug, Clone)]
pub struct BlockingSite {
    /// 1-based line.
    pub line: usize,
    /// What was matched (`.read_line()`, `thread::sleep`, ...).
    pub what: String,
}

/// Heap-owning std types whose constructors allocate.
const HEAP_TYPES: [&str; 13] = [
    "Arc",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "Box",
    "HashMap",
    "HashSet",
    "OsString",
    "PathBuf",
    "Rc",
    "String",
    "Vec",
    "VecDeque",
];

/// The subset of [`HEAP_TYPES`] with nondeterministic iteration order.
const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];

/// Constructor-ish associated fns on [`HEAP_TYPES`] that allocate (or
/// stand for an allocation the rule should pin to a source line).
const CTOR_METHODS: [&str; 5] = ["default", "from", "from_iter", "new", "with_capacity"];

/// Method calls that allocate regardless of receiver.
const ALLOC_METHODS: [&str; 6] = [
    "collect",
    "into_owned",
    "repeat",
    "to_owned",
    "to_string",
    "to_vec",
];

/// Macros that allocate.
const ALLOC_MACROS: [&str; 2] = ["format", "vec"];

/// Iteration methods that make `HashMap`/`HashSet` order observable.
const HASH_ITER_METHODS: [&str; 8] = [
    "drain",
    "into_iter",
    "into_keys",
    "iter",
    "keys",
    "retain",
    "values",
    "values_mut",
];

/// The subset of [`HASH_ITER_METHODS`] whose name alone implies a
/// keyed container — used as a fallback when the receiver does not
/// resolve (fields, call results).
const KEYED_ITER_METHODS: [&str; 4] = ["into_keys", "keys", "values", "values_mut"];

/// Interior-mutable cell types: state that mutates through `&self`,
/// invisible to the borrow checker's exclusivity and to the sweep's
/// merge-order reasoning.
const INTERIOR_MUT_TYPES: [&str; 6] = [
    "Cell",
    "LazyLock",
    "OnceCell",
    "OnceLock",
    "RefCell",
    "UnsafeCell",
];

/// Lock types: impure (observable cross-call state) but *not* shared
/// hazards — the sweep executor's slot-per-shard Mutex discipline is
/// sanctioned.
const LOCK_TYPES: [&str; 2] = ["Mutex", "RwLock"];

/// Guard types, as they appear in annotations and return types.
pub const GUARD_TYPES: [&str; 3] = ["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

fn interior_mut_what(name: &str) -> &'static str {
    match name {
        "Cell" => "interior mutability (Cell)",
        "RefCell" => "interior mutability (RefCell)",
        "UnsafeCell" => "interior mutability (UnsafeCell)",
        "OnceCell" => "interior mutability (OnceCell)",
        "OnceLock" => "interior mutability (OnceLock)",
        _ => "interior mutability (LazyLock)",
    }
}

/// Classify a list of type identifiers (from an annotation or a
/// parameter type).
fn classify_idents<S: AsRef<str>>(idents: &[S], unit_types: &[&str]) -> BindClass {
    if idents.iter().any(|s| GUARD_TYPES.contains(&s.as_ref())) {
        BindClass::Guard
    } else if idents.iter().any(|s| HASH_TYPES.contains(&s.as_ref())) {
        BindClass::Hash
    } else if idents.iter().any(|s| HEAP_TYPES.contains(&s.as_ref())) {
        BindClass::Heap
    } else if idents.iter().any(|s| unit_types.contains(&s.as_ref())) {
        BindClass::Unit
    } else {
        BindClass::Other
    }
}

/// Is `ident :: target` at position `i` (the leading ident)?
fn path_to(toks: &[Token], i: usize, target: &str) -> bool {
    matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::P(b':')))
        && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::P(b':')))
        && matches!(&toks.get(i + 3).map(|t| &t.tok), Some(Tok::Ident(s)) if *s == target)
}

fn punct_at(toks: &[Token], i: usize, b: u8) -> bool {
    matches!(toks.get(i).map(|t| &t.tok), Some(Tok::P(p)) if *p == b)
}

fn ident_str(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Does a call-paren follow token `i` (the method name), skipping an
/// optional turbofish `::<..>`?
fn call_paren_follows(toks: &[Token], i: usize) -> bool {
    let mut j = i + 1;
    if punct_at(toks, j, b':') && punct_at(toks, j + 1, b':') && punct_at(toks, j + 2, b'<') {
        let mut depth = 0usize;
        j += 2;
        while j < toks.len() {
            if punct_at(toks, j, b'<') {
                depth += 1;
            } else if punct_at(toks, j, b'>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    punct_at(toks, j, b'(')
}

/// The declared target class of a `.collect()` at `i`, when the
/// statement names one: a turbofish (`.collect::<Welford>()`) or a
/// `let x: Type = ...` ascription at the statement head. `None` when
/// no concrete target is named (`::<_>`, tail expressions, chains
/// crossing block boundaries) — callers stay conservative and keep the
/// site. A named target that is not a known container suppresses it:
/// collecting into a `FromIterator` accumulator like `Welford` is a
/// streaming fold, not an allocation.
fn collect_target_class(toks: &[Token], i: usize, unit_types: &[&str]) -> Option<BindClass> {
    // Turbofish: `.collect::<Type<..>>()`.
    if punct_at(toks, i + 1, b':') && punct_at(toks, i + 2, b':') && punct_at(toks, i + 3, b'<') {
        let mut depth = 0usize;
        let mut j = i + 3;
        let mut heads: Vec<&str> = Vec::new();
        while j < toks.len() {
            if punct_at(toks, j, b'<') {
                depth += 1;
            } else if punct_at(toks, j, b'>') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if let Some(s) = ident_str(toks, j) {
                if s != "_" {
                    heads.push(s);
                }
            }
            j += 1;
        }
        if heads.is_empty() {
            return None; // `::<_>` names nothing concrete.
        }
        return Some(classify_idents(&heads, unit_types));
    }
    // `let [mut] x: Type = ... .collect();` — walk back to the
    // statement head. Any intervening `{`/`}`/`;` (closure blocks,
    // earlier statements) ends the scan conservatively.
    let mut j = i;
    while j > 0 {
        j -= 1;
        if punct_at(toks, j, b';') || punct_at(toks, j, b'{') || punct_at(toks, j, b'}') {
            j += 1;
            break;
        }
    }
    if ident_str(toks, j) != Some("let") {
        return None;
    }
    let mut k = j + 1;
    if ident_str(toks, k) == Some("mut") {
        k += 1;
    }
    // Pattern must be a simple ident followed by a `:` ascription.
    if ident_str(toks, k).is_none() || !punct_at(toks, k + 1, b':') || punct_at(toks, k + 2, b':') {
        return None;
    }
    let mut heads: Vec<&str> = Vec::new();
    let mut m = k + 2;
    while m < i {
        if punct_at(toks, m, b'=') && !punct_at(toks, m + 1, b'=') {
            break;
        }
        if let Some(s) = ident_str(toks, m) {
            if s != "_" {
                heads.push(s);
            }
        }
        m += 1;
    }
    if heads.is_empty() {
        None
    } else {
        Some(classify_idents(&heads, unit_types))
    }
}

/// The simple-identifier receiver of the method at `i` (`x.m(..)` with
/// `i` on `m`), or `None` for chained/field receivers (`a.b.m(..)`,
/// `f().m(..)`).
fn simple_receiver(toks: &[Token], i: usize) -> Option<&str> {
    if i < 2 || !punct_at(toks, i - 1, b'.') {
        return None;
    }
    let recv = ident_str(toks, i - 2)?;
    // `self.x.m(..)` / `a.b.m(..)`: the ident before `.m` is a field.
    if i >= 3 && punct_at(toks, i - 3, b'.') {
        return None;
    }
    Some(recv)
}

/// A deferred hash-iteration candidate, resolved after the whole body
/// is seen (the hash-type mention may come later than the call).
struct IterCandidate {
    line: usize,
    method_implies_keys: bool,
    /// `Some(class)` when the receiver resolved in the binding table.
    receiver: Option<BindClass>,
}

/// Run the dataflow-lite pass over one body (`toks` is the same slice
/// [`crate::parser`] hands to its body scanner: from the opening `{`
/// to just before the matching `}`). Fills [`FnItem::allocs`],
/// [`FnItem::impurities`], and appends receiver-typed hash-iteration
/// hazards to [`FnItem::hazards`].
#[allow(clippy::too_many_lines)]
pub fn analyze(toks: &[Token], item: &mut FnItem, unit_types: &[&str]) {
    let mut bindings: BTreeMap<String, (BindClass, Origin)> = BTreeMap::new();
    for (name, ty) in &item.params {
        let Some(name) = name else { continue };
        let class = classify_idents(ty, unit_types);
        if class != BindClass::Other {
            bindings.insert(name.clone(), (class, Origin::Param));
        }
    }

    let mut saw_hash_mention = false;
    let mut iter_candidates: Vec<IterCandidate> = Vec::new();

    let mut i = 0;
    while i < toks.len() {
        let line = toks[i].line;
        let Tok::Ident(word) = &toks[i].tok else {
            i += 1;
            continue;
        };
        let word = word.as_str();

        if HASH_TYPES.contains(&word) {
            saw_hash_mention = true;
        }

        // `let [mut] name [: Type] [= init]` — extend the binding
        // table. Pattern lets (`let Some(x) = ..`, destructuring) are
        // skipped: only simple-identifier bindings resolve.
        if word == "let" {
            let mut j = i + 1;
            while ident_str(toks, j) == Some("mut") {
                j += 1;
            }
            if let Some(name) = ident_str(toks, j) {
                let after = j + 1;
                // `:` (not `::`) → annotated; `=` → initializer only.
                let annotated = punct_at(toks, after, b':') && !punct_at(toks, after + 1, b':');
                let assigned = punct_at(toks, after, b'=') && !punct_at(toks, after + 1, b'=');
                if annotated || assigned {
                    let mut class = BindClass::Other;
                    let mut k = after;
                    if annotated {
                        let mut ann: Vec<&str> = Vec::new();
                        k += 1;
                        while k < toks.len() {
                            match &toks[k].tok {
                                Tok::P(b'=' | b';') => break,
                                Tok::Ident(t) => {
                                    ann.push(t.as_str());
                                    k += 1;
                                }
                                _ => k += 1,
                            }
                        }
                        class = classify_idents(&ann, unit_types);
                    }
                    // `= Type::ctor(..)` / `= vec![..]` initializers.
                    if class == BindClass::Other && punct_at(toks, k, b'=') {
                        if let Some(head) = ident_str(toks, k + 1) {
                            if punct_at(toks, k + 2, b':') && punct_at(toks, k + 3, b':') {
                                class = classify_idents(&[head], unit_types);
                            } else if head == "vec" && punct_at(toks, k + 2, b'!') {
                                class = BindClass::Heap;
                            }
                        }
                        // `= <recv>.lock()/.read()/.write()` initializers
                        // bind guards.
                        if class == BindClass::Other {
                            let mut m = k + 1;
                            while m < toks.len() && !punct_at(toks, m, b';') {
                                if acquisition_at(toks, m).is_some() && punct_at(toks, m - 1, b'.')
                                {
                                    class = BindClass::Guard;
                                    break;
                                }
                                m += 1;
                            }
                        }
                    }
                    if class != BindClass::Other {
                        bindings.insert(name.to_owned(), (class, Origin::Local));
                    }
                }
            }
            i += 1;
            continue;
        }

        // --- Allocation sites -----------------------------------------

        // `Vec::new(..)`, `String::with_capacity(..)`, `Box::new(..)`.
        if HEAP_TYPES.contains(&word) {
            if let Some(method) = ident_str(toks, i + 3) {
                if punct_at(toks, i + 1, b':')
                    && punct_at(toks, i + 2, b':')
                    && CTOR_METHODS.contains(&method)
                    && call_paren_follows(toks, i + 3)
                {
                    item.allocs.push(AllocSite {
                        line,
                        what: format!("{word}::{method}"),
                    });
                }
            }
        }

        // `format!(..)` / `vec![..]`.
        if ALLOC_MACROS.contains(&word)
            && punct_at(toks, i + 1, b'!')
            && (punct_at(toks, i + 2, b'(') || punct_at(toks, i + 2, b'['))
        {
            item.allocs.push(AllocSite {
                line,
                what: format!("{word}! macro"),
            });
        }

        let is_method = i >= 1 && punct_at(toks, i - 1, b'.');
        if is_method && call_paren_follows(toks, i) {
            // `.to_string()` / `.collect::<Vec<_>>()` / ... A collect
            // whose named target is not a container (e.g. a `Welford`
            // accumulator) folds without allocating and is skipped.
            if ALLOC_METHODS.contains(&word) {
                let folds_in_place = word == "collect"
                    && matches!(
                        collect_target_class(toks, i, unit_types),
                        Some(BindClass::Unit | BindClass::Other)
                    );
                if !folds_in_place {
                    item.allocs.push(AllocSite {
                        line,
                        what: format!(".{word}()"),
                    });
                }
            }
            // `.clone()` on a receiver known to own heap storage.
            if word == "clone" {
                if let Some((class, _)) = simple_receiver(toks, i).and_then(|r| bindings.get(r)) {
                    if matches!(class, BindClass::Heap | BindClass::Hash) {
                        item.allocs.push(AllocSite {
                            line,
                            what: ".clone() of heap-owning value".to_owned(),
                        });
                    }
                }
            }
            // `.push(..)` onto a locally built buffer. Params and
            // fields (unresolved receivers) are the scratch-reuse
            // idiom and stay exempt.
            if word == "push" {
                if let Some(&(class, Origin::Local)) =
                    simple_receiver(toks, i).and_then(|r| bindings.get(r))
                {
                    if matches!(class, BindClass::Heap | BindClass::Hash) {
                        item.allocs.push(AllocSite {
                            line,
                            what: ".push onto locally built buffer".to_owned(),
                        });
                    }
                }
            }
            // Hash iteration: defer — the container mention may come
            // later in the body.
            if HASH_ITER_METHODS.contains(&word) {
                iter_candidates.push(IterCandidate {
                    line,
                    method_implies_keys: KEYED_ITER_METHODS.contains(&word),
                    receiver: simple_receiver(toks, i)
                        .and_then(|r| bindings.get(r))
                        .map(|&(class, _)| class),
                });
            }
        }

        // --- Purity hazards -------------------------------------------

        if let Some(what) = INTERIOR_MUT_TYPES
            .iter()
            .find(|t| **t == word)
            .copied()
            .map(interior_mut_what)
        {
            item.impurities.push(PuritySite {
                line,
                what,
                shared: true,
            });
        }
        if LOCK_TYPES.contains(&word) {
            item.impurities.push(PuritySite {
                line,
                what: "lock-based shared state (Mutex/RwLock)",
                shared: false,
            });
        }
        if word.starts_with("Atomic") && word.len() > "Atomic".len() {
            item.impurities.push(PuritySite {
                line,
                what: "atomic shared state",
                shared: false,
            });
        }
        match word {
            "thread_local" if punct_at(toks, i + 1, b'!') => {
                item.impurities.push(PuritySite {
                    line,
                    what: "thread_local! state",
                    shared: true,
                });
            }
            "static" => {
                item.impurities.push(PuritySite {
                    line,
                    what: "static item in fn body",
                    shared: true,
                });
            }
            "SystemTime" => {
                item.impurities.push(PuritySite {
                    line,
                    what: "SystemTime wall-clock read",
                    shared: false,
                });
            }
            "Instant" if path_to(toks, i, "now") => {
                item.impurities.push(PuritySite {
                    line,
                    what: "Instant::now wall-clock read",
                    shared: false,
                });
            }
            "thread_rng" | "from_entropy" | "from_os_rng" => {
                item.impurities.push(PuritySite {
                    line,
                    what: "nondeterministic RNG",
                    shared: false,
                });
            }
            "rand" if path_to(toks, i, "rng") => {
                item.impurities.push(PuritySite {
                    line,
                    what: "nondeterministic RNG",
                    shared: false,
                });
            }
            "File" | "fs" if punct_at(toks, i + 1, b':') && punct_at(toks, i + 2, b':') => {
                item.impurities.push(PuritySite {
                    line,
                    what: "file I/O",
                    shared: false,
                });
            }
            "env" if path_to(toks, i, "var") || path_to(toks, i, "vars") => {
                item.impurities.push(PuritySite {
                    line,
                    what: "environment read",
                    shared: false,
                });
            }
            "stdin" | "stdout" | "stderr" if punct_at(toks, i + 1, b'(') => {
                item.impurities.push(PuritySite {
                    line,
                    what: "console I/O",
                    shared: false,
                });
            }
            "print" | "println" | "eprint" | "eprintln" if punct_at(toks, i + 1, b'!') => {
                item.impurities.push(PuritySite {
                    line,
                    what: "console I/O",
                    shared: false,
                });
            }
            _ => {}
        }

        i += 1;
    }

    // Resolve the deferred hash-iteration candidates.
    for cand in iter_candidates {
        let hazard = match cand.receiver {
            Some(BindClass::Hash) => true,
            // Receiver resolved to a deterministic container: proof it
            // is *not* hash iteration (the pre-dataflow heuristic fired
            // here).
            Some(BindClass::Heap | BindClass::Unit | BindClass::Guard | BindClass::Other) => false,
            // Unresolved (field, call result): only the keyed method
            // names count, and only when a hash type appears in the
            // body at all.
            None => cand.method_implies_keys && saw_hash_mention,
        };
        if hazard {
            item.hazards.push(DetHazard {
                line: cand.line,
                what: "HashMap/HashSet iteration order",
            });
        }
    }
}

// --- Concurrency facts --------------------------------------------------

/// Result adapters that pass a guard through unchanged — a chain of
/// these after an acquisition still ends in the statement's binding.
const GUARD_ADAPTERS: [&str; 6] = [
    "expect",
    "into_inner",
    "map_err",
    "ok",
    "unwrap",
    "unwrap_or_else",
];

/// Method calls that can block the calling thread.
const BLOCKING_METHODS: [&str; 10] = [
    "accept",
    "connect",
    "flush",
    "read_exact",
    "read_line",
    "read_to_end",
    "read_to_string",
    "recv",
    "write_all",
    "write_fmt",
];

/// Std stream handles whose locks are per-thread reentrant and intended
/// to be held across I/O — never guard hazards.
const STD_STREAM_LOCKS: [&str; 3] = ["stderr", "stdin", "stdout"];

/// The five atomic memory orderings.
const ORDERINGS: [&str; 5] = ["AcqRel", "Acquire", "Relaxed", "Release", "SeqCst"];

/// `lock()`/`read()`/`write()` with an *empty* argument list at `i` —
/// the zero-arg signatures of `Mutex`/`RwLock` acquisition, which is
/// what keeps `io::Read::read(&mut buf)` and `slice::join(sep)` out.
fn acquisition_at(toks: &[Token], i: usize) -> Option<AcqKind> {
    let kind = match ident_str(toks, i) {
        Some("lock") => AcqKind::Lock,
        Some("read") => AcqKind::Read,
        Some("write") => AcqKind::Write,
        _ => return None,
    };
    (punct_at(toks, i + 1, b'(') && punct_at(toks, i + 2, b')')).then_some(kind)
}

/// Balanced-group-aware receiver of the method at `i`:
/// `slots[i].lock()` → `slots`, `stdout().lock()` → `stdout`,
/// `self.stats.lock()` → `stats`.
fn receiver_ident(toks: &[Token], method: usize) -> Option<&str> {
    if method < 2 || !punct_at(toks, method - 1, b'.') {
        return None;
    }
    let mut j = method - 2;
    for (open, close) in [(b'(', b')'), (b'[', b']')] {
        if punct_at(toks, j, close) {
            let mut depth = 0usize;
            loop {
                if punct_at(toks, j, close) {
                    depth += 1;
                } else if punct_at(toks, j, open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j = j.checked_sub(1)?;
            }
            j = j.checked_sub(1)?;
        }
    }
    ident_str(toks, j)
}

/// Index just past the `)` matching the `(` at `i`.
fn skip_parens(toks: &[Token], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < toks.len() {
        if punct_at(toks, j, b'(') {
            depth += 1;
        } else if punct_at(toks, j, b')') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Where the value produced just before `k` flows, after skipping `?`
/// and guard-adapter chains.
enum Flow {
    /// `;` or `else` ends the statement — a `let` head binds it.
    Stmt,
    /// `{` — a `match`/`if let` block consumes it.
    Block,
    /// Consumed mid-expression: a temporary.
    Expr,
}

fn flow_after(toks: &[Token], mut k: usize) -> Flow {
    loop {
        if punct_at(toks, k, b'?') {
            k += 1;
        } else if punct_at(toks, k, b'.')
            && ident_str(toks, k + 1).is_some_and(|m| GUARD_ADAPTERS.contains(&m))
            && punct_at(toks, k + 2, b'(')
        {
            k = skip_parens(toks, k + 2);
        } else {
            break;
        }
    }
    if punct_at(toks, k, b';') || ident_str(toks, k) == Some("else") {
        Flow::Stmt
    } else if punct_at(toks, k, b'{') {
        Flow::Block
    } else {
        Flow::Expr
    }
}

/// Index of the first token of the statement containing `i`.
fn stmt_start(toks: &[Token], i: usize) -> usize {
    let mut j = i;
    while j > 0 {
        if matches!(&toks[j - 1].tok, Tok::P(b';' | b'{' | b'}')) {
            break;
        }
        j -= 1;
    }
    j
}

/// The binding context of the statement starting at `s`.
enum Head {
    /// `let [mut] name =` / `let Pat(name) =`.
    Let(String),
    /// `if let` / `while let` — the binding lives in the block.
    CondLet(String),
    /// `match <scrutinee> {` — anonymous scrutinee temporary.
    Match,
    /// No binding.
    None,
}

fn stmt_head(toks: &[Token], s: usize) -> Head {
    let mut j = s;
    let conditional = matches!(ident_str(toks, j), Some("if" | "while"));
    if conditional {
        j += 1;
    }
    if ident_str(toks, j) == Some("match") {
        return Head::Match;
    }
    if ident_str(toks, j) != Some("let") {
        return Head::None;
    }
    j += 1;
    while ident_str(toks, j) == Some("mut") {
        j += 1;
    }
    let Some(first) = ident_str(toks, j) else {
        return Head::None;
    };
    let name = if punct_at(toks, j + 1, b'(') {
        // One-level tuple-variant pattern: `Ok(guard)` / `Some(mut g)`.
        let mut k = j + 2;
        if ident_str(toks, k) == Some("mut") {
            k += 1;
        }
        match ident_str(toks, k) {
            Some(inner) if punct_at(toks, k + 1, b')') => inner,
            _ => return Head::None,
        }
    } else {
        first
    };
    if conditional {
        Head::CondLet(name.to_owned())
    } else {
        Head::Let(name.to_owned())
    }
}

/// `module :: name (` at `i` (on `name`)?
fn path_call_on(toks: &[Token], i: usize, module: &str) -> bool {
    i >= 3
        && punct_at(toks, i - 1, b':')
        && punct_at(toks, i - 2, b':')
        && ident_str(toks, i - 3) == Some(module)
        && punct_at(toks, i + 1, b'(')
}

/// The atomic method consuming the `Ordering::` path at `i`, plus
/// whether that call's receiver chain sits directly under an `if` /
/// `while` condition (walking back over `.`-chains and `!` only — `&&`
/// compounds are not seen).
fn ordering_op(toks: &[Token], i: usize) -> (String, bool) {
    let mut depth = 0usize;
    let mut j = i;
    while j > 0 {
        j -= 1;
        match &toks[j].tok {
            Tok::P(b')') => depth += 1,
            Tok::P(b'(') => {
                if depth > 0 {
                    depth -= 1;
                    continue;
                }
                let Some(op) = (j > 0).then(|| ident_str(toks, j - 1)).flatten() else {
                    return (String::new(), false);
                };
                let mut k = j - 1;
                while k >= 2 && punct_at(toks, k - 1, b'.') && ident_str(toks, k - 2).is_some() {
                    k -= 2;
                }
                let mut b = k;
                while b > 0 && punct_at(toks, b - 1, b'!') {
                    b -= 1;
                }
                let gates = b > 0 && matches!(ident_str(toks, b - 1), Some("if" | "while"));
                return (op.to_owned(), gates);
            }
            Tok::P(b';' | b'{' | b'}') if depth == 0 => break,
            _ => {}
        }
    }
    (String::new(), false)
}

/// Collect guard spans, atomic-ordering sites, spawn sites, and
/// blocking-call sites for one body. A separate walk from [`analyze`]:
/// guard lifetimes need brace-depth scope tracking that the flat
/// binding table deliberately ignores.
#[allow(clippy::too_many_lines)]
pub fn concurrency_facts(toks: &[Token], item: &mut FnItem) {
    let mut depth = 0usize;
    // (guard index, scope depth) of spans still live.
    let mut live: Vec<(usize, usize)> = Vec::new();
    // (spawn index, handle name) of let-bound spawn handles.
    let mut handles: Vec<(usize, String)> = Vec::new();
    // Locals bound to `stdout()`/`stdin()`/`stderr()`: locking those is
    // console buffering, not data-lock acquisition.
    let mut streams: Vec<String> = Vec::new();

    // Ends every live span named `name` at `line` (drop / shadowing).
    fn end_named(
        guards: &mut [GuardSpan],
        live: &mut Vec<(usize, usize)>,
        name: &str,
        line: usize,
    ) {
        live.retain(|&(gi, _)| {
            if guards[gi].name == name {
                guards[gi].end_line = line;
                false
            } else {
                true
            }
        });
    }

    let mut i = 0;
    while i < toks.len() {
        let line = toks[i].line;
        let Tok::Ident(w) = &toks[i].tok else {
            if punct_at(toks, i, b'{') {
                depth += 1;
            } else if punct_at(toks, i, b'}') {
                depth = depth.saturating_sub(1);
                live.retain(|&(gi, d)| {
                    if d > depth {
                        item.guards[gi].end_line = line;
                        false
                    } else {
                        true
                    }
                });
            }
            i += 1;
            continue;
        };
        let w = w.as_str();
        let is_method = i >= 1 && punct_at(toks, i - 1, b'.');

        match w {
            // A rebind of a live guard's name releases the old guard.
            "let" => {
                let mut j = i + 1;
                while ident_str(toks, j) == Some("mut") {
                    j += 1;
                }
                if let Some(name) = ident_str(toks, j).map(str::to_owned) {
                    end_named(&mut item.guards, &mut live, &name, line);
                }
            }
            // Explicit early release: `drop(guard)`.
            "drop" if punct_at(toks, i + 1, b'(') && punct_at(toks, i + 3, b')') => {
                if let Some(name) = ident_str(toks, i + 2).map(str::to_owned) {
                    end_named(&mut item.guards, &mut live, &name, line);
                }
            }
            "Ordering" if punct_at(toks, i + 1, b':') && punct_at(toks, i + 2, b':') => {
                if let Some(ord) = ident_str(toks, i + 3) {
                    if ORDERINGS.contains(&ord) {
                        let (op, gates_branch) = ordering_op(toks, i);
                        item.orderings.push(OrderingSite {
                            line,
                            ordering: ord.to_owned(),
                            op,
                            gates_branch,
                        });
                    }
                }
            }
            // `thread::spawn(..)` — scoped `scope.spawn` is a method
            // call and never lands here.
            "spawn" if path_call_on(toks, i, "thread") => {
                let after = skip_parens(toks, i + 1);
                let joined = punct_at(toks, after, b'.')
                    && ident_str(toks, after + 1) == Some("join")
                    && punct_at(toks, after + 2, b'(');
                let si = item.spawns.len();
                item.spawns.push(SpawnSite { line, joined });
                if !joined {
                    if let Head::Let(name) | Head::CondLet(name) =
                        stmt_head(toks, stmt_start(toks, i))
                    {
                        handles.push((si, name));
                    }
                }
            }
            "sleep" if path_call_on(toks, i, "thread") => {
                item.blocking.push(BlockingSite {
                    line,
                    what: "thread::sleep".to_owned(),
                });
            }
            // `let out = stdout();` — remember the alias so a later
            // `out.lock()` stays exempt like `stdout().lock()`.
            "stdout" | "stdin" | "stderr"
                if !is_method && punct_at(toks, i + 1, b'(') && punct_at(toks, i + 2, b')') =>
            {
                if let Head::Let(name) | Head::CondLet(name) = stmt_head(toks, stmt_start(toks, i))
                {
                    streams.push(name);
                }
            }
            _ => {
                if let Some(kind) = acquisition_at(toks, i).filter(|_| is_method) {
                    let recv = receiver_ident(toks, i).unwrap_or("").to_owned();
                    if !STD_STREAM_LOCKS.contains(&recv.as_str()) && !streams.contains(&recv) {
                        let flow = flow_after(toks, skip_parens(toks, i + 1));
                        let head = stmt_head(toks, stmt_start(toks, i));
                        let bound = match (flow, head) {
                            (Flow::Stmt | Flow::Block, Head::Let(n)) => Some((n, depth)),
                            (Flow::Stmt | Flow::Block, Head::CondLet(n)) => Some((n, depth + 1)),
                            (Flow::Block, Head::Match | Head::None) => {
                                Some((String::new(), depth + 1))
                            }
                            _ => None,
                        };
                        let gi = item.guards.len();
                        let (name, end_line) = match &bound {
                            Some((n, _)) => (n.clone(), line),
                            None => (String::new(), line),
                        };
                        item.guards.push(GuardSpan {
                            name,
                            lock: recv,
                            via_call: false,
                            kind,
                            line,
                            end_line,
                        });
                        if let Some((_, d)) = bound {
                            live.push((gi, d));
                        }
                    }
                } else if is_method && BLOCKING_METHODS.contains(&w) && call_paren_follows(toks, i)
                {
                    item.blocking.push(BlockingSite {
                        line,
                        what: format!(".{w}(..)"),
                    });
                } else if is_method
                    && w == "join"
                    && punct_at(toks, i + 1, b'(')
                    && punct_at(toks, i + 2, b')')
                {
                    // Zero-arg `.join()`: a thread-handle join, not
                    // `slice::join(sep)`.
                    item.blocking.push(BlockingSite {
                        line,
                        what: "thread join".to_owned(),
                    });
                } else if !is_method
                    && w == "connect"
                    && i >= 2
                    && punct_at(toks, i - 1, b':')
                    && punct_at(toks, i - 2, b':')
                    && punct_at(toks, i + 1, b'(')
                {
                    item.blocking.push(BlockingSite {
                        line,
                        what: "::connect(..)".to_owned(),
                    });
                } else if is_method && punct_at(toks, i + 1, b'(') && !GUARD_ADAPTERS.contains(&w) {
                    // A let-bound method-call result is a candidate
                    // guard acquired through a helper
                    // (`let g = self.lock_stats();`) — kept only if the
                    // concurrency pass resolves the method to a
                    // guard-returning workspace fn.
                    let flow = flow_after(toks, skip_parens(toks, i + 1));
                    let head = stmt_head(toks, stmt_start(toks, i));
                    let bound = match (flow, head) {
                        (Flow::Stmt | Flow::Block, Head::Let(n)) => Some((n, depth)),
                        (Flow::Stmt | Flow::Block, Head::CondLet(n)) => Some((n, depth + 1)),
                        _ => None,
                    };
                    if let Some((name, d)) = bound {
                        let gi = item.guards.len();
                        item.guards.push(GuardSpan {
                            name,
                            lock: w.to_owned(),
                            via_call: true,
                            kind: AcqKind::Lock,
                            line,
                            end_line: line,
                        });
                        live.push((gi, d));
                    }
                }
            }
        }
        i += 1;
    }

    let last_line = toks.last().map_or(0, |t| t.line);
    for (gi, _) in live {
        item.guards[gi].end_line = last_line;
    }

    // Resolve `.join()` on let-bound spawn handles anywhere in the body.
    for (si, name) in handles {
        let mut j = 0;
        while j + 3 < toks.len() {
            if ident_str(toks, j) == Some(name.as_str())
                && punct_at(toks, j + 1, b'.')
                && ident_str(toks, j + 2) == Some("join")
                && punct_at(toks, j + 3, b'(')
            {
                item.spawns[si].joined = true;
                break;
            }
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;
    use std::path::Path;

    const UNITS: [&str; 2] = ["Celsius", "Watts"];

    fn first_fn(src: &str) -> FnItem {
        let file = parse_file(Path::new("crates/x/src/lib.rs"), src, &UNITS);
        file.fns.into_iter().next().expect("one fn parsed")
    }

    fn alloc_whats(src: &str) -> Vec<String> {
        first_fn(src)
            .allocs
            .iter()
            .map(|a| a.what.clone())
            .collect()
    }

    #[test]
    fn heap_constructors_are_alloc_sites() {
        let whats = alloc_whats(
            "fn f() {\n    let v = Vec::with_capacity(4);\n    let s = String::new();\n    let b = Box::new(1);\n}\n",
        );
        assert_eq!(whats, vec!["Vec::with_capacity", "String::new", "Box::new"]);
    }

    #[test]
    fn alloc_macros_and_methods_fire() {
        let whats = alloc_whats(
            "fn f(n: u32) {\n    let s = format!(\"{n}\");\n    let v = vec![1, 2];\n    let t = n.to_string();\n    let c = (0..n).collect::<Vec<_>>();\n}\n",
        );
        assert!(whats.contains(&"format! macro".to_owned()));
        assert!(whats.contains(&"vec! macro".to_owned()));
        assert!(whats.contains(&".to_string()".to_owned()));
        assert!(whats.contains(&".collect()".to_owned()), "{whats:?}");
    }

    #[test]
    fn clone_fires_only_on_heap_typed_receivers() {
        let heap = alloc_whats("fn f(v: &Vec<f64>) {\n    let w = v.clone();\n}\n");
        assert_eq!(heap, vec![".clone() of heap-owning value"]);
        let copy = alloc_whats("fn f(x: u64) {\n    let y = x.clone();\n}\n");
        assert!(copy.is_empty(), "{copy:?}");
        let unknown = alloc_whats("fn f(&self) {\n    let y = self.flows.clone();\n}\n");
        assert!(unknown.is_empty(), "field receivers stay unresolved");
    }

    #[test]
    fn push_exempts_params_and_fields() {
        // Scratch-reuse idiom: push onto a parameter or a field.
        let reuse = alloc_whats(
            "fn f(out: &mut Vec<f64>, scratch: &mut Scratch) {\n    out.push(1.0);\n    scratch.truths.push(2.0);\n}\n",
        );
        assert!(reuse.is_empty(), "{reuse:?}");
        // Locally built buffer: the ctor and the push both pin lines.
        let local =
            alloc_whats("fn f() {\n    let mut v: Vec<f64> = Vec::new();\n    v.push(1.0);\n}\n");
        assert_eq!(local, vec!["Vec::new", ".push onto locally built buffer"]);
    }

    #[test]
    fn purity_hazards_detected() {
        let item = first_fn(
            "fn f() {\n    let c = RefCell::new(1);\n    let m = Mutex::new(2);\n    let t = std::time::Instant::now();\n    let r = thread_rng();\n    println!(\"x\");\n}\n",
        );
        let whats: Vec<_> = item.impurities.iter().map(|p| p.what).collect();
        assert!(whats.contains(&"interior mutability (RefCell)"));
        assert!(whats.contains(&"lock-based shared state (Mutex/RwLock)"));
        assert!(whats.contains(&"Instant::now wall-clock read"));
        assert!(whats.contains(&"nondeterministic RNG"));
        assert!(whats.contains(&"console I/O"));
        let shared: Vec<_> = item.impurities.iter().filter(|p| p.shared).collect();
        assert_eq!(shared.len(), 1, "only the RefCell is a shared hazard");
    }

    #[test]
    fn pure_arithmetic_has_no_hazards() {
        let item = first_fn("fn f(x: f64) -> f64 {\n    let y = x * 2.0;\n    y + 1.0\n}\n");
        assert!(item.impurities.is_empty(), "{:?}", item.impurities);
        assert!(item.allocs.is_empty(), "{:?}", item.allocs);
    }

    #[test]
    fn hash_iteration_requires_resolved_or_keyed_receiver() {
        // Resolved hash receiver: hazard.
        let hit = first_fn(
            "fn f() {\n    let m: HashMap<u8, u8> = HashMap::new();\n    for k in m.keys() {}\n}\n",
        );
        assert!(hit
            .hazards
            .iter()
            .any(|h| h.what == "HashMap/HashSet iteration order"));

        // The pre-dataflow false positive: a hash type mentioned, but
        // the iteration runs over a Vec.
        let fp = first_fn(
            "fn f(m: &HashMap<u8, u8>) {\n    let v: Vec<u8> = Vec::new();\n    for x in v.iter() {}\n    let _ = m.get(&1);\n}\n",
        );
        assert!(
            fp.hazards.is_empty(),
            "Vec iteration is not a hash hazard: {:?}",
            fp.hazards
        );

        // Unresolved receiver + keyed method + hash mention: hazard.
        let field = first_fn(
            "fn f(&self) {\n    let m: HashMap<u8, u8> = HashMap::new();\n    let _ = m.len();\n    for k in self.map.keys() {}\n}\n",
        );
        assert!(
            field
                .hazards
                .iter()
                .any(|h| h.what == "HashMap/HashSet iteration order"),
            "{:?}",
            field.hazards
        );

        // Unresolved receiver + generic method: no hazard without
        // receiver proof, even with a hash mention.
        let generic = first_fn(
            "fn f(&self, m: &HashMap<u8, u8>) {\n    let _ = m.get(&1);\n    for x in self.items.iter() {}\n}\n",
        );
        assert!(generic.hazards.is_empty(), "{:?}", generic.hazards);
    }

    #[test]
    fn let_else_and_patterns_do_not_bind() {
        let item = first_fn(
            "fn f(o: Option<Vec<u8>>) {\n    let Some(v) = o else {\n        return;\n    };\n    let (a, b) = (1, 2);\n    let _ = (a, b, v);\n}\n",
        );
        // No spurious allocs or hazards from pattern bindings.
        assert!(item.allocs.is_empty(), "{:?}", item.allocs);
    }

    #[test]
    fn nested_closures_and_turbofish_chains_scan() {
        let item = first_fn(
            "fn f(xs: &[u64]) -> Vec<u64> {\n    xs.iter().map(|x| {\n        let inner = move |y: u64| y + 1;\n        inner(*x)\n    }).collect::<Vec<u64>>()\n}\n",
        );
        assert_eq!(
            item.allocs
                .iter()
                .map(|a| a.what.as_str())
                .collect::<Vec<_>>(),
            vec![".collect()"]
        );
    }

    #[test]
    fn collect_into_non_container_target_is_not_an_alloc() {
        // Turbofish naming a plain accumulator: streaming fold.
        let fold = alloc_whats(
            "fn f(xs: &[f64]) -> f64 {\n    xs.iter().copied().collect::<Welford>().mean()\n}\n",
        );
        assert!(fold.is_empty(), "{fold:?}");
        // Let ascription naming a plain accumulator: same.
        let ascribed =
            alloc_whats("fn f(xs: &[f64]) -> f64 {\n    let w: Welford = xs.iter().copied().collect();\n    w.mean()\n}\n");
        assert!(ascribed.is_empty(), "{ascribed:?}");
        // Containers keep firing through both spellings.
        let heap = alloc_whats(
            "fn f(xs: &[f64]) {\n    let v: Vec<f64> = xs.iter().copied().collect();\n}\n",
        );
        assert_eq!(heap, vec![".collect()"]);
        // No named target at all: conservative, still a site.
        let bare =
            alloc_whats("fn f(xs: &[f64]) {\n    let v = xs.iter().copied().collect::<_>();\n}\n");
        assert_eq!(bare, vec![".collect()"]);
    }

    #[test]
    fn static_and_thread_local_are_shared_hazards() {
        let item = first_fn(
            "fn f() -> u64 {\n    static SEED: u64 = 7;\n    thread_local! { static TL: u8 = 0; }\n    SEED\n}\n",
        );
        assert!(item.impurities.iter().any(|p| p.shared));
        let whats: Vec<_> = item.impurities.iter().map(|p| p.what).collect();
        assert!(whats.contains(&"static item in fn body"));
        assert!(whats.contains(&"thread_local! state"));
    }

    // ----- concurrency facts -----

    #[test]
    fn let_bound_guard_lives_to_scope_end() {
        let item = first_fn(
            "fn f(&self) {\n    let g = self.stats.lock().unwrap();\n    g.bump();\n    g.bump();\n}\n",
        );
        assert_eq!(item.guards.len(), 1);
        let g = &item.guards[0];
        assert_eq!((g.name.as_str(), g.lock.as_str()), ("g", "stats"));
        assert_eq!(g.kind, AcqKind::Lock);
        assert!(!g.via_call);
        assert_eq!((g.line, g.end_line), (2, 4));
        assert!(g.covers(3) && g.covers(4) && !g.covers(2));
    }

    #[test]
    fn match_scrutinee_guard_is_an_anonymous_block_span() {
        // The poisoned-lock recovery idiom: the guard escapes the match
        // through both arms, so it is live for the whole enclosing
        // block even though no binding names it at statement level.
        let item = first_fn(
            "fn f(&self) -> Guard {\n    match self.sweep.read() {\n        Ok(guard) => guard,\n        Err(poisoned) => poisoned.into_inner(),\n    }\n}\n",
        );
        assert_eq!(item.guards.len(), 1);
        let g = &item.guards[0];
        assert_eq!((g.name.as_str(), g.lock.as_str()), ("", "sweep"));
        assert_eq!(g.kind, AcqKind::Read);
        assert!(g.end_line >= 5, "live through the match: {}", g.end_line);
    }

    #[test]
    fn if_let_guard_covers_the_block_only() {
        let item = first_fn(
            "fn f(&self) {\n    if let Ok(mut slot) = self.slots.lock() {\n        slot.store(1);\n    }\n    self.after();\n}\n",
        );
        assert_eq!(item.guards.len(), 1);
        let g = &item.guards[0];
        assert_eq!((g.name.as_str(), g.lock.as_str()), ("slot", "slots"));
        assert!(g.covers(3), "body line covered");
        assert!(!g.covers(5), "line after the block not covered");
    }

    #[test]
    fn drop_releases_the_guard_early() {
        let item = first_fn(
            "fn f(&self) {\n    let g = self.stats.lock().unwrap();\n    g.bump();\n    drop(g);\n    self.slow_io();\n}\n",
        );
        assert_eq!(item.guards.len(), 1);
        let g = &item.guards[0];
        assert_eq!(g.end_line, 4, "span ends at the drop");
        assert!(!g.covers(5));
    }

    #[test]
    fn shadowing_rebind_ends_the_previous_span() {
        let item = first_fn(
            "fn f(&self) {\n    let g = self.a.lock().unwrap();\n    g.bump();\n    let g = self.b.lock().unwrap();\n    g.bump();\n}\n",
        );
        assert_eq!(item.guards.len(), 2);
        assert_eq!(item.guards[0].lock, "a");
        assert_eq!(item.guards[0].end_line, 4, "shadow ends the first span");
        assert_eq!(item.guards[1].lock, "b");
        assert_eq!(item.guards[1].end_line, 5);
    }

    #[test]
    fn statement_temporary_covers_nothing() {
        let item = first_fn(
            "fn f(&self) {\n    *self.slot.lock().unwrap() = Some(1);\n    self.next();\n}\n",
        );
        assert_eq!(item.guards.len(), 1);
        let g = &item.guards[0];
        assert_eq!((g.line, g.end_line), (2, 2));
        assert!(!g.covers(3));
    }

    #[test]
    fn std_stream_locks_are_exempt() {
        let item = first_fn(
            "fn f() {\n    let out = std::io::stdout();\n    let mut h = out.lock();\n    let g = stdout().lock();\n}\n",
        );
        assert!(item.guards.is_empty(), "{:?}", item.guards);
    }

    #[test]
    fn io_read_write_with_args_are_not_acquisitions() {
        // `Read::read(&mut buf)` / `Write::write(&buf)` take arguments;
        // only empty-parens `lock()/read()/write()` acquire directly.
        // (They remain via-call *candidates*, culled later unless the
        // method resolves to a guard-returning workspace fn.)
        let item = first_fn(
            "fn f(s: &mut TcpStream, buf: &mut [u8]) {\n    let n = s.read(buf).unwrap();\n    let m = s.write(buf).unwrap();\n}\n",
        );
        assert!(item.guards.iter().all(|g| g.via_call), "{:?}", item.guards);
    }

    #[test]
    fn helper_call_guard_is_a_via_call_candidate() {
        let item =
            first_fn("fn f(&self) {\n    let stats = self.lock_stats();\n    stats.bump();\n}\n");
        assert_eq!(item.guards.len(), 1);
        let g = &item.guards[0];
        assert!(g.via_call);
        assert_eq!(g.lock, "lock_stats", "helper name pending resolution");
        assert_eq!(g.end_line, 3);
    }

    #[test]
    fn scope_spawns_are_exempt_and_bare_spawns_are_tracked() {
        // thread::scope joins by construction: no spawn site recorded.
        let scoped = first_fn(
            "fn f() {\n    std::thread::scope(|s| {\n        s.spawn(|| work());\n    });\n}\n",
        );
        assert!(scoped.spawns.is_empty(), "{:?}", scoped.spawns);

        let joined = first_fn(
            "fn f() {\n    let h = std::thread::spawn(|| work());\n    h.join().unwrap();\n}\n",
        );
        assert_eq!(joined.spawns.len(), 1);
        assert!(joined.spawns[0].joined);

        let chained = first_fn("fn f() {\n    std::thread::spawn(|| work()).join().unwrap();\n}\n");
        assert_eq!(chained.spawns.len(), 1);
        assert!(chained.spawns[0].joined);

        let detached = first_fn("fn f() {\n    std::thread::spawn(|| work());\n}\n");
        assert_eq!(detached.spawns.len(), 1);
        assert!(!detached.spawns[0].joined);
    }

    #[test]
    fn ordering_sites_attribute_op_and_branch() {
        let item = first_fn(
            "fn f(&self) {\n    self.flag.store(true, Ordering::Release);\n    if self.flag.load(Ordering::Relaxed) {\n        work();\n    }\n    self.count.fetch_add(1, Ordering::Relaxed);\n}\n",
        );
        let by_line: Vec<_> = item
            .orderings
            .iter()
            .map(|o| (o.line, o.op.as_str(), o.ordering.as_str(), o.gates_branch))
            .collect();
        assert_eq!(
            by_line,
            vec![
                (2, "store", "Release", false),
                (3, "load", "Relaxed", true),
                (6, "fetch_add", "Relaxed", false),
            ]
        );
    }

    #[test]
    fn blocking_sites_cover_io_join_and_sleep() {
        let item = first_fn(
            "fn f(s: &mut TcpStream, h: JoinHandle<()>) {\n    s.write_all(b\"x\").unwrap();\n    std::thread::sleep(ms);\n    h.join().unwrap();\n}\n",
        );
        let whats: Vec<_> = item.blocking.iter().map(|b| b.what.as_str()).collect();
        assert!(whats.contains(&".write_all(..)"), "{whats:?}");
        assert!(whats.contains(&"thread::sleep"), "{whats:?}");
        assert!(whats.contains(&"thread join"), "{whats:?}");
    }
}
