//! The thirteen domain-invariant rules.
//!
//! All of them run over the workspace [`SymbolIndex`] that
//! [`crate::parser`] feeds. Two *syntax* rules read one file at a time:
//! `raw-f64-in-public-api` reads the parsed `pub fn` signatures and
//! `nondeterminism` matches paths in the token stream. Eleven
//! *semantic* rules also walk the [`CallGraph`] (three of them over the
//! per-body facts from [`crate::dataflow`], and the five concurrency
//! rules in [`crate::concurrency`] over the guard/atomic/spawn facts)
//! and can see across files and crates. Checks that rustc or clippy
//! already enforce (unwrap/expect/panic, lossy casts, float `==`,
//! deprecated calls) are left to them; see DESIGN.md §7. Every rule
//! emits [`Finding`]s with a stable machine-readable identity (file,
//! line, column, rule name) plus a human suggestion. Rules only fire in
//! library code: test-only items (`#[test]`, `#[cfg(test)]` and
//! everything nested in them) and test-only files are exempt, every
//! rule honours the inline allow hatch, and the workspace walker never
//! feeds `tests/`, `benches/`, or `examples/` files in.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::callgraph::{resolve_call, CallGraph};
use crate::dataflow::{AllocSite, PuritySite};
use crate::index::{FnId, SymbolIndex};
use crate::lexer::{Tok, Token};
use crate::parser::{DetHazard, PanicSite, ParsedFile, Vis};

/// The crates whose public APIs must speak `mira-units` newtypes.
pub const PHYSICS_CRATES: [&str; 4] = ["cooling", "weather", "facility", "workload"];

/// The crates whose simulation code must stay deterministic.
pub const DETERMINISTIC_CRATES: [&str; 6] =
    ["core", "cooling", "weather", "workload", "ras", "store"];

/// The crates whose *public* fns must not reach a panic site.
pub const PANIC_AUDITED_CRATES: [&str; 4] = ["core", "cooling", "timeseries", "store"];

/// The `mira-units` newtypes whose raw `f64` payload the `unit-flow`
/// rule tracks.
pub const UNIT_TYPES: [&str; 8] = [
    "Celsius",
    "Fahrenheit",
    "Gpm",
    "KilowattHours",
    "Kilowatts",
    "Megawatts",
    "RelHumidity",
    "Watts",
];

/// Crates whose public APIs are dimension-agnostic by design: raw `f64`
/// flowing into them is not a unit hazard. `units` owns the newtypes;
/// `timeseries` is generic statistics over dimensionless samples; `obs`
/// records metric values whose unit lives in the metric key.
pub const DIMENSIONLESS_SINK_CRATES: [&str; 3] = ["units", "timeseries", "obs"];

/// The one file allowed to spawn threads: the deterministic sweep
/// executor (`std::thread::scope` + shard merge).
pub const SANCTIONED_EXECUTOR_FILE: &str = "crates/core/src/sweep.rs";

/// Files whose fns are the roots of the determinism-taint analysis.
pub const DETERMINISM_ROOT_FILES: [&str; 2] =
    ["crates/core/src/sweep.rs", "crates/core/src/summary.rs"];

/// The hot roots for `alloc-in-hot-path`, named as (crate, self type,
/// fn): the sweep engine, plus the per-row telemetry quantizer and
/// renderers every export and archive surface runs. Configured, not
/// inferred: "hot" is a property of the measured profile
/// (tests/text_path_allocs.rs pins the sweep's allocs/step and the
/// text path's per-row count; the archive benchmark reports
/// `archive.allocs_per_row`), not something a static walk can
/// discover — see DESIGN.md §10.
pub const HOT_ROOT_FNS: [(&str, &str, &str); 6] = [
    ("core", "SweepPlan", "run"),
    ("core", "TelemetryEngine", "sweep_steps_into"),
    ("core", "SweepSummary", "record_block"),
    ("store", "TelemetryRecord", "from_sample"),
    ("store", "TelemetryRecord", "write_csv"),
    ("store", "TelemetryRecord", "write_ndjson"),
];

/// Crates whose `merge` fns are aggregation hot roots: they run once
/// per shard pair inside the sweep reduce, at any visibility.
pub const HOT_MERGE_CRATES: [&str; 3] = ["core", "obs", "timeseries"];

/// (crate, type) pairs whose methods feed memo layers: every key
/// constructor and every lookup beneath a purity-keyed cache must be a
/// pure function of its inputs, or the cache silently serves stale or
/// order-dependent values.
pub const CACHE_PURE_TYPES: [(&str, &str); 9] = [
    ("cooling", "MonitorBank"),
    ("core", "SweepBlock"),
    ("timeseries", "CivilDayCache"),
    ("timeseries", "CivilParts"),
    ("timeseries", "WelfordRows"),
    ("weather", "FractalBank"),
    ("weather", "FractalCursor"),
    ("weather", "NoiseCursor"),
    ("weather", "ValueNoise"),
];

/// Identity of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// Public physics-crate `fn` signatures must use unit newtypes, not
    /// bare `f64`.
    RawF64InPublicApi,
    /// No wall clocks or unseeded RNGs in simulation crates.
    Nondeterminism,
    /// No panic site reachable from an audited crate's public fn.
    PanicReachability,
    /// No raw `f64` escaped from a unit newtype crossing crates.
    UnitFlow,
    /// No nondeterminism source reachable from sweep/summary code.
    DeterminismTaint,
    /// No allocation site reachable from the sweep hot roots.
    AllocInHotPath,
    /// Fns feeding memo layers must be pure.
    CachePurity,
    /// No interior-mutable/static state reachable from spawned work.
    SharedStateEscape,
    /// No cycle in the workspace lock-acquisition graph.
    LockOrder,
    /// No guard held across a blocking call.
    GuardAcrossBlocking,
    /// No guard held across a panic-reachable call.
    GuardAcrossPanic,
    /// No blanket `SeqCst`, `Relaxed` store, or branch-gating
    /// `Relaxed` load.
    AtomicOrdering,
    /// Every `thread::spawn` handle must be joined.
    UnjoinedThread,
}

impl Rule {
    /// All rules, in reporting order.
    pub const ALL: [Rule; 13] = [
        Rule::RawF64InPublicApi,
        Rule::Nondeterminism,
        Rule::PanicReachability,
        Rule::UnitFlow,
        Rule::DeterminismTaint,
        Rule::AllocInHotPath,
        Rule::CachePurity,
        Rule::SharedStateEscape,
        Rule::LockOrder,
        Rule::GuardAcrossBlocking,
        Rule::GuardAcrossPanic,
        Rule::AtomicOrdering,
        Rule::UnjoinedThread,
    ];

    /// The kebab-case name used in diagnostics, escape hatches, and the
    /// allowlist.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::RawF64InPublicApi => "raw-f64-in-public-api",
            Rule::Nondeterminism => "nondeterminism",
            Rule::PanicReachability => "panic-reachability",
            Rule::UnitFlow => "unit-flow",
            Rule::DeterminismTaint => "determinism-taint",
            Rule::AllocInHotPath => "alloc-in-hot-path",
            Rule::CachePurity => "cache-purity",
            Rule::SharedStateEscape => "shared-state-escape",
            Rule::LockOrder => "lock-order",
            Rule::GuardAcrossBlocking => "guard-across-blocking",
            Rule::GuardAcrossPanic => "guard-across-panic",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::UnjoinedThread => "unjoined-thread",
        }
    }

    /// Parse a rule name as written in an escape hatch or allowlist.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// The remediation hint attached to every diagnostic.
    #[must_use]
    pub fn suggestion(self) -> &'static str {
        match self {
            Rule::RawF64InPublicApi => {
                "use a mira-units newtype (Celsius, Fahrenheit, Gpm, Kilowatts, ...) in the public signature"
            }
            Rule::Nondeterminism => {
                "thread a seeded StdRng / SimTime through instead; wall clocks and entropy break replay"
            }
            Rule::PanicReachability => {
                "break the chain: return Result/Option at the panic site, or discharge it with an inline allow stating why it cannot fire"
            }
            Rule::UnitFlow => {
                "pass the newtype itself across the crate boundary, or route the raw value through mira_units::convert"
            }
            Rule::DeterminismTaint => {
                "keep wall clocks, hash-order iteration, and thread spawning out of the sweep path; only the sweep executor may use threads"
            }
            Rule::AllocInHotPath => {
                "reuse a SweepScratch buffer (clear + push through the caller-owned field) or hoist the allocation out of the per-step path"
            }
            Rule::CachePurity => {
                "make the memo-feeding fn a pure function of its arguments; move clocks, RNG, I/O, and mutable statics out to the caller"
            }
            Rule::SharedStateEscape => {
                "pass per-shard state into the closure by value and merge results after join; shared Cell/RefCell/static state breaks the merge order"
            }
            Rule::LockOrder => {
                "pick one acquisition order for the locks in the cycle and take them in that order everywhere, or narrow one guard's scope so the spans never overlap"
            }
            Rule::GuardAcrossBlocking => {
                "drop or scope the guard before the blocking call: copy what you need out, release, then block"
            }
            Rule::GuardAcrossPanic => {
                "shrink the guarded region so no panic-capable call sits under the guard, or make the callee infallible there"
            }
            Rule::AtomicOrdering => {
                "name the protocol: `Acquire` for the consuming load, `Release` for the publishing store; keep `Relaxed` for standalone counters only"
            }
            Rule::UnjoinedThread => {
                "keep the JoinHandle and `.join()` it (or use `thread::scope`, which joins by construction)"
            }
        }
    }

    /// The long-form documentation shown by `mira-lint --explain`.
    #[must_use]
    pub fn explain(self) -> &'static str {
        match self {
            Rule::RawF64InPublicApi => {
                "raw-f64-in-public-api (syntax rule)\n\n\
                 Public `fn` signatures in the physics crates (cooling, weather,\n\
                 facility, workload) must not expose bare `f64`. The paper's analyses\n\
                 mix Fahrenheit/Celsius, kW/MW, and gpm; a bare float at a crate\n\
                 boundary is exactly how a unit mix-up slips in. Use the mira-units\n\
                 newtypes (Celsius, Watts, Gpm, ...) instead."
            }
            Rule::Nondeterminism => {
                "nondeterminism (syntax rule)\n\n\
                 Simulation crates (core, cooling, weather, workload, ras) must not\n\
                 read wall clocks or unseeded RNGs. Every figure in the paper\n\
                 reproduction must replay bit-for-bit from a seed; `Instant::now`,\n\
                 `thread_rng`, and friends break that contract."
            }
            Rule::PanicReachability => {
                "panic-reachability (semantic rule)\n\n\
                 Any call path from a *public* fn of mira-core, mira-cooling, or\n\
                 mira-timeseries to a panic site (`unwrap()`, `expect(..)`,\n\
                 `panic!`, slice/array indexing) in non-test code is a finding; the\n\
                 full call chain is shown. Unlike clippy's `unwrap_used` / `panic`,\n\
                 which flag each site where it stands, this rule follows calls\n\
                 across files and crates, so a panic buried three crates deep\n\
                 still taints the public entry point.\n\n\
                 Indexing with `container[id.index()]` is sanctioned: the `index()`\n\
                 contract bounds the value by construction. A panic site can be\n\
                 discharged with `// mira-lint: allow(panic-reachability)` on (or\n\
                 above) the site when it is provably unreachable; the same comment\n\
                 on (or above) a `fn` line discharges every site in that body —\n\
                 use it for functions whose indexing is bounded throughout.\n\n\
                 The call graph is an over-approximation (name-based resolution;\n\
                 see DESIGN.md), so a reported chain may include edges the compiler\n\
                 would not take — verify before suppressing."
            }
            Rule::UnitFlow => {
                "unit-flow (semantic rule)\n\n\
                 A raw f64 extracted from a mira-units newtype (via `.0` inside\n\
                 mira-units, or `.value()` anywhere) must not flow into *another*\n\
                 crate's public fn as a bare argument: at that boundary the number\n\
                 has silently lost its unit. Pass the newtype across, or go through\n\
                 `mira_units::convert`. Escapes into `units` itself, into\n\
                 `timeseries` (dimension-agnostic statistics), and into `obs`\n\
                 (metrics keyed by name, unit in the key) are sanctioned.\n\n\
                 Tracking is per-function and token-level: direct arguments and\n\
                 single-assignment locals are seen; flows through fields, returns,\n\
                 or collections are not (see DESIGN.md)."
            }
            Rule::DeterminismTaint => {
                "determinism-taint (semantic rule)\n\n\
                 Fns defined in the sweep/summary modules of mira-core must not\n\
                 reach — through any call chain — HashMap/HashSet iteration,\n\
                 `Instant::now`, `SystemTime`, or thread spawning. These are the\n\
                 fns the determinism test suite pins bit-for-bit across\n\
                 MIRA_SWEEP_THREADS settings; hash-order iteration or a wall clock\n\
                 anywhere beneath them reorders merges between runs. The sweep\n\
                 executor itself (crates/core/src/sweep.rs) is the one sanctioned\n\
                 thread-spawning site."
            }
            Rule::AllocInHotPath => {
                "alloc-in-hot-path (semantic rule)\n\n\
                 The sweep engine's measured contract is ~0 heap allocations per\n\
                 simulated step (tests/text_path_allocs.rs); every buffer is owned by\n\
                 SweepScratch and reused via clear()+push. This rule walks the\n\
                 call graph from the configured hot roots (SweepPlan::run, the\n\
                 batched kernel TelemetryEngine::sweep_steps_into, the one\n\
                 summary fold SweepSummary::record_block, the `merge`\n\
                 aggregation fns of core/obs/timeseries, and the per-row\n\
                 telemetry text path\n\
                 TelemetryRecord::from_sample / write_csv / write_ndjson)\n\
                 and reports any reachable\n\
                 allocation site: heap-container constructors (Vec::new,\n\
                 String::with_capacity, Box::new, ...), `format!`/`vec!`,\n\
                 allocating methods (.to_string, .collect, .to_vec, ...),\n\
                 `.clone()` on a heap-typed local, and `.push(..)` onto a\n\
                 locally built buffer. Pushes onto parameters and fields are\n\
                 sanctioned — that is the scratch-reuse idiom itself.\n\n\
                 Hot roots are configured, not inferred: hotness is a property\n\
                 of the measured per-step profile, not of the source. Bounded\n\
                 per-sweep setup (shard vectors, scratch construction) is\n\
                 discharged with `// mira-lint: allow(alloc-in-hot-path)` on\n\
                 the `fn` line, which covers that body only — reachable callees\n\
                 are still walked."
            }
            Rule::CachePurity => {
                "cache-purity (semantic rule)\n\n\
                 The memo layers (NoiseCursor / FractalBank weather\n\
                 lattices, CivilDayCache calendar lookups, SweepBlock lanes)\n\
                 assume key construction and every transitive callee are pure\n\
                 functions of their inputs. A wall-clock read, RNG call, I/O,\n\
                 `static` item, or interior-mutable cell (Cell/RefCell/\n\
                 thread_local!/Mutex) beneath them makes a cached value depend\n\
                 on *when* it was computed, so a hit and a miss diverge and the\n\
                 six-year sweep stops replaying bit-for-bit. This rule walks\n\
                 the call graph from every method of the configured memo types\n\
                 and reports the first impure site with its full call chain."
            }
            Rule::SharedStateEscape => {
                "shared-state-escape (semantic rule)\n\n\
                 The sweep executor's bit-identical parallel merge works\n\
                 because shards only communicate through their owned results,\n\
                 merged in a fixed order after join. Interior-mutable state\n\
                 (Cell/RefCell/OnceCell/thread_local!) or a `static` item\n\
                 reachable from a fn that spawns threads reintroduces\n\
                 cross-shard communication whose observed order depends on\n\
                 scheduling. This rule starts at every fn in mira-core that\n\
                 spawns or scopes threads and reports reachable shared-state\n\
                 sites. Mutex/RwLock and atomics are exempt: the executor's\n\
                 slot-per-shard Mutex discipline is the sanctioned pattern."
            }
            Rule::LockOrder => {
                "lock-order (semantic rule)\n\n\
                 A workspace-wide lock-acquisition graph is built: an edge\n\
                 `A -> B` means some fn acquires lock `B` — directly or through\n\
                 any call chain — while a guard on `A` is live. A cycle in that\n\
                 graph is a deadlock inversion: two threads taking the locks in\n\
                 opposite orders can each hold one and wait forever on the\n\
                 other. A self-edge (`A -> A`) is re-entrant acquisition, which\n\
                 deadlocks a Mutex outright. Each cycle is reported once, from\n\
                 its lexically-first edge, with the full lock chain and the\n\
                 witness call chain — like panic-reachability's output.\n\n\
                 Lock identity is the receiver ident of the `lock()`/`read()`/\n\
                 `write()` call, qualified by crate; guards obtained through a\n\
                 guard-returning workspace helper resolve to the helper's own\n\
                 acquisition. Name-based call resolution over-approximates, so\n\
                 verify a reported cycle before suppressing (DESIGN.md §12)."
            }
            Rule::GuardAcrossBlocking => {
                "guard-across-blocking (semantic rule)\n\n\
                 A Mutex/RwLock guard held across a blocking call — socket or\n\
                 console I/O, `accept`, channel `recv`, thread `join`, `sleep`\n\
                 — serializes every other acquirer behind that I/O: one slow\n\
                 peer stalls all metric readers. The rule follows calls through\n\
                 the graph, so a guard held across a helper that eventually\n\
                 calls `write_all` three crates down is still a finding; the\n\
                 full chain is shown. `stdin()/stdout()/stderr().lock()` are\n\
                 exempt (console handles, not data locks), as are guards\n\
                 dropped (`drop(guard)` or scope end) before the call."
            }
            Rule::GuardAcrossPanic => {
                "guard-across-panic (semantic rule)\n\n\
                 A guard live across a panic-capable site — an `unwrap()`, an\n\
                 unbounded index, or any call chain reaching one (the same\n\
                 facts panic-reachability uses) — poisons the lock if the\n\
                 panic fires: every later `lock()` returns `Err(PoisonError)`\n\
                 and a service wedges long after the original bug. Shrink the\n\
                 guarded region below the panic-capable call, or discharge the\n\
                 site with an allow stating why it cannot fire. Recovery\n\
                 helpers (`unwrap_or_else(PoisonError::into_inner)`) are the\n\
                 complementary defense at the acquisition side."
            }
            Rule::AtomicOrdering => {
                "atomic-ordering (semantic rule)\n\n\
                 Atomic orderings are checked per site against a sanction\n\
                 list. `SeqCst` anywhere is a finding: it is the blanket\n\
                 strongest ordering, and reaching for it instead of naming the\n\
                 actual acquire/release protocol hides what the atomic\n\
                 protects (and costs a full fence on weakly-ordered\n\
                 hardware). A `Relaxed` *store* is a finding — it publishes\n\
                 nothing, so any flag written with it cannot hand off data.\n\
                 A `Relaxed` *load* directly gating an `if`/`while` is a\n\
                 finding — control flow on unsynchronized state. Everything\n\
                 else passes: `Relaxed` on standalone counters (`fetch_add`\n\
                 telemetry) and explicit `Acquire`/`Release` pairs are the\n\
                 sanctioned patterns."
            }
            Rule::UnjoinedThread => {
                "unjoined-thread (semantic rule)\n\n\
                 Every `thread::spawn` must have its `JoinHandle` joined —\n\
                 chained on the call or later on the bound handle. A detached\n\
                 thread outlives the fn that spawned it: panics in it are\n\
                 silently swallowed, and process exit races its teardown.\n\
                 `thread::scope` spawns are exempt by construction (the scope\n\
                 joins on exit); a deliberately detached worker is discharged\n\
                 with `// mira-lint: allow(unjoined-thread)` and a comment\n\
                 saying who owns its lifetime."
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path as reported (workspace-relative when walked).
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// 1-based column of the match for the two syntax rules; 0 for
    /// semantic rules, which anchor on a whole `fn` item or a fact site.
    pub column: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// What the rule matched, for the message.
    pub matched: String,
    /// For reachability rules: the call chain from the reported fn to
    /// the offending site, as display names. Empty for syntax rules.
    pub chain: Vec<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:", self.file.display(), self.line)?;
        if self.column > 0 {
            write!(f, "{}:", self.column)?;
        }
        write!(
            f,
            " [{}] {}; suggestion: {}",
            self.rule.name(),
            self.matched,
            self.rule.suggestion()
        )
    }
}

/// Escape hatches present on a line: `// mira-lint: allow(rule, rule)`.
pub(crate) fn allows_on(raw: &str) -> Vec<String> {
    let Some(comment) = raw.find("//").map(|i| &raw[i..]) else {
        return Vec::new();
    };
    let Some(tag) = comment.find("mira-lint:") else {
        return Vec::new();
    };
    let rest = &comment[tag + "mira-lint:".len()..];
    let Some(open) = rest.find("allow(") else {
        return Vec::new();
    };
    let body = &rest[open + "allow(".len()..];
    let Some(close) = body.find(')') else {
        return Vec::new();
    };
    body[..close]
        .split(',')
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .collect()
}

/// True when an inline `// mira-lint: allow(<rule>)` hatch covers
/// `line` (same line or the one above) in `file`.
pub(crate) fn sem_allowed(file: &ParsedFile, line: usize, rule: Rule) -> bool {
    let hit = |l: &usize| {
        file.allows
            .get(l)
            .is_some_and(|names| names.iter().any(|n| n == rule.name()))
    };
    hit(&line) || (line > 1 && hit(&(line - 1)))
}

/// Run all thirteen rules over the whole workspace.
#[must_use]
pub fn check(index: &SymbolIndex, graph: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_raw_f64_in_public_api(index, &mut findings);
    check_nondeterministic_calls(index, &mut findings);
    check_panic_reachability(index, graph, &mut findings);
    check_unit_flow(index, &mut findings);
    check_determinism_taint(index, graph, &mut findings);
    check_alloc_in_hot_path(index, graph, &mut findings);
    check_cache_purity(index, graph, &mut findings);
    check_shared_state_escape(index, graph, &mut findings);
    crate::concurrency::check(index, graph, &mut findings);
    findings
}

/// `pub fn` signatures in physics crates must not expose bare `f64`.
fn check_raw_f64_in_public_api(index: &SymbolIndex, findings: &mut Vec<Finding>) {
    for id in index.fn_ids() {
        let item = index.fn_at(id);
        if item.vis != Vis::Pub
            || !item.sig_f64
            || !PHYSICS_CRATES.contains(&index.crate_of(id))
            || index.is_test_fn(id)
        {
            continue;
        }
        let file = &index.files[index.file_of(id)];
        if sem_allowed(file, item.line, Rule::RawF64InPublicApi) {
            continue;
        }
        findings.push(Finding {
            file: file.rel.clone(),
            line: item.line,
            column: item.pub_col,
            rule: Rule::RawF64InPublicApi,
            matched: "bare `f64` in public physics-crate signature".to_owned(),
            chain: Vec::new(),
        });
    }
}

/// Calls that smuggle wall-clock time or OS entropy into simulation
/// code, breaking the `tests/determinism.rs` replay contract.
const NONDETERMINISM_PATTERNS: [(&str, &str); 6] = [
    ("SystemTime::now", "wall-clock read in simulation code"),
    ("Instant::now", "wall-clock read in simulation code"),
    ("thread_rng", "unseeded thread-local RNG in simulation code"),
    ("from_entropy", "OS-entropy RNG seeding in simulation code"),
    ("from_os_rng", "OS-entropy RNG seeding in simulation code"),
    ("rand::rng", "unseeded global RNG in simulation code"),
];

/// Does the `::` path `pattern` start at `toks[pos]`? Its last segment
/// must end the path, so `rand::rng` does not also fire on
/// `rand::rngs::StdRng` or `rand::rng::other`.
fn path_at(toks: &[Token], pos: usize, pattern: &str) -> bool {
    let tok = |i: usize| toks.get(i).map(|t| &t.tok);
    let mut i = pos;
    for (n, segment) in pattern.split("::").enumerate() {
        if n > 0 {
            if tok(i) != Some(&Tok::P(b':')) || tok(i + 1) != Some(&Tok::P(b':')) {
                return false;
            }
            i += 2;
        }
        if !matches!(tok(i), Some(Tok::Ident(s)) if s == segment) {
            return false;
        }
        i += 1;
    }
    tok(i) != Some(&Tok::P(b':'))
}

/// No wall clocks or unseeded RNGs anywhere in a simulation crate's
/// non-test code, fn bodies and item initializers alike. One finding
/// per pattern per line, at its first match.
fn check_nondeterministic_calls(index: &SymbolIndex, findings: &mut Vec<Finding>) {
    for (file_idx, file) in index.files.iter().enumerate() {
        if index.test_files.contains(&file_idx)
            || !DETERMINISTIC_CRATES.contains(&index.file_crate[file_idx].as_str())
        {
            continue;
        }
        let mut seen = BTreeSet::new();
        for (pos, tok) in file.toks.iter().enumerate() {
            for (pattern, message) in NONDETERMINISM_PATTERNS {
                if !path_at(&file.toks, pos, pattern)
                    || file.in_test_span(pos)
                    || !seen.insert((tok.line, pattern))
                    || sem_allowed(file, tok.line, Rule::Nondeterminism)
                {
                    continue;
                }
                findings.push(Finding {
                    file: file.rel.clone(),
                    line: tok.line,
                    column: tok.col,
                    rule: Rule::Nondeterminism,
                    matched: message.to_owned(),
                    chain: Vec::new(),
                });
            }
        }
    }
}

/// The first undischarged panic site of a non-test fn, if any.
pub(crate) fn live_panic(index: &SymbolIndex, id: FnId) -> Option<&PanicSite> {
    if index.is_test_fn(id) {
        return None;
    }
    let file = &index.files[index.file_of(id)];
    let item = index.fn_at(id);
    // An allow on the `fn` line discharges the whole body — the hatch
    // for functions whose indexing is bounded by construction
    // throughout (e.g. literal indices into fixed-size marker arrays).
    if sem_allowed(file, item.line, Rule::PanicReachability) {
        return None;
    }
    item.panics
        .iter()
        .find(|p| !sem_allowed(file, p.line, Rule::PanicReachability))
}

fn check_panic_reachability(index: &SymbolIndex, graph: &CallGraph, findings: &mut Vec<Finding>) {
    for root in index.fn_ids() {
        if !PANIC_AUDITED_CRATES.contains(&index.crate_of(root)) || index.is_test_fn(root) {
            continue;
        }
        let item = index.fn_at(root);
        if item.vis != Vis::Pub {
            continue;
        }
        let root_file = &index.files[index.file_of(root)];
        if sem_allowed(root_file, item.line, Rule::PanicReachability) {
            continue;
        }
        let Some(chain) = graph.first_chain_to(root, &|id| live_panic(index, id).is_some()) else {
            continue;
        };
        let Some(&sink) = chain.last() else { continue };
        let Some(site) = live_panic(index, sink) else {
            continue;
        };
        let names: Vec<String> = chain
            .iter()
            .map(|&id| index.fn_at(id).display_name())
            .collect();
        let sink_file = &index.files[index.file_of(sink)];
        findings.push(Finding {
            file: root_file.rel.clone(),
            line: item.line,
            column: 0,
            rule: Rule::PanicReachability,
            matched: format!(
                "public `{}` can reach a panic: {} (`{}` at {}:{})",
                item.display_name(),
                names.join(" -> "),
                site.what,
                sink_file.rel.display(),
                site.line
            ),
            chain: names,
        });
    }
}

/// The first undischarged determinism hazard of a non-test fn, if any.
/// Thread spawning inside the sanctioned executor file is exempt.
fn live_hazard(index: &SymbolIndex, id: FnId) -> Option<&DetHazard> {
    if index.is_test_fn(id) {
        return None;
    }
    let file = &index.files[index.file_of(id)];
    let in_executor = path_slashes(&file.rel) == SANCTIONED_EXECUTOR_FILE;
    index.fn_at(id).hazards.iter().find(|h| {
        if in_executor && h.what == "thread spawn/scope" {
            return false;
        }
        !sem_allowed(file, h.line, Rule::DeterminismTaint)
    })
}

fn path_slashes(path: &Path) -> String {
    path.to_string_lossy().replace('\\', "/")
}

fn check_determinism_taint(index: &SymbolIndex, graph: &CallGraph, findings: &mut Vec<Finding>) {
    for root in index.fn_ids() {
        let root_file = &index.files[index.file_of(root)];
        let rel = path_slashes(&root_file.rel);
        if !DETERMINISM_ROOT_FILES.contains(&rel.as_str()) || index.is_test_fn(root) {
            continue;
        }
        let item = index.fn_at(root);
        if sem_allowed(root_file, item.line, Rule::DeterminismTaint) {
            continue;
        }
        let Some(chain) = graph.first_chain_to(root, &|id| live_hazard(index, id).is_some()) else {
            continue;
        };
        let Some(&sink) = chain.last() else { continue };
        let Some(hazard) = live_hazard(index, sink) else {
            continue;
        };
        let names: Vec<String> = chain
            .iter()
            .map(|&id| index.fn_at(id).display_name())
            .collect();
        let sink_file = &index.files[index.file_of(sink)];
        findings.push(Finding {
            file: root_file.rel.clone(),
            line: item.line,
            column: 0,
            rule: Rule::DeterminismTaint,
            matched: format!(
                "sweep-path fn `{}` reaches a nondeterminism source: {} ({} at {}:{})",
                item.display_name(),
                names.join(" -> "),
                hazard.what,
                sink_file.rel.display(),
                hazard.line
            ),
            chain: names,
        });
    }
}

fn check_unit_flow(index: &SymbolIndex, findings: &mut Vec<Finding>) {
    for caller in index.fn_ids() {
        if index.is_test_fn(caller) {
            continue;
        }
        let file_idx = index.file_of(caller);
        let file = &index.files[file_idx];
        let caller_dir = index.crate_of(caller).to_owned();
        let item = index.fn_at(caller);
        for call in &item.calls {
            let Some(escaped_from) = &call.raw_unit else {
                continue;
            };
            if sem_allowed(file, call.line, Rule::UnitFlow) {
                continue;
            }
            let mut candidates = Vec::new();
            resolve_call(
                index,
                &caller_dir,
                file_idx,
                item.self_type.as_deref(),
                &call.kind,
                &mut candidates,
            );
            let Some(&callee) = candidates.iter().find(|&&id| {
                let dir = index.crate_of(id);
                dir != caller_dir
                    && !DIMENSIONLESS_SINK_CRATES.contains(&dir)
                    && index.fn_at(id).vis == Vis::Pub
                    && !index.is_test_fn(id)
            }) else {
                continue;
            };
            let callee_name = index.fn_at(callee).display_name();
            let callee_dir = index.crate_of(callee);
            findings.push(Finding {
                file: file.rel.clone(),
                line: call.line,
                column: 0,
                rule: Rule::UnitFlow,
                matched: format!(
                    "raw f64 from unit value `{escaped_from}` flows into `mira_{callee_dir}::{callee_name}` without mira_units::convert"
                ),
                chain: vec![item.display_name(), format!("mira_{callee_dir}::{callee_name}")],
            });
        }
    }
}

// ---------------------------------------------------------------------
// Dataflow-backed hot-path rules.

/// The first undischarged allocation site of a non-test fn, if any. An
/// allow on the `fn` line discharges that body's sites (the hatch for
/// bounded per-sweep setup) but, unlike panic-reachability's root
/// skip, never the callees beneath it — the walk continues past an
/// allowed fn.
fn live_alloc(index: &SymbolIndex, id: FnId) -> Option<&AllocSite> {
    if index.is_test_fn(id) {
        return None;
    }
    let file = &index.files[index.file_of(id)];
    let item = index.fn_at(id);
    if sem_allowed(file, item.line, Rule::AllocInHotPath) {
        return None;
    }
    item.allocs
        .iter()
        .find(|a| !sem_allowed(file, a.line, Rule::AllocInHotPath))
}

/// Is `id` one of the configured sweep hot roots?
fn is_hot_root(index: &SymbolIndex, id: FnId) -> bool {
    if index.is_test_fn(id) {
        return false;
    }
    let krate = index.crate_of(id);
    let item = index.fn_at(id);
    if HOT_ROOT_FNS
        .iter()
        .any(|(c, ty, f)| *c == krate && item.self_type.as_deref() == Some(*ty) && item.name == *f)
    {
        return true;
    }
    item.name == "merge" && HOT_MERGE_CRATES.contains(&krate)
}

fn check_alloc_in_hot_path(index: &SymbolIndex, graph: &CallGraph, findings: &mut Vec<Finding>) {
    for root in index.fn_ids() {
        if !is_hot_root(index, root) {
            continue;
        }
        let item = index.fn_at(root);
        let root_file = &index.files[index.file_of(root)];
        let Some(chain) = graph.first_chain_to(root, &|id| live_alloc(index, id).is_some()) else {
            continue;
        };
        let Some(&sink) = chain.last() else { continue };
        let Some(site) = live_alloc(index, sink) else {
            continue;
        };
        let names: Vec<String> = chain
            .iter()
            .map(|&id| index.fn_at(id).display_name())
            .collect();
        let sink_file = &index.files[index.file_of(sink)];
        findings.push(Finding {
            file: root_file.rel.clone(),
            line: item.line,
            column: 0,
            rule: Rule::AllocInHotPath,
            matched: format!(
                "hot-path fn `{}` reaches an allocation: {} (`{}` at {}:{})",
                item.display_name(),
                names.join(" -> "),
                site.what,
                sink_file.rel.display(),
                site.line
            ),
            chain: names,
        });
    }
}

/// The first undischarged impurity of a non-test fn, if any. Same
/// fn-line hatch semantics as [`live_alloc`].
fn live_impurity(
    index: &SymbolIndex,
    id: FnId,
    rule: Rule,
    shared_only: bool,
) -> Option<&PuritySite> {
    if index.is_test_fn(id) {
        return None;
    }
    let file = &index.files[index.file_of(id)];
    let item = index.fn_at(id);
    if sem_allowed(file, item.line, rule) {
        return None;
    }
    item.impurities
        .iter()
        .filter(|p| !shared_only || p.shared)
        .find(|p| !sem_allowed(file, p.line, rule))
}

fn check_cache_purity(index: &SymbolIndex, graph: &CallGraph, findings: &mut Vec<Finding>) {
    for root in index.fn_ids() {
        if index.is_test_fn(root) {
            continue;
        }
        let krate = index.crate_of(root);
        let item = index.fn_at(root);
        let feeds_memo = CACHE_PURE_TYPES
            .iter()
            .any(|(c, ty)| *c == krate && item.self_type.as_deref() == Some(*ty));
        if !feeds_memo {
            continue;
        }
        let root_file = &index.files[index.file_of(root)];
        let Some(chain) = graph.first_chain_to(root, &|id| {
            live_impurity(index, id, Rule::CachePurity, false).is_some()
        }) else {
            continue;
        };
        let Some(&sink) = chain.last() else { continue };
        let Some(site) = live_impurity(index, sink, Rule::CachePurity, false) else {
            continue;
        };
        let names: Vec<String> = chain
            .iter()
            .map(|&id| index.fn_at(id).display_name())
            .collect();
        let sink_file = &index.files[index.file_of(sink)];
        findings.push(Finding {
            file: root_file.rel.clone(),
            line: item.line,
            column: 0,
            rule: Rule::CachePurity,
            matched: format!(
                "memo-feeding fn `{}` reaches impure state: {} ({} at {}:{})",
                item.display_name(),
                names.join(" -> "),
                site.what,
                sink_file.rel.display(),
                site.line
            ),
            chain: names,
        });
    }
}

fn check_shared_state_escape(index: &SymbolIndex, graph: &CallGraph, findings: &mut Vec<Finding>) {
    for root in index.fn_ids() {
        if index.is_test_fn(root) || index.crate_of(root) != "core" {
            continue;
        }
        let item = index.fn_at(root);
        // Roots: fns that hand closures to std::thread::{scope, spawn};
        // the closure bodies are part of this fn's own walk.
        if !item.hazards.iter().any(|h| h.what == "thread spawn/scope") {
            continue;
        }
        let root_file = &index.files[index.file_of(root)];
        let Some(chain) = graph.first_chain_to(root, &|id| {
            live_impurity(index, id, Rule::SharedStateEscape, true).is_some()
        }) else {
            continue;
        };
        let Some(&sink) = chain.last() else { continue };
        let Some(site) = live_impurity(index, sink, Rule::SharedStateEscape, true) else {
            continue;
        };
        let names: Vec<String> = chain
            .iter()
            .map(|&id| index.fn_at(id).display_name())
            .collect();
        let sink_file = &index.files[index.file_of(sink)];
        findings.push(Finding {
            file: root_file.rel.clone(),
            line: item.line,
            column: 0,
            rule: Rule::SharedStateEscape,
            matched: format!(
                "thread-spawning fn `{}` can reach shared mutable state: {} ({} at {}:{})",
                item.display_name(),
                names.join(" -> "),
                site.what,
                sink_file.rel.display(),
                site.line
            ),
            chain: names,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workspace;
    use std::path::Path;

    /// Run the whole pipeline over `sources` as one workspace.
    fn scan(sources: &[(&str, &str)]) -> Vec<Finding> {
        Workspace::from_files(
            sources
                .iter()
                .map(|(rel, src)| (PathBuf::from(rel), (*src).to_owned()))
                .collect(),
        )
        .scan()
    }

    /// The two syntax rules' findings for one file at `fake_path`.
    fn findings_in(fake_path: &str, src: &str) -> Vec<Finding> {
        scan(&[(fake_path, src)])
            .into_iter()
            .filter(|f| matches!(f.rule, Rule::RawF64InPublicApi | Rule::Nondeterminism))
            .collect()
    }

    const LIB: &str = "crates/cooling/src/fixture.rs";

    #[test]
    fn cfg_test_region_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn f() { let _ = std::time::Instant::now(); }
}
";
        assert!(findings_in(LIB, src).is_empty());
    }

    #[test]
    fn nested_mod_inside_cfg_test_module_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    mod inner {
        pub fn helper(x: f64) -> f64 {
            let _ = std::time::Instant::now();
            x
        }
    }
}
";
        assert!(findings_in(LIB, src).is_empty());
    }

    #[test]
    fn braceless_cfg_test_mod_does_not_make_the_next_item_test_only() {
        let src = "#[cfg(test)]\nmod tests;\n\npub fn live(x: f64) -> f64 {\n    let _ = Instant::now();\n    x\n}\n";
        let found = findings_in(LIB, src);
        let at: Vec<_> = found.iter().map(|f| (f.rule, f.line, f.column)).collect();
        assert_eq!(
            at,
            vec![
                (Rule::RawF64InPublicApi, 4, 1),
                (Rule::Nondeterminism, 5, 13)
            ]
        );
    }

    #[test]
    fn item_initializers_outside_fns_are_scanned() {
        let src = "static START: Lazy<Instant> = Lazy::new(|| Instant::now());\n\
                   const SEED: fn() -> u64 = || rand::rng().next_u64();\n";
        let found = findings_in("crates/core/src/x.rs", src);
        let at: Vec<_> = found.iter().map(|f| (f.line, f.column)).collect();
        assert_eq!(at, vec![(1, 44), (2, 30)], "{found:?}");
    }

    #[test]
    fn comment_and_string_are_exempt() {
        let src = "// call Instant::now() later\nconst HINT: &str = \"Instant::now()\";\n";
        assert!(findings_in(LIB, src).is_empty());
    }

    #[test]
    fn escape_hatch_same_line_and_line_above() {
        let same = "fn f() { let _ = Instant::now(); } // mira-lint: allow(nondeterminism)\n";
        assert!(findings_in(LIB, same).is_empty());
        let above = "// mira-lint: allow(nondeterminism)\nfn f() { let _ = Instant::now(); }\n";
        assert!(findings_in(LIB, above).is_empty());
        let wrong_rule =
            "// mira-lint: allow(raw-f64-in-public-api)\nfn f() { let _ = Instant::now(); }\n";
        assert_eq!(findings_in(LIB, wrong_rule).len(), 1);
        let f64_same =
            "pub fn t(&self) -> f64 { self.t } // mira-lint: allow(raw-f64-in-public-api)\n";
        assert!(findings_in(LIB, f64_same).is_empty());
        let f64_above =
            "// mira-lint: allow(raw-f64-in-public-api)\npub fn t(&self) -> f64 { self.t }\n";
        assert!(findings_in(LIB, f64_above).is_empty());
        let f64_wrong_rule =
            "// mira-lint: allow(nondeterminism)\npub fn t(&self) -> f64 { self.t }\n";
        assert_eq!(findings_in(LIB, f64_wrong_rule).len(), 1);
    }

    #[test]
    fn nondeterminism_fires_only_in_simulation_crates() {
        let src = "fn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        assert_eq!(findings_in("crates/core/src/x.rs", src).len(), 1);
        assert_eq!(findings_in("crates/ras/src/x.rs", src).len(), 1);
        assert!(findings_in("crates/cli/src/x.rs", src).is_empty());
        assert!(findings_in("crates/nn/src/x.rs", src).is_empty());
    }

    #[test]
    fn seeded_rng_paths_do_not_fire() {
        let src = "use rand::rngs::StdRng;\nfn f() { let _ = StdRng::seed_from_u64(7); }\n";
        assert!(findings_in("crates/weather/src/x.rs", src).is_empty());
        // Whole tokens only: longer identifiers and deeper paths pass.
        let src = "fn f() { my_thread_rng(); MyInstant::now(); rand::rng::other(); }\n";
        assert!(findings_in("crates/weather/src/x.rs", src).is_empty());
    }

    #[test]
    fn unseeded_rng_fires() {
        let src = "fn f() { let mut r = rand::rng(); }\n";
        assert_eq!(findings_in("crates/workload/src/x.rs", src).len(), 1);
        let src = "fn f() { let mut r = thread_rng(); }\n";
        assert_eq!(findings_in("crates/cooling/src/x.rs", src).len(), 1);
    }

    #[test]
    fn public_f64_fires_in_physics_crates_only() {
        let src = "pub fn temperature(&self) -> f64 { self.t }\n";
        let found = findings_in("crates/cooling/src/x.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::RawF64InPublicApi);
        assert!(findings_in("crates/timeseries/src/x.rs", src).is_empty());
    }

    #[test]
    fn crate_private_and_newtype_signatures_pass() {
        let private = "pub(crate) fn helper(x: f64) -> f64 { x }\n";
        assert!(findings_in("crates/weather/src/x.rs", private).is_empty());
        let scoped = "pub(super) fn helper(x: f64) -> f64 { x }\n";
        assert!(findings_in("crates/weather/src/x.rs", scoped).is_empty());
        let typed = "pub fn temperature(&self) -> Celsius { self.t }\n";
        assert!(findings_in("crates/cooling/src/x.rs", typed).is_empty());
        let lookalike = "pub fn temperature(&self) -> f64x { self.t }\n";
        assert!(findings_in("crates/cooling/src/x.rs", lookalike).is_empty());
    }

    #[test]
    fn f64_in_generics_or_where_clause_fires() {
        let generics = "pub fn fold<F: Fn(f64) -> Celsius>(f: F) -> Celsius { f(0.0) }\n";
        assert_eq!(findings_in("crates/cooling/src/x.rs", generics).len(), 1);
        let bound = "pub fn fold<F>(f: F) -> Celsius\nwhere\n    F: Fn(f64) -> Celsius,\n{\n    f(0.0)\n}\n";
        let found = findings_in("crates/weather/src/x.rs", bound);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!((found[0].line, found[0].column), (1, 1));
    }

    #[test]
    fn multiline_public_signature_is_scanned() {
        let src = "\
pub fn blend(
    a: Celsius,
    weight: f64,
) -> Celsius {
    a
}
";
        let found = findings_in("crates/facility/src/x.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 1);
        // Qualifiers between `pub` and `fn`; the column is the `pub`'s.
        let src = "impl Pump {\n    pub const fn rpm(x: f64) -> Gpm {\n        Gpm(x)\n    }\n}\n";
        let found = findings_in("crates/facility/src/x.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!((found[0].line, found[0].column), (2, 5));
    }

    #[test]
    fn findings_render_file_line_column_rule() {
        let found = findings_in(LIB, "fn f() { let _ = Instant::now(); }\n");
        let rendered = found[0].to_string();
        assert!(
            rendered.starts_with("crates/cooling/src/fixture.rs:1:18: [nondeterminism]"),
            "{rendered}"
        );
        assert!(rendered.contains("suggestion:"));
        // Semantic findings (column 0) keep the file:line anchor.
        let sem = Finding {
            file: PathBuf::from("crates/core/src/sweep.rs"),
            line: 7,
            column: 0,
            rule: Rule::AllocInHotPath,
            matched: "x".into(),
            chain: Vec::new(),
        };
        assert!(
            sem.to_string()
                .starts_with("crates/core/src/sweep.rs:7: [alloc-in-hot-path]"),
            "{sem}"
        );
    }

    #[test]
    fn every_rule_has_name_and_explain() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
            assert!(rule.explain().starts_with(rule.name()), "{}", rule.name());
        }
    }

    // -----------------------------------------------------------------
    // Semantic rules over mini-workspaces.

    #[test]
    fn panic_reachability_crosses_files_with_chain() {
        let found = scan(&[
            (
                "crates/core/src/api.rs",
                "pub fn entry() {\n    crate::deep::helper();\n}\n",
            ),
            (
                "crates/core/src/deep.rs",
                "pub(crate) fn helper() {\n    inner();\n}\nfn inner() {\n    let x: Option<u8> = None;\n    let _ = x.unwrap();\n}\n",
            ),
        ]);
        let reach: Vec<_> = found
            .iter()
            .filter(|f| f.rule == Rule::PanicReachability)
            .collect();
        assert_eq!(reach.len(), 1, "{found:?}");
        assert_eq!(reach[0].file, Path::new("crates/core/src/api.rs"));
        assert_eq!(reach[0].line, 1);
        assert_eq!(reach[0].chain, vec!["entry", "helper", "inner"]);
        assert!(reach[0].matched.contains("unwrap()"));
        assert!(reach[0].matched.contains("crates/core/src/deep.rs:6"));
    }

    #[test]
    fn panic_reachability_skips_unaudited_and_private() {
        let unaudited = scan(&[(
            "crates/nn/src/lib.rs",
            "pub fn entry(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )]);
        assert!(unaudited.iter().all(|f| f.rule != Rule::PanicReachability));
        let private = scan(&[(
            "crates/core/src/lib.rs",
            "pub(crate) fn entry(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )]);
        assert!(private.iter().all(|f| f.rule != Rule::PanicReachability));
    }

    #[test]
    fn panic_reachability_discharged_at_source() {
        let found = scan(&[(
            "crates/timeseries/src/lib.rs",
            "pub fn entry(x: Option<u8>) -> u8 {\n    // length checked above. mira-lint: allow(panic-reachability)\n    x.unwrap()\n}\n",
        )]);
        assert!(found.iter().all(|f| f.rule != Rule::PanicReachability));
    }

    #[test]
    fn panic_reachability_discharged_at_fn_line() {
        let found = scan(&[(
            "crates/timeseries/src/lib.rs",
            "pub fn entry(q: &[f64; 5]) -> f64 {\n    pick(q)\n}\n\
             // markers array is always length 5. mira-lint: allow(panic-reachability)\n\
             fn pick(q: &[f64; 5]) -> f64 {\n    q[2] + q[4]\n}\n",
        )]);
        assert!(
            found.iter().all(|f| f.rule != Rule::PanicReachability),
            "{found:?}"
        );
    }

    #[test]
    fn unit_flow_flags_cross_crate_raw_escape() {
        let found = scan(&[
            (
                "crates/core/src/lib.rs",
                "use mira_units::Celsius;\npub(crate) fn push(t: Celsius) {\n    mira_cooling::ingest(t.value());\n}\n",
            ),
            ("crates/cooling/src/lib.rs", "pub fn ingest(x: f64) {}\n"),
        ]);
        let flow: Vec<_> = found.iter().filter(|f| f.rule == Rule::UnitFlow).collect();
        assert_eq!(flow.len(), 1, "{found:?}");
        assert_eq!(flow[0].line, 3);
        assert!(flow[0].matched.contains("mira_cooling::ingest"));
    }

    #[test]
    fn unit_flow_sanctions_same_crate_and_dimensionless_sinks() {
        let found = scan(&[
            (
                "crates/core/src/lib.rs",
                "use mira_units::Watts;\npub(crate) fn push(p: Watts) {\n    local(p.value());\n    mira_timeseries::record(p.value());\n}\nfn local(x: f64) {}\n",
            ),
            ("crates/timeseries/src/lib.rs", "pub fn record(x: f64) {}\n"),
        ]);
        assert!(found.iter().all(|f| f.rule != Rule::UnitFlow), "{found:?}");
    }

    #[test]
    fn determinism_taint_reaches_through_calls() {
        let found = scan(&[
            (
                "crates/core/src/summary.rs",
                "pub fn merge() {\n    crate::telemetry::stamp();\n}\n",
            ),
            (
                "crates/core/src/telemetry.rs",
                "pub(crate) fn stamp() {\n    let _ = std::time::Instant::now();\n}\n",
            ),
        ]);
        let taint: Vec<_> = found
            .iter()
            .filter(|f| f.rule == Rule::DeterminismTaint)
            .collect();
        assert_eq!(taint.len(), 1, "{found:?}");
        assert_eq!(taint[0].file, Path::new("crates/core/src/summary.rs"));
        assert!(taint[0].matched.contains("Instant::now"));
    }

    #[test]
    fn determinism_taint_sanctions_the_executor_spawn() {
        let found = scan(&[(
            "crates/core/src/sweep.rs",
            "pub fn run() {\n    std::thread::scope(|s| {\n        s.spawn(|| {});\n    });\n}\n",
        )]);
        assert!(
            found.iter().all(|f| f.rule != Rule::DeterminismTaint),
            "{found:?}"
        );
    }

    // -----------------------------------------------------------------
    // Dataflow-backed hot-path rules: one positive and one negative
    // fixture each.

    #[test]
    fn alloc_in_hot_path_fires_on_injected_vec_new() {
        // The acceptance fixture: a synthetic Vec::new smuggled beneath
        // sweep_steps_into through a helper.
        let found = scan(&[(
            "crates/core/src/telemetry.rs",
            "pub struct TelemetryEngine;\n\
             impl TelemetryEngine {\n\
                 pub fn sweep_steps_into(&self) {\n        helper();\n    }\n\
             }\n\
             fn helper() {\n    let v: Vec<f64> = Vec::new();\n    let _ = v;\n}\n",
        )]);
        let hits: Vec<_> = found
            .iter()
            .filter(|f| f.rule == Rule::AllocInHotPath)
            .collect();
        assert_eq!(hits.len(), 1, "{found:?}");
        assert_eq!(
            hits[0].chain,
            vec!["TelemetryEngine::sweep_steps_into", "helper"]
        );
        assert!(hits[0].matched.contains("Vec::new"));
        assert!(hits[0].matched.contains("crates/core/src/telemetry.rs:8"));
    }

    #[test]
    fn alloc_in_hot_path_sanctions_scratch_reuse() {
        // Negative fixture: the real kernel shape — clear + push through
        // caller-owned buffers allocates nothing.
        let found = scan(&[(
            "crates/core/src/telemetry.rs",
            "pub struct TelemetryEngine;\n\
             impl TelemetryEngine {\n\
                 pub fn sweep_steps_into(&self, out: &mut Vec<f64>, scratch: &mut SweepScratch) {\n\
                     out.clear();\n        out.push(1.0);\n        scratch.truths.push(2.0);\n    }\n\
             }\n",
        )]);
        assert!(
            found.iter().all(|f| f.rule != Rule::AllocInHotPath),
            "{found:?}"
        );
    }

    #[test]
    fn alloc_in_hot_path_covers_merge_fns_and_fn_line_allow() {
        let positive = scan(&[(
            "crates/timeseries/src/stats.rs",
            "pub struct Acc;\nimpl Acc {\n    pub fn merge(&mut self, other: &Acc) {\n        let label = format!(\"x\");\n        let _ = label;\n    }\n}\n",
        )]);
        assert!(
            positive.iter().any(|f| f.rule == Rule::AllocInHotPath),
            "{positive:?}"
        );
        // The fn-line hatch discharges the body's bounded setup...
        let allowed = scan(&[(
            "crates/core/src/sweep.rs",
            "pub struct SweepPlan;\nimpl SweepPlan {\n    // bounded per-sweep setup. mira-lint: allow(alloc-in-hot-path)\n    pub fn run(&self) {\n        let shards: Vec<u8> = Vec::with_capacity(4);\n        let _ = shards;\n    }\n}\n",
        )]);
        assert!(
            allowed.iter().all(|f| f.rule != Rule::AllocInHotPath),
            "{allowed:?}"
        );
        // ...but never the callees beneath it: the walk continues.
        let beneath = scan(&[(
            "crates/core/src/sweep.rs",
            "pub struct SweepPlan;\nimpl SweepPlan {\n    // bounded per-sweep setup. mira-lint: allow(alloc-in-hot-path)\n    pub fn run(&self) {\n        leak();\n    }\n}\nfn leak() {\n    let s = String::new();\n    let _ = s;\n}\n",
        )]);
        assert!(
            beneath.iter().any(|f| f.rule == Rule::AllocInHotPath),
            "fn-line allow must not vacate the subtree: {beneath:?}"
        );
    }

    #[test]
    fn cache_purity_fires_on_impure_memo_constructor() {
        let found = scan(&[(
            "crates/core/src/telemetry.rs",
            "pub struct SweepBlock;\nimpl SweepBlock {\n    pub fn new() -> Self {\n        stamp();\n        SweepBlock\n    }\n}\n\
             fn stamp() {\n    let _ = std::time::SystemTime::now();\n}\n",
        )]);
        let hits: Vec<_> = found
            .iter()
            .filter(|f| f.rule == Rule::CachePurity)
            .collect();
        assert_eq!(hits.len(), 1, "{found:?}");
        assert_eq!(hits[0].chain, vec!["SweepBlock::new", "stamp"]);
        assert!(hits[0].matched.contains("SystemTime"));
    }

    #[test]
    fn cache_purity_passes_pure_constructor() {
        let found = scan(&[(
            "crates/weather/src/noise.rs",
            "pub struct NoiseCursor;\nimpl NoiseCursor {\n    pub fn new(seed: u64) -> u64 {\n        mix(seed)\n    }\n}\n\
             fn mix(z: u64) -> u64 {\n    z.wrapping_mul(7)\n}\n",
        )]);
        assert!(
            found.iter().all(|f| f.rule != Rule::CachePurity),
            "{found:?}"
        );
    }

    #[test]
    fn shared_state_escape_fires_on_refcell_under_spawn() {
        let found = scan(&[(
            "crates/core/src/sweep.rs",
            "pub fn run() {\n    std::thread::scope(|s| {\n        s.spawn(|| tally());\n    });\n}\n\
             fn tally() {\n    let c = RefCell::new(0u64);\n    let _ = c;\n}\n",
        )]);
        let hits: Vec<_> = found
            .iter()
            .filter(|f| f.rule == Rule::SharedStateEscape)
            .collect();
        assert_eq!(hits.len(), 1, "{found:?}");
        assert!(hits[0].matched.contains("RefCell"));
        assert_eq!(hits[0].chain, vec!["run", "tally"]);
    }

    #[test]
    fn shared_state_escape_sanctions_mutex_slots() {
        // Negative fixture: the executor's slot-per-shard Mutex
        // discipline is the sanctioned pattern.
        let found = scan(&[(
            "crates/core/src/sweep.rs",
            "pub fn run() {\n    let slots: Vec<Mutex<u8>> = Vec::new();\n    std::thread::scope(|s| {\n        s.spawn(|| {});\n    });\n    let _ = slots;\n}\n",
        )]);
        assert!(
            found.iter().all(|f| f.rule != Rule::SharedStateEscape),
            "{found:?}"
        );
    }

    #[test]
    fn determinism_taint_requires_receiver_typed_hash_iteration() {
        // The pre-dataflow false positive: sweep code that *looks up* a
        // HashMap but iterates a Vec must not fire.
        let found = scan(&[(
            "crates/core/src/summary.rs",
            "pub fn merge(m: &HashMap<u8, u8>) {\n    let v: Vec<u8> = Vec::new();\n    for x in v.iter() {\n        let _ = m.get(x);\n    }\n}\n",
        )]);
        assert!(
            found.iter().all(|f| f.rule != Rule::DeterminismTaint),
            "{found:?}"
        );
        // A resolved hash receiver still fires.
        let hit = scan(&[(
            "crates/core/src/summary.rs",
            "pub fn merge() {\n    let m: HashMap<u8, u8> = HashMap::new();\n    for k in m.keys() {\n        let _ = k;\n    }\n}\n",
        )]);
        assert!(
            hit.iter().any(|f| f.rule == Rule::DeterminismTaint),
            "{hit:?}"
        );
    }
}
