//! A recursive-descent *item* parser over the scrubbed token stream.
//!
//! [`crate::lexer`] turns each file into a comment- and literal-free
//! token stream; this module recovers the item structure the rules
//! need: `use` maps, `mod` declarations, the token spans of test-only
//! items, and `fn` items with their signatures and per-body facts
//! (call sites, panic sites, determinism hazards, raw-unit escapes).
//!
//! It is deliberately *not* a full Rust parser. It understands exactly
//! enough item syntax to be right about the workspace's rustfmt-shaped
//! code, and it degrades safely: an unrecognized construct is skipped,
//! never misattributed. The approximations that matter (name-only call
//! resolution, token-level taint) are documented in `DESIGN.md` and in
//! `mira-lint --explain <rule>`.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::dataflow::{AllocSite, BlockingSite, GuardSpan, OrderingSite, PuritySite, SpawnSite};
use crate::lexer::{scrub, tokenize, Tok, Token};

/// Item visibility, as far as the rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// `pub`
    Pub,
    /// `pub(crate)` / `pub(super)` / `pub(in ..)`
    Scoped,
    /// No modifier.
    Private,
}

/// One `use` alias: the name it binds locally and the path it expands
/// to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDecl {
    /// Local name (`convert` for `use mira_units::convert;`, the `as`
    /// name when renamed).
    pub alias: String,
    /// Full path segments.
    pub path: Vec<String>,
}

/// How a call site names its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `a::b::c(..)` or a bare `c(..)` (one segment).
    Path(Vec<String>),
    /// `.method(..)`.
    Method(String),
}

/// One call expression found in a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Target spelling.
    pub kind: CallKind,
    /// 1-based line of the opening parenthesis.
    pub line: usize,
    /// `Some(ident)` when an argument carries a raw `f64` escaped from
    /// a unit newtype (via `.0` or `.value()`) or a local tainted by
    /// such an escape, and this call is the innermost one enclosing the
    /// escape.
    pub raw_unit: Option<String>,
}

/// A site that can panic at runtime.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based line.
    pub line: usize,
    /// What was matched (`unwrap()`, `expect(..)`, `panic!`,
    /// `slice/array index`).
    pub what: &'static str,
}

/// A determinism hazard inside a function body.
#[derive(Debug, Clone)]
pub struct DetHazard {
    /// 1-based line.
    pub line: usize,
    /// What was matched.
    pub what: &'static str,
}

/// One function item (free fn, inherent/trait method, or trait default
/// method).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare name.
    pub name: String,
    /// `Some("Type")` for fns inside `impl Type` / `impl Tr for Type` /
    /// `trait Type` blocks.
    pub self_type: Option<String>,
    /// Module path within the file (inline `mod` nesting only).
    pub module: Vec<String>,
    /// Visibility.
    pub vis: Vis,
    /// 1-based column of the `pub` token; 0 unless `vis` is `Pub`.
    pub pub_col: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether `f64` appears anywhere in the signature: generics,
    /// parameters, return type, or `where` clause.
    pub sig_f64: bool,
    /// Parameter names (when a simple ident pattern) and the
    /// identifiers appearing in each parameter's type.
    pub params: Vec<(Option<String>, Vec<String>)>,
    /// Identifiers appearing in the return type.
    pub ret: Vec<String>,
    /// `#[test]`, `#[cfg(test)]`, or nested (through any `mod`, `impl`,
    /// or `trait`) inside a `#[cfg(test)]` item.
    pub is_test: bool,
    /// Call expressions in the body.
    pub calls: Vec<CallSite>,
    /// Panic-capable sites in the body.
    pub panics: Vec<PanicSite>,
    /// Determinism hazards in the body.
    pub hazards: Vec<DetHazard>,
    /// Allocation sites in the body (from [`crate::dataflow`]).
    pub allocs: Vec<AllocSite>,
    /// Purity hazards in the body (from [`crate::dataflow`]).
    pub impurities: Vec<PuritySite>,
    /// Lock-guard acquisitions and their live spans (from
    /// [`crate::dataflow::concurrency_facts`]).
    pub guards: Vec<GuardSpan>,
    /// `Ordering::` arguments to atomic operations.
    pub orderings: Vec<OrderingSite>,
    /// `thread::spawn` handle sites.
    pub spawns: Vec<SpawnSite>,
    /// Potentially blocking calls (I/O, accept, recv, join, sleep).
    pub blocking: Vec<BlockingSite>,
}

impl FnItem {
    /// `Type::name` for methods, plain `name` otherwise.
    #[must_use]
    pub fn display_name(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Everything the index needs from one parsed file.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    /// Workspace-relative path.
    pub rel: PathBuf,
    /// `use` aliases in scope (file-wide; module granularity is not
    /// tracked).
    pub uses: Vec<UseDecl>,
    /// All function items.
    pub fns: Vec<FnItem>,
    /// Names of `mod x;` declarations (external files).
    pub child_mods: Vec<String>,
    /// Subset of [`Self::child_mods`] declared under `#[cfg(test)]`.
    pub test_mods: Vec<String>,
    /// `// mira-lint: allow(..)` hatches by 1-based line.
    pub allows: BTreeMap<usize, Vec<String>>,
    /// The file's token stream.
    pub toks: Vec<Token>,
    /// Token ranges of the outermost test-only items (`#[test]`,
    /// `#[cfg(test)]`), in file order; everything nested in one is
    /// test-only too.
    pub test_spans: Vec<Range<usize>>,
}

impl ParsedFile {
    /// Is the token at `pos` inside a test-only item?
    #[must_use]
    pub fn in_test_span(&self, pos: usize) -> bool {
        self.test_spans.iter().any(|span| span.contains(&pos))
    }
}

/// Keywords that must not be mistaken for call targets.
const KEYWORDS: [&str; 36] = [
    "if", "else", "while", "for", "loop", "match", "return", "let", "fn", "mod", "impl", "use",
    "pub", "crate", "super", "move", "ref", "mut", "in", "as", "where", "unsafe", "dyn", "break",
    "continue", "struct", "enum", "trait", "type", "const", "static", "extern", "async", "await",
    "box", "yield",
];

fn is_keyword(name: &str) -> bool {
    KEYWORDS.contains(&name)
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    unit_types: &'a [&'a str],
    out: ParsedFile,
}

/// Attributes gathered in front of an item.
#[derive(Debug, Clone, Copy, Default)]
struct Attrs {
    cfg_test: bool,
    is_test: bool,
}

/// Parse one file: scrub, tokenize, and recover its items.
/// `unit_types` are the newtype names whose raw escape the `unit-flow`
/// rule tracks.
#[must_use]
pub fn parse_file(rel: &Path, source: &str, unit_types: &[&str]) -> ParsedFile {
    let toks = tokenize(&scrub(source));
    let mut allows = BTreeMap::new();
    for (idx, raw) in source.lines().enumerate() {
        let hatches = crate::rules::allows_on(raw);
        if !hatches.is_empty() {
            allows.insert(idx + 1, hatches);
        }
    }
    let mut parser = Parser {
        toks: &toks,
        pos: 0,
        unit_types,
        out: ParsedFile {
            rel: rel.to_path_buf(),
            uses: Vec::new(),
            fns: Vec::new(),
            child_mods: Vec::new(),
            test_mods: Vec::new(),
            allows,
            toks: Vec::new(),
            test_spans: Vec::new(),
        },
    };
    parser.items(&mut Vec::new(), None, usize::MAX, false);
    let mut out = parser.out;
    out.toks = toks;
    out
}

impl Parser<'_> {
    fn peek(&self, ahead: usize) -> Option<&Tok> {
        self.toks.get(self.pos + ahead).map(|t| &t.tok)
    }

    fn line_at(&self, pos: usize) -> usize {
        self.toks
            .get(pos.min(self.toks.len().saturating_sub(1)))
            .map_or(1, |t| t.line)
    }

    fn is_punct(&self, ahead: usize, b: u8) -> bool {
        matches!(self.peek(ahead), Some(Tok::P(p)) if *p == b)
    }

    fn ident_at(&self, ahead: usize) -> Option<&str> {
        match self.peek(ahead) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Skip a balanced `open`..`close` region; `pos` must sit on
    /// `open`. Returns the position just past the matching close.
    fn skip_balanced(&mut self, open: u8, close: u8) {
        let mut depth = 0usize;
        while self.pos < self.toks.len() {
            if self.is_punct(0, open) {
                depth += 1;
            } else if self.is_punct(0, close) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    self.pos += 1;
                    return;
                }
            }
            self.pos += 1;
        }
    }

    /// Skip a generics list `<...>` if present (angle brackets balance
    /// in declaration position).
    fn skip_generics(&mut self) {
        if !self.is_punct(0, b'<') {
            return;
        }
        let mut depth = 0usize;
        while self.pos < self.toks.len() {
            if self.is_punct(0, b'<') {
                depth += 1;
            } else if self.is_punct(0, b'>') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    self.pos += 1;
                    return;
                }
            }
            self.pos += 1;
        }
    }

    /// Consume attributes (`#[..]`), recording the ones the rules need.
    fn attrs(&mut self, pending: &mut Attrs) {
        while self.is_punct(0, b'#') {
            // `#[..]` or `#![..]`.
            let bang = usize::from(self.is_punct(1, b'!'));
            if !self.is_punct(1 + bang, b'[') {
                self.pos += 1;
                continue;
            }
            let start = self.pos + 1 + bang;
            self.pos = start;
            let mut idents: Vec<&str> = Vec::new();
            let mut depth = 0usize;
            while self.pos < self.toks.len() {
                match &self.toks[self.pos].tok {
                    Tok::P(b'[') => depth += 1,
                    Tok::P(b']') => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            self.pos += 1;
                            break;
                        }
                    }
                    Tok::Ident(s) => idents.push(s.as_str()),
                    _ => {}
                }
                self.pos += 1;
            }
            // `cfg(not(test))` (or any `not` beside `test`) guards live
            // code: only a `cfg` without negation scopes an item to tests.
            match idents.first().copied() {
                Some("test") => pending.is_test = true,
                Some("cfg") if idents.contains(&"test") && !idents.contains(&"not") => {
                    pending.cfg_test = true;
                }
                _ => {}
            }
        }
    }

    /// Parse items until `end` (token position) or EOF. `in_test` is
    /// set inside a test-only item, and every item beneath inherits it.
    fn items(
        &mut self,
        module: &mut Vec<String>,
        self_type: Option<&str>,
        end: usize,
        in_test: bool,
    ) {
        let mut vis = Vis::Private;
        let mut pub_col = 0;
        let mut attrs = Attrs::default();
        let mut start = self.pos;
        while self.pos < end.min(self.toks.len()) {
            self.attrs(&mut attrs);
            let test = in_test || attrs.cfg_test || attrs.is_test;
            let Some(tok) = self.peek(0) else { break };
            match tok {
                Tok::Ident(word) => match word.as_str() {
                    "pub" => {
                        pub_col = self.toks[self.pos].col;
                        self.pos += 1;
                        if self.is_punct(0, b'(') {
                            vis = Vis::Scoped;
                            self.skip_balanced(b'(', b')');
                        } else {
                            vis = Vis::Pub;
                        }
                        continue; // keep attrs/vis for the item
                    }
                    "const" | "unsafe" | "async" => {
                        // Qualifier when `fn` follows; item otherwise.
                        if self.ident_at(1) == Some("fn") {
                            self.pos += 1;
                            continue;
                        }
                        self.skip_to_semi_or_block();
                    }
                    "extern" => {
                        // `extern "C" fn`, `extern crate`, foreign block.
                        if matches!(self.peek(1), Some(Tok::Lit)) && self.ident_at(2) == Some("fn")
                        {
                            self.pos += 2;
                            continue;
                        }
                        self.skip_to_semi_or_block();
                    }
                    "use" => self.parse_use(),
                    "mod" => {
                        self.pos += 1;
                        let name = self.ident_at(0).unwrap_or("").to_owned();
                        self.pos += 1;
                        if self.is_punct(0, b';') {
                            self.pos += 1;
                            if !name.is_empty() {
                                if attrs.cfg_test {
                                    self.out.test_mods.push(name.clone());
                                }
                                self.out.child_mods.push(name);
                            }
                        } else if self.is_punct(0, b'{') {
                            let close = self.matching_brace(self.pos);
                            self.pos += 1;
                            module.push(name);
                            self.items(module, None, close, test);
                            module.pop();
                            self.pos = close.saturating_add(1).min(self.toks.len());
                        }
                    }
                    "impl" => {
                        self.pos += 1;
                        self.skip_generics();
                        let ty = self.impl_self_type();
                        if self.is_punct(0, b'{') {
                            let close = self.matching_brace(self.pos);
                            self.pos += 1;
                            self.items(module, ty.as_deref(), close, test);
                            self.pos = close.saturating_add(1).min(self.toks.len());
                        }
                    }
                    "trait" => {
                        self.pos += 1;
                        let name = self.ident_at(0).map(str::to_owned);
                        self.pos += 1;
                        // Skip generics / supertraits / where clause.
                        while self.pos < self.toks.len()
                            && !self.is_punct(0, b'{')
                            && !self.is_punct(0, b';')
                        {
                            if self.is_punct(0, b'<') {
                                self.skip_generics();
                            } else {
                                self.pos += 1;
                            }
                        }
                        if self.is_punct(0, b'{') {
                            let close = self.matching_brace(self.pos);
                            self.pos += 1;
                            self.items(module, name.as_deref(), close, test);
                            self.pos = close.saturating_add(1).min(self.toks.len());
                        } else {
                            self.pos += 1;
                        }
                    }
                    "fn" => {
                        let pub_col = if vis == Vis::Pub { pub_col } else { 0 };
                        self.parse_fn(vis, pub_col, test, module, self_type);
                    }
                    "struct" | "enum" | "union" | "static" | "type" | "macro_rules" => {
                        self.skip_to_semi_or_block();
                    }
                    _ => self.pos += 1,
                },
                Tok::P(b'{') => {
                    self.skip_balanced(b'{', b'}');
                }
                _ => self.pos += 1,
            }
            if test && !in_test {
                self.out.test_spans.push(start..self.pos);
            }
            vis = Vis::Private;
            attrs = Attrs::default();
            start = self.pos;
        }
    }

    /// Position of the `}` matching the `{` at `open`.
    fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        let mut i = open;
        while i < self.toks.len() {
            match self.toks[i].tok {
                Tok::P(b'{') => depth += 1,
                Tok::P(b'}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        self.toks.len()
    }

    /// Skip an item body: to `;`, or past a balanced `{..}`, whichever
    /// comes first.
    fn skip_to_semi_or_block(&mut self) {
        self.pos += 1;
        while self.pos < self.toks.len() {
            if self.is_punct(0, b';') {
                self.pos += 1;
                return;
            }
            if self.is_punct(0, b'{') {
                self.skip_balanced(b'{', b'}');
                return;
            }
            if self.is_punct(0, b'<') {
                self.skip_generics();
                continue;
            }
            self.pos += 1;
        }
    }

    /// `impl [Trait for] Type` — the type the block's methods hang off.
    fn impl_self_type(&mut self) -> Option<String> {
        let mut last_ident: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        while self.pos < self.toks.len() && !self.is_punct(0, b'{') {
            match &self.toks[self.pos].tok {
                Tok::Ident(s) if s == "for" => {
                    saw_for = true;
                    self.pos += 1;
                }
                Tok::Ident(s) if s == "where" => break,
                Tok::Ident(s) => {
                    if saw_for {
                        after_for = Some(s.clone());
                    } else {
                        last_ident = Some(s.clone());
                    }
                    self.pos += 1;
                }
                Tok::P(b'<') => self.skip_generics(),
                _ => self.pos += 1,
            }
        }
        // Skip any trailing where clause tokens up to `{` (handled by
        // the loop condition).
        if saw_for {
            after_for
        } else {
            last_ident
        }
    }

    /// `use a::b::{c, d as e};` — flatten into alias entries.
    fn parse_use(&mut self) {
        self.pos += 1; // `use`
        let mut prefix: Vec<String> = Vec::new();
        self.parse_use_tree(&mut prefix);
        // Consume to `;`.
        while self.pos < self.toks.len() && !self.is_punct(0, b';') {
            self.pos += 1;
        }
        self.pos += 1;
    }

    fn parse_use_tree(&mut self, prefix: &mut Vec<String>) {
        let depth_on_entry = prefix.len();
        let mut last: Option<String> = None;
        loop {
            match self.peek(0) {
                Some(Tok::Ident(s)) if s == "as" => {
                    self.pos += 1;
                    if let (Some(name), Some(alias)) = (last.take(), self.ident_at(0)) {
                        let mut path = prefix.clone();
                        path.push(name);
                        self.out.uses.push(UseDecl {
                            alias: alias.to_owned(),
                            path,
                        });
                        self.pos += 1;
                    }
                }
                Some(Tok::Ident(s)) => {
                    // Flush a previous segment that turned out to be a
                    // leaf (comma-separated list inside braces).
                    last = Some(s.clone());
                    self.pos += 1;
                }
                Some(Tok::P(b':')) if self.is_punct(1, b':') => {
                    self.pos += 2;
                    if let Some(seg) = last.take() {
                        prefix.push(seg);
                    }
                    if self.is_punct(0, b'{') {
                        self.pos += 1;
                        loop {
                            self.parse_use_tree(prefix);
                            if self.is_punct(0, b',') {
                                self.pos += 1;
                                continue;
                            }
                            break;
                        }
                        if self.is_punct(0, b'}') {
                            self.pos += 1;
                        }
                        break;
                    }
                    if self.is_punct(0, b'*') {
                        // Glob import: resolution cannot see through
                        // these; recorded under a `*` alias for the
                        // docs' honesty, unused by the resolver.
                        self.out.uses.push(UseDecl {
                            alias: "*".to_owned(),
                            path: prefix.clone(),
                        });
                        self.pos += 1;
                        break;
                    }
                }
                _ => break,
            }
            if self.is_punct(0, b',') || self.is_punct(0, b';') || self.is_punct(0, b'}') {
                break;
            }
        }
        if let Some(name) = last {
            let mut path = prefix.clone();
            path.push(name.clone());
            self.out.uses.push(UseDecl { alias: name, path });
        }
        prefix.truncate(depth_on_entry);
    }

    fn parse_fn(
        &mut self,
        vis: Vis,
        pub_col: usize,
        is_test: bool,
        module: &[String],
        self_type: Option<&str>,
    ) {
        let fn_line = self.line_at(self.pos);
        let fn_pos = self.pos;
        self.pos += 1; // `fn`
        let Some(name) = self.ident_at(0).map(str::to_owned) else {
            return;
        };
        self.pos += 1;
        self.skip_generics();

        // Parameters.
        let mut params: Vec<(Option<String>, Vec<String>)> = Vec::new();
        if self.is_punct(0, b'(') {
            let open = self.pos;
            self.skip_balanced(b'(', b')');
            let close = self.pos - 1;
            params = parse_params(&self.toks[open + 1..close]);
        }

        // Return type idents, up to the body / `;` / `where`. Bracket
        // depth is tracked through the return type and the where clause
        // alike: the `;` of an array type (`-> [T; N]`) is not the end
        // of a bodiless fn.
        let mut ret: Vec<String> = Vec::new();
        let mut depth = 0usize;
        let mut in_ret = self.is_punct(0, b'-') && self.is_punct(1, b'>');
        if in_ret {
            self.pos += 2;
        }
        while self.pos < self.toks.len() {
            match &self.toks[self.pos].tok {
                Tok::P(b'{' | b';') if depth == 0 => break,
                Tok::P(b'[' | b'(') => depth += 1,
                Tok::P(b']' | b')') => depth = depth.saturating_sub(1),
                Tok::Ident(s) if s == "where" && depth == 0 => in_ret = false,
                Tok::Ident(s) if in_ret => ret.push(s.clone()),
                _ => {}
            }
            self.pos += 1;
        }

        let sig_f64 = self.toks[fn_pos..self.pos.min(self.toks.len())]
            .iter()
            .any(|t| matches!(&t.tok, Tok::Ident(s) if s == "f64"));

        let mut item = FnItem {
            name,
            self_type: self_type.map(str::to_owned),
            module: module.to_vec(),
            vis,
            pub_col,
            line: fn_line,
            sig_f64,
            params,
            ret,
            is_test,
            calls: Vec::new(),
            panics: Vec::new(),
            hazards: Vec::new(),
            allocs: Vec::new(),
            impurities: Vec::new(),
            guards: Vec::new(),
            orderings: Vec::new(),
            spawns: Vec::new(),
            blocking: Vec::new(),
        };

        if self.is_punct(0, b'{') {
            let close = self.matching_brace(self.pos);
            let body = &self.toks[self.pos..close.min(self.toks.len())];
            scan_body(body, &mut item, self.unit_types);
            crate::dataflow::analyze(body, &mut item, self.unit_types);
            crate::dataflow::concurrency_facts(body, &mut item);
            self.pos = close.saturating_add(1).min(self.toks.len());
        } else {
            self.pos += 1; // `;`
        }
        self.out.fns.push(item);
    }
}

/// Split a parameter list at top-level commas and extract (name, type
/// idents) pairs. Receivers (`self`, `&mut self`) are skipped.
fn parse_params(toks: &[Token]) -> Vec<(Option<String>, Vec<String>)> {
    let mut params = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    let mut i = 0;
    while i <= toks.len() {
        let at_comma = i == toks.len() || (depth == 0 && matches!(toks[i].tok, Tok::P(b',')));
        if at_comma {
            let part = &toks[start..i.min(toks.len())];
            if let Some(param) = parse_param(part) {
                params.push(param);
            }
            start = i + 1;
        } else {
            match toks[i].tok {
                Tok::P(b'(' | b'[' | b'<') => depth += 1,
                Tok::P(b')' | b']' | b'>') => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        i += 1;
    }
    params
}

fn parse_param(toks: &[Token]) -> Option<(Option<String>, Vec<String>)> {
    let colon = toks.iter().position(|t| matches!(t.tok, Tok::P(b':')))?;
    let name = match toks[..colon]
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Ident(s) if s != "mut" && s != "ref" => Some(s.as_str()),
            _ => None,
        })
        .collect::<Vec<_>>()[..]
    {
        [single] if single != "self" => Some(single.to_owned()),
        _ => None,
    };
    let ty: Vec<String> = toks[colon + 1..]
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Ident(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    Some((name, ty))
}

/// The body scanner: one pass over the body tokens collecting calls,
/// panic sites, determinism hazards, and raw-unit taint.
#[allow(clippy::too_many_lines)]
fn scan_body(toks: &[Token], item: &mut FnItem, unit_types: &[&str]) {
    // Locals known to hold a unit newtype (params + annotated lets).
    let mut unit_locals: BTreeSet<String> = item
        .params
        .iter()
        .filter_map(|(name, ty)| {
            let name = name.clone()?;
            ty.iter()
                .any(|t| unit_types.contains(&t.as_str()))
                .then_some(name)
        })
        .collect();
    // Locals holding a raw f64 escaped from a unit newtype.
    let mut tainted: BTreeSet<String> = BTreeSet::new();

    // Innermost-call tracking: for each open paren, the call it belongs
    // to (if any).
    let mut paren_stack: Vec<Option<usize>> = Vec::new();
    // Open `[` positions that look like indexing, with token index.
    let mut bracket_stack: Vec<Option<usize>> = Vec::new();

    // `let` state machine: Some((name, brace_depth, saw_escape,
    // unit_annotated)).
    let mut pending_let: Option<(String, usize, bool, bool)> = None;
    let mut brace_depth = 0usize;

    let mut i = 0;
    while i < toks.len() {
        let line = toks[i].line;
        match &toks[i].tok {
            Tok::P(b'{') => brace_depth += 1,
            Tok::P(b'}') => brace_depth = brace_depth.saturating_sub(1),
            Tok::P(b'(') => {
                let call = detect_call(toks, i, item);
                paren_stack.push(call);
            }
            Tok::P(b')') => {
                paren_stack.pop();
            }
            Tok::P(b'[') => {
                let is_index = i > 0
                    && matches!(toks[i - 1].tok, Tok::Ident(_) | Tok::P(b')') | Tok::P(b']'))
                    && !matches!(&toks[i - 1].tok, Tok::Ident(s) if is_keyword(s));
                bracket_stack.push(is_index.then_some(i));
            }
            Tok::P(b']') => {
                if let Some(Some(open)) = bracket_stack.pop() {
                    record_index_site(toks, open, i, item);
                }
            }
            Tok::P(b';') => {
                if let Some((name, depth, escaped, unit)) = pending_let.take() {
                    if depth == brace_depth && paren_stack.is_empty() {
                        if escaped {
                            tainted.insert(name.clone());
                        }
                        if unit {
                            unit_locals.insert(name);
                        }
                    } else {
                        // `;` inside a nested block/closure: keep
                        // waiting for the let's own terminator.
                        pending_let = Some((name, depth, escaped, unit));
                    }
                }
            }
            // `panic!(..)` — the macro cannot be a false positive
            // because comment/string bodies are scrubbed.
            Tok::P(b'!')
                if i > 0
                    && matches!(&toks[i - 1].tok, Tok::Ident(s) if s == "panic")
                    && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::P(b'('))) =>
            {
                item.panics.push(PanicSite {
                    line,
                    what: "panic!",
                });
            }
            Tok::Ident(word) => {
                match word.as_str() {
                    "let" => {
                        // `let [mut] name [: Type] = ...;`
                        let mut j = i + 1;
                        while matches!(&toks.get(j).map(|t| &t.tok), Some(Tok::Ident(s)) if *s == "mut")
                        {
                            j += 1;
                        }
                        if let Some(Tok::Ident(name)) = toks.get(j).map(|t| &t.tok) {
                            if !is_keyword(name) {
                                // Unit annotation: idents between `:`
                                // and `=`.
                                let mut unit = false;
                                let mut k = j + 1;
                                if matches!(toks.get(k).map(|t| &t.tok), Some(Tok::P(b':')))
                                    && !matches!(
                                        toks.get(k + 1).map(|t| &t.tok),
                                        Some(Tok::P(b':'))
                                    )
                                {
                                    k += 1;
                                    while k < toks.len() {
                                        match &toks[k].tok {
                                            Tok::P(b'=' | b';') => break,
                                            Tok::Ident(t) if unit_types.contains(&t.as_str()) => {
                                                unit = true;
                                                k += 1;
                                            }
                                            _ => k += 1,
                                        }
                                    }
                                }
                                // Constructor-typed initializer:
                                // `let x = Celsius::new(..)` binds a
                                // unit even without an annotation.
                                if !unit
                                    && matches!(toks.get(k).map(|t| &t.tok), Some(Tok::P(b'=')))
                                    && matches!(toks.get(k + 2).map(|t| &t.tok), Some(Tok::P(b':')))
                                    && matches!(toks.get(k + 3).map(|t| &t.tok), Some(Tok::P(b':')))
                                {
                                    if let Some(Tok::Ident(head)) = toks.get(k + 1).map(|t| &t.tok)
                                    {
                                        unit = unit_types.contains(&head.as_str());
                                    }
                                }
                                pending_let = Some((name.clone(), brace_depth, false, unit));
                            }
                        }
                    }
                    "SystemTime" => item.hazards.push(DetHazard {
                        line,
                        what: "SystemTime wall-clock read",
                    }),
                    "Instant" if path_follows(toks, i, "now") => {
                        item.hazards.push(DetHazard {
                            line,
                            what: "Instant::now wall-clock read",
                        });
                    }
                    "thread"
                        if path_follows(toks, i, "spawn") || path_follows(toks, i, "scope") =>
                    {
                        item.hazards.push(DetHazard {
                            line,
                            what: "thread spawn/scope",
                        });
                    }
                    _ => {}
                }
                // A plain reassignment (`raw = fresh();`, not `==` or
                // `=>`) overwrites the escaped value: clear the taint
                // instead of flagging every later use.
                if tainted.contains(word.as_str())
                    && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::P(b'=')))
                    && !matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::P(b'=' | b'>')))
                {
                    tainted.remove(word.as_str());
                }
                // Raw-unit escape: `x.0` / `x.value()` on a unit-typed
                // local, or any use of a tainted local.
                let escape = escape_at(toks, i, word, &unit_locals)
                    || (tainted.contains(word)
                        && !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::P(b'='))));
                if escape {
                    if let Some(call) = paren_stack.iter().rev().find_map(|c| *c) {
                        if item.calls[call].raw_unit.is_none() {
                            item.calls[call].raw_unit = Some(word.clone());
                        }
                    } else if let Some((_, _, escaped, _)) = pending_let.as_mut() {
                        *escaped = true;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    // HashMap/HashSet iteration hazards moved to the receiver-typed
    // walk in [`crate::dataflow`].
}

/// Does `x.0` / `x.value()` at token `i` (the `x`) escape a raw f64
/// from a unit newtype?
fn escape_at(toks: &[Token], i: usize, word: &str, unit_locals: &BTreeSet<String>) -> bool {
    if !unit_locals.contains(word) {
        return false;
    }
    if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::P(b'.'))) {
        return false;
    }
    match toks.get(i + 2).map(|t| &t.tok) {
        Some(Tok::Num(n)) => n == "0",
        Some(Tok::Ident(m)) => {
            m == "value" && matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::P(b'(')))
        }
        _ => false,
    }
}

/// Is `ident :: target (` at position `i` (the leading ident)?
fn path_follows(toks: &[Token], i: usize, target: &str) -> bool {
    matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::P(b':')))
        && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::P(b':')))
        && matches!(&toks.get(i + 3).map(|t| &t.tok), Some(Tok::Ident(s)) if *s == target)
}

/// Classify the `(` at `open` as a call site, record it, and return its
/// index in `item.calls`.
fn detect_call(toks: &[Token], open: usize, item: &mut FnItem) -> Option<usize> {
    if open == 0 {
        return None;
    }
    let line = toks[open].line;
    let Tok::Ident(name) = &toks[open - 1].tok else {
        return None;
    };
    if is_keyword(name) || name == "self" || name == "Self" {
        return None;
    }
    // Definition, not a call: `fn name(`.
    if open >= 2 && matches!(&toks[open - 2].tok, Tok::Ident(s) if s == "fn") {
        return None;
    }
    // Macro: `name!(` — only panic!, handled by the `!` arm.
    if open >= 2 && matches!(toks[open - 2].tok, Tok::P(b'!')) {
        return None;
    }
    let kind = if open >= 2 && matches!(toks[open - 2].tok, Tok::P(b'.')) {
        // `.unwrap()` / `.expect(..)` are panic sites, not graph edges.
        if name == "unwrap" {
            if matches!(toks.get(open + 1).map(|t| &t.tok), Some(Tok::P(b')'))) {
                item.panics.push(PanicSite {
                    line,
                    what: "unwrap()",
                });
            }
            return None;
        }
        if name == "expect" {
            item.panics.push(PanicSite {
                line,
                what: "expect(..)",
            });
            return None;
        }
        if name == "spawn" {
            item.hazards.push(DetHazard {
                line,
                what: "thread spawn/scope",
            });
        }
        CallKind::Method(name.clone())
    } else if open >= 3
        && matches!(toks[open - 2].tok, Tok::P(b':'))
        && matches!(toks[open - 3].tok, Tok::P(b':'))
    {
        // Walk back `a::b::name`.
        let mut segs = vec![name.clone()];
        let mut j = open - 1; // points at `name`
        while j >= 3
            && matches!(toks[j - 1].tok, Tok::P(b':'))
            && matches!(toks[j - 2].tok, Tok::P(b':'))
        {
            match &toks[j - 3].tok {
                Tok::Ident(seg) => {
                    segs.push(seg.clone());
                    j -= 3;
                }
                _ => break,
            }
        }
        segs.reverse();
        CallKind::Path(segs)
    } else {
        CallKind::Path(vec![name.clone()])
    };
    item.calls.push(CallSite {
        kind,
        line,
        raw_unit: None,
    });
    Some(item.calls.len() - 1)
}

/// Record a slice/array index site `expr[..]` unless it matches a
/// sanctioned bounded idiom.
fn record_index_site(toks: &[Token], open: usize, close: usize, item: &mut FnItem) {
    let inner = &toks[open + 1..close];
    if inner.is_empty() {
        return;
    }
    // `x[r.index()]`: the RackId::index() contract bounds the value to
    // the container size; sanctioned (see DESIGN.md).
    if inner.len() >= 4 {
        let n = inner.len();
        let idiom = matches!(inner[n - 4].tok, Tok::P(b'.'))
            && matches!(&inner[n - 3].tok, Tok::Ident(s) if s == "index")
            && matches!(inner[n - 2].tok, Tok::P(b'('))
            && matches!(inner[n - 1].tok, Tok::P(b')'));
        if idiom {
            return;
        }
    }
    // `&x[..]` — the full-range slice never panics.
    if inner.len() == 2
        && matches!(inner[0].tok, Tok::P(b'.'))
        && matches!(inner[1].tok, Tok::P(b'.'))
    {
        return;
    }
    item.panics.push(PanicSite {
        line: toks[open].line,
        what: "slice/array index",
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    const UNITS: [&str; 3] = ["Celsius", "Watts", "Gpm"];

    fn parse(src: &str) -> ParsedFile {
        parse_file(Path::new("crates/x/src/lib.rs"), src, &UNITS)
    }

    #[test]
    fn fn_signature_and_visibility() {
        let file = parse(
            "pub fn blend(a: Celsius, weight: f64) -> Celsius { a }\n\
             pub(crate) fn helper() {}\n\
             fn private() {}\n",
        );
        assert_eq!(file.fns.len(), 3);
        assert_eq!(file.fns[0].name, "blend");
        assert_eq!(file.fns[0].vis, Vis::Pub);
        assert_eq!(file.fns[0].params.len(), 2);
        assert_eq!(file.fns[0].params[0].0.as_deref(), Some("a"));
        assert_eq!(file.fns[0].ret, vec!["Celsius"]);
        assert_eq!(file.fns[1].vis, Vis::Scoped);
        assert_eq!(file.fns[2].vis, Vis::Private);
    }

    #[test]
    fn array_return_types_keep_their_body() {
        let file = parse(
            "pub fn arr(v: &[u8]) -> [u8; 2] { [v[0], 1] }\n\
             fn nested() -> ([f64; 6], u8) where u8: Copy { o.unwrap() }\n\
             fn decl() -> [u8; 2];\n\
             fn after() {}\n",
        );
        let names: Vec<_> = file.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["arr", "nested", "decl", "after"]);
        assert_eq!(file.fns[0].ret, vec!["u8"]);
        assert_eq!(file.fns[0].panics.len(), 1, "the body's `v[0]`");
        assert_eq!(file.fns[1].ret, vec!["f64", "u8"]);
        assert_eq!(file.fns[1].panics.len(), 1, "the body's `unwrap`");
        assert!(file.fns[2].panics.is_empty() && file.fns[2].calls.is_empty());
    }

    #[test]
    fn impl_methods_get_self_type() {
        let file = parse(
            "struct Pump;\n\
             impl Pump {\n    pub fn rpm(&self) -> u32 { 0 }\n}\n\
             impl std::fmt::Display for Pump {\n    fn fmt(&self) -> u8 { 0 }\n}\n",
        );
        assert_eq!(file.fns.len(), 2);
        assert_eq!(file.fns[0].self_type.as_deref(), Some("Pump"));
        assert_eq!(file.fns[0].display_name(), "Pump::rpm");
        assert_eq!(file.fns[1].self_type.as_deref(), Some("Pump"));
    }

    #[test]
    fn calls_paths_and_methods() {
        let file = parse(
            "fn f() {\n    helper();\n    mira_units::convert::f64_from_usize(3);\n    x.observe(1);\n    Pump::new();\n}\n",
        );
        let calls = &file.fns[0].calls;
        let kinds: Vec<_> = calls.iter().map(|c| &c.kind).collect();
        assert!(kinds.contains(&&CallKind::Path(vec!["helper".into()])));
        assert!(kinds.contains(&&CallKind::Path(vec![
            "mira_units".into(),
            "convert".into(),
            "f64_from_usize".into()
        ])));
        assert!(kinds.contains(&&CallKind::Method("observe".into())));
        assert!(kinds.contains(&&CallKind::Path(vec!["Pump".into(), "new".into()])));
    }

    #[test]
    fn panic_sites_detected() {
        let file = parse(
            "fn f(v: Vec<u8>, o: Option<u8>) {\n    o.unwrap();\n    o.expect(\"x\");\n    panic!(\"boom\");\n    let _ = v[3];\n}\n",
        );
        let whats: Vec<_> = file.fns[0].panics.iter().map(|p| p.what).collect();
        assert_eq!(
            whats,
            vec!["unwrap()", "expect(..)", "panic!", "slice/array index"]
        );
    }

    #[test]
    fn bounded_index_idiom_is_sanctioned() {
        let file = parse(
            "fn f(v: &[u8], r: RackId) {\n    let _ = v[r.index()];\n    let _ = &v[..];\n    let _ = v[r.index() + 1];\n}\n",
        );
        assert_eq!(file.fns[0].panics.len(), 1, "{:?}", file.fns[0].panics);
    }

    #[test]
    fn unwrap_or_variants_are_not_panics() {
        let file = parse("fn f(o: Option<u8>) { o.unwrap_or(0); o.unwrap_or_default(); }\n");
        assert!(file.fns[0].panics.is_empty());
    }

    #[test]
    fn use_tree_flattens() {
        let file =
            parse("use mira_units::{convert, Celsius as C};\nuse mira_core::sweep::SweepPlan;\n");
        let find = |alias: &str| {
            file.uses
                .iter()
                .find(|u| u.alias == alias)
                .map(|u| u.path.clone())
        };
        assert_eq!(
            find("convert"),
            Some(vec!["mira_units".into(), "convert".into()])
        );
        assert_eq!(find("C"), Some(vec!["mira_units".into(), "Celsius".into()]));
        assert_eq!(
            find("SweepPlan"),
            Some(vec!["mira_core".into(), "sweep".into(), "SweepPlan".into()])
        );
    }

    #[test]
    fn test_mod_declarations_are_recorded() {
        let file = parse("#[cfg(test)]\nmod tests;\nmod real;\n");
        assert_eq!(file.test_mods, vec!["tests"]);
        assert_eq!(file.child_mods, vec!["tests", "real"]);
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let file = parse(
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\nfn real() {}\n\
             #[cfg(not(test))]\nfn shipped() {}\n",
        );
        let t = file.fns.iter().find(|f| f.name == "t").expect("parsed t");
        assert!(t.is_test);
        let real = file.fns.iter().find(|f| f.name == "real").expect("real");
        assert!(!real.is_test);
        let shipped = file
            .fns
            .iter()
            .find(|f| f.name == "shipped")
            .expect("shipped");
        assert!(!shipped.is_test, "cfg(not(test)) is live code");
        assert_eq!(file.test_spans.len(), 1);
    }

    #[test]
    fn cfg_test_region_is_tracked() {
        let src = "\
fn real() {}

#[cfg(test)]
mod tests {
    mod inner {
        fn helper() {}
    }
    impl Probe {
        fn probe(&self) {}
    }
}

fn also_real() {}
";
        let file = parse(src);
        let is_test = |name: &str| {
            file.fns
                .iter()
                .find(|f| f.name == name)
                .is_some_and(|f| f.is_test)
        };
        assert!(!is_test("real"));
        assert!(is_test("helper"), "nested mod inherits cfg(test)");
        assert!(is_test("probe"), "nested impl inherits cfg(test)");
        assert!(!is_test("also_real"), "code after the module");
        // One span: from the attribute through the module's `}`.
        let span_lines: Vec<_> = file
            .test_spans
            .iter()
            .map(|span| (file.toks[span.start].line, file.toks[span.end - 1].line))
            .collect();
        assert_eq!(span_lines, vec![(3, 11)]);
    }

    #[test]
    fn raw_unit_escape_direct_argument() {
        let file = parse(
            "fn f(t: Celsius) {\n    other::sink(t.value());\n    other::sink2(t.0);\n    ok(t);\n}\n",
        );
        let calls = &file.fns[0].calls;
        let sink = calls
            .iter()
            .find(|c| matches!(&c.kind, CallKind::Path(p) if p.last().is_some_and(|s| s == "sink")))
            .expect("sink call");
        assert_eq!(sink.raw_unit.as_deref(), Some("t"));
        let sink2 = calls
            .iter()
            .find(
                |c| matches!(&c.kind, CallKind::Path(p) if p.last().is_some_and(|s| s == "sink2")),
            )
            .expect("sink2 call");
        assert_eq!(sink2.raw_unit.as_deref(), Some("t"));
        let ok = calls
            .iter()
            .find(|c| matches!(&c.kind, CallKind::Path(p) if p.last().is_some_and(|s| s == "ok")))
            .expect("ok call");
        assert!(ok.raw_unit.is_none(), "passing the newtype itself is fine");
    }

    #[test]
    fn raw_unit_taint_via_let() {
        let file =
            parse("fn f(t: Celsius) {\n    let raw = t.value();\n    other::sink(raw);\n}\n");
        let sink = &file.fns[0]
            .calls
            .iter()
            .find(|c| matches!(&c.kind, CallKind::Path(p) if p.last().is_some_and(|s| s == "sink")))
            .expect("sink call");
        assert_eq!(sink.raw_unit.as_deref(), Some("raw"));
    }

    #[test]
    fn innermost_call_owns_the_escape() {
        let file = parse(
            "fn f(t: Celsius) {\n    outer::g(mira_units::convert::f64_from_u64(t.value() as u64));\n}\n",
        );
        let calls = &file.fns[0].calls;
        let outer = calls
            .iter()
            .find(
                |c| matches!(&c.kind, CallKind::Path(p) if p.first().is_some_and(|s| s == "outer")),
            )
            .expect("outer call");
        assert!(outer.raw_unit.is_none(), "inner convert call owns it");
        let conv = calls
            .iter()
            .find(|c| matches!(&c.kind, CallKind::Path(p) if p.contains(&"convert".to_owned())))
            .expect("convert call");
        assert_eq!(conv.raw_unit.as_deref(), Some("t"));
    }

    #[test]
    fn unit_constructor_let_binds_unit() {
        // No annotation: the `Celsius::..` initializer types the local.
        let file = parse(
            "fn f() {\n    let t = Celsius::from_f64(1.0);\n    other::sink(t.value());\n}\n",
        );
        let sink = file.fns[0]
            .calls
            .iter()
            .find(|c| matches!(&c.kind, CallKind::Path(p) if p.last().is_some_and(|s| s == "sink")))
            .expect("sink call");
        assert_eq!(sink.raw_unit.as_deref(), Some("t"));
    }

    #[test]
    fn taint_clears_on_reassignment() {
        let file = parse(
            "fn f(t: Celsius) {\n    let mut raw = t.value();\n    raw = 0.0;\n    other::sink(raw);\n}\n",
        );
        let sink = file.fns[0]
            .calls
            .iter()
            .find(|c| matches!(&c.kind, CallKind::Path(p) if p.last().is_some_and(|s| s == "sink")))
            .expect("sink call");
        assert!(
            sink.raw_unit.is_none(),
            "reassigned local no longer carries the escape: {sink:?}"
        );
    }

    #[test]
    fn determinism_hazards_detected() {
        let file = parse(
            "fn f() {\n    let t = Instant::now();\n    let m: HashMap<u8, u8> = HashMap::new();\n    for k in m.keys() {}\n    std::thread::spawn(|| {});\n}\n",
        );
        let whats: Vec<_> = file.fns[0].hazards.iter().map(|h| h.what).collect();
        assert!(whats.contains(&"Instant::now wall-clock read"));
        assert!(whats.contains(&"HashMap/HashSet iteration order"));
        assert!(whats.contains(&"thread spawn/scope"));
    }

    #[test]
    fn hashmap_lookup_alone_is_not_a_hazard() {
        let file = parse("fn f(m: &HashMap<u8, u8>) -> Option<u8> {\n    m.get(&1).copied()\n}\n");
        assert!(file.fns[0].hazards.is_empty(), "{:?}", file.fns[0].hazards);
    }

    #[test]
    fn allow_hatches_are_indexed_by_line() {
        let file = parse("fn f() {}\n// mira-lint: allow(panic-reachability)\nfn g() {}\n");
        assert_eq!(
            file.allows.get(&2),
            Some(&vec!["panic-reachability".to_owned()])
        );
    }
}
