//! Regression tests for the lexer's tricky corners: raw strings,
//! nested block comments, prefixed literals, lifetime/char-literal
//! disambiguation, and whole-token boundaries, plus test-scope cases
//! (`#[cfg(test)] mod tests;` pointing at a separate file or at
//! nothing) that only the whole pipeline decides.
//!
//! Each case here once produced (or could produce) a false positive
//! or a missed finding, so they are pinned as integration tests
//! against the public `scrub`/`tokenize` API and [`Workspace::scan`].

use std::path::PathBuf;

use mira_lint::lexer::{scrub, tokenize, Tok};
use mira_lint::rules::Rule;
use mira_lint::Workspace;

/// The scrubbed view of `src`, one string per line.
fn scrubbed_lines(src: &str) -> Vec<String> {
    scrub(src).lines().map(str::to_owned).collect()
}

/// How many `name` identifier tokens survive in `code`.
fn ident_count(code: &str, name: &str) -> usize {
    tokenize(&scrub(code))
        .iter()
        .filter(|t| t.tok == Tok::Ident(name.to_owned()))
        .count()
}

#[test]
fn raw_string_with_hashes_is_blanked() {
    // The body contains rule-triggering text; none of it may survive
    // into the scrubbed view.
    let src = "let s = r#\"x.unwrap() as f64 panic!(\"no\")\"#;\n";
    let code = &scrubbed_lines(src)[0];
    assert!(!code.contains("unwrap"));
    assert!(!code.contains("as f64"));
    assert!(!code.contains("panic"));
    // The delimiters themselves survive, keeping byte offsets exact.
    assert!(code.starts_with("let s = r#\""));
    assert_eq!(code.len(), src.trim_end().len());
}

#[test]
fn raw_string_terminator_needs_matching_hash_count() {
    // `"#` inside an `r##"..."##` literal does not end it.
    let src = "let s = r##\"inner \"# still literal .unwrap()\"##; let y = 1;\n";
    let code = &scrubbed_lines(src)[0];
    assert!(!code.contains("unwrap"), "{code}");
    assert!(code.ends_with("let y = 1;"));
}

#[test]
fn multiline_raw_string_blanks_every_line() {
    let src = "let s = r#\"line one .unwrap()\nline two as usize\n\"#;\nlet t = 0;\n";
    let lines = scrubbed_lines(src);
    assert!(!lines[0].contains("unwrap"));
    assert!(!lines[1].contains("as usize"));
    assert_eq!(lines[3], "let t = 0;");
}

#[test]
fn byte_and_raw_byte_literals_are_blanked() {
    let src = "let a = b\"unwrap()\"; let b = br#\"panic!()\"#; let c = b'\\'';\n";
    let code = &scrubbed_lines(src)[0];
    assert!(!code.contains("unwrap"));
    assert!(!code.contains("panic"));
    // The escaped byte char must not derail the rest of the line.
    assert!(code.ends_with(';'));
}

#[test]
fn identifier_ending_in_r_is_not_a_raw_string() {
    // `var"text"` never occurs, but `ptr` / `b` as the *end* of an
    // identifier must not trigger the prefixed-literal path.
    let src = "let lower = upper.unwrap();\nlet rb = grab * 2;\n";
    assert_eq!(
        ident_count(src, "unwrap"),
        1,
        "real unwrap survives scrubbing: {}",
        scrub(src)
    );
    assert_eq!(scrubbed_lines(src)[1], "let rb = grab * 2;");
}

#[test]
fn nested_block_comments_track_depth_across_lines() {
    let src = "/* outer /* inner\nstill /* deeper */ inner */\ncomment */ fn live() {}\n";
    let scrubbed = scrub(src);
    assert!(!scrubbed.contains("outer"));
    assert!(!scrubbed.contains("deeper"));
    assert!(scrubbed.contains("fn live()"));
}

#[test]
fn escaped_quote_does_not_end_string() {
    let src = "let s = \"a \\\" b .unwrap() c\"; let live = x.unwrap();\n";
    assert_eq!(
        ident_count(src, "unwrap"),
        1,
        "only the unwrap outside the literal remains: {}",
        scrub(src)
    );
}

#[test]
fn lifetimes_survive_but_char_literals_are_blanked() {
    let src = "fn f<'a, 'de>(x: &'a str) -> char { if y == '}' { 'q' } else { '\\n' } }\n";
    let code = &scrubbed_lines(src)[0];
    assert!(code.contains("<'a, 'de>"));
    assert!(code.contains("&'a str"));
    assert!(!code.contains("'q'"));
    // The blanked `'{'` must not disturb brace matching: a following
    // `#[cfg(test)]` module still opens and closes sanely.
    let src2 = "fn f() -> char { '{' }\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = Instant::now(); }\n}\nfn real() { let _ = Instant::now(); }\n";
    let found = scan_core_lib(src2);
    let lines: Vec<_> = found
        .iter()
        .filter(|f| f.rule == Rule::Nondeterminism)
        .map(|f| f.line)
        .collect();
    assert_eq!(lines, vec![6], "only the call after the module: {found:?}");
}

#[test]
fn braceless_cfg_test_mod_does_not_leak_into_next_item() {
    let src = "#[cfg(test)]\nmod tests;\n\npub fn live(o: Option<u8>) -> u8 {\n    let _ = Instant::now();\n    o.unwrap()\n}\n";
    let found = scan_core_lib(src);
    let at: Vec<_> = found.iter().map(|f| (f.rule, f.line)).collect();
    assert!(
        at.contains(&(Rule::PanicReachability, 4)),
        "fn after `mod tests;` is live: {found:?}"
    );
    assert!(
        at.contains(&(Rule::Nondeterminism, 5)),
        "its body is live code: {found:?}"
    );
}

#[test]
fn token_bounded_edges() {
    assert_eq!(ident_count("unwrap", "unwrap"), 1, "whole-string match");
    let toks = tokenize(&scrub("x.unwrap()"));
    assert_eq!(toks[2].tok, Tok::Ident("unwrap".to_owned()));
    assert_eq!(toks[2].col, 3);
    assert_eq!(
        ident_count("unwrapped", "unwrap"),
        0,
        "prefix of a longer ident"
    );
}

#[test]
fn external_cfg_test_mod_exempts_child_file_from_semantic_rules() {
    // `#[cfg(test)] mod tests;` in lib.rs points at tests.rs: public
    // fns there are test-only and must not become panic-reachability
    // roots, while the same fn in live code must.
    let ws = Workspace::from_files(vec![
        (
            PathBuf::from("crates/core/Cargo.toml"),
            "[package]\nname = \"mira-core\"\n".to_owned(),
        ),
        (
            PathBuf::from("crates/core/src/lib.rs"),
            "#[cfg(test)]\nmod tests;\n\npub fn live(o: Option<u8>) -> u8 {\n    o.unwrap()\n}\n"
                .to_owned(),
        ),
        (
            PathBuf::from("crates/core/src/tests.rs"),
            "pub fn helper(o: Option<u8>) -> u8 {\n    let _ = std::time::Instant::now();\n    o.unwrap()\n}\n"
                .to_owned(),
        ),
    ]);
    let findings = ws.scan();
    let reach: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::PanicReachability)
        .collect();
    assert_eq!(reach.len(), 1, "{reach:?}");
    assert!(reach[0].file.ends_with("lib.rs"));
    assert!(reach[0].matched.contains("live"));
    // The syntax rules skip tests.rs too, via the same cross-file
    // marking: its `Instant::now()` is not a nondeterminism finding.
    assert!(
        !findings
            .iter()
            .any(|f| f.rule == Rule::Nondeterminism && f.file.ends_with("tests.rs")),
        "{findings:?}"
    );
}

// ---------------------------------------------------------------------
// Parser/dataflow edge cases the body walk must survive: nested
// closures, macro-invocation bodies, `let`-`else`, and turbofish
// method chains. Each runs the full pipeline over a one-file core
// crate whose `merge` fn is a hot root for `alloc-in-hot-path`.

fn scan_core_lib(src: &str) -> Vec<mira_lint::Finding> {
    Workspace::from_files(vec![
        (
            PathBuf::from("crates/core/Cargo.toml"),
            "[package]\nname = \"mira-core\"\n".to_owned(),
        ),
        (PathBuf::from("crates/core/src/lib.rs"), src.to_owned()),
    ])
    .scan()
}

#[test]
fn alloc_inside_nested_closure_in_macro_arg_is_reachable() {
    let findings = scan_core_lib(
        "pub fn merge(xs: &[u64]) -> u64 {\n    let v = vec![xs\n        .iter()\n        .map(|x| {\n            let inner = |y: u64| y + 1;\n            inner(*x)\n        })\n        .sum::<u64>()];\n    v.into_iter().sum()\n}\n",
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::AllocInHotPath && f.matched.contains("vec! macro")),
        "{findings:?}"
    );
}

#[test]
fn let_else_does_not_derail_the_body_walk() {
    // The alloc sits *after* the `let`-`else` diversion; the walk must
    // reach it.
    let findings = scan_core_lib(
        "pub fn merge(o: Option<u8>) -> u64 {\n    let Some(x) = o else {\n        return 0;\n    };\n    let tail: Vec<u8> = Vec::new();\n    u64::from(x) + tail.len() as u64\n}\n",
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::AllocInHotPath && f.matched.contains("Vec::new")),
        "{findings:?}"
    );
}

#[test]
fn turbofish_collect_targets_resolve_through_method_chains() {
    // A turbofish naming a container keeps the site...
    let heap = scan_core_lib(
        "pub fn merge(xs: &[u64]) -> Vec<u64> {\n    xs.iter().copied().collect::<Vec<u64>>()\n}\n",
    );
    assert!(
        heap.iter()
            .any(|f| f.rule == Rule::AllocInHotPath && f.matched.contains(".collect()")),
        "{heap:?}"
    );
    // ...while one naming a plain accumulator is a streaming fold.
    let fold = scan_core_lib(
        "pub fn merge(xs: &[f64]) -> Welford {\n    xs.iter().copied().collect::<Welford>()\n}\n",
    );
    assert!(
        !fold.iter().any(|f| f.rule == Rule::AllocInHotPath),
        "{fold:?}"
    );
}

#[test]
fn format_macro_args_stay_inside_the_enclosing_fn() {
    // Braces inside format! strings and args must not end the fn body
    // early: the fn after it still parses and its alloc is attributed
    // to *it*, not to `merge`.
    let findings = scan_core_lib(
        "pub fn merge(n: u64) -> String {\n    format!(\"{{{n}}}\")\n}\n\nfn quiet(n: u64) -> u64 {\n    let v = vec![n];\n    v[0]\n}\n",
    );
    let hot: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::AllocInHotPath)
        .collect();
    assert_eq!(hot.len(), 1, "{hot:?}");
    assert!(hot[0].matched.contains("format! macro"), "{hot:?}");
}
