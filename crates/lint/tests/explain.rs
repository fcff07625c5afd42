//! `mira-lint --explain`: every rule in [`Rule::ALL`] has long-form
//! text, and an unknown name is a usage error. Iterating `Rule::ALL`
//! keeps the checked list from drifting from the shipped rules.

use std::process::{Command, Output};

use mira_lint::Rule;

fn explain(name: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mira-lint"))
        .args(["--explain", name])
        .output()
        .expect("mira-lint binary runs")
}

#[test]
fn every_rule_explains_itself() {
    for rule in Rule::ALL {
        let output = explain(rule.name());
        assert_eq!(output.status.code(), Some(0), "--explain {rule}");
        let text = String::from_utf8(output.stdout).expect("explain text is UTF-8");
        assert!(text.starts_with(rule.name()), "--explain {rule}: {text:?}");
        assert!(
            text.trim().len() > rule.name().len(),
            "--explain {rule} is empty"
        );
    }
}

#[test]
fn unknown_rule_is_a_usage_error() {
    let output = explain("no-such-rule");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
    let stderr = String::from_utf8(output.stderr).expect("error text is UTF-8");
    assert!(stderr.contains("unknown rule `no-such-rule`"), "{stderr}");
}
