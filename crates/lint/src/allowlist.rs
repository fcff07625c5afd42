//! The grandfathered-violation allowlist.
//!
//! `lint-allow.toml` at the workspace root holds per-(rule, file)
//! budgets for violations that predate the gate. The format is a tiny
//! TOML subset parsed by hand (no registry deps):
//!
//! ```toml
//! [[allow]]
//! rule = "raw-f64-in-public-api"
//! file = "crates/workload/src/demand.rs"
//! count = 2
//! ```
//!
//! A file may exceed its budget only by *shrinking*: if the scan finds
//! more findings than the budget, every finding for that pair is
//! reported and the run fails. Fewer findings than budget passes but is
//! reported as slack, so budgets ratchet downward over time.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use crate::rules::{Finding, Rule};

/// Budgets keyed by (rule name, workspace-relative file path).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Allowlist {
    budgets: BTreeMap<(String, String), usize>,
}

/// A parse failure with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint-allow.toml:{}: {}", self.line, self.message)
    }
}

impl Allowlist {
    /// Parse the checked-in allowlist.
    pub fn parse(text: &str) -> Result<Allowlist, ParseError> {
        let mut budgets = BTreeMap::new();
        let mut current: Option<(Option<String>, Option<String>, Option<usize>)> = None;

        let mut flush = |entry: Option<(Option<String>, Option<String>, Option<usize>)>,
                         line: usize|
         -> Result<(), ParseError> {
            if let Some((rule, file, count)) = entry {
                let (Some(rule), Some(file), Some(count)) = (rule, file, count) else {
                    return Err(ParseError {
                        line,
                        message: "entry needs rule, file, and count keys".to_owned(),
                    });
                };
                if Rule::from_name(&rule).is_none() {
                    return Err(ParseError {
                        line,
                        message: format!("unknown rule name `{rule}`"),
                    });
                }
                budgets.insert((rule, file), count);
            }
            Ok(())
        };

        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                flush(current.take(), line_no)?;
                current = Some((None, None, None));
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ParseError {
                    line: line_no,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let Some(entry) = current.as_mut() else {
                return Err(ParseError {
                    line: line_no,
                    message: "key outside an [[allow]] entry".to_owned(),
                });
            };
            let key = key.trim();
            let value = value.trim();
            match key {
                "rule" => entry.0 = Some(unquote(value, line_no)?),
                "file" => entry.1 = Some(unquote(value, line_no)?),
                "count" => {
                    entry.2 = Some(value.parse().map_err(|_| ParseError {
                        line: line_no,
                        message: format!("count must be an integer, got `{value}`"),
                    })?);
                }
                other => {
                    return Err(ParseError {
                        line: line_no,
                        message: format!("unknown key `{other}`"),
                    });
                }
            }
        }
        flush(current.take(), text.lines().count())?;
        Ok(Allowlist { budgets })
    }

    /// Budget for one (rule, file) pair; zero when absent.
    #[must_use]
    pub fn budget(&self, rule: Rule, file: &Path) -> usize {
        let key = (rule.name().to_owned(), path_key(file));
        self.budgets.get(&key).copied().unwrap_or(0)
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.budgets.len()
    }

    /// True when no budgets exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.budgets.is_empty()
    }

    /// Total grandfathered findings across all entries.
    #[must_use]
    pub fn total_budget(&self) -> usize {
        self.budgets.values().sum()
    }

    /// Render findings grouped into a fresh allowlist document,
    /// used by `mira-lint --write-allowlist` to (re)grandfather the
    /// current state.
    #[must_use]
    pub fn render(findings: &[Finding]) -> String {
        let mut grouped: BTreeMap<(String, String), usize> = BTreeMap::new();
        for finding in findings {
            *grouped
                .entry((finding.rule.name().to_owned(), path_key(&finding.file)))
                .or_insert(0) += 1;
        }
        let mut out = String::from(
            "# mira-lint grandfathered violations.\n\
             # Each entry caps how many findings of `rule` may remain in `file`.\n\
             # Budgets only ratchet down: fix a site, lower (or drop) its count.\n\
             # Regenerate with: cargo run -p mira-lint -- --write-allowlist\n",
        );
        for ((rule, file), count) in grouped {
            out.push_str(&format!(
                "\n[[allow]]\nrule = \"{rule}\"\nfile = \"{file}\"\ncount = {count}\n"
            ));
        }
        out
    }
}

fn unquote(value: &str, line: usize) -> Result<String, ParseError> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| ParseError {
            line,
            message: format!("expected a double-quoted string, got `{value}`"),
        })?;
    Ok(inner.to_owned())
}

/// Normalize a path for allowlist keys: forward slashes, workspace
/// relative.
fn path_key(path: &Path) -> String {
    path.to_string_lossy().replace('\\', "/")
}

/// The outcome of filtering findings through the allowlist.
#[derive(Debug, Clone, Default)]
pub struct Gated {
    /// Findings that must fail the run (budget exceeded or absent).
    pub rejected: Vec<Finding>,
    /// Count of findings absorbed by budgets.
    pub grandfathered: usize,
    /// (rule, file, budget, actual) pairs where the budget has slack —
    /// candidates for ratcheting down.
    pub slack: Vec<(String, String, usize, usize)>,
}

/// Apply the allowlist: per (rule, file) pair, absorb up to the budget.
#[must_use]
pub fn gate(findings: Vec<Finding>, allowlist: &Allowlist) -> Gated {
    let mut grouped: BTreeMap<(Rule, String), Vec<Finding>> = BTreeMap::new();
    for finding in findings {
        grouped
            .entry((finding.rule, path_key(&finding.file)))
            .or_default()
            .push(finding);
    }

    let mut gated = Gated::default();
    let mut seen: Vec<(Rule, String)> = Vec::new();
    for ((rule, file), group) in grouped {
        let budget = allowlist
            .budgets
            .get(&(rule.name().to_owned(), file.clone()))
            .copied()
            .unwrap_or(0);
        seen.push((rule, file.clone()));
        if group.len() <= budget {
            gated.grandfathered += group.len();
            if group.len() < budget {
                gated
                    .slack
                    .push((rule.name().to_owned(), file, budget, group.len()));
            }
        } else {
            gated.rejected.extend(group);
        }
    }

    // Entries whose file no longer has findings at all are pure slack.
    for ((rule, file), &budget) in &allowlist.budgets {
        let Some(rule) = Rule::from_name(rule) else {
            continue;
        };
        if budget > 0 && !seen.iter().any(|(r, f)| *r == rule && f == file) {
            gated
                .slack
                .push((rule.name().to_owned(), file.clone(), budget, 0));
        }
    }
    gated
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn finding(rule: Rule, file: &str, line: usize) -> Finding {
        Finding {
            file: PathBuf::from(file),
            line,
            column: 1,
            rule,
            matched: "x".to_owned(),
            chain: Vec::new(),
        }
    }

    #[test]
    fn parse_round_trip() {
        let findings = vec![
            finding(Rule::RawF64InPublicApi, "crates/a/src/x.rs", 1),
            finding(Rule::RawF64InPublicApi, "crates/a/src/x.rs", 2),
            finding(Rule::Nondeterminism, "crates/b/src/y.rs", 3),
        ];
        let rendered = Allowlist::render(&findings);
        let parsed = Allowlist::parse(&rendered).expect("round trip parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            parsed.budget(Rule::RawF64InPublicApi, Path::new("crates/a/src/x.rs")),
            2
        );
        assert_eq!(
            parsed.budget(Rule::Nondeterminism, Path::new("crates/b/src/y.rs")),
            1
        );
        assert_eq!(
            parsed.budget(Rule::Nondeterminism, Path::new("crates/a/src/x.rs")),
            0
        );
    }

    #[test]
    fn gate_absorbs_within_budget_and_rejects_overflow() {
        let rendered = "\
[[allow]]
rule = \"raw-f64-in-public-api\"
file = \"crates/a/src/x.rs\"
count = 1
";
        let allowlist = Allowlist::parse(rendered).expect("parses");
        let within = gate(
            vec![finding(Rule::RawF64InPublicApi, "crates/a/src/x.rs", 1)],
            &allowlist,
        );
        assert!(within.rejected.is_empty());
        assert_eq!(within.grandfathered, 1);

        let over = gate(
            vec![
                finding(Rule::RawF64InPublicApi, "crates/a/src/x.rs", 1),
                finding(Rule::RawF64InPublicApi, "crates/a/src/x.rs", 2),
            ],
            &allowlist,
        );
        assert_eq!(
            over.rejected.len(),
            2,
            "budget exceeded rejects the whole group"
        );
    }

    #[test]
    fn gate_reports_slack_for_fixed_files() {
        let rendered = "\
[[allow]]
rule = \"nondeterminism\"
file = \"crates/b/src/y.rs\"
count = 3
";
        let allowlist = Allowlist::parse(rendered).expect("parses");
        let gated = gate(Vec::new(), &allowlist);
        assert_eq!(gated.slack.len(), 1);
        assert_eq!(gated.slack[0].2, 3);
        assert_eq!(gated.slack[0].3, 0);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(
            Allowlist::parse("rule = \"x\"").is_err(),
            "key outside entry"
        );
        assert!(
            Allowlist::parse("[[allow]]\nrule = \"no-such-rule\"\nfile = \"f\"\ncount = 1")
                .is_err(),
            "unknown rule"
        );
        assert!(
            Allowlist::parse(
                "[[allow]]\nrule = \"raw-f64-in-public-api\"\nfile = \"f\"\ncount = x"
            )
            .is_err(),
            "bad count"
        );
        assert!(
            Allowlist::parse("[[allow]]\nrule = \"raw-f64-in-public-api\"\nfile = \"f\"").is_err(),
            "missing count"
        );
    }
}
