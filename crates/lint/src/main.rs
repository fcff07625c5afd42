//! The `mira-lint` command.
//!
//! ```text
//! mira-lint [--root <dir>] [--allowlist <file>] [--write-allowlist]
//!           [--format text|json] [--explain <rule>] [--quiet]
//! ```
//!
//! Walks `crates/*/src/**/*.rs`, parses every file, runs every rule
//! over the workspace symbol index, filters through the allowlist,
//! prints one `file:line: [rule] message; suggestion: ...` per
//! unallowed finding, and exits 1 when any remain (2 on usage or I/O
//! errors). `--write-allowlist` instead regenerates `lint-allow.toml`
//! from the current findings, grandfathering the status quo so the
//! budget can only ratchet down from there. `--format json` emits the
//! machine-readable, byte-stable document; `--explain <rule>` prints
//! the long-form rationale for one rule.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use mira_lint::{gate, render_json, Allowlist, Rule, Workspace};

struct Options {
    root: Option<PathBuf>,
    allowlist: Option<PathBuf>,
    write_allowlist: bool,
    quiet: bool,
    json: bool,
    explain: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        root: None,
        allowlist: None,
        write_allowlist: false,
        quiet: false,
        json: false,
        explain: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                options.root = Some(PathBuf::from(
                    args.next().ok_or("--root needs a directory argument")?,
                ));
            }
            "--allowlist" => {
                options.allowlist = Some(PathBuf::from(
                    args.next().ok_or("--allowlist needs a file argument")?,
                ));
            }
            "--write-allowlist" => options.write_allowlist = true,
            "--format" => {
                let format = args.next().ok_or("--format needs `text` or `json`")?;
                options.json = match format.as_str() {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--explain" => {
                options.explain = Some(args.next().ok_or("--explain needs a rule name")?);
            }
            "--quiet" | "-q" => options.quiet = true,
            "--help" | "-h" => {
                println!(
                    "mira-lint: domain-invariant static analysis for the mira workspace\n\n\
                     USAGE: mira-lint [--root <dir>] [--allowlist <file>] [--write-allowlist]\n\
                     \x20                [--format text|json] [--explain <rule>] [--quiet]\n\n\
                     RULES: {}",
                    Rule::ALL.map(Rule::name).join(", ")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

fn run() -> Result<ExitCode, String> {
    let options = parse_args()?;

    if let Some(name) = &options.explain {
        let rule = Rule::from_name(name).ok_or_else(|| {
            format!(
                "unknown rule `{name}`; rules are: {}",
                Rule::ALL.map(Rule::name).join(", ")
            )
        })?;
        // A reader that stops early (`| grep -q .`) closes the pipe
        // mid-text; that is not a failure of the explain command, so
        // the write error is dropped instead of panicking in println!.
        let _ = writeln!(std::io::stdout().lock(), "{}", rule.explain());
        return Ok(ExitCode::SUCCESS);
    }

    let root = match options.root {
        Some(root) => root,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
            mira_lint::find_workspace_root(&cwd)
                .ok_or("not inside the mira workspace; pass --root")?
        }
    };

    let workspace =
        Workspace::load(&root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let findings = workspace.scan();

    let allowlist_path = options
        .allowlist
        .unwrap_or_else(|| root.join("lint-allow.toml"));

    if options.write_allowlist {
        let rendered = Allowlist::render(&findings);
        std::fs::write(&allowlist_path, rendered)
            .map_err(|e| format!("writing {}: {e}", allowlist_path.display()))?;
        println!(
            "wrote {} ({} findings grandfathered)",
            allowlist_path.display(),
            findings.len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let allowlist = if allowlist_path.is_file() {
        let text = std::fs::read_to_string(&allowlist_path)
            .map_err(|e| format!("reading {}: {e}", allowlist_path.display()))?;
        Allowlist::parse(&text).map_err(|e| e.to_string())?
    } else {
        Allowlist::default()
    };

    let gated = gate(findings, &allowlist);

    if options.json {
        print!("{}", render_json(&gated, allowlist.len()));
    } else {
        for finding in &gated.rejected {
            println!("{finding}");
        }
        if !options.quiet {
            for (rule, file, budget, actual) in &gated.slack {
                println!(
                    "note: allowlist slack: [{rule}] {file} budget {budget}, found {actual} — ratchet it down"
                );
            }
            println!(
                "mira-lint: {} finding(s) rejected, {} grandfathered across {} allowlist entr(ies)",
                gated.rejected.len(),
                gated.grandfathered,
                allowlist.len()
            );
        }
    }
    if gated.rejected.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("mira-lint: {message}");
            ExitCode::from(2)
        }
    }
}
