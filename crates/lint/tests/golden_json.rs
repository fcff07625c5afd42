//! Golden-file test for `--format json`.
//!
//! Runs the real binary over the fixture workspace in
//! `tests/fixtures/golden_ws/` and asserts the output is byte-for-byte
//! the checked-in `golden_ws.expected.json` — under one worker and
//! under four. That pins three things at once: the JSON shape, the
//! finding order, and the shard-merge determinism of the parallel
//! scan.
//!
//! To regenerate after an intentional rule change:
//!
//! ```text
//! cargo run -p mira-lint -- --root crates/lint/tests/fixtures/golden_ws \
//!     --format json > crates/lint/tests/fixtures/golden_ws.expected.json
//! ```

use std::path::Path;
use std::process::Command;

fn run_fixture(threads: &str) -> (String, Option<i32>) {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_ws");
    let output = Command::new(env!("CARGO_BIN_EXE_mira-lint"))
        .arg("--root")
        .arg(&fixture)
        .arg("--format")
        .arg("json")
        .env("MIRA_LINT_THREADS", threads)
        .output()
        .expect("mira-lint binary runs");
    (
        String::from_utf8(output.stdout).expect("JSON output is UTF-8"),
        output.status.code(),
    )
}

#[test]
fn json_output_matches_golden_file() {
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_ws.expected.json");
    let golden = std::fs::read_to_string(&golden_path).expect("golden file is readable");

    let (stdout, code) = run_fixture("1");
    assert_eq!(
        stdout, golden,
        "JSON drifted from the golden file; regenerate it if the change is intentional"
    );
    // The fixture has uncovered findings, so the gate must fail.
    assert_eq!(code, Some(1));
}

#[test]
fn json_output_is_byte_identical_across_thread_counts() {
    let (one, code_one) = run_fixture("1");
    let (four, code_four) = run_fixture("4");
    let (eight, code_eight) = run_fixture("8");
    assert_eq!(one, four, "shard merge must not depend on worker count");
    assert_eq!(one, eight, "shard merge must not depend on worker count");
    assert_eq!(code_one, code_four);
    assert_eq!(code_one, code_eight);
    // Sanity: the fixture actually exercises all three layers.
    assert!(one.contains("\"nondeterminism\""));
    assert!(one.contains("\"panic-reachability\""));
    assert!(one.contains("\"chain\": [\"entry\", \"pick\"]"));
}
