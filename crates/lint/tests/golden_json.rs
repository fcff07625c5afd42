//! Golden-file test for `--format json`.
//!
//! Runs the real binary over the fixture workspace in
//! `tests/fixtures/golden_ws/` and asserts the output is byte-for-byte
//! the checked-in `golden_ws.expected.json`. That pins the JSON shape,
//! the finding order, and the findings themselves — syntax, semantic,
//! and chain-carrying rules alike.
//!
//! To regenerate after an intentional rule change:
//!
//! ```text
//! cargo run -p mira-lint -- --root crates/lint/tests/fixtures/golden_ws \
//!     --format json > crates/lint/tests/fixtures/golden_ws.expected.json
//! ```

use std::path::Path;
use std::process::Command;

#[test]
fn json_output_matches_golden_file() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_ws");
    let output = Command::new(env!("CARGO_BIN_EXE_mira-lint"))
        .arg("--root")
        .arg(&fixture)
        .arg("--format")
        .arg("json")
        .output()
        .expect("mira-lint binary runs");
    let stdout = String::from_utf8(output.stdout).expect("JSON output is UTF-8");
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_ws.expected.json");
    let golden = std::fs::read_to_string(&golden_path).expect("golden file is readable");

    assert_eq!(
        stdout, golden,
        "JSON drifted from the golden file; regenerate it if the change is intentional"
    );
    // The fixture has uncovered findings, so the gate must fail.
    assert_eq!(output.status.code(), Some(1));
    // Sanity: the fixture actually exercises all three layers.
    assert!(stdout.contains("\"nondeterminism\""));
    assert!(stdout.contains("\"panic-reachability\""));
    assert!(stdout.contains("\"chain\": [\"entry\", \"pick\"]"));
}
