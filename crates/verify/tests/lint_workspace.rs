//! The repository's own sources must pass every `dsi-lint` rule: stray
//! RNG outside the loss/tuner homes, hash-ordered containers in
//! golden-affecting library paths, raw `std` synchronization in shimmed
//! code and lock-order inversions all land here before they land in CI.

use std::path::Path;

#[test]
fn workspace_sources_pass_dsi_lint() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = dsi_verify::lint_workspace(&root).expect("workspace sources are readable");
    assert!(
        findings.is_empty(),
        "dsi-lint findings in the workspace:\n{}",
        findings
            .iter()
            .map(|f| format!("  {}:{}: [{}] {}", f.file, f.line, f.rule, f.excerpt))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
