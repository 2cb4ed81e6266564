//! The figure binaries' command line.

use std::process::Command;

/// An unknown scale is refused before any work: exit status 2, a usage
/// line on stderr, and nothing on stdout.
#[test]
fn fig6_refuses_an_unknown_scale() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig6"))
        .arg("referenc")
        .output()
        .expect("fig6 runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no figure is printed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown scale `referenc`"), "{stderr}");
    assert!(stderr.contains("usage: ") && stderr.contains("[test|small|reference]"));
}
