//! End-to-end tests of the `treenet` command-line binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_treenet"))
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("treenet-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn generate_solve_decompose_pipeline() {
    let dir = tempdir();
    let spec = dir.join("tree.json");
    let out = bin()
        .args([
            "generate", "--kind", "tree", "--n", "12", "--m", "14", "--seed", "5",
        ])
        .arg(&spec)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(spec.exists());

    let out = bin()
        .args(["solve", "--algorithm", "tree-unit"])
        .arg(&spec)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("certificate:"), "{stdout}");
    assert!(stdout.contains("VALID"));

    let out = bin()
        .args(["solve", "--algorithm", "sequential"])
        .arg(&spec)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("certified ratio"));

    let out = bin()
        .args(["decompose", "--strategy", "ideal"])
        .arg(&spec)
        .output()
        .unwrap();
    assert!(out.status.success());
    let dot = String::from_utf8_lossy(&out.stdout);
    assert!(dot.contains("digraph decomposition"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("pivot size"));
}

#[test]
fn line_workloads_and_ps_baseline() {
    let dir = tempdir();
    let spec = dir.join("line.json");
    let out = bin()
        .args([
            "generate", "--kind", "line", "--n", "24", "--m", "10", "--seed", "2",
        ])
        .arg(&spec)
        .output()
        .unwrap();
    assert!(out.status.success());
    for algo in ["line-unit", "line-arbitrary", "ps-line"] {
        let out = bin()
            .args(["solve", "--algorithm", algo])
            .arg(&spec)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("certified"),
            "{algo}"
        );
    }
}

#[test]
fn ps_line_refuses_an_epsilon_outside_the_unit_interval() {
    let dir = tempdir();
    let spec = dir.join("ps-epsilon.json");
    let out = bin()
        .args([
            "generate", "--kind", "line", "--n", "12", "--m", "6", "--seed", "1",
        ])
        .arg(&spec)
        .output()
        .unwrap();
    assert!(out.status.success());
    for epsilon in ["-4.5", "NaN", "2"] {
        let out = bin()
            .args(["solve", "--algorithm", "ps-line", "--epsilon", epsilon])
            .arg(&spec)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "ε = {epsilon}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "error: bad parameters: epsilon must lie in (0,1), got {epsilon}"
            )),
            "ε = {epsilon}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "ε = {epsilon}");
    }
}

#[test]
fn line_theorems_refuse_a_tree_network() {
    let dir = tempdir();
    let spec = dir.join("tree-for-lines.json");
    let out = bin()
        .args([
            "generate", "--kind", "tree", "--n", "16", "--m", "12", "--seed", "3",
        ])
        .arg(&spec)
        .output()
        .unwrap();
    assert!(out.status.success());
    for algo in ["line-unit", "line-arbitrary", "ps-line"] {
        let out = bin()
            .args(["solve", "--algorithm", algo])
            .arg(&spec)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{algo}: {stderr}");
        assert!(
            stderr.contains(
                "error: bad parameters: line layered decomposition requires canonical line networks"
            ),
            "{algo}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{algo}");
    }
}

#[test]
fn helpful_errors() {
    // Unknown command.
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    // Missing file.
    let out = bin()
        .args(["solve", "/nonexistent/x.json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // Bad flag value.
    let out = bin()
        .args(["generate", "--n", "not-a-number", "/tmp/x.json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad value"));
    // Flag without value.
    let out = bin().args(["generate", "--n"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn mixed_heights_route_to_arbitrary_solver() {
    let dir = tempdir();
    let spec = dir.join("mixed.json");
    let out = bin()
        .args([
            "generate",
            "--kind",
            "tree",
            "--n",
            "10",
            "--m",
            "12",
            "--heights",
            "mixed",
            "--seed",
            "4",
        ])
        .arg(&spec)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["solve", "--algorithm", "tree-arbitrary"])
        .arg(&spec)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
