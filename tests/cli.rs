//! The `arm-mine` binary answers a bad option value with an error and
//! its usage text (exit code 2), never with a panic or a silent default.

use std::process::Command;

#[test]
fn arm_mine_rejects_bad_values_with_usage_error() {
    let dir = std::env::temp_dir().join(format!("arm-mine-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("tiny.txt");
    std::fs::write(&input, "1 2 3\n1 2\n2 3\n1 3\n").unwrap();
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_arm-mine"))
            .arg(&input)
            .args(args)
            .output()
            .unwrap()
    };

    let ok = run(&["--support", "2t"]);
    assert_eq!(ok.status.code(), Some(0), "the input itself mines");

    for args in [
        &["--fanout", "0"][..],
        &["--leaf-threshold", "0"],
        &["--leaf-threshold", "0", "--threads", "2"],
        &["--threads", "abc"],
        &["--confidence", "xyz"],
        &["--top", "-3"],
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("error:"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
