//! End-to-end checks of the `silo-sim` binary's flag handling: a bad
//! setting value must exit with code 2 and name both the flag and the
//! value, before any simulation runs; a scenario's settings act exactly
//! as their flags do.

use std::process::Command;

#[test]
fn a_bad_setting_value_exits_2_naming_the_flag_and_the_value() {
    for (flag, value) in [
        ("--cores", "twelve"),
        ("--sweep-scale", "64,x"),
        ("--vault-design", ","),
        ("--epoch", "-5"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_silo-sim"))
            .args([flag, value])
            .output()
            .expect("silo-sim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.starts_with("error: ")
                && stderr.contains(flag)
                && stderr.contains(&format!("'{value}'")),
            "{flag} {value}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag} {value} ran something");
    }
}

#[test]
fn a_scenario_profile_key_prints_the_phase_tree() {
    let dir = std::env::temp_dir().join(format!("silo-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("profile.scenario");
    std::fs::write(
        &path,
        "systems = SILO\nworkloads = uniform-private\ncores = 2\nrefs = 300\nprofile = on\n",
    )
    .expect("write scenario");
    let out = Command::new(env!("CARGO_BIN_EXE_silo-sim"))
        .arg("--scenario")
        .arg(&path)
        .output()
        .expect("silo-sim runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("hot-loop profile"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
