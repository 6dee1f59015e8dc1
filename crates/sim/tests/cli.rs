//! End-to-end checks of the `silo-sim` binary's flag handling: a bad
//! setting value must exit with code 2 and name both the flag and the
//! value, before any simulation runs.

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
