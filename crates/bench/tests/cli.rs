//! End-to-end tests of the `figures` and `transpose` binaries' exit
//! protocols.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("binary runs")
}

fn figures(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_figures"), args)
}

#[test]
fn unknown_figure_exits_2_and_lists_the_known_ones() {
    let out = figures(&["tab1", "fig99"]);
    assert_eq!(out.status.code(), Some(2), "an unknown name must not pass for success");
    assert!(out.stdout.is_empty(), "nothing is generated before the name is rejected");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown figure 'fig99'"), "{stderr}");
    let listed: Vec<&str> = stderr
        .lines()
        .skip_while(|l| !l.starts_with("known figures:"))
        .skip(1)
        .map(str::trim)
        .collect();
    for name in ["fig9", "fig16", "tab3", "ablation_convert", "tab1", "recommend"] {
        assert!(listed.contains(&name), "missing {name} in {stderr}");
    }
}

#[test]
fn lint_is_not_an_option() {
    let out = figures(&["--lint", "tab1"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown figure '--lint'"), "{stderr}");
}

#[test]
fn known_figures_and_all_still_run() {
    let out = figures(&["tab1", "all"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("==== tab1 ===="), "{stdout}");
}

#[test]
fn out_of_range_layout_counts_exit_2_naming_the_field() {
    for (p, q, spec, field) in [
        ("64", "2", "1d:rows:cyclic:binary:n=1", "p + q = 66 bits"),
        ("4", "4", "1d:rows:cyclic:binary:n=9", "n=9"),
        ("4", "4", "2d:cyclic:binary:half=5", "half=5"),
        ("4", "4", "2d:cyclic:binary:cyclic:binary:nr=5:nc=0", "nr=5"),
        ("4", "4", "banded:nc=7", "nc=7"),
    ] {
        let out = run(env!("CARGO_BIN_EXE_transpose"), &["--p", p, "--q", q, "--before", spec]);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{spec}: {stderr}");
        assert!(stderr.starts_with("--before: ") && stderr.contains(field), "{spec}: {stderr}");
    }
}
