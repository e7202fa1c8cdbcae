//! The `bcp` binary end to end: its usage text, its refusal of bad command
//! lines (exit 2, with a message), and the machine-readable reports CI
//! parses.

use std::process::{Command, Output};

const SUBCOMMANDS: [&str; 13] = [
    "check",
    "train",
    "deploy",
    "classify",
    "info",
    "demo",
    "serve-bench",
    "profile",
    "gateway",
    "gateway-bench",
    "scrub-bench",
    "lint",
    "audit",
];

fn bcp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bcp"))
        .args(args)
        .output()
        .expect("bcp runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn usage_lists_every_subcommand() {
    let out = bcp(&[]);
    assert_eq!(out.status.code(), Some(2));
    let usage = stderr(&out);
    let first = usage.lines().next().unwrap_or_default();
    assert_eq!(
        first,
        format!("usage: bcp <{}> [flags]", SUBCOMMANDS.join("|"))
    );
    for name in SUBCOMMANDS {
        let line = format!("bcp {name} ");
        assert!(
            usage.lines().any(|l| l.trim_start().starts_with(&line)),
            "no usage line for {name}:\n{usage}"
        );
    }
}

#[test]
fn an_unknown_subcommand_exits_2_with_the_usage() {
    let out = bcp(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).starts_with("usage: bcp <"), "{}", stderr(&out));
}

#[test]
fn an_unknown_flag_exits_2_and_is_named() {
    // A misspelled `--workers` must not run the bench with its default.
    let out = bcp(&["serve-bench", "--worker", "4"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--worker"), "{}", stderr(&out));
    assert!(out.stdout.is_empty(), "the bench must not have run");
}

#[test]
fn a_bad_integer_exits_2_and_is_named() {
    let out = bcp(&[
        "train",
        "--arch",
        "ucnv",
        "--out",
        "unused.json",
        "--epochs",
        "x",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--epochs needs an integer, got 'x'"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn a_flag_without_its_value_exits_2() {
    let out = bcp(&["info", "--arch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--arch needs a value"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn check_all_arches_json_parses() {
    let out = bcp(&["check", "--all-arches", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let reports: serde_json::Value =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).expect("JSON");
    let reports = reports.as_array().expect("one report per architecture");
    assert_eq!(reports.len(), 3);
    assert!(reports.iter().all(|r| r.get("diagnostics").is_some()));
}

#[test]
fn audit_json_reports_its_exception_counts() {
    let out = bcp(&["audit", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let report: serde_json::Value =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).expect("JSON");
    assert!(
        report.get("diagnostics").is_some(),
        "still the verifier's report schema"
    );
    let exceptions = report.get("exceptions").expect("exceptions");
    let roots = exceptions["hot_path_roots"].as_u64().expect("root count");
    assert!(roots >= 10, "{roots} roots");
    let allow = exceptions["allow"].as_object().expect("allow counts");
    for kind in ["alloc", "block", "cast", "div", "index", "panic"] {
        assert!(allow.get(kind).and_then(|n| n.as_u64()).is_some(), "{kind}");
    }
}

#[test]
fn serve_bench_metrics_count_only_served_requests() {
    let out = bcp(&[
        "serve-bench",
        "--workers",
        "1",
        "--clients",
        "2",
        "--requests",
        "10",
        "--frames",
        "4",
        "--dump-metrics",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let counter = |name: &str| {
        let line = stdout.lines().find_map(|l| l.strip_prefix(name));
        let value = line.and_then(|v| v.trim().parse::<u64>().ok());
        value.unwrap_or_else(|| panic!("no {name} in:\n{stdout}"))
    };
    // The sequential baseline's 4 frames are not the engine's.
    assert_eq!(counter("serve.ok "), 20);
    assert_eq!(counter("predict.frames "), counter("serve.ok "));
}

#[test]
fn the_readme_shows_the_usage_text() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md is readable");
    let usage = stderr(&bcp(&[]));
    assert!(
        readme.contains(&format!("```text\n{usage}```")),
        "README's `bcp` usage block differs from:\n{usage}"
    );
}

/// A missing input file and an unwritable output path each exit 1 with a
/// message that names the file, like an unreadable `.ppm`.
#[test]
fn unreadable_inputs_and_unwritable_outputs_exit_1_naming_the_file() {
    let dir = std::env::temp_dir().join(format!("bcp-cli-files-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (model, missing) = (path("m.json"), path("missing.json"));
    let unwritable = path("no-such-dir/out.json");
    let train = |out: &str| {
        let flags = ["--arch", "ucnv", "--per-class", "1", "--epochs", "1"];
        bcp(&[&["train", "--out", out][..], &flags].concat())
    };
    assert_eq!(train(&model).status.code(), Some(0));
    for (args, file) in [
        (
            vec!["info", "--arch", "ucnv", "--accel", &missing],
            &missing,
        ),
        (
            vec!["classify", "--arch", "ucnv", "--accel", &missing, "x.ppm"],
            &missing,
        ),
        (
            vec![
                "deploy", "--arch", "ucnv", "--model", &missing, "--out", &model,
            ],
            &missing,
        ),
        (
            vec![
                "deploy",
                "--arch",
                "ucnv",
                "--model",
                &model,
                "--out",
                &unwritable,
            ],
            &unwritable,
        ),
    ] {
        let out = bcp(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(file.as_str()),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    let out = train(&unwritable);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains(&unwritable), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `experiments` refuses a bad command line with a message and exit 2.
#[test]
fn experiments_refuses_bad_command_lines_with_exit_2() {
    for (args, message) in [
        (
            &["table1", "--frobnicate"][..],
            "unknown option '--frobnicate'",
        ),
        (&["fig2", "--json"], "--json needs a value"),
        (&["gradcam", "--ppm"], "--ppm needs a value"),
        (&["gradcam", "12"], "figures are numbered 3–9, got 12"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("experiments runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(message), "{args:?}: {}", stderr(&out));
    }
}
