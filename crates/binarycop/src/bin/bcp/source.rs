//! The source family: the `bcp-check` analyzers that read the workspace's
//! own sources, `lint` (BCP1xx) and `audit` (BCP2xx).

use crate::cli::Args;
use bcp_check::Report;
use std::path::PathBuf;
use std::process::exit;

/// `--root`, defaulting to the workspace the binary was built from, so
/// `cargo run -p binarycop --bin bcp -- lint` works from any cwd; CI
/// passes `--root .` explicitly.
fn root(args: &Args) -> PathBuf {
    PathBuf::from(
        args.get("root")
            .unwrap_or(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")),
    )
}

/// Print `report` as JSON under `--json`, with the `extra` keys added to
/// its object, or as text; exit 1 unless it is clean.
fn print_report(args: &Args, report: &Report, extra: serde_json::Map) {
    if args.has("json") {
        let mut json = serde_json::to_value(report).expect("report serializes");
        if let serde_json::Value::Object(fields) = &mut json {
            fields.extend(extra);
        }
        println!(
            "{}",
            serde_json::to_string(&json).expect("report serializes")
        );
    } else {
        print!("{}", report.render_text());
    }
    if !report.is_clean() {
        exit(1);
    }
}

pub fn lint(args: &Args) {
    let report = bcp_check::lint::lint_workspace(&root(args));
    print_report(args, &report, serde_json::Map::new());
}

/// `bcp audit`; its JSON also carries the `exceptions` the audit was
/// judged under, which `scripts/exception_budget.py` reads.
pub fn audit(args: &Args) {
    let (report, exceptions) = bcp_check::audit::audit_workspace(&root(args));
    let exceptions = serde_json::to_value(&exceptions).expect("counts serialize");
    print_report(
        args,
        &report,
        [("exceptions".to_string(), exceptions)].into(),
    );
}
