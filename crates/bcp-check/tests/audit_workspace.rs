//! Self-audit: the workspace's own hot paths must stay clean. This is
//! the same gate CI runs (`bcp audit`), pinned as a test so a violation
//! fails `cargo test` locally before it fails the pipeline.

use bcp_check::audit::audit_workspace;
use bcp_check::Code;
use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/bcp-check → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("bcp-check sits two levels below the workspace root")
}

#[test]
fn workspace_hot_paths_are_clean() {
    let (report, _) = audit_workspace(workspace_root());
    assert!(
        report.is_clean(),
        "the workspace hot-path audit must pass:\n{}",
        report.render_text()
    );
}

#[test]
fn workspace_audit_directives_are_well_formed() {
    let (report, _) = audit_workspace(workspace_root());
    assert!(
        !report.has_code(Code::AuditConfigError),
        "malformed audit directive (or no roots) in the workspace:\n{}",
        report.render_text()
    );
}

#[test]
fn workspace_has_a_substantial_root_set() {
    // The audit is only as strong as its root set. The serving entries,
    // worker loop, oneshot delivery, kernels and trace push are all
    // annotated; if a refactor silently drops most of the annotations,
    // the reachability proof quietly shrinks — fail loudly instead.
    let (_, exceptions) = audit_workspace(workspace_root());
    let count = exceptions.hot_path_roots;
    assert!(
        count >= 10,
        "expected at least 10 `// bcp:hot-path` roots across the workspace, found {count}"
    );
}

#[test]
fn admission_queue_park_is_seen_once_its_directive_is_gone() {
    // The engine's queue must stay in front of the audit, lock and parks
    // included: the file is clean on its own, and without the directive on
    // `pull`'s park that park is a finding, at its line, from its root.
    let rel = "crates/bcp-serve/src/queue.rs";
    let src = std::fs::read_to_string(workspace_root().join(rel)).expect("queue.rs is readable");
    let report = bcp_check::audit::audit_sources(&[(rel, &src)]);
    assert!(report.is_clean(), "{}", report.render_text());

    let mut lines: Vec<&str> = src.lines().collect();
    let is_park = |l: &&str| l.contains("not_empty.wait(");
    let park = lines.iter().position(is_park).expect("pull parks");
    let directive = lines.remove(park - 1);
    assert!(directive.contains("audit: allow(block)"), "{directive}");
    let report = bcp_check::audit::audit_sources(&[(rel, &lines.join("\n"))]);
    let [d] = &report.diagnostics[..] else {
        panic!("one finding expected:\n{}", report.render_text());
    };
    // The park moved up one line: 0-based `park` is now its 1-based number.
    assert_eq!(
        (d.code, &d.location),
        (Code::HotPathBlocking, &format!("{rel}:{park}"))
    );
    let witness = d.help.as_deref().unwrap_or("");
    assert!(witness.contains("root `Admission::pull`"), "{witness}");
}
