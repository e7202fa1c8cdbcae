//! `bcp lint` — repo-invariant lints for the lock-free serving core.
//!
//! Where the rest of this crate verifies *designs*, this module verifies
//! the *repository*: source-level invariants that `rustc`/`clippy` do not
//! know about but the concurrency story depends on. All findings funnel
//! into the same [`diag`](crate::diag) machinery as the design checks —
//! stable `BCP1xx` codes, `--json` output, exit-1 on violations in CI.
//!
//! | code     | invariant                                                     |
//! |----------|---------------------------------------------------------------|
//! | `BCP100` | every atomic `Ordering::*` carries a `// ordering:` comment   |
//! | `BCP101` | no `unsafe` anywhere in workspace source                      |
//! | `BCP102` | no `unwrap()` on channel send/recv in serving hot paths       |
//! | `BCP103` | every metric name emitted in code appears in README tables    |
//! | `BCP110` | the lint pass itself failed to run as configured              |
//!
//! Scope: non-test code under each crate's `src/` (and the root crate's
//! `src/`). Test modules — everything at and below the first
//! `#[cfg(test)]`/`#[cfg(all(test, …))]` line — are skipped: tests may
//! deliberately violate invariants (a test's `unwrap()` on a channel
//! being the usual example). `vendor/` is excluded: vendored code is
//! audited at import time, not continuously.

use crate::diag::{Code, Diagnostic, Report};
use crate::srcmodel::{code_lines, first_test_line, workspace_sources, SrcLine};
use std::path::Path;

/// Crates whose `src/` is a serving hot path for the purposes of
/// `BCP102`: a panicking channel endpoint there can take down a worker,
/// the batcher, or the collector mid-request.
const HOT_PATH_CRATES: &[&str] = &["crates/bcp-serve/src", "crates/bcp-trace/src"];

/// How many lines above an `Ordering::*` use a `// ordering:` comment
/// may sit (same line also counts). Five covers a multi-line
/// `compare_exchange` call with one justification above it.
const ORDERING_LOOKBACK: usize = 5;

/// Lint the workspace rooted at `root` (the directory containing the
/// top-level `Cargo.toml` and `README.md`). Never panics: I/O problems
/// become `BCP110` diagnostics.
pub fn lint_workspace(root: &Path) -> Report {
    let mut report = Report::new("workspace", "-", "-");
    let sources = workspace_sources(root, Code::LintConfigError, &mut report);

    let readme_patterns = match std::fs::read_to_string(root.join("README.md")) {
        Ok(readme) => readme_metric_patterns(&readme),
        Err(e) => {
            report.push(Diagnostic::error(
                Code::LintConfigError,
                root.join("README.md").display().to_string(),
                format!("cannot read README for the metric-name lint: {e}"),
            ));
            Vec::new()
        }
    };
    let have_readme = !readme_patterns.is_empty();

    for (rel, src) in &sources {
        lint_file(
            rel,
            src,
            have_readme.then_some(&readme_patterns),
            &mut report,
        );
    }
    report
}

/// Lint one file's source. `readme_patterns` is `None` when the README
/// was unreadable (the metric lint is skipped; `BCP110` already fired).
fn lint_file(
    rel: &str,
    src: &str,
    readme_patterns: Option<&Vec<Vec<DocSeg>>>,
    report: &mut Report,
) {
    let lines = code_lines(src);
    let test_start = first_test_line(&lines);

    for (i, line) in lines.iter().enumerate() {
        if i >= test_start {
            break;
        }
        let lineno = i.saturating_add(1);
        if has_atomic_ordering(&line.code) && !has_ordering_comment(&lines, i) {
            report.push(
                Diagnostic::error(
                    Code::UnjustifiedOrdering,
                    format!("{rel}:{lineno}"),
                    "atomic Ordering use without a `// ordering:` justification within 5 lines",
                )
                .with_help("document WHY this ordering is sufficient, not what it does"),
            );
        }
        if has_unsafe_token(&line.code) {
            report.push(
                Diagnostic::error(
                    Code::UnsafeCode,
                    format!("{rel}:{lineno}"),
                    "unsafe in workspace source",
                )
                .with_help("use a safe std or workspace API; no file is exempt"),
            );
        }
        if HOT_PATH_CRATES.iter().any(|p| rel.starts_with(p)) && is_channel_unwrap(&line.code) {
            report.push(
                Diagnostic::error(
                    Code::HotPathChannelUnwrap,
                    format!("{rel}:{lineno}"),
                    "unwrap() on a channel send/recv in a serving hot path",
                )
                .with_help("a disconnected peer is an expected teardown state — handle the Err"),
            );
        }
    }

    if let Some(patterns) = readme_patterns {
        let head: String = lines[..test_start]
            .iter()
            .map(|l| format!("{}\n", l.with_strings))
            .collect();
        for (name, lineno) in emitted_metric_names(&head) {
            let segs = code_metric_segments(&name);
            if !patterns.iter().any(|p| metric_matches(&segs, p)) {
                report.push(
                    Diagnostic::error(
                        Code::UndocumentedMetric,
                        format!("{rel}:{lineno}"),
                        format!("metric `{name}` is not documented in the README metrics tables"),
                    )
                    .with_help("add it to the Telemetry table in README.md"),
                );
            }
        }
    }
}

// ------------------------------------------------------ token matching --

fn has_atomic_ordering(code: &str) -> bool {
    ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"]
        .iter()
        .any(|v| code.contains(&format!("Ordering::{v}")))
}

fn has_ordering_comment(lines: &[SrcLine], at: usize) -> bool {
    let from = at.saturating_sub(ORDERING_LOOKBACK);
    lines[from..=at]
        .iter()
        .any(|l| l.comment.trim_start().starts_with("ordering:"))
}

fn has_unsafe_token(code: &str) -> bool {
    // Word-boundary match: `unsafe` as its own token.
    code.split(|c: char| !c.is_alphanumeric() && c != '_')
        .any(|w| w == "unsafe")
}

fn is_channel_unwrap(code: &str) -> bool {
    code.contains(".unwrap()")
        && [
            ".send(",
            ".try_send(",
            ".recv()",
            ".try_recv()",
            ".recv_timeout(",
        ]
        .iter()
        .any(|p| code.contains(p))
}

// ------------------------------------------------------ metric matching --

/// A segment of a documented metric pattern from the README.
#[derive(Debug, PartialEq)]
enum DocSeg {
    /// Literal dot-separated segment.
    Lit(String),
    /// `<stage>` / `<i>`-style placeholder: exactly one segment.
    Any,
}

/// A segment of a metric name as emitted in code.
#[derive(Debug, PartialEq)]
enum CodeSeg {
    Lit(String),
    /// A `format!` interpolation (`{w}`, `{base}`, `{}`): one or MORE
    /// segments, since the interpolated value may itself contain dots.
    Interp,
}

/// Extract `(metric-name, line-number)` pairs from non-test source:
/// string (or `format!` template) arguments of `.counter(` / `.gauge(` /
/// `.histogram(`. Dynamic (non-literal) names are not extractable and
/// are vouched for by the caller that builds them from documented parts.
fn emitted_metric_names(code_with_strings: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (i, line) in code_with_strings.lines().enumerate() {
        let lineno = i.saturating_add(1);
        let mut rest = line;
        while let Some(pos) = ["counter(", "gauge(", "histogram("]
            .iter()
            .filter_map(|m| rest.find(&format!(".{m}")).map(|p| (p, m.len())))
            .min()
        {
            let (at, mlen) = pos;
            let after = &rest[at.saturating_add(mlen).saturating_add(1)..];
            let arg = after
                .trim_start()
                .trim_start_matches('&')
                .trim_start_matches("format!(")
                .trim_start();
            if let Some(stripped) = arg.strip_prefix('"') {
                if let Some(end) = stripped.find('"') {
                    out.push((stripped[..end].to_string(), lineno));
                }
            }
            rest = after;
        }
    }
    out
}

/// Split an emitted metric name into match segments.
fn code_metric_segments(name: &str) -> Vec<CodeSeg> {
    name.split('.')
        .map(|s| {
            if s.contains('{') {
                CodeSeg::Interp
            } else {
                CodeSeg::Lit(s.to_string())
            }
        })
        .collect()
}

/// Pull every backtick-quoted, brace-expanded, dotted name out of the
/// README as a documented metric pattern. Non-metric backtick spans
/// (crate names, CLI flags) never match a real emission, so
/// over-collecting here is harmless.
fn readme_metric_patterns(readme: &str) -> Vec<Vec<DocSeg>> {
    let mut out = Vec::new();
    for span in readme.split('`').skip(1).step_by(2) {
        if !span.contains('.') || span.contains(' ') {
            continue;
        }
        for expanded in brace_expand(span) {
            let segs: Vec<DocSeg> = expanded
                .split('.')
                .map(|s| {
                    if s.starts_with('<') && s.ends_with('>') {
                        DocSeg::Any
                    } else {
                        DocSeg::Lit(s.to_string())
                    }
                })
                .collect();
            if !segs.is_empty() {
                out.push(segs);
            }
        }
    }
    out
}

/// Expand `a.{x,y}.b` into `a.x.b`, `a.y.b` (repeatedly, for multiple
/// groups). A name with unbalanced braces is returned as-is.
fn brace_expand(name: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (name.find('{'), name.find('}')) else {
        return vec![name.to_string()];
    };
    if close < open {
        return vec![name.to_string()];
    }
    let mut out = Vec::new();
    for alt in name[open.saturating_add(1)..close].split(',') {
        let candidate = format!(
            "{}{}{}",
            &name[..open],
            alt,
            &name[close.saturating_add(1)..]
        );
        out.extend(brace_expand(&candidate));
    }
    out
}

/// Whether an emitted name (code side) matches a documented pattern.
fn metric_matches(code: &[CodeSeg], doc: &[DocSeg]) -> bool {
    match (code.first(), doc.first()) {
        (None, None) => true,
        (Some(CodeSeg::Lit(c)), Some(DocSeg::Lit(d))) => {
            c == d && metric_matches(&code[1..], &doc[1..])
        }
        (Some(CodeSeg::Lit(_)), Some(DocSeg::Any)) => metric_matches(&code[1..], &doc[1..]),
        (Some(CodeSeg::Interp), Some(_)) => {
            // An interpolation spans one or more documented segments.
            (1..=doc.len()).any(|k| metric_matches(&code[1..], &doc[k..]))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;

    fn lint_src(rel: &str, src: &str) -> Report {
        let mut r = Report::new("test", "-", "-");
        lint_file(rel, src, None, &mut r);
        r
    }

    #[test]
    fn unjustified_ordering_is_flagged_and_justified_is_not() {
        let bad = "fn f(x: &AtomicUsize) { x.load(Ordering::Acquire); }\n";
        let r = lint_src("crates/x/src/lib.rs", bad);
        assert!(r.has_code(Code::UnjustifiedOrdering), "{}", r.render_text());

        let good = "fn f(x: &AtomicUsize) {\n    // ordering: Acquire — pairs with the Release publish.\n    x.load(Ordering::Acquire);\n}\n";
        let r = lint_src("crates/x/src/lib.rs", good);
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn ordering_lookback_is_bounded() {
        let far = format!(
            "// ordering: too far away\n{}x.load(Ordering::Relaxed);\n",
            "let _ = 0;\n".repeat(ORDERING_LOOKBACK + 1)
        );
        let r = lint_src("crates/x/src/lib.rs", &far);
        assert!(r.has_code(Code::UnjustifiedOrdering));
    }

    #[test]
    fn ordering_in_comments_strings_and_tests_is_ignored() {
        let src = concat!(
            "// Ordering::SeqCst in prose is fine.\n",
            "const MSG: &str = \"Ordering::SeqCst\";\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn f(x: &AtomicUsize) { x.load(Ordering::SeqCst); }\n",
            "}\n"
        );
        let r = lint_src("crates/x/src/lib.rs", src);
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn unsafe_respects_the_allowlist() {
        // The allowlist is empty: no path is exempt, the file that once
        // held the trace ring included.
        let src = "unsafe { core::hint::unreachable_unchecked() }\n";
        for path in [
            "crates/x/src/lib.rs",
            "crates/bcp-trace/src/ring.rs",
            "src/lib.rs",
        ] {
            assert!(lint_src(path, src).has_code(Code::UnsafeCode), "{path}");
        }
        // `unsafe` inside a string or an identifier is not the keyword.
        let r = lint_src("crates/x/src/lib.rs", "let not_unsafe = \"unsafe\";\n");
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn channel_unwrap_is_hot_path_scoped() {
        let src = "tx.send(v).unwrap();\n";
        let r = lint_src("crates/bcp-serve/src/engine.rs", src);
        assert!(r.has_code(Code::HotPathChannelUnwrap));
        let r = lint_src(
            "crates/bcp-trace/src/tracer.rs",
            "let v = rx.recv().unwrap();\n",
        );
        assert!(r.has_code(Code::HotPathChannelUnwrap));
        // Same code outside the hot-path crates is allowed…
        let r = lint_src("crates/bcp-nn/src/train.rs", src);
        assert!(r.is_clean(), "{}", r.render_text());
        // …and non-channel unwraps are not this lint's business.
        let r = lint_src("crates/bcp-serve/src/engine.rs", "let x = opt.unwrap();\n");
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn metric_names_brace_expand_and_wildcard_match() {
        let patterns = readme_metric_patterns(
            "| `serve.{requests,ok}` and `serve.worker.<i>.batches` counters; `stream.<stage>.{tokens,busy_ns}` |",
        );
        let ok = |name: &str| {
            let segs = code_metric_segments(name);
            patterns.iter().any(|p| metric_matches(&segs, p))
        };
        assert!(ok("serve.requests"));
        assert!(ok("serve.ok"));
        assert!(ok("serve.worker.{w}.batches"));
        assert!(ok("{base}.tokens"), "multi-segment interpolation");
        assert!(!ok("serve.bogus"));
        assert!(!ok("serve.worker.{w}.bogus"));
    }

    #[test]
    fn undocumented_metric_is_flagged() {
        let patterns = readme_metric_patterns("`serve.requests`");
        let mut r = Report::new("t", "-", "-");
        lint_file(
            "crates/x/src/lib.rs",
            "fn m(r: &Registry) { r.counter(\"serve.requests\").inc(); }\n",
            Some(&patterns),
            &mut r,
        );
        assert!(r.is_clean(), "{}", r.render_text());
        let mut r = Report::new("t", "-", "-");
        lint_file(
            "crates/x/src/lib.rs",
            "fn m(r: &Registry) { r.counter(&format!(\"serve.mystery.{x}\")).inc(); }\n",
            Some(&patterns),
            &mut r,
        );
        assert!(r.has_code(Code::UndocumentedMetric), "{}", r.render_text());
    }

    #[test]
    fn missing_root_reports_lint_config_error_not_panic() {
        let r = lint_workspace(Path::new("/nonexistent/bcp-lint-test"));
        assert!(r.has_code(Code::LintConfigError));
    }
}
