//! Shared line-oriented source model for the repo-level analyses.
//!
//! Both the invariant lints ([`lint`](crate::lint)) and the hot-path
//! audit ([`audit`](crate::audit)) scan Rust source textually rather
//! than through a full parser: the invariants they check are lexical
//! (tokens, comments, annotations), and a line model that strips
//! comments and blanks string contents is enough to make the matching
//! sound. This module owns that model and the walk over the workspace's
//! sources, so the two passes agree on which files exist and what counts
//! as code.

use crate::diag::{Code, Diagnostic, Report};
use std::path::{Path, PathBuf};

/// Every `.rs` file under the workspace's `src/` and `crates/*/src/`, as
/// `(path relative to root, source)` sorted by path. A directory or file
/// that cannot be read becomes a `code` error in `report`.
pub(crate) fn workspace_sources(
    root: &Path,
    code: Code,
    report: &mut Report,
) -> Vec<(String, String)> {
    let mut dirs = vec![root.join("src")];
    match std::fs::read_dir(root.join("crates")) {
        Ok(entries) => dirs.extend(entries.flatten().map(|e| e.path().join("src"))),
        Err(e) => report.push(Diagnostic::error(
            code,
            root.join("crates").display().to_string(),
            format!("cannot enumerate workspace crates: {e}"),
        )),
    }
    let mut paths = Vec::new();
    for dir in dirs {
        collect_rs_files(&dir, &mut paths);
    }
    paths.sort();
    let mut sources = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let rel = rel.to_string_lossy().replace('\\', "/");
        match std::fs::read_to_string(path) {
            Ok(src) => sources.push((rel, src)),
            Err(e) => report.push(Diagnostic::error(
                code,
                rel,
                format!("cannot read source file: {e}"),
            )),
        }
    }
    sources
}

/// Recursively collect `.rs` files under `dir`, skipping `tests/`,
/// `benches/` and `examples/` subtrees (integration tests may violate
/// invariants on purpose). A missing `dir` is fine — not every crate
/// has the standard layout.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !matches!(name.as_ref(), "tests" | "benches" | "examples" | "target") {
                collect_rs_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// One source line split into executable code and its trailing comment,
/// with string-literal *contents* blanked in `code` (so `"unsafe"` in a
/// message never triggers a lint) but preserved in `with_strings`.
pub(crate) struct SrcLine {
    /// Code with comments removed and string contents replaced by spaces.
    pub(crate) code: String,
    /// The line's comment text (everything after `//`), if any.
    pub(crate) comment: String,
    /// Code with string contents preserved (for metric extraction).
    pub(crate) with_strings: String,
}

/// Split source into [`SrcLine`]s, tracking block comments and string
/// literals (with escapes) across the whole file. Raw strings are not
/// handled; the workspace does not use them in linted positions.
pub(crate) fn code_lines(src: &str) -> Vec<SrcLine> {
    let mut out = Vec::new();
    let mut in_block_comment = false;
    // A string literal may run over several lines; a char literal may not.
    let mut in_string = false;
    for raw in src.lines() {
        let mut code = String::with_capacity(raw.len());
        let mut with_strings = String::with_capacity(raw.len());
        let mut comment = String::new();
        let mut chars = raw.chars().peekable();
        let mut in_char = false;
        while let Some(c) = chars.next() {
            if in_block_comment {
                if c == '*' && chars.peek() == Some(&'/') {
                    chars.next();
                    in_block_comment = false;
                }
                continue;
            }
            if in_string || in_char {
                with_strings.push(c);
                if c == '\\' {
                    if let Some(esc) = chars.next() {
                        with_strings.push(esc);
                    }
                } else if in_string && c == '"' {
                    code.push('"');
                    in_string = false;
                } else if in_char && c == '\'' {
                    in_char = false;
                } else {
                    code.push(' ');
                }
                continue;
            }
            match c {
                '/' if chars.peek() == Some(&'/') => {
                    comment = chars.collect::<String>();
                    comment.remove(0);
                    break;
                }
                '/' if chars.peek() == Some(&'*') => {
                    chars.next();
                    in_block_comment = true;
                }
                '"' => {
                    in_string = true;
                    code.push('"');
                    with_strings.push('"');
                }
                // A lifetime/label tick is followed by an identifier; a
                // char literal tick is not ambiguous in linted patterns,
                // so only treat `'x'`-shaped sequences as char literals.
                '\'' => {
                    let mut ahead = chars.clone();
                    let is_char = matches!(
                        (ahead.next(), ahead.next()),
                        (Some('\\'), _) | (Some(_), Some('\''))
                    );
                    if is_char {
                        in_char = true;
                    }
                    code.push(' ');
                    with_strings.push(' ');
                }
                _ => {
                    code.push(c);
                    with_strings.push(c);
                }
            }
        }
        out.push(SrcLine {
            code,
            comment,
            with_strings,
        });
    }
    out
}

/// Index of the first line opening a test module (`#[cfg(test)]` or
/// `#[cfg(all(test, …))]`); everything from there on is skipped. By
/// workspace convention test modules close out their files.
pub(crate) fn first_test_line(lines: &[SrcLine]) -> usize {
    lines
        .iter()
        .position(|l| {
            let t = l.code.trim_start();
            t.starts_with("#[cfg(test)]") || t.starts_with("#[cfg(all(test")
        })
        .unwrap_or(lines.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_blanked_but_preserved_in_with_strings() {
        let lines = code_lines("let m = \"unsafe unwrap()\"; // trailing\n");
        assert_eq!(lines.len(), 1);
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].with_strings.contains("unsafe unwrap()"));
        assert_eq!(lines[0].comment.trim(), "trailing");
    }

    #[test]
    fn block_comments_span_lines() {
        let lines = code_lines("a();\n/* b();\nc(); */ d();\n");
        assert!(lines[0].code.contains("a()"));
        assert!(!lines[1].code.contains("b()"));
        assert!(!lines[2].code.contains("c()"));
        assert!(lines[2].code.contains("d()"));
    }

    #[test]
    fn test_module_boundary_is_found() {
        let lines = code_lines("fn a() {}\n#[cfg(test)]\nmod tests {}\n");
        assert_eq!(first_test_line(&lines), 1);
        let lines = code_lines("fn a() {}\n");
        assert_eq!(first_test_line(&lines), 1);
    }
}
