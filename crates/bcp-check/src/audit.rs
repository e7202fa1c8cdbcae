//! The hot-path audit (`bcp audit`): reachability analysis over the
//! workspace call graph proving panic-freedom and allocation discipline
//! on the serving path.
//!
//! Functions annotated `// bcp:hot-path` are reachability roots — the
//! engine's dispatch and submit paths, the worker compute loop, oneshot
//! slot delivery, the XNOR-popcount kernels, and trace completion.
//! Every function reachable from a root through the
//! [`callgraph`](crate::callgraph) over-approximation is scanned for:
//!
//! | code   | finding                                                |
//! |--------|--------------------------------------------------------|
//! | BCP200 | panic sites (`unwrap`, `expect`, `panic!`, asserts)     |
//! | BCP201 | unchecked indexing / slicing                            |
//! | BCP202 | division or modulo by a non-literal, non-const divisor  |
//! | BCP210 | heap allocation (`Vec::new`, `clone`, `collect`, …)     |
//! | BCP220 | blocking calls (locks, condvars, channel park points)   |
//! | BCP230 | narrowing `as` casts to a smaller integer type          |
//!
//! Every diagnostic carries a call-chain witness ("reachable from root
//! `Engine::submit` via `Shared::expire` → `Slot::complete`"), so a
//! finding is an argument, not a grep hit.
//!
//! Deliberate exceptions are written in the source, next to the code
//! they justify:
//!
//! - `// audit: allow(kind, …): reason` — suppress specific findings on
//!   the next (or same) code line. The reason is mandatory.
//! - `// audit: external — reason` — do not traverse calls on this
//!   line (e.g. `dyn Replica` compute, which is audited at its own
//!   kernel roots).
//! - `// audit: cold — reason` — mark a function as off the hot path
//!   (recovery, teardown); traversal stops at its boundary.
//!
//! A malformed directive (unknown kind, missing reason) or a workspace
//! with no roots at all is a `BCP240` configuration error: the audit
//! refuses to vacuously pass.
//!
//! `Arc::clone(&x)` / `Rc::clone(&x)` are deliberately *not* allocation
//! findings: the qualified form is the idiom this workspace uses to mark
//! a refcount bump, as opposed to `.clone()` which may deep-copy.

use crate::callgraph::{self, Graph, ParsedFile};
use crate::diag::{Code, Diagnostic, Report};
use crate::srcmodel::workspace_sources;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;

/// Panic-site patterns (BCP200). Ident-boundary matched, so
/// `debug_assert!` (compiled out of release hot paths) does not match
/// `assert!`.
const PANIC_PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
    "assert!(",
    "assert_eq!(",
    "assert_ne!(",
];

/// Heap-allocation patterns (BCP210).
const ALLOC_PATTERNS: &[&str] = &[
    "Vec::new(",
    "vec![",
    "with_capacity(",
    "Box::new(",
    "Arc::new(",
    "Rc::new(",
    "String::new(",
    "String::from(",
    "format!(",
    ".to_string()",
    ".to_owned()",
    ".to_vec()",
    ".clone()",
    ".push(",
    ".push_str(",
    ".extend(",
    ".collect()",
    ".collect::<",
    ".insert(",
    "HashMap::new(",
    "HashSet::new(",
    "BTreeMap::new(",
];

/// Blocking-call patterns (BCP220): locks, condvar waits, channel park
/// points, thread joins, I/O.
const BLOCK_PATTERNS: &[&str] = &[
    ".lock()",
    ".read()",
    ".write()",
    ".wait(",
    ".wait_timeout(",
    ".wait_while(",
    "sleep(",
    ".join()",
    ".recv()",
    ".recv_timeout(",
    ".recv_deadline(",
    ".send(",
    "println!(",
    "print!(",
    "eprintln!(",
    "eprint!(",
    "write!(",
    "writeln!(",
    "File::open(",
    "File::create(",
    "read_to_string(",
];

/// Narrowing `as` cast targets (BCP230). Widening casts and
/// pointer-width casts to `usize`/`u64`/`i64`/floats are not findings.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Finding kinds, as spelled inside `// audit: allow(…)`.
const KINDS: &[&str] = &["panic", "index", "div", "alloc", "block", "cast"];

/// What the audit is told to trust: its `// bcp:hot-path` roots and its
/// well-formed `// audit: allow(…)` directives by kind, a directive naming
/// several kinds counting once per kind. `bcp audit --json` reports it as
/// `exceptions`, and `scripts/exception_budget.py` holds it to a budget.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct Exceptions {
    /// Functions annotated `// bcp:hot-path`.
    pub hot_path_roots: usize,
    /// `audit: allow` directives per kind; every kind is listed.
    pub allow: BTreeMap<String, usize>,
}

/// Audit the workspace rooted at `root` (the directory containing the
/// top-level `Cargo.toml`), returning the findings and the exceptions
/// they were judged under. Never panics: I/O problems become `BCP240`
/// diagnostics.
pub fn audit_workspace(root: &Path) -> (Report, Exceptions) {
    let mut report = Report::new("hot-path audit", "-", "-");
    let sources = workspace_sources(root, Code::AuditConfigError, &mut report);
    let exceptions = audit_into(sources, &mut report);
    (report, exceptions)
}

/// Audit an in-memory set of `(relative_path, source)` files — the
/// mutation-testing entry point.
pub fn audit_sources(files: &[(&str, &str)]) -> Report {
    let mut report = Report::new("hot-path audit", "-", "-");
    audit_into(
        files
            .iter()
            .map(|(rel, src)| (rel.to_string(), src.to_string()))
            .collect(),
        &mut report,
    );
    report
}

/// Per-file allow-list: line index → kinds suppressed on that line.
type Allows = HashMap<usize, HashSet<String>>;

fn audit_into(sources: Vec<(String, String)>, report: &mut Report) -> Exceptions {
    let graph = callgraph::build(sources);
    let mut exceptions = Exceptions {
        hot_path_roots: graph.fns.iter().filter(|d| d.is_root).count(),
        allow: KINDS.iter().map(|k| (k.to_string(), 0)).collect(),
    };
    let allows: Vec<Allows> = graph
        .files
        .iter()
        .map(|f| validate_directives(f, report, &mut exceptions.allow))
        .collect();

    if !graph.fns.iter().any(|d| d.is_root) {
        report.push(
            Diagnostic::error(
                Code::AuditConfigError,
                "workspace",
                "no `// bcp:hot-path` roots found: the audit would pass vacuously",
            )
            .with_help(
                "annotate the serving entry points (dispatch/submit, worker loops, kernels) \
                 with `// bcp:hot-path`",
            ),
        );
        return exceptions;
    }

    let chains = callgraph::reachable(&graph);
    let mut order: Vec<usize> = (0..graph.fns.len())
        .filter(|&i| chains.get(i).is_some_and(Option::is_some))
        .collect();
    order.sort_by_key(|&i| {
        let d = &graph.fns[i];
        (graph.files.get(d.file).map(|f| f.rel.clone()), d.sig_line)
    });
    let mut emitted = HashSet::new();
    for i in order {
        let Some(Some(chain)) = chains.get(i) else {
            continue;
        };
        audit_fn(&graph, i, chain, &allows, &mut emitted, report);
    }
    exceptions
}

/// Validate every `audit:` directive in one file, building its
/// allow-list and counting valid directives into `counts` by kind.
/// Malformed directives become `BCP240`.
fn validate_directives(
    f: &ParsedFile,
    report: &mut Report,
    counts: &mut BTreeMap<String, usize>,
) -> Allows {
    let mut allows: Allows = HashMap::new();
    for (li, line) in f.lines.iter().enumerate() {
        let c = line.comment.trim_start();
        let Some(rest) = c.strip_prefix("audit:") else {
            continue;
        };
        let rest = rest.trim_start();
        let loc = format!("{}:{}", f.rel, li.saturating_add(1));
        if let Some(after) = rest.strip_prefix("allow(") {
            let Some(close) = after.find(')') else {
                report.push(Diagnostic::error(
                    Code::AuditConfigError,
                    loc,
                    "unclosed `audit: allow(…)` directive",
                ));
                continue;
            };
            let kinds: Vec<&str> = after
                .get(..close)
                .unwrap_or("")
                .split(',')
                .map(str::trim)
                .collect();
            let bad: Vec<&str> = kinds
                .iter()
                .copied()
                .filter(|k| !KINDS.contains(k))
                .collect();
            if !bad.is_empty() {
                report.push(
                    Diagnostic::error(
                        Code::AuditConfigError,
                        loc,
                        format!("unknown audit allow kind(s): {}", bad.join(", ")),
                    )
                    .with_help(format!("known kinds: {}", KINDS.join(", "))),
                );
                continue;
            }
            let reason = after.get(close.saturating_add(1)..).unwrap_or("");
            if !has_reason(reason) {
                report.push(
                    Diagnostic::error(
                        Code::AuditConfigError,
                        loc,
                        "audit allow without a justification",
                    )
                    .with_help("write `// audit: allow(kind): <why this site cannot misbehave>`"),
                );
                continue;
            }
            for target in directive_targets(f, li) {
                let entry = allows.entry(target).or_default();
                for k in &kinds {
                    entry.insert((*k).to_string());
                }
            }
            // Test modules are not audited, so what they allow is not counted.
            if li < f.test_start {
                for k in &kinds {
                    let n = counts.entry((*k).to_string()).or_default();
                    *n = n.saturating_add(1);
                }
            }
        } else if let Some(after) = rest.strip_prefix("external") {
            if !has_reason(after) {
                report.push(
                    Diagnostic::error(
                        Code::AuditConfigError,
                        loc,
                        "`audit: external` without a justification",
                    )
                    .with_help(
                        "write `// audit: external — <why the callee is audited elsewhere>`",
                    ),
                );
            }
        } else if let Some(after) = rest.strip_prefix("cold") {
            if !has_reason(after) {
                report.push(
                    Diagnostic::error(
                        Code::AuditConfigError,
                        loc,
                        "`audit: cold` without a justification",
                    )
                    .with_help("write `// audit: cold — <why this function is off the hot path>`"),
                );
            }
        } else {
            report.push(
                Diagnostic::error(
                    Code::AuditConfigError,
                    loc,
                    format!("unknown audit directive: `audit: {rest}`"),
                )
                .with_help("known directives: allow(kind, …): …, external — …, cold — …"),
            );
        }
    }
    allows
}

/// A directive's justification: non-empty after stripping separators.
fn has_reason(s: &str) -> bool {
    !s.trim_start_matches([' ', '\t', ':', '-', '—', '–'])
        .trim()
        .is_empty()
}

/// Code line(s) a directive on line `li` applies to: its own line when
/// it carries code, else the next code line within three lines.
fn directive_targets(f: &ParsedFile, li: usize) -> Vec<usize> {
    if f.lines.get(li).is_some_and(|l| !l.code.trim().is_empty()) {
        return vec![li];
    }
    for k in li.saturating_add(1)..f.lines.len().min(li.saturating_add(4)) {
        if f.lines.get(k).is_some_and(|l| !l.code.trim().is_empty()) {
            return vec![k];
        }
    }
    Vec::new()
}

/// Scan one reachable function body for all finding kinds.
fn audit_fn(
    g: &Graph,
    idx: usize,
    chain: &[usize],
    allows: &[Allows],
    emitted: &mut HashSet<(Code, String)>,
    report: &mut Report,
) {
    let d = &g.fns[idx];
    let Some((s, e)) = d.body else { return };
    let Some(f) = g.files.get(d.file) else { return };
    let witness = witness(g, chain);
    for li in s..=e.min(f.test_start.saturating_sub(1)) {
        let Some(line) = f.lines.get(li) else { break };
        let code = line.code.as_str();
        if code.trim().starts_with("#[") {
            continue;
        }
        let allowed = allows.get(d.file).and_then(|a| a.get(&li));
        let is_allowed = |kind: &str| allowed.is_some_and(|set| set.contains(kind));
        let loc = format!("{}:{}", f.rel, li.saturating_add(1));

        for pat in PANIC_PATTERNS {
            if find_bounded(code, pat) && !is_allowed("panic") {
                emit(
                    report,
                    emitted,
                    Code::HotPathPanic,
                    &loc,
                    format!(
                        "panic site `{}` on the audited hot path",
                        pat.trim_end_matches('(')
                    ),
                    &witness,
                    "panic",
                );
                break;
            }
        }
        if has_indexing(code) && !is_allowed("index") {
            emit(
                report,
                emitted,
                Code::HotPathIndexing,
                &loc,
                "unchecked `[…]` indexing on the audited hot path".to_string(),
                &witness,
                "index",
            );
        }
        if let Some(divisor) = unchecked_division(code) {
            if !is_allowed("div") {
                emit(
                    report,
                    emitted,
                    Code::HotPathDivision,
                    &loc,
                    format!("division/modulo by non-constant `{divisor}` on the audited hot path"),
                    &witness,
                    "div",
                );
            }
        }
        for pat in ALLOC_PATTERNS {
            if find_bounded(code, pat) && !is_allowed("alloc") {
                emit(
                    report,
                    emitted,
                    Code::HotPathAllocation,
                    &loc,
                    format!(
                        "heap allocation `{}` on the audited hot path",
                        pat.trim_end_matches(['(', '<', ':'])
                    ),
                    &witness,
                    "alloc",
                );
                break;
            }
        }
        for pat in BLOCK_PATTERNS {
            if find_bounded(code, pat) && !is_allowed("block") {
                emit(
                    report,
                    emitted,
                    Code::HotPathBlocking,
                    &loc,
                    format!(
                        "blocking call `{}` on the audited hot path",
                        pat.trim_end_matches('(')
                    ),
                    &witness,
                    "block",
                );
                break;
            }
        }
        if let Some(ty) = narrowing_cast(code) {
            if !is_allowed("cast") {
                emit(
                    report,
                    emitted,
                    Code::HotPathNarrowingCast,
                    &loc,
                    format!("narrowing `as {ty}` cast on the audited hot path"),
                    &witness,
                    "cast",
                );
            }
        }
    }
}

/// The call-chain witness string for a reachable function.
fn witness(g: &Graph, chain: &[usize]) -> String {
    let quals: Vec<String> = chain
        .iter()
        .filter_map(|&i| g.fns.get(i).map(callgraph::FnDef::qual))
        .collect();
    match quals.split_first() {
        Some((root, rest)) if !rest.is_empty() => {
            format!("reachable from root `{root}` via `{}`", rest.join("` → `"))
        }
        Some((root, _)) => format!("in hot-path root `{root}`"),
        None => String::new(),
    }
}

fn emit(
    report: &mut Report,
    emitted: &mut HashSet<(Code, String)>,
    code: Code,
    loc: &str,
    message: String,
    witness: &str,
    kind: &str,
) {
    if !emitted.insert((code, loc.to_string())) {
        return;
    }
    report.push(Diagnostic::error(code, loc, message).with_help(format!(
        "{witness}; justify with `// audit: allow({kind}): <reason>` or restructure"
    )));
}

/// Substring match requiring an identifier boundary before patterns that
/// start with an identifier character (so `debug_assert!(` does not
/// match `assert!(`, and `MyVec::new(` does not match `Vec::new(`).
fn find_bounded(code: &str, pat: &str) -> bool {
    let needs_boundary = pat
        .as_bytes()
        .first()
        .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
    let mut from = 0;
    while let Some(p) = code.get(from..).and_then(|s| s.find(pat)) {
        let at = from.saturating_add(p);
        if !needs_boundary {
            return true;
        }
        let prev = code.get(..at).and_then(|s| s.bytes().last());
        if !prev.is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.') {
            return true;
        }
        from = at.saturating_add(1);
    }
    false
}

/// Unchecked `[…]` indexing: a `[` directly following an expression
/// (identifier, `)`, or `]`), excluding type positions and attributes.
fn has_indexing(code: &str) -> bool {
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let before = code.get(..i).unwrap_or("").trim_end();
        let Some(&prev) = before.as_bytes().last() else {
            continue;
        };
        if !(is_expr_end(prev)) {
            continue;
        }
        // `mut xs[…]` patterns and `dyn Trait[…]` cannot happen; what can
        // is a keyword directly before (`in arr[..]` never indexes), so
        // check the trailing identifier is not a keyword.
        let mut ws = before.len();
        let bb = before.as_bytes();
        while ws > 0
            && (bb[ws.saturating_sub(1)].is_ascii_alphanumeric()
                || bb[ws.saturating_sub(1)] == b'_')
        {
            ws = ws.saturating_sub(1);
        }
        let word = before.get(ws..).unwrap_or("");
        if matches!(
            word,
            "mut"
                | "ref"
                | "in"
                | "as"
                | "return"
                | "else"
                | "match"
                | "if"
                | "where"
                | "move"
                | "dyn"
                | "impl"
                | "box"
                | "let"
                | "const"
                | "static"
                | "type"
        ) {
            continue;
        }
        return true;
    }
    false
}

fn is_expr_end(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b')' || b == b']'
}

/// Division or modulo whose divisor is not a literal or a
/// `SCREAMING_CASE` constant. Returns the divisor token.
fn unchecked_division(code: &str) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b != b'/' && b != b'%' {
            i = i.saturating_add(1);
            continue;
        }
        // Skip `/=`-style compound-assign markers to the divisor itself.
        let mut j = i.saturating_add(1);
        if bytes.get(j) == Some(&b'=') {
            j = j.saturating_add(1);
        }
        while bytes.get(j).is_some_and(u8::is_ascii_whitespace) {
            j = j.saturating_add(1);
        }
        let Some(&first) = bytes.get(j) else { break };
        if first.is_ascii_digit() {
            // Literal divisor (`x / 2`, `x % 256`): cannot be zero.
            i = j;
            continue;
        }
        if first == b'(' || is_ident_byte(first) {
            let st = j;
            let mut k = j;
            while k < bytes.len() && is_ident_byte(bytes[k]) {
                k = k.saturating_add(1);
            }
            let tok = code.get(st..k).unwrap_or("(");
            let screaming = !tok.is_empty()
                && tok
                    .bytes()
                    .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
                && tok.bytes().any(|b| b.is_ascii_uppercase());
            if !screaming {
                return Some(if tok.is_empty() {
                    "(…)".to_string()
                } else {
                    tok.to_string()
                });
            }
        }
        i = j.saturating_add(1);
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// A narrowing `as` cast target on this line, if any.
fn narrowing_cast(code: &str) -> Option<&'static str> {
    for ty in NARROW_TARGETS {
        let pat = format!(" as {ty}");
        let mut from = 0;
        while let Some(p) = code.get(from..).and_then(|s| s.find(&pat)) {
            let end = from.saturating_add(p).saturating_add(pat.len());
            let next = code.as_bytes().get(end);
            if !next.is_some_and(|b| is_ident_byte(*b)) {
                return Some(ty);
            }
            from = end;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit_one(src: &str) -> Report {
        audit_sources(&[("crates/x/src/lib.rs", src)])
    }

    #[test]
    fn exceptions_count_roots_and_valid_directives_by_kind() {
        let mut report = Report::new("hot-path audit", "-", "-");
        let src = "// bcp:hot-path\nfn a(xs: &[u64], i: usize) -> u64 {\n\
                   // audit: allow(index, panic): i is masked above\n    xs[i]\n}\n\
                   // bcp:hot-path\nfn b() {\n    // audit: allow(index)\n    let _ = 1;\n}\n";
        let exceptions = audit_into(
            vec![("crates/x/src/lib.rs".into(), src.into())],
            &mut report,
        );
        assert_eq!(exceptions.hot_path_roots, 2);
        // The bare `allow(index)` has no reason: a BCP240, not an exception.
        assert!(report.has_code(Code::AuditConfigError));
        let counted: Vec<(&str, usize)> = exceptions
            .allow
            .iter()
            .map(|(k, n)| (k.as_str(), *n))
            .collect();
        assert_eq!(
            counted,
            [
                ("alloc", 0),
                ("block", 0),
                ("cast", 0),
                ("div", 0),
                ("index", 1),
                ("panic", 1)
            ]
        );
    }

    #[test]
    fn a_multi_line_string_yields_no_directive_and_no_finding() {
        let mut report = Report::new("hot-path audit", "-", "-");
        let src = "// bcp:hot-path\nfn root() -> &'static str {\n    \"first line\n\
                   // audit: allow(alloc): inside the string\n    x.unwrap() \"\n}\n";
        let exceptions = audit_into(
            vec![("crates/x/src/lib.rs".into(), src.into())],
            &mut report,
        );
        assert!(report.is_clean(), "{}", report.render_text());
        assert!(exceptions.allow.values().all(|&n| n == 0), "{exceptions:?}");
    }

    #[test]
    fn clean_hot_path_passes() {
        let r = audit_one(
            "// bcp:hot-path\n\
             fn root(a: &[u64], b: &[u64]) -> u32 {\n\
                 let mut agree = 0u32;\n\
                 for (x, y) in a.iter().zip(b) {\n\
                     agree = agree.saturating_add((!(x ^ y)).count_ones());\n\
                 }\n\
                 agree\n\
             }\n",
        );
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn missing_roots_is_a_config_error_not_a_pass() {
        let r = audit_one("fn quiet() {}\n");
        assert!(r.has_code(Code::AuditConfigError));
    }

    #[test]
    fn debug_assert_is_not_a_panic_site() {
        let r = audit_one("// bcp:hot-path\nfn root(x: usize) {\n    debug_assert!(x < 4);\n}\n");
        assert!(!r.has_code(Code::HotPathPanic), "{}", r.render_text());
    }

    #[test]
    fn literal_divisors_and_screaming_constants_are_fine() {
        let r = audit_one(
            "const WORD_BITS: usize = 64;\n// bcp:hot-path\n\
             fn root(bits: usize) -> (usize, usize) {\n    (bits / 64, bits % WORD_BITS)\n}\n",
        );
        assert!(!r.has_code(Code::HotPathDivision), "{}", r.render_text());
    }

    #[test]
    fn allow_with_reason_suppresses_and_without_reason_is_config_error() {
        let with = audit_one(
            "// bcp:hot-path\nfn root(xs: &[u64], i: usize) -> u64 {\n\
             // audit: allow(index): i is masked to capacity above\n    xs[i]\n}\n",
        );
        assert!(
            !with.has_code(Code::HotPathIndexing),
            "{}",
            with.render_text()
        );
        let without = audit_one(
            "// bcp:hot-path\nfn root(xs: &[u64], i: usize) -> u64 {\n\
             // audit: allow(index)\n    xs[i]\n}\n",
        );
        assert!(without.has_code(Code::AuditConfigError));
    }

    #[test]
    fn unknown_allow_kind_is_a_config_error() {
        let r = audit_one(
            "// bcp:hot-path\nfn root() {\n// audit: allow(everything): please\n    let _ = 1;\n}\n",
        );
        assert!(r.has_code(Code::AuditConfigError));
    }

    #[test]
    fn witness_names_the_root_and_the_chain() {
        let r = audit_one(
            "// bcp:hot-path\nfn hot_entry() { seal() }\n\
             fn seal() { ticket() }\n\
             fn ticket() { let v: Vec<u8> = Vec::new(); drop(v); }\n",
        );
        assert!(r.has_code(Code::HotPathAllocation));
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == Code::HotPathAllocation)
            .unwrap();
        let help = d.help.as_deref().unwrap_or("");
        assert!(
            help.contains("reachable from root `hot_entry` via `seal` → `ticket`"),
            "witness missing: {help}"
        );
    }

    #[test]
    fn arc_clone_is_not_an_allocation_but_dot_clone_is() {
        let ok = audit_one(
            "// bcp:hot-path\nfn root(x: &std::sync::Arc<u8>) {\n    let _y = std::sync::Arc::clone(x);\n}\n",
        );
        assert!(
            !ok.has_code(Code::HotPathAllocation),
            "{}",
            ok.render_text()
        );
        let bad =
            audit_one("// bcp:hot-path\nfn root(x: &Vec<u8>) {\n    let _y = x.clone();\n}\n");
        assert!(bad.has_code(Code::HotPathAllocation));
    }

    #[test]
    fn test_modules_are_outside_the_audit() {
        let r = audit_one(
            "// bcp:hot-path\nfn root() {}\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Vec::<u8>::new().push(1); }\n}\n",
        );
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn every_kind_fires_with_its_own_code() {
        let cases: &[(&str, Code)] = &[
            ("let _x = opt.unwrap();", Code::HotPathPanic),
            ("let _x = xs[i];", Code::HotPathIndexing),
            ("let _x = a / b;", Code::HotPathDivision),
            ("let _v: Vec<u8> = Vec::new();", Code::HotPathAllocation),
            ("let _g = m.lock();", Code::HotPathBlocking),
            ("let _c = n as u8;", Code::HotPathNarrowingCast),
        ];
        for (line, code) in cases {
            let src = format!(
                "// bcp:hot-path\n#[allow(unused)]\nfn root(opt: Option<u8>, xs: &[u8], i: usize, a: u64, b: u64, m: &std::sync::Mutex<u8>, n: u64) {{\n    {line}\n}}\n"
            );
            let r = audit_one(&src);
            assert!(
                r.has_code(*code),
                "{line} should fire {code}: {}",
                r.render_text()
            );
        }
    }
}
