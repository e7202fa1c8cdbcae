//! Source-level call graph over the workspace, feeding the hot-path
//! audit ([`audit`](crate::audit)).
//!
//! The builder extracts every function and method from the workspace
//! sources (module-aware: `impl`/`trait` blocks qualify method names),
//! extracts call tokens from each body, and resolves them to workspace
//! definitions. Resolution is deliberately an *over-approximation*:
//!
//! - `Type::name(…)` and `Self::name(…)` resolve exactly through the
//!   impl-qualified name table.
//! - `self.name(…)` resolves against the enclosing impl type first.
//! - `recv.name(…)` with an unknown receiver resolves to **every**
//!   workspace method of that name — sound for reachability, at the cost
//!   of extra edges. Names that collide with ubiquitous `std`
//!   methods (`push`, `lock`, `get`, …) are excluded via
//!   [`STD_METHOD_NAMES`]; the genuinely hot implementations behind
//!   those names are annotated as `// bcp:hot-path` roots directly, so
//!   excluding the edge never hides them from the audit.
//! - `name(…)` resolves to free functions, same-file first.
//!
//! Unresolved calls are `std`/dependency calls and fall outside the
//! graph; the *patterns* in the audit (panics, allocation, blocking)
//! catch their effects at the call site instead.

use crate::srcmodel::{code_lines, first_test_line, SrcLine};
use std::collections::{HashMap, HashSet, VecDeque};

/// Method names whose unknown-receiver calls are *not* resolved, because
/// they are overwhelmingly `std` collection/sync calls and would smear
/// reachability across unrelated workspace types. Hot implementations
/// that share one of these names must carry their own `// bcp:hot-path`
/// root annotation (and in this workspace, do).
pub(crate) const STD_METHOD_NAMES: &[&str] = &[
    "push",
    "pop",
    "get",
    "get_mut",
    "set",
    "len",
    "is_empty",
    "insert",
    "remove",
    "clear",
    "drain",
    "iter",
    "iter_mut",
    "clone",
    "lock",
    "read",
    "write",
    "take",
    "replace",
    "send",
    "recv",
    "try_send",
    "try_recv",
    "recv_timeout",
    "load",
    "store",
    "next",
    "join",
    "contains",
    "map",
    "filter",
    "find",
    "position",
    "first",
    "last",
    "min",
    "max",
    "sum",
    "count",
    "record",
    "extend",
    "flush",
    "name",
    "new",
    "default",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "drop",
    "zip",
    "wait",
    "wait_timeout",
];

/// Rust keywords that precede `(` without being calls.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "fn", "loop", "in", "as", "move", "else", "let",
    "mut", "ref", "break", "continue", "unsafe", "where", "impl", "dyn", "use", "pub", "crate",
    "super", "struct", "enum", "type", "const", "static", "trait", "mod", "box", "await", "yield",
];

/// One function or method extracted from the sources.
pub(crate) struct FnDef {
    /// Bare name (`submit`).
    pub(crate) name: String,
    /// Enclosing `impl`/`trait` type, if any (`Engine`).
    pub(crate) impl_ty: Option<String>,
    /// Index into [`Graph::files`].
    pub(crate) file: usize,
    /// 0-based line of the `fn` keyword.
    pub(crate) sig_line: usize,
    /// 0-based inclusive body span (`{` line ..= `}` line); `None` for
    /// bodyless trait declarations.
    pub(crate) body: Option<(usize, usize)>,
    /// Whether this function has a `self` receiver (method vs associated).
    pub(crate) has_self: bool,
    /// Annotated `// bcp:hot-path` — a reachability root.
    pub(crate) is_root: bool,
    /// Annotated `// audit: cold` — a traversal boundary.
    pub(crate) is_cold: bool,
}

impl FnDef {
    /// Qualified display name: `Engine::submit` or `worker_loop`.
    pub(crate) fn qual(&self) -> String {
        match &self.impl_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One parsed source file.
pub(crate) struct ParsedFile {
    /// Workspace-relative path (`crates/bcp-serve/src/engine.rs`).
    pub(crate) rel: String,
    pub(crate) lines: Vec<SrcLine>,
    /// First line of the trailing `#[cfg(test)]` module.
    pub(crate) test_start: usize,
}

/// The resolved workspace call graph.
pub(crate) struct Graph {
    pub(crate) files: Vec<ParsedFile>,
    pub(crate) fns: Vec<FnDef>,
    /// Out-edges per function (callee indices, deduplicated, sorted).
    pub(crate) edges: Vec<Vec<usize>>,
}

/// A call token extracted from a body line.
enum Call {
    /// `name(…)` — a free-function call.
    Bare(String),
    /// `recv.name(…)` — receiver token is `self` or unknown (empty).
    Method { receiver: String, name: String },
    /// `Qual::name(…)` — last path segment before `::`.
    Path { qual: String, name: String },
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Build the call graph over `(relative_path, source)` pairs.
pub(crate) fn build(sources: Vec<(String, String)>) -> Graph {
    let mut files = Vec::with_capacity(sources.len());
    for (rel, src) in sources {
        let lines = code_lines(&src);
        let test_start = first_test_line(&lines);
        files.push(ParsedFile {
            rel,
            lines,
            test_start,
        });
    }
    let mut fns = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        extract_fns(fi, f, &mut fns);
    }
    let edges = build_edges(&files, &fns);
    Graph { files, fns, edges }
}

/// What a just-seen declaration header is waiting for (`{` or `;`).
enum Pending {
    Fn {
        name: String,
        sig_line: usize,
        /// Bracket/paren depth inside the signature, so a `;` inside
        /// `[u8; 4]` does not read as a bodyless declaration.
        nest: usize,
    },
    /// `impl`/`trait` header text, accumulated until `{`.
    Block { header: String },
}

/// What an open `{` belongs to.
enum Frame {
    Fn { idx: usize },
    Impl { ty: Option<String> },
    Other,
}

/// Extract all functions in one file into `out`.
fn extract_fns(file_idx: usize, f: &ParsedFile, out: &mut Vec<FnDef>) {
    let mut stack: Vec<Frame> = Vec::new();
    let mut pending: Option<Pending> = None;
    for (li, line) in f.lines.iter().enumerate().take(f.test_start) {
        let block_pending_at_start = matches!(pending, Some(Pending::Block { .. }));
        let bytes = line.code.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i];
            if is_ident_start(c) {
                let st = i;
                while i < bytes.len() && is_ident(bytes[i]) {
                    i = i.saturating_add(1);
                }
                let ident = &line.code[st..i];
                match &mut pending {
                    None => {
                        if ident == "fn" {
                            // The name may follow on this line; multi-line
                            // `fn\nname` does not survive rustfmt.
                            let rest = bytes.get(i..).unwrap_or(&[]);
                            let skip = rest.iter().take_while(|b| b.is_ascii_whitespace()).count();
                            let ns = i.saturating_add(skip);
                            let mut ne = ns;
                            while ne < bytes.len() && is_ident(bytes[ne]) {
                                ne = ne.saturating_add(1);
                            }
                            if ne > ns {
                                pending = Some(Pending::Fn {
                                    name: line.code[ns..ne].to_string(),
                                    sig_line: li,
                                    nest: 0,
                                });
                                i = ne;
                            }
                        } else if ident == "impl" || ident == "trait" {
                            pending = Some(Pending::Block {
                                header: line.code[st..].to_string(),
                            });
                            // The whole rest of the line is header text;
                            // brace scanning below still sees it.
                        }
                    }
                    Some(Pending::Block { header }) => {
                        // Header continues across lines; appended below.
                        let _ = header;
                    }
                    Some(Pending::Fn { .. }) => {}
                }
                continue;
            }
            match c {
                b'(' | b'[' => {
                    if let Some(Pending::Fn { nest, .. }) = &mut pending {
                        *nest = nest.saturating_add(1);
                    }
                }
                b')' | b']' => {
                    if let Some(Pending::Fn { nest, .. }) = &mut pending {
                        *nest = nest.saturating_sub(1);
                    }
                }
                b';' => {
                    if matches!(&pending, Some(Pending::Fn { nest: 0, .. })) {
                        // Bodyless declaration (trait method signature).
                        if let Some(Pending::Fn { name, sig_line, .. }) = pending.take() {
                            let (is_root, is_cold) = annotations(f, sig_line);
                            out.push(FnDef {
                                name,
                                impl_ty: current_impl(&stack),
                                file: file_idx,
                                sig_line,
                                body: None,
                                has_self: signature_has_self(f, sig_line, li),
                                is_root,
                                is_cold,
                            });
                        }
                    }
                }
                b'{' => match pending.take() {
                    Some(Pending::Fn { name, sig_line, .. }) => {
                        let (is_root, is_cold) = annotations(f, sig_line);
                        out.push(FnDef {
                            name,
                            impl_ty: current_impl(&stack),
                            file: file_idx,
                            sig_line,
                            body: Some((li, li)),
                            has_self: signature_has_self(f, sig_line, li),
                            is_root,
                            is_cold,
                        });
                        stack.push(Frame::Fn {
                            idx: out.len().saturating_sub(1),
                        });
                    }
                    Some(Pending::Block { header }) => {
                        stack.push(Frame::Impl {
                            ty: impl_type(&header),
                        });
                    }
                    None => stack.push(Frame::Other),
                },
                b'}' => {
                    if let Some(Frame::Fn { idx }) = stack.pop() {
                        if let Some(d) = out.get_mut(idx) {
                            if let Some((s, _)) = d.body {
                                d.body = Some((s, li));
                            }
                        }
                    }
                }
                _ => {}
            }
            i = i.saturating_add(1);
        }
        // A header opened on an *earlier* line continues across this one
        // (the opening line's tail was captured at the `impl` keyword).
        if block_pending_at_start {
            if let Some(Pending::Block { header }) = &mut pending {
                header.push(' ');
                header.push_str(&line.code);
            }
        }
    }
}

/// The innermost `impl`/`trait` type on the frame stack.
fn current_impl(stack: &[Frame]) -> Option<String> {
    stack.iter().rev().find_map(|fr| match fr {
        Frame::Impl { ty } => ty.clone(),
        _ => None,
    })
}

/// `// bcp:hot-path` / `// audit: cold` annotations attached above a
/// signature line (through doc comments and attributes).
fn annotations(f: &ParsedFile, sig_line: usize) -> (bool, bool) {
    let mut is_root = f
        .lines
        .get(sig_line)
        .is_some_and(|l| l.comment.trim_start().starts_with("bcp:hot-path"));
    let mut is_cold = f
        .lines
        .get(sig_line)
        .is_some_and(|l| l.comment.trim_start().starts_with("audit: cold"));
    let mut j = sig_line;
    while j > 0 {
        j = j.saturating_sub(1);
        let Some(l) = f.lines.get(j) else { break };
        let code = l.code.trim();
        let attached = code.starts_with("#[") || (code.is_empty() && !l.comment.trim().is_empty());
        if !attached {
            break;
        }
        if l.comment.trim_start().starts_with("bcp:hot-path") {
            is_root = true;
        }
        if l.comment.trim_start().starts_with("audit: cold") {
            is_cold = true;
        }
    }
    (is_root, is_cold)
}

/// Whether the signature starting at `sig_line` (ending by `body_line`)
/// takes a `self` receiver.
fn signature_has_self(f: &ParsedFile, sig_line: usize, body_line: usize) -> bool {
    let mut sig = String::new();
    for li in sig_line..=body_line.min(f.lines.len().saturating_sub(1)) {
        if let Some(l) = f.lines.get(li) {
            sig.push_str(&l.code);
            sig.push(' ');
        }
    }
    let Some(p) = sig.find('(') else { return false };
    let mut rest = sig.get(p.saturating_add(1)..).unwrap_or("").trim_start();
    rest = rest.strip_prefix('&').unwrap_or(rest).trim_start();
    if rest.starts_with('\'') {
        // Skip an explicit lifetime: `&'a self`.
        let after = rest.get(1..).unwrap_or("");
        let skip = after.bytes().take_while(|&b| is_ident(b)).count();
        rest = after.get(skip..).unwrap_or("").trim_start();
    }
    rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    rest.strip_prefix("self")
        .is_some_and(|a| a.starts_with([',', ')', ':', ' ']) || a.is_empty())
}

/// Extract the implemented/target type name from an `impl`/`trait`
/// header: `impl<T> Slot<T>` → `Slot`, `impl Replica for Synthetic` →
/// `Synthetic`, `pub trait Replica: Send` → `Replica`.
fn impl_type(header: &str) -> Option<String> {
    let h = header.trim_start();
    let h = if let Some(rest) = h.strip_prefix("impl") {
        let rest = skip_generics(rest.trim_start());
        match rest.find(" for ") {
            Some(p) => rest.get(p.saturating_add(5)..).unwrap_or(""),
            None => rest,
        }
    } else {
        // `trait Name…` — `extract_fns` hands us the header starting at
        // the keyword itself.
        h.strip_prefix("trait").unwrap_or(h)
    };
    let h = h.trim_start().trim_start_matches('&').trim_start();
    // Take the leading path, keep its last segment, stop at `<`/space/`{`.
    let end = h
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(h.len());
    let path = h.get(..end).unwrap_or("");
    let seg = path.rsplit("::").next().unwrap_or("");
    (!seg.is_empty() && seg.as_bytes().first().is_some_and(|b| is_ident_start(*b)))
        .then(|| seg.to_string())
}

/// Skip a balanced leading `<…>` generics list.
fn skip_generics(s: &str) -> &str {
    if !s.starts_with('<') {
        return s;
    }
    let mut depth = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '<' => depth = depth.saturating_add(1),
            '>' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return s.get(i.saturating_add(1)..).unwrap_or("");
                }
            }
            _ => {}
        }
    }
    ""
}

/// Extract call tokens from one line of comment-stripped code.
fn calls_on_line(code: &str) -> Vec<Call> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if !is_ident_start(bytes[i]) {
            i = i.saturating_add(1);
            continue;
        }
        let st = i;
        while i < bytes.len() && is_ident(bytes[i]) {
            i = i.saturating_add(1);
        }
        let name = &code[st..i];
        if bytes.get(i) != Some(&b'(') {
            continue;
        }
        if KEYWORDS.contains(&name) || name == "self" || name == "Self" {
            continue;
        }
        // `fn name(` is the declaration, not a call.
        let before = code.get(..st).unwrap_or("").trim_end();
        if before.ends_with("fn") {
            continue;
        }
        let prev = before.as_bytes().last().copied();
        if prev == Some(b'.') {
            let recv_end = before.len().saturating_sub(1);
            let recv_bytes = before.as_bytes();
            let mut rs = recv_end;
            while rs > 0 && is_ident(recv_bytes[rs.saturating_sub(1)]) {
                rs = rs.saturating_sub(1);
            }
            // `self.f.g(` scans back to `f`, not `self`, so a "self"
            // receiver here is always the direct `self.name(` form.
            let receiver = code.get(rs..recv_end).unwrap_or("");
            let receiver = if receiver
                .as_bytes()
                .first()
                .is_some_and(|b| is_ident_start(*b))
            {
                receiver
            } else {
                ""
            };
            out.push(Call::Method {
                receiver: receiver.to_string(),
                name: name.to_string(),
            });
        } else if before.ends_with("::") {
            let q_end = before.len().saturating_sub(2);
            let q_bytes = before.as_bytes();
            let mut qs = q_end;
            while qs > 0 && is_ident(q_bytes[qs.saturating_sub(1)]) {
                qs = qs.saturating_sub(1);
            }
            let qual = code.get(qs..q_end).unwrap_or("").to_string();
            if !qual.is_empty() {
                out.push(Call::Path {
                    qual,
                    name: name.to_string(),
                });
            }
        } else if name
            .as_bytes()
            .first()
            .is_some_and(|b| b.is_ascii_lowercase() || *b == b'_')
        {
            // Uppercase bare calls are tuple-struct / enum constructors.
            out.push(Call::Bare(name.to_string()));
        }
    }
    out
}

/// Lines in a file carrying an `// audit: external` boundary: the
/// directive's own line if it has code, else the next code line within 3.
pub(crate) fn external_lines(f: &ParsedFile) -> HashSet<usize> {
    directive_target_lines(f, "external")
}

/// Generic directive-target computation shared with the audit's
/// allow-list handling.
pub(crate) fn directive_target_lines(f: &ParsedFile, keyword: &str) -> HashSet<usize> {
    let mut out = HashSet::new();
    for (li, line) in f.lines.iter().enumerate() {
        let c = line.comment.trim_start();
        let Some(rest) = c.strip_prefix("audit:") else {
            continue;
        };
        if !rest.trim_start().starts_with(keyword) {
            continue;
        }
        if !line.code.trim().is_empty() {
            out.insert(li);
        } else {
            for k in li.saturating_add(1)..f.lines.len().min(li.saturating_add(4)) {
                if f.lines.get(k).is_some_and(|l| !l.code.trim().is_empty()) {
                    out.insert(k);
                    break;
                }
            }
        }
    }
    out
}

/// Resolve every body's call tokens into graph edges.
fn build_edges(files: &[ParsedFile], fns: &[FnDef]) -> Vec<Vec<usize>> {
    let mut by_qual: HashMap<String, Vec<usize>> = HashMap::new();
    let mut methods_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut free_global: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut free_by_file: HashMap<(usize, &str), Vec<usize>> = HashMap::new();
    for (i, d) in fns.iter().enumerate() {
        if d.impl_ty.is_some() {
            by_qual.entry(d.qual()).or_default().push(i);
            if d.has_self {
                methods_by_name.entry(&d.name).or_default().push(i);
            }
        } else {
            free_global.entry(&d.name).or_default().push(i);
            free_by_file.entry((d.file, &d.name)).or_default().push(i);
        }
    }

    let in_bin = |d: &FnDef| {
        files
            .get(d.file)
            .is_some_and(|f| f.rel.contains("/src/bin/"))
    };
    let externals: Vec<HashSet<usize>> = files.iter().map(external_lines).collect();
    let mut edges = vec![Vec::new(); fns.len()];
    for (i, d) in fns.iter().enumerate() {
        let Some((s, e)) = d.body else { continue };
        let Some(f) = files.get(d.file) else { continue };
        let mut callees: HashSet<usize> = HashSet::new();
        for li in s..=e.min(f.test_start.saturating_sub(1)) {
            let Some(line) = f.lines.get(li) else { break };
            if externals.get(d.file).is_some_and(|ext| ext.contains(&li)) {
                continue;
            }
            for call in calls_on_line(&line.code) {
                resolve(
                    &call,
                    d,
                    &by_qual,
                    &methods_by_name,
                    &free_global,
                    &free_by_file,
                    &mut callees,
                );
            }
        }
        callees.remove(&i);
        // A library cannot call into a binary, so a name match from
        // library code into `src/bin/` is never an edge.
        if !in_bin(d) {
            callees.retain(|&j| fns.get(j).is_none_or(|c| !in_bin(c)));
        }
        let mut v: Vec<usize> = callees.into_iter().collect();
        v.sort_unstable();
        if let Some(slot) = edges.get_mut(i) {
            *slot = v;
        }
    }
    edges
}

#[allow(clippy::too_many_arguments)]
fn resolve(
    call: &Call,
    caller: &FnDef,
    by_qual: &HashMap<String, Vec<usize>>,
    methods_by_name: &HashMap<&str, Vec<usize>>,
    free_global: &HashMap<&str, Vec<usize>>,
    free_by_file: &HashMap<(usize, &str), Vec<usize>>,
    out: &mut HashSet<usize>,
) {
    match call {
        Call::Path { qual, name } => {
            let ty = if qual == "Self" {
                caller.impl_ty.clone()
            } else {
                Some(qual.clone())
            };
            if let Some(ty) = ty {
                if ty.as_bytes().first().is_some_and(u8::is_ascii_uppercase) {
                    if let Some(v) = by_qual.get(&format!("{ty}::{name}")) {
                        out.extend(v);
                    }
                    return;
                }
            }
            // Lowercase qualifier is a module path: `tracer::stamp(…)`.
            if let Some(v) = free_global.get(name.as_str()) {
                out.extend(v);
            }
        }
        Call::Method { receiver, name } => {
            if receiver == "self" {
                if let Some(ty) = &caller.impl_ty {
                    if let Some(v) = by_qual.get(&format!("{ty}::{name}")) {
                        out.extend(v);
                        return;
                    }
                }
            }
            if STD_METHOD_NAMES.contains(&name.as_str()) {
                return;
            }
            if let Some(v) = methods_by_name.get(name.as_str()) {
                out.extend(v);
            }
        }
        Call::Bare(name) => {
            if let Some(v) = free_by_file.get(&(caller.file, name.as_str())) {
                out.extend(v);
            } else if let Some(v) = free_global.get(name.as_str()) {
                out.extend(v);
            }
        }
    }
}

/// BFS from every `// bcp:hot-path` root. Returns, per function, the
/// witness chain of function indices `root ..= this` (or `None` when
/// unreachable). `// audit: cold` functions are traversal boundaries:
/// neither entered nor expanded.
pub(crate) fn reachable(g: &Graph) -> Vec<Option<Vec<usize>>> {
    let mut parent: Vec<Option<usize>> = vec![None; g.fns.len()];
    let mut seen = vec![false; g.fns.len()];
    let mut queue = VecDeque::new();
    for (i, d) in g.fns.iter().enumerate() {
        if d.is_root && !d.is_cold {
            seen[i] = true;
            queue.push_back(i);
        }
    }
    while let Some(i) = queue.pop_front() {
        for &j in g.edges.get(i).map(Vec::as_slice).unwrap_or(&[]) {
            if seen.get(j).copied().unwrap_or(true) || g.fns.get(j).is_none_or(|d| d.is_cold) {
                continue;
            }
            seen[j] = true;
            parent[j] = Some(i);
            queue.push_back(j);
        }
    }
    let mut chains = vec![None; g.fns.len()];
    for i in 0..g.fns.len() {
        if !seen.get(i).copied().unwrap_or(false) {
            continue;
        }
        let mut chain = vec![i];
        let mut cur = i;
        while let Some(p) = parent.get(cur).copied().flatten() {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        if let Some(slot) = chains.get_mut(i) {
            *slot = Some(chain);
        }
    }
    chains
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(src: &str) -> Graph {
        build(vec![("crates/x/src/lib.rs".into(), src.into())])
    }

    fn find<'g>(g: &'g Graph, qual: &str) -> &'g FnDef {
        g.fns
            .iter()
            .find(|d| d.qual() == qual)
            .unwrap_or_else(|| panic!("no fn {qual}"))
    }

    #[test]
    fn library_calls_do_not_resolve_into_binaries() {
        // A library hot root calls `x.finish()`; only a bin defines a
        // `finish`, and it allocates.
        let sources = [
            (
                "crates/x/src/lib.rs",
                "// bcp:hot-path\nfn root(x: &X) {\n    x.finish();\n}\n",
            ),
            (
                "crates/x/src/bin/tool/cli.rs",
                "struct T;\nimpl T {\n    fn finish(&self) {\n        \
                 let _v: Vec<u8> = Vec::new();\n    }\n}\nfn main() {\n    T.finish();\n}\n",
            ),
        ];
        let r = crate::audit::audit_sources(&sources);
        assert!(r.is_clean(), "{}", r.render_text());
        let g = build(sources.map(|(rel, src)| (rel.into(), src.into())).into());
        let finish = g.fns.iter().position(|d| d.name == "finish").unwrap();
        let main = g.fns.iter().position(|d| d.name == "main").unwrap();
        assert!(
            g.edges[main].contains(&finish),
            "a bin still calls its own methods"
        );
    }

    #[test]
    fn impl_methods_are_qualified_and_free_fns_are_not() {
        let g = graph(
            "struct Engine;\n\
             impl Engine {\n    pub fn submit(&self) {}\n    fn helper() {}\n}\n\
             fn worker_loop() {}\n",
        );
        assert!(find(&g, "Engine::submit").has_self);
        assert!(!find(&g, "Engine::helper").has_self);
        assert!(find(&g, "worker_loop").impl_ty.is_none());
    }

    #[test]
    fn trait_impl_for_qualifies_by_target_type() {
        let g = graph(
            "trait Replica {\n    fn canary(&self) -> bool;\n}\n\
             struct Synth;\n\
             impl Replica for Synth {\n    fn canary(&self) -> bool { true }\n}\n",
        );
        assert!(find(&g, "Synth::canary").body.is_some());
        assert!(find(&g, "Replica::canary").body.is_none());
    }

    #[test]
    fn roots_and_cold_annotations_attach_through_attributes() {
        let g = graph(
            "struct E;\nimpl E {\n\
             // bcp:hot-path — admission entry\n    #[inline]\n    pub fn submit(&self) {}\n\
             // audit: cold — repair path\n    fn recover(&self) { self.submit() }\n}\n",
        );
        assert!(find(&g, "E::submit").is_root);
        assert!(find(&g, "E::recover").is_cold);
    }

    #[test]
    fn calls_resolve_self_qualified_and_bare() {
        let g = graph(
            "struct E;\nimpl E {\n\
             // bcp:hot-path\n    fn root(&self) {\n        self.step();\n        E::assoc();\n        helper();\n    }\n\
             fn step(&self) {}\n    fn assoc() {}\n}\n\
             fn helper() { leaf() }\nfn leaf() {}\nfn unrelated() {}\n",
        );
        let chains = reachable(&g);
        let reach: Vec<String> = g
            .fns
            .iter()
            .enumerate()
            .filter(|(i, _)| chains[*i].is_some())
            .map(|(_, d)| d.qual())
            .collect();
        assert!(reach.contains(&"E::step".to_string()));
        assert!(reach.contains(&"E::assoc".to_string()));
        assert!(reach.contains(&"leaf".to_string()));
        assert!(!reach.contains(&"unrelated".to_string()));
    }

    #[test]
    fn unknown_receiver_resolves_all_candidates_except_std_names() {
        let g = graph(
            "struct A;\nimpl A {\n    pub fn deliver(&self) {}\n    pub fn push(&self, _x: u8) {}\n}\n\
             struct B;\nimpl B {\n    pub fn deliver(&self) {}\n}\n\
             // bcp:hot-path\nfn root(slot: &A, v: &mut Vec<u8>) {\n    slot.deliver();\n    v.push(1);\n}\n",
        );
        let chains = reachable(&g);
        let reached = |q: &str| {
            g.fns
                .iter()
                .enumerate()
                .any(|(i, d)| d.qual() == q && chains[i].is_some())
        };
        assert!(reached("A::deliver"), "over-approximation reaches A");
        assert!(reached("B::deliver"), "over-approximation reaches B");
        assert!(!reached("A::push"), "std-name methods are not smeared");
    }

    #[test]
    fn witness_chain_runs_root_to_leaf() {
        let g = graph("// bcp:hot-path\nfn root() { mid() }\nfn mid() { leaf() }\nfn leaf() {}\n");
        let chains = reachable(&g);
        let leaf = g.fns.iter().position(|d| d.name == "leaf").unwrap();
        let chain: Vec<String> = chains[leaf]
            .as_ref()
            .unwrap()
            .iter()
            .map(|&i| g.fns[i].qual())
            .collect();
        assert_eq!(chain, ["root", "mid", "leaf"]);
    }

    #[test]
    fn cold_fns_are_boundaries_and_external_lines_cut_edges() {
        let g = graph(
            "// bcp:hot-path\nfn root() {\n\
             cold_fn();\n\
             // audit: external — replica compute is audited at its own roots\n\
             ext_target();\n}\n\
             // audit: cold — teardown\nfn cold_fn() { deep() }\n\
             fn deep() {}\nfn ext_target() {}\n",
        );
        let chains = reachable(&g);
        for name in ["cold_fn", "deep", "ext_target"] {
            let i = g.fns.iter().position(|d| d.name == name).unwrap();
            assert!(chains[i].is_none(), "{name} must not be reachable");
        }
    }

    #[test]
    fn bodyless_declarations_and_multiline_signatures_parse() {
        let g = graph(
            "trait T {\n    fn decl(&self, xs: [u8; 4]) -> bool;\n}\n\
             fn multi(\n    a: usize,\n    b: usize,\n) -> usize {\n    a.saturating_add(b)\n}\n",
        );
        assert!(find(&g, "T::decl").body.is_none());
        assert!(find(&g, "multi").body.is_some());
    }
}
