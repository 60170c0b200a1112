//! A lightweight per-file symbol index for the cross-file rules.
//!
//! [`build_index`] walks the scrubbed code plane of one [`SourceFile`] and
//! extracts everything the cross-file rules in [`crate::graph`] need,
//! without ever materializing an AST (the analyzer stays `syn`-free):
//!
//! * function items with their enclosing `impl` type and a compact *event
//!   stream* — calls and blocking-I/O sites — that [`crate::graph`] walks
//!   to find blocking calls reachable from request handlers;
//! * the telemetry name table (`pub const` entries of `names.rs`) and every
//!   `names::X` reference elsewhere;
//! * versioned `fcn-*/N` schema-tag literals (including CI gate files);
//! * whether the file carries a validator-shaped function.

use crate::rules::{has_prefix_token, schema_tags_in};
use crate::source::{FileKind, SourceFile};

/// Path of the one canonical telemetry name table.
pub const NAMES_PATH: &str = "crates/telemetry/src/names.rs";

/// How a call site names its callee; drives cross-file resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// `self.f()` — resolve against the enclosing `impl` type.
    SelfDot,
    /// `x.f()` — resolve only if `f` is unambiguous in the crate.
    Method,
    /// `Type::f()` — resolve against that `impl` type.
    Type(String),
    /// `f()` — resolve against free functions, same file first.
    Free,
}

/// One entry in a function's replayable event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A call that the cross-file pass may resolve and follow.
    Call {
        /// Callee identifier as written.
        callee: String,
        /// Call shape (see [`Receiver`]).
        receiver: Receiver,
    },
    /// A blocking socket/fs/process call (for BLOCKING-IN-HANDLER).
    Blocking {
        /// The matched pattern, e.g. `fs::read_to_string`.
        pat: String,
    },
}

/// One event at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// 1-based line of the event.
    pub line: usize,
    /// What happened there.
    pub kind: EventKind,
}

/// One indexed function item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Function name as written.
    pub name: String,
    /// Enclosing `impl` type name, or empty for free functions.
    pub impl_type: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// The body's event stream, in source order.
    pub events: Vec<Event>,
}

/// A `pub const`/`pub static` declaration in the telemetry names table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelConst {
    /// Constant identifier.
    pub name: String,
    /// The metric-name string value (empty for non-string entries like
    /// `ALL`, which are declared-known but not dead-checked).
    pub value: String,
    /// 1-based declaration line.
    pub line: usize,
}

/// A `names::X` reference outside the table itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelRef {
    /// Referenced constant identifier.
    pub name: String,
    /// 1-based reference line.
    pub line: usize,
}

/// A versioned schema-tag literal occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagSite {
    /// The full tag, e.g. `fcn-telemetry/1`.
    pub tag: String,
    /// 1-based line of the literal.
    pub line: usize,
}

/// Everything the cross-file rules need to know about one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileIndex {
    /// Workspace-relative path.
    pub path: String,
    /// Kind derived from the path.
    pub kind: FileKind,
    /// Owning crate name.
    pub crate_name: String,
    /// Indexed functions (non-test regions only).
    pub fns: Vec<FnItem>,
    /// Telemetry name-table entries (only populated for [`NAMES_PATH`]).
    pub tel_consts: Vec<TelConst>,
    /// `names::X` references.
    pub tel_refs: Vec<TelRef>,
    /// Schema-tag literal sites (Lib/Bin string plane; whole text for
    /// [`FileKind::Gate`] files).
    pub schema_tags: Vec<TagSite>,
    /// Whether any line starts a `from_*`/`validate*`/`parse*` identifier.
    pub has_validator: bool,
}

/// Keywords that look like calls when followed by `(` but never are.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "let", "mut", "as", "in", "move", "ref",
    "else", "unsafe", "dyn", "impl", "where", "use", "pub", "mod", "struct", "enum", "trait",
    "type", "const", "static", "crate", "super", "Self", "self", "box", "async", "await", "true",
    "false", "break", "continue",
];

/// Method names so common on std containers/iterators that a `x.name()`
/// call is never worth resolving (it would alias unrelated helpers). Only
/// applies to [`Receiver::Method`]; `self.f()` and `Type::f()` always index.
const COMMON_METHODS: &[&str] = &[
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "len",
    "is_empty",
    "clone",
    "cloned",
    "copied",
    "iter",
    "iter_mut",
    "into_iter",
    "entry",
    "or_insert",
    "or_default",
    "contains",
    "contains_key",
    "starts_with",
    "ends_with",
    "strip_prefix",
    "strip_suffix",
    "trim_start_matches",
    "trim_end_matches",
    "extend",
    "drain",
    "retain",
    "sort",
    "sort_by",
    "sort_by_key",
    "dedup",
    "join",
    "next",
    "take",
    "replace",
    "min",
    "max",
    "abs",
    "trim",
    "split",
    "splitn",
    "split_once",
    "find",
    "position",
    "parse",
    "to_string",
    "to_owned",
    "as_str",
    "as_bytes",
    "as_ref",
    "as_mut",
    "as_deref",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "ok",
    "ok_or",
    "ok_or_else",
    "err",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "filter",
    "filter_map",
    "collect",
    "fold",
    "sum",
    "count",
    "any",
    "all",
    "rev",
    "zip",
    "chain",
    "enumerate",
    "flat_map",
    "flatten",
    "last",
    "first",
    "push_str",
    "chars",
    "bytes",
    "lines",
    "keys",
    "values",
    "cmp",
    "eq",
    "ne",
    "display",
    "fmt",
    "into",
    "from",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
];

/// `(qualifier, method)` pairs that count as blocking calls.
const BLOCKING_PAIRS: &[(&str, &str)] = &[
    ("File", "open"),
    ("File", "create"),
    ("fs", "read"),
    ("fs", "read_to_string"),
    ("fs", "write"),
    ("fs", "copy"),
    ("fs", "remove_file"),
    ("fs", "create_dir_all"),
    ("fs", "read_dir"),
    ("fs", "metadata"),
    ("TcpStream", "connect"),
    ("UdpSocket", "bind"),
    ("thread", "sleep"),
    ("Command", "new"),
];

#[derive(Clone, Copy, PartialEq)]
enum Link {
    None,
    Dot,
    Colons,
}

struct PendingFn {
    name: String,
    line: usize,
    in_test: bool,
}

struct Indexer<'a> {
    sf: &'a SourceFile,
    out: FileIndex,
    depth: i32,
    fn_stack: Vec<(usize, i32)>,
    impl_stack: Vec<(String, i32)>,
    pending_fn: Option<PendingFn>,
    pending_impl: Option<Vec<String>>,
    angle: i32,
    expect_fn_name: bool,
    prev_word: String,
    link: Link,
}

/// Build the index for one scrubbed file.
pub fn build_index(sf: &SourceFile) -> FileIndex {
    let mut ix = Indexer {
        sf,
        out: FileIndex {
            path: sf.path.clone(),
            kind: sf.kind,
            crate_name: sf.crate_name.clone(),
            fns: Vec::new(),
            tel_consts: Vec::new(),
            tel_refs: Vec::new(),
            schema_tags: Vec::new(),
            has_validator: false,
        },
        depth: 0,
        fn_stack: Vec::new(),
        impl_stack: Vec::new(),
        pending_fn: None,
        pending_impl: None,
        angle: 0,
        expect_fn_name: false,
        prev_word: String::new(),
        link: Link::None,
    };
    for (i, line) in sf.lines.iter().enumerate() {
        let ln = i + 1;
        ix.scan_line_extras(ln, line);
        ix.scan_code(ln, &line.code);
    }
    ix.out.has_validator = sf.lines.iter().any(|l| {
        ["from_", "validate", "parse"]
            .iter()
            .any(|t| has_prefix_token(&l.code, t))
    });
    ix.out
}

impl Indexer<'_> {
    /// Line-level extraction that does not need the token walk: the
    /// telemetry table and schema tags.
    fn scan_line_extras(&mut self, ln: usize, line: &crate::source::ScrubbedLine) {
        let in_test = self.sf.is_test_line(ln);
        if !in_test
            && self.out.path == NAMES_PATH
            && (line.code.contains("pub const ") || line.code.contains("pub static "))
        {
            let name =
                ident_after(&line.code, "const ").or_else(|| ident_after(&line.code, "static "));
            if let Some(name) = name {
                self.out.tel_consts.push(TelConst {
                    name,
                    value: line.strings.trim().to_string(),
                    line: ln,
                });
            }
        }
        match self.out.kind {
            FileKind::Gate => {
                for tag in schema_tags_in(&line.strings) {
                    self.out.schema_tags.push(TagSite { tag, line: ln });
                }
            }
            FileKind::Lib | FileKind::Bin if !in_test => {
                for tag in schema_tags_in(&line.strings) {
                    self.out.schema_tags.push(TagSite { tag, line: ln });
                }
            }
            _ => {}
        }
    }

    fn in_fn(&self) -> bool {
        !self.fn_stack.is_empty()
    }

    fn push_event(&mut self, ln: usize, kind: EventKind) {
        if let Some(&(fn_idx, _)) = self.fn_stack.last() {
            self.out.fns[fn_idx].events.push(Event { line: ln, kind });
        }
    }

    /// The token walk over one line's code plane. Structural tracking
    /// (braces, `fn`/`impl` headers) always runs; events are only recorded
    /// inside non-test function bodies.
    fn scan_code(&mut self, ln: usize, code: &str) {
        let in_test = self.sf.is_test_line(ln);
        let chars: Vec<char> = code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let w: String = chars[start..i].iter().collect();
                let mut j = i;
                while j < chars.len() && chars[j] == ' ' {
                    j += 1;
                }
                let is_macro = chars.get(j) == Some(&'!');
                let is_call = chars.get(j) == Some(&'(');
                self.word(ln, in_test, &w, is_call, is_macro);
                self.prev_word = w;
                self.link = Link::None;
                continue;
            }
            match c {
                '.' => self.link = Link::Dot,
                ':' if chars.get(i + 1) == Some(&':') => {
                    self.link = Link::Colons;
                    i += 2;
                    continue;
                }
                '<' if self.pending_impl.is_some() => self.angle += 1,
                '>' if self.pending_impl.is_some() => self.angle -= 1,
                '{' => self.on_open(),
                '}' => self.on_close(),
                ';' => self.on_semi(),
                ' ' => {}
                _ => {
                    self.link = Link::None;
                    self.prev_word.clear();
                }
            }
            i += 1;
        }
    }

    fn word(&mut self, ln: usize, in_test: bool, w: &str, is_call: bool, is_macro: bool) {
        // --- declaration tracking -----------------------------------------
        if self.expect_fn_name {
            self.expect_fn_name = false;
            self.pending_fn = Some(PendingFn {
                name: w.to_string(),
                line: ln,
                in_test,
            });
            return;
        }
        if self.pending_fn.is_some() {
            // Between `fn name` and `{`: every word is part of the
            // signature (params, return type, where clause); emit nothing.
            return;
        }
        if w == "fn" {
            self.expect_fn_name = true;
            return;
        }
        if w == "impl" && self.pending_impl.is_none() {
            self.pending_impl = Some(Vec::new());
            self.angle = 0;
            return;
        }
        if let Some(words) = self.pending_impl.as_mut() {
            if self.angle == 0 {
                words.push(w.to_string());
            }
            return;
        }
        // `names::X` references count from anywhere, tests included — a
        // test exercising a metric keeps its name alive.
        if self.link == Link::Colons && self.prev_word == "names" {
            self.out.tel_refs.push(TelRef {
                name: w.to_string(),
                line: ln,
            });
        }
        // --- event extraction ---------------------------------------------
        if !self.in_fn() || in_test {
            return;
        }
        if !is_call || is_macro {
            return;
        }
        if self.link == Link::Colons {
            for (q, m) in BLOCKING_PAIRS {
                if self.prev_word == *q && w == *m {
                    self.push_event(
                        ln,
                        EventKind::Blocking {
                            pat: format!("{q}::{m}"),
                        },
                    );
                    return;
                }
            }
        }
        if w == "stdin" && self.link == Link::None {
            self.push_event(
                ln,
                EventKind::Blocking {
                    pat: "stdin".to_string(),
                },
            );
            return;
        }
        if KEYWORDS.contains(&w) || w.starts_with(char::is_uppercase) {
            return;
        }
        let receiver = match self.link {
            Link::Dot if self.prev_word == "self" => Receiver::SelfDot,
            Link::Dot => {
                if COMMON_METHODS.contains(&w) {
                    return;
                }
                Receiver::Method
            }
            Link::Colons => {
                if self.prev_word.starts_with(char::is_uppercase) {
                    Receiver::Type(self.prev_word.clone())
                } else {
                    // module-qualified free call (`helper::f()`): resolution
                    // would need a module map; skip.
                    return;
                }
            }
            Link::None => Receiver::Free,
        };
        self.push_event(
            ln,
            EventKind::Call {
                callee: w.to_string(),
                receiver,
            },
        );
    }

    fn on_open(&mut self) {
        if let Some(pf) = self.pending_fn.take() {
            if !pf.in_test {
                self.out.fns.push(FnItem {
                    name: pf.name,
                    impl_type: self
                        .impl_stack
                        .last()
                        .map(|(t, _)| t.clone())
                        .unwrap_or_default(),
                    line: pf.line,
                    events: Vec::new(),
                });
                self.fn_stack.push((self.out.fns.len() - 1, self.depth));
            }
            // test-region fn: body braces still tracked via depth, but the
            // fn_stack entry is omitted so no events are recorded.
        } else if let Some(words) = self.pending_impl.take() {
            let ty = words
                .iter()
                .position(|w| w == "for")
                .and_then(|p| words.get(p + 1))
                .or_else(|| words.first())
                .cloned()
                .unwrap_or_default();
            self.impl_stack.push((ty, self.depth));
        }
        self.depth += 1;
        self.prev_word.clear();
        self.link = Link::None;
    }

    fn on_close(&mut self) {
        self.depth -= 1;
        if self
            .impl_stack
            .last()
            .is_some_and(|(_, d)| *d == self.depth)
        {
            self.impl_stack.pop();
        }
        if self.fn_stack.last().is_some_and(|(_, d)| *d == self.depth) {
            self.fn_stack.pop();
        }
        self.prev_word.clear();
        self.link = Link::None;
    }

    fn on_semi(&mut self) {
        if self.pending_fn.is_some() {
            // trait method declaration without a body
            self.pending_fn = None;
        }
        self.prev_word.clear();
        self.link = Link::None;
    }
}

/// The identifier immediately following `marker` in `code`, if any.
fn ident_after(code: &str, marker: &str) -> Option<String> {
    let at = code.find(marker)? + marker.len();
    let rest = code[at..].trim_start();
    let ident: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if ident.is_empty() {
        None
    } else {
        Some(ident)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(path: &str, src: &str) -> FileIndex {
        build_index(&SourceFile::parse(path, src))
    }

    #[test]
    fn indexes_fns_with_impl_types() {
        let src = "\
struct A;
impl A {
    fn run(&self) {
        helper(self.n);
    }
    fn plain(&self) {}
}
fn free() {}
";
        let ix = index("crates/serve/src/x.rs", src);
        assert_eq!(ix.fns.len(), 3);
        assert_eq!(ix.fns[0].name, "run");
        assert_eq!(ix.fns[0].impl_type, "A");
        assert_eq!(
            ix.fns[0].events,
            vec![Event {
                line: 4,
                kind: EventKind::Call {
                    callee: "helper".into(),
                    receiver: Receiver::Free,
                }
            }]
        );
        assert_eq!(ix.fns[2].name, "free");
        assert_eq!(ix.fns[2].impl_type, "");
    }

    #[test]
    fn impl_for_resolves_to_the_implementing_type() {
        let src = "\
impl<'a, T> Drop for Token<T> {
    fn drop(&mut self) {
        self.release();
    }
}
";
        let ix = index("crates/x/src/lib.rs", src);
        assert_eq!(ix.fns[0].impl_type, "Token");
        assert_eq!(
            ix.fns[0].events,
            vec![Event {
                line: 3,
                kind: EventKind::Call {
                    callee: "release".into(),
                    receiver: Receiver::SelfDot,
                }
            }]
        );
    }

    #[test]
    fn blocking_calls_and_common_methods() {
        let src = "\
fn f(p: &str) {
    let text = fs::read_to_string(p);
    text.map(|t| t.len());
    helper(p);
}
";
        let ix = index("crates/serve/src/x.rs", src);
        let kinds: Vec<&EventKind> = ix.fns[0].events.iter().map(|e| &e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                &EventKind::Blocking {
                    pat: "fs::read_to_string".into()
                },
                &EventKind::Call {
                    callee: "helper".into(),
                    receiver: Receiver::Free,
                },
            ]
        );
    }

    #[test]
    fn tel_consts_and_tags() {
        let names = "\
pub const ROUTER_TICKS: &str = \"router_ticks\";
pub static ALL: &[&str] = &[ROUTER_TICKS];
";
        let nix = index(NAMES_PATH, names);
        assert_eq!(nix.tel_consts.len(), 2);
        assert_eq!(nix.tel_consts[0].value, "router_ticks");
        assert_eq!(nix.tel_consts[1].name, "ALL");
        assert_eq!(nix.tel_consts[1].value, "");

        let user = "fn f(s: &mut S) { s.inc(names::ROUTER_TICKS); }\n";
        let uix = index("crates/routing/src/lib.rs", user);
        assert_eq!(uix.tel_refs.len(), 1);
        assert_eq!(uix.tel_refs[0].name, "ROUTER_TICKS");

        let tagged = "const S: &str = \"fcn-demo/3\";\nfn validate_s() {}\n";
        let tix = index("crates/x/src/lib.rs", tagged);
        assert_eq!(tix.schema_tags.len(), 1);
        assert_eq!(tix.schema_tags[0].tag, "fcn-demo/3");
        assert!(tix.has_validator);
    }

    #[test]
    fn test_regions_are_not_indexed() {
        let src = "\
fn live() { helper(a); }
#[cfg(test)]
mod tests {
    fn fixture() { helper(b); }
}
";
        let ix = index("crates/x/src/lib.rs", src);
        assert_eq!(ix.fns.len(), 1);
        assert_eq!(ix.fns[0].name, "live");
    }
}
