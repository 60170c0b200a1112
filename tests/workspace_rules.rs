//! Workspace conventions that rustc and clippy cannot hold, checked as
//! plain scans of the committed sources, plus pins on the toolchain
//! configuration that holds the rest. Each scan is a function over file
//! text that returns `path:line: message` findings, and a test feeds it a
//! seeded violation, so a scan that cannot fire fails here too.

use std::path::{Path, PathBuf};

/// A source file: its path relative to the workspace root, and its text.
type Source = (String, String);

const NAMES_RS: &str = "crates/telemetry/src/names.rs";

const ORDERINGS: [&str; 5] = [
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// Calls that can block on the OS. In fcn-serve only the framed I/O layer
/// makes them: it polls the stop flag while reading and writes under a
/// timeout, so a stalled peer can neither outlive a deadline nor wedge a
/// drain.
const SERVE_BLOCKING: [&str; 11] = [
    ".read(",
    ".read_exact(",
    ".read_to_end(",
    ".write(",
    ".write_all(",
    ".flush(",
    "std::fs",
    "fs::",
    "std::process",
    "Command::",
    "TcpStream::connect",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap()
}

/// Push every `.rs` file under `dir` that sits in the root's or a crate's
/// `src/` directory: the library and binary sources.
fn push_sources(dir: &Path, out: &mut Vec<Source>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let rel = path.strip_prefix(root()).unwrap();
        let rel = rel.to_string_lossy().replace('\\', "/");
        if path.is_dir() && !path.ends_with("target") {
            push_sources(&path, out);
        } else if rel.ends_with(".rs")
            && (rel.starts_with("src/") || rel.split('/').nth(2) == Some("src"))
        {
            out.push((rel, std::fs::read_to_string(&path).unwrap()));
        }
    }
}

fn lib_and_bin_files() -> Vec<Source> {
    let mut files = Vec::new();
    push_sources(&root().join("src"), &mut files);
    push_sources(&root().join("crates"), &mut files);
    assert!(files.len() > 50, "too few sources: {}", files.len());
    files
}

/// The lines of `text` before its first `#[cfg(test)]`, numbered from 1.
/// Every such attribute in the tree heads a trailing test module.
fn non_test_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l))
        .take_while(|(_, l)| !l.trim_start().starts_with("#[cfg(test)]"))
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Does `line` hold `pat` with no identifier character glued to its front
/// (so `fs::` does not match `prefs::`) nor, when `whole`, to its back?
fn has_token(line: &str, pat: &str, whole: bool) -> bool {
    line.match_indices(pat).any(|(at, _)| {
        let glued_front = pat.starts_with(is_ident) && line[..at].ends_with(is_ident);
        let glued_back = whole && line[at + pat.len()..].starts_with(is_ident);
        !glued_front && !glued_back
    })
}

/// Atomic orderings outside a paragraph headed by an `// ordering:`
/// comment. The comment covers the lines after it up to the first blank.
fn undocumented_orderings(path: &str, text: &str) -> Vec<String> {
    let mut covered = false;
    let mut out = Vec::new();
    for (n, line) in non_test_lines(text) {
        let (code, comment) = line.split_once("//").unwrap_or((line, ""));
        covered = !line.trim().is_empty() && (covered || comment.contains("ordering:"));
        if let Some(pat) = ORDERINGS.iter().find(|p| code.contains(*p)) {
            if !covered {
                out.push(format!("{path}:{n}: `{pat}` with no `// ordering:` note"));
            }
        }
    }
    out
}

/// Blocking calls in fcn-serve outside its I/O layer (`io.rs` and `io/`).
fn serve_blocking_calls(path: &str, text: &str) -> Vec<String> {
    let io_layer = path == "crates/serve/src/io.rs" || path.starts_with("crates/serve/src/io/");
    if !path.starts_with("crates/serve/src/") || io_layer {
        return Vec::new();
    }
    non_test_lines(text)
        .filter_map(|(n, line)| {
            let pat = SERVE_BLOCKING.iter().find(|p| has_token(line, p, false))?;
            Some(format!("{path}:{n}: `{pat}` outside the framed I/O layer"))
        })
        .collect()
}

/// `(NAME, value)` of every `pub const NAME: &str = "value";` in `table`.
fn table_consts(table: &str) -> Vec<(&str, &str)> {
    table
        .split("\npub const ")
        .skip(1)
        .filter_map(|item| {
            let (name, rest) = item.split_once(':')?;
            let rest = rest.trim_start().strip_prefix("&str")?.trim_start();
            let value = rest.strip_prefix('=')?.trim_start().strip_prefix('"')?;
            Some((name, value.split_once('"')?.0))
        })
        .collect()
}

/// Table consts whose value `all` does not list.
fn consts_not_in_all(table: &str, all: &[&str]) -> Vec<String> {
    let consts = table_consts(table).into_iter();
    consts
        .filter(|(_, v)| !all.contains(v))
        .map(|(name, _)| format!("{NAMES_RS}: `{name}` not in ALL"))
        .collect()
}

/// Table consts that no non-test line of `sources` names.
fn dead_names(table: &str, sources: &[Source]) -> Vec<String> {
    let named = |name: &str| {
        let mut lines = sources.iter().flat_map(|(_, text)| non_test_lines(text));
        lines.any(|(_, l)| has_token(l, name, true))
    };
    let consts = table_consts(table).into_iter();
    consts
        .filter(|(name, _)| !named(name))
        .map(|(name, _)| format!("{NAMES_RS}: `{name}` is recorded nowhere"))
        .collect()
}

fn assert_none(findings: Vec<String>) {
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}

/// Run `scan` over every library and binary source; require no finding.
fn assert_tree_clean(scan: fn(&str, &str) -> Vec<String>) {
    let files = lib_and_bin_files();
    assert!(files.iter().any(|(p, _)| p == "crates/serve/src/server.rs"));
    assert_none(files.iter().flat_map(|(p, t)| scan(p, t)).collect());
}

#[test]
fn every_atomic_ordering_is_documented() {
    assert_tree_clean(undocumented_orderings);
}

#[test]
fn atomic_ordering_scan_covers_a_paragraph_but_not_past_a_blank() {
    let text = "fn f(a: &AtomicUsize) {\n    // ordering: relaxed, joined before any read\n    a.fetch_add(1, Ordering::Relaxed);\n    a.fetch_add(2, Ordering::Relaxed);\n\n    a.fetch_add(3, Ordering::Relaxed);\n}\n#[cfg(test)]\nfn g(a: &AtomicBool) { a.load(Ordering::SeqCst); }\n";
    assert_eq!(
        undocumented_orderings("x.rs", text),
        ["x.rs:6: `Ordering::Relaxed` with no `// ordering:` note"]
    );
}

#[test]
fn fcn_serve_blocks_only_in_its_io_layer() {
    assert_tree_clean(serve_blocking_calls);
}

#[test]
fn serve_scan_flags_raw_io_outside_the_io_layer() {
    let server = "crates/serve/src/server.rs";
    let seeded = "s.write_all(b\"x\")?;\nstd::fs::read(p)?;\nTcpStream::connect(a)?;\nc.read_frame(None)?;\nprefs::X;";
    assert_eq!(serve_blocking_calls(server, seeded).len(), 3);
    let raw = "s.read(b).ok();";
    assert_none(serve_blocking_calls("crates/serve/src/io.rs", raw));
    assert_none(serve_blocking_calls("crates/cli/src/main.rs", raw));
}

#[test]
fn every_telemetry_name_is_in_all_and_recorded() {
    let table = read(NAMES_RS);
    let all = fcn_telemetry::names::ALL;
    assert_none(consts_not_in_all(&table, all));
    assert_eq!(table_consts(&table).len(), all.len(), "a name twice in ALL");
    let mut sources = lib_and_bin_files();
    // The frozen benchmark's reads do not keep a name alive.
    sources.retain(|(p, _)| p != NAMES_RS && !p.contains("/fcn-benchmark/"));
    assert_none(dead_names(&table, &sources));
}

#[test]
fn name_table_scans_flag_a_const_left_out_or_unused() {
    let table = "//! Names.\npub const RUNS_TOTAL: &str = \"runs_total\";\npub const TICKS_TOTAL: &str =\n    \"ticks_total\";\npub const ALL: &[&str] = &[RUNS_TOTAL];\n";
    let consts = [("RUNS_TOTAL", "runs_total"), ("TICKS_TOTAL", "ticks_total")];
    assert_eq!(table_consts(table), consts);
    let not_in_all = consts_not_in_all(table, &["runs_total"]);
    assert_eq!(
        not_in_all,
        [format!("{NAMES_RS}: `TICKS_TOTAL` not in ALL")]
    );
    let used = |text: &str| [("a.rs".to_string(), text.to_string())];
    assert_none(dead_names(table, &used("f(RUNS_TOTAL, n::TICKS_TOTAL);")));
    let dead = dead_names(table, &used("f(RUNS_TOTAL_X);\n#[cfg(test)]\nTICKS_TOTAL;"));
    assert_eq!(dead.len(), 2, "{dead:?}");
}

/// Wall-clock reads, sleeps, hash-ordered collections, random hash state
/// and unchecked mutexes are banned by `clippy.toml` alone, so it must keep
/// banning them (CI seeds a violation and requires `cargo clippy` to fail).
#[test]
fn clippy_toml_bans_wall_clock_and_hash_order() {
    let text = read("clippy.toml");
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::thread::sleep",
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::collections::hash_map::RandomState",
        "std::sync::Mutex",
    ] {
        assert!(
            text.contains(&format!("path = \"{path}\"")),
            "clippy.toml no longer bans {path}"
        );
    }
}

/// Library code must not panic: every workspace lib root denies clippy's
/// panic-family lints, and `clippy.toml` lets tests unwrap, expect and
/// panic. A new crate whose `lib.rs` lacks the deny line would silently
/// fall outside the check, so this test lists every lib root itself.
#[test]
fn every_lib_root_denies_the_panic_family_lints() {
    let root = root();
    let mut lib_roots = vec![root.join("src/lib.rs")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ readable") {
        let lib = entry.expect("crates/ entry").path().join("src/lib.rs");
        if lib.is_file() {
            lib_roots.push(lib);
        }
    }
    assert!(lib_roots.len() > 10, "too few lib roots: {lib_roots:?}");
    let want = "#![deny(clippy::unwrap_used,clippy::expect_used,clippy::panic,clippy::todo,clippy::unimplemented)]";
    for lib in &lib_roots {
        let text = std::fs::read_to_string(lib).expect("lib root readable");
        let flat: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        assert!(
            flat.contains(want),
            "{} does not deny the panic-family clippy lints",
            lib.display()
        );
    }
    let clippy = read("clippy.toml");
    for key in [
        "allow-unwrap-in-tests",
        "allow-expect-in-tests",
        "allow-panic-in-tests",
    ] {
        assert!(
            clippy
                .lines()
                .any(|l| l.replace(' ', "") == format!("{key}=true")),
            "clippy.toml no longer sets {key} = true"
        );
    }
}
