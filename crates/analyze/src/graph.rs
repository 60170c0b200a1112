//! Cross-file rules over the merged [`FileIndex`] set.
//!
//! * **TEL-DEAD** — telemetry name constants never recorded anywhere (a
//!   `names::X` reference missing from the table does not compile, so it
//!   needs no rule).
//! * **SCHEMA-DRIFT** — every `fcn-*/N` tag must carry the same version
//!   everywhere it appears: emitters, validators, and CI gate files.
//! * **BLOCKING-IN-HANDLER** — blocking socket/fs/process calls reachable
//!   from fcn-serve request handlers outside the framed I/O layer.
//! * plus the workspace halves of **SCHEMA-TAG** (duplicate tag literals,
//!   validator presence) and **TEL-NAME** (duplicate metric-name values),
//!   which moved here from the per-file pass.
//!
//! Everything operates on [`FileIndex`] only, never on raw sources.

use std::collections::{BTreeMap, BTreeSet};

use crate::index::{EventKind, FileIndex, FnItem, Receiver};
use crate::report::Finding;
use crate::rules::SERVE_IO_ALLOWLIST;
use crate::source::FileKind;

/// A function with its owning file, as used during resolution.
#[derive(Clone, Copy)]
struct FnRef<'a> {
    file: &'a FileIndex,
    item: &'a FnItem,
}

/// Call-resolution tables for the reachability pass.
struct Resolver<'a> {
    /// `(crate, impl_type, name)` → unique fn (None when ambiguous).
    typed: BTreeMap<(&'a str, &'a str, &'a str), Option<FnRef<'a>>>,
    /// `(crate, name)` → unique fn of any impl (None when ambiguous).
    by_name: BTreeMap<(&'a str, &'a str), Option<FnRef<'a>>>,
}

impl<'a> Resolver<'a> {
    fn build(indexes: &'a [FileIndex]) -> Resolver<'a> {
        let mut typed: BTreeMap<(&str, &str, &str), Option<FnRef<'a>>> = BTreeMap::new();
        let mut by_name: BTreeMap<(&str, &str), Option<FnRef<'a>>> = BTreeMap::new();
        for file in indexes {
            for item in &file.fns {
                let r = FnRef { file, item };
                let tk = (
                    file.crate_name.as_str(),
                    item.impl_type.as_str(),
                    item.name.as_str(),
                );
                typed.entry(tk).and_modify(|e| *e = None).or_insert(Some(r));
                let nk = (file.crate_name.as_str(), item.name.as_str());
                by_name
                    .entry(nk)
                    .and_modify(|e| *e = None)
                    .or_insert(Some(r));
            }
        }
        Resolver { typed, by_name }
    }

    /// Resolve one call event made from `from`.
    fn resolve(&self, from: FnRef<'a>, callee: &str, receiver: &Receiver) -> Option<FnRef<'a>> {
        let krate = from.file.crate_name.as_str();
        match receiver {
            Receiver::SelfDot => self
                .typed
                .get(&(krate, from.item.impl_type.as_str(), callee))
                .copied()
                .flatten(),
            Receiver::Type(t) => self
                .typed
                .get(&(krate, t.as_str(), callee))
                .copied()
                .flatten(),
            Receiver::Free => self.typed.get(&(krate, "", callee)).copied().flatten(),
            Receiver::Method => self.by_name.get(&(krate, callee)).copied().flatten(),
        }
    }
}

/// TEL-DEAD: table entries no file outside the table references.
fn tel_dead(indexes: &[FileIndex], out: &mut Vec<Finding>) {
    let Some(names) = indexes
        .iter()
        .find(|f| f.path == crate::index::NAMES_PATH && !f.tel_consts.is_empty())
    else {
        return; // table not in scope (path-restricted run)
    };
    let mut referenced: BTreeSet<&str> = BTreeSet::new();
    for file in indexes {
        if file.path == names.path {
            continue;
        }
        for r in &file.tel_refs {
            referenced.insert(r.name.as_str());
        }
    }
    for c in &names.tel_consts {
        if !c.value.is_empty() && !referenced.contains(c.name.as_str()) {
            out.push(Finding {
                path: names.path.clone(),
                line: c.line,
                rule: "TEL-DEAD",
                message: format!(
                    "telemetry name `{}` (\"{}\") is defined in the names table but never \
                     recorded anywhere; wire it up or retire it",
                    c.name, c.value
                ),
            });
        }
    }
}

/// SCHEMA-DRIFT: one version per tag base across emitters, validators, and
/// CI gate files.
fn schema_drift(indexes: &[FileIndex], out: &mut Vec<Finding>) {
    // base -> sorted sites (path, line, version, is_gate)
    let mut sites: BTreeMap<&str, Vec<(&str, usize, &str, bool)>> = BTreeMap::new();
    for file in indexes {
        for t in &file.schema_tags {
            let Some((base, version)) = t.tag.split_once('/') else {
                continue;
            };
            sites.entry(base).or_default().push((
                file.path.as_str(),
                t.line,
                version,
                file.kind == FileKind::Gate,
            ));
        }
    }
    for (base, mut list) in sites {
        list.sort();
        let canonical = list.iter().find(|(_, _, _, gate)| !gate);
        let Some(&(cpath, cline, cver, _)) = canonical else {
            for (path, line, ver, _) in &list {
                out.push(Finding {
                    path: path.to_string(),
                    line: *line,
                    rule: "SCHEMA-DRIFT",
                    message: format!(
                        "gate file checks `{base}/{ver}` but no source file defines a \
                         `{base}` tag: the gate guards a schema that no longer exists"
                    ),
                });
            }
            continue;
        };
        for (path, line, ver, _) in &list {
            if *ver != cver {
                out.push(Finding {
                    path: path.to_string(),
                    line: *line,
                    rule: "SCHEMA-DRIFT",
                    message: format!(
                        "schema tag drift for `{base}`: this site says `{base}/{ver}` but \
                         the canonical definition ({cpath}:{cline}) says `{base}/{cver}`; \
                         bump emitter, validator, and CI gate together"
                    ),
                });
            }
        }
    }
}

/// BLOCKING-IN-HANDLER: blocking calls reachable from fcn-serve request
/// handlers, excluding the sanctioned framed I/O layer (io.rs).
fn blocking_in_handler(indexes: &[FileIndex], out: &mut Vec<Finding>) {
    let resolver = Resolver::build(indexes);
    let mut queue: Vec<(FnRef<'_>, String)> = Vec::new();
    let mut seen: BTreeSet<(&str, usize)> = BTreeSet::new();
    for file in indexes {
        if file.crate_name != "serve" || file.kind != FileKind::Lib {
            continue;
        }
        for (i, item) in file.fns.iter().enumerate() {
            if (item.name == "serve_conn" || item.name.starts_with("handle"))
                && seen.insert((file.path.as_str(), i))
            {
                queue.push((FnRef { file, item }, item.name.clone()));
            }
        }
    }
    while let Some((f, entry)) = queue.pop() {
        if SERVE_IO_ALLOWLIST.contains(&f.file.path.as_str()) {
            continue; // the framed layer is the sanctioned blocking site
        }
        for ev in &f.item.events {
            match &ev.kind {
                EventKind::Blocking { pat } => {
                    let via = if f.item.name == entry {
                        String::new()
                    } else {
                        format!(" (via `{}`)", f.item.name)
                    };
                    out.push(Finding {
                        path: f.file.path.clone(),
                        line: ev.line,
                        rule: "BLOCKING-IN-HANDLER",
                        message: format!(
                            "blocking call `{pat}` reachable from request handler \
                             `{entry}`{via}: handlers run under the request deadline; \
                             route I/O through the framed layer (io.rs) or precompute it"
                        ),
                    });
                }
                EventKind::Call { callee, receiver } => {
                    if let Some(g) = resolver.resolve(f, callee, receiver) {
                        if g.file.crate_name == "serve" {
                            let gi = g
                                .file
                                .fns
                                .iter()
                                .position(|it| std::ptr::eq(it, g.item))
                                .unwrap_or(usize::MAX);
                            if seen.insert((g.file.path.as_str(), gi)) {
                                queue.push((g, entry.clone()));
                            }
                        }
                    }
                }
            }
        }
    }
}

/// SCHEMA-TAG, workspace half: duplicate tag literals across `.rs` files
/// and validator presence in each tag's defining file.
fn schema_tag_workspace(indexes: &[FileIndex], out: &mut Vec<Finding>) {
    let mut tag_sites: BTreeMap<&str, Vec<(&FileIndex, usize)>> = BTreeMap::new();
    for file in indexes {
        if file.kind == FileKind::Gate {
            continue; // gates grep for tags; that is their job, not drift
        }
        for t in &file.schema_tags {
            tag_sites
                .entry(t.tag.as_str())
                .or_default()
                .push((file, t.line));
        }
    }
    for (tag, sites) in &tag_sites {
        let mut files_with: Vec<&str> = sites.iter().map(|(f, _)| f.path.as_str()).collect();
        files_with.dedup();
        if files_with.len() > 1 {
            let canonical = files_with[0];
            for (f, ln) in sites.iter().filter(|(f, _)| f.path != canonical) {
                out.push(Finding {
                    path: f.path.clone(),
                    line: *ln,
                    rule: "SCHEMA-TAG",
                    message: format!(
                        "schema tag `{tag}` duplicated as a literal (canonical \
                         definition: {canonical}); reference the shared const instead"
                    ),
                });
            }
        }
        let (def, def_line) = sites[0];
        if !def.has_validator {
            out.push(Finding {
                path: def.path.clone(),
                line: def_line,
                rule: "SCHEMA-TAG",
                message: format!(
                    "schema tag `{tag}` has no matching validator in its defining file \
                     (expected a from_*/validate fn that checks the tag)"
                ),
            });
        }
    }
}

/// TEL-NAME, workspace half: duplicate metric-name values in the table.
fn tel_name_workspace(indexes: &[FileIndex], out: &mut Vec<Finding>) {
    let Some(names) = indexes.iter().find(|f| f.path == crate::index::NAMES_PATH) else {
        return;
    };
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for c in &names.tel_consts {
        if c.value.is_empty() {
            continue;
        }
        if let Some(first) = seen.get(c.value.as_str()) {
            out.push(Finding {
                path: names.path.clone(),
                line: c.line,
                rule: "TEL-NAME",
                message: format!(
                    "duplicate metric name `{}` in the names table (first defined on \
                     line {first})",
                    c.value
                ),
            });
        } else {
            seen.insert(c.value.as_str(), c.line);
        }
    }
}

/// Run every cross-file rule over the merged index set.
pub fn check_workspace(indexes: &[FileIndex]) -> Vec<Finding> {
    let mut out = Vec::new();
    schema_tag_workspace(indexes, &mut out);
    tel_name_workspace(indexes, &mut out);
    tel_dead(indexes, &mut out);
    schema_drift(indexes, &mut out);
    blocking_in_handler(indexes, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::build_index;
    use crate::source::SourceFile;

    fn indexes(sources: &[(&str, &str)]) -> Vec<FileIndex> {
        sources
            .iter()
            .map(|(p, s)| build_index(&SourceFile::parse(p, s)))
            .collect()
    }

    #[test]
    fn tel_dead_flags_unrecorded_names() {
        let names = "\
pub const LIVE: &str = \"live_total\";
pub const DEAD: &str = \"dead_total\";
";
        let user = "\
fn f(s: &mut S) {
    s.inc(names::LIVE);
}
";
        let ix = indexes(&[
            ("crates/telemetry/src/names.rs", names),
            ("crates/routing/src/lib.rs", user),
        ]);
        let out = check_workspace(&ix);
        assert!(
            out.iter()
                .any(|f| f.rule == "TEL-DEAD" && f.message.contains("`DEAD`")),
            "{out:?}"
        );
        assert!(
            !out.iter()
                .any(|f| f.rule == "TEL-DEAD" && f.message.contains("`LIVE`")),
            "{out:?}"
        );
    }

    #[test]
    fn schema_drift_catches_version_skew_and_stale_gates() {
        let emitter = "pub const S: &str = \"fcn-demo/2\";\nfn validate_s() {}\n";
        let stale = "fn emit() { let t = \"fcn-demo/1\"; }\nfn from_t() {}\n";
        let gate = "grep -q 'fcn-demo/1' out.json\ngrep -q 'fcn-gone/4' old.json\n";
        let ix = indexes(&[
            ("crates/x/src/lib.rs", emitter),
            ("crates/y/src/lib.rs", stale),
            (".github/workflows/ci.yml", gate),
        ]);
        let out = check_workspace(&ix);
        let drift: Vec<&Finding> = out.iter().filter(|f| f.rule == "SCHEMA-DRIFT").collect();
        assert!(
            drift
                .iter()
                .any(|f| f.path == "crates/y/src/lib.rs" && f.message.contains("fcn-demo/1")),
            "{drift:?}"
        );
        assert!(
            drift
                .iter()
                .any(|f| f.path == ".github/workflows/ci.yml" && f.message.contains("fcn-demo/1")),
            "{drift:?}"
        );
        assert!(
            drift
                .iter()
                .any(|f| f.message.contains("no source file defines")),
            "{drift:?}"
        );
    }

    #[test]
    fn blocking_reachable_from_handler_is_flagged_io_rs_exempt() {
        let server = "\
fn handle_frame(p: &str) {
    helper(p);
}
fn helper(p: &str) {
    let t = fs::read_to_string(p);
}
fn cold_path(p: &str) {
    let t = fs::read_to_string(p);
}
";
        let io = "fn handle_io(p: &str) { let t = fs::read_to_string(p); }\n";
        let ix = indexes(&[
            ("crates/serve/src/server.rs", server),
            ("crates/serve/src/io.rs", io),
        ]);
        let out = check_workspace(&ix);
        let hits: Vec<&Finding> = out
            .iter()
            .filter(|f| f.rule == "BLOCKING-IN-HANDLER")
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 5);
        assert!(hits[0].message.contains("`handle_frame`"));
        assert!(hits[0].message.contains("via `helper`"));
    }
}
