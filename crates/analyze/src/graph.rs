//! Cross-file rules over the merged [`FileIndex`] set.
//!
//! * **LOCK-ORDER** — replays each function's event stream against the
//!   declared `lockdep::ranks` table: every `lock_ranked` acquisition made
//!   while other ranked locks are held must strictly increase the rank.
//!   Guard-returning wrappers (`fn lock(&self) -> RankedGuard<…>`) act as
//!   acquisitions at their call sites, calls are inlined one level, and the
//!   resulting acquisition graph is checked for cycles. A condvar wait
//!   while holding more than the waited lock is flagged too.
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

/// Resolution tables shared by the lock-order and reachability passes.
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

/// The rank a guard-returning wrapper acquires, if statically unambiguous:
/// the wrapper must contain exactly one ranked acquisition.
fn guard_rank(f: FnRef<'_>) -> Option<&str> {
    if !f.item.returns_guard {
        return None;
    }
    let mut rank = None;
    for ev in &f.item.events {
        if let EventKind::Acquire { rank: r, .. } = &ev.kind {
            if r.is_empty() || rank.is_some() {
                return None;
            }
            rank = Some(r.as_str());
        }
    }
    rank
}

/// Ranks a callee acquires, one level deep: its direct acquisitions plus
/// the guard wrappers it calls. Also reports whether the callee waits on a
/// condvar.
fn callee_acquires<'a>(r: &Resolver<'a>, g: FnRef<'a>) -> (Vec<&'a str>, bool) {
    let mut ranks = Vec::new();
    let mut waits = false;
    for ev in &g.item.events {
        match &ev.kind {
            EventKind::Acquire { rank, .. } if !rank.is_empty() => ranks.push(rank.as_str()),
            EventKind::Wait => waits = true,
            EventKind::Call {
                callee, receiver, ..
            } => {
                if let Some(h) = r.resolve(g, callee, receiver) {
                    if let Some(rank) = guard_rank(h) {
                        ranks.push(rank);
                    }
                }
            }
            _ => {}
        }
    }
    (ranks, waits)
}

struct Held {
    rank: String,
    depth: i32,
    var: Option<String>,
}

/// One directed acquisition: `to` taken while `from` was held.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Edge {
    from: String,
    to: String,
    path: String,
    line: usize,
}

/// LOCK-ORDER: the static lock-acquisition graph vs the declared ranks.
fn lock_order(indexes: &[FileIndex], out: &mut Vec<Finding>) {
    // The declared order: const name -> (rank, site).
    let mut ranks: BTreeMap<&str, (u32, &str, usize)> = BTreeMap::new();
    let mut by_value: BTreeMap<u32, &str> = BTreeMap::new();
    for file in indexes {
        for d in &file.rank_defs {
            ranks.insert(d.name.as_str(), (d.rank, file.path.as_str(), d.line));
            if let Some(first) = by_value.get(&d.rank) {
                if *first != d.name.as_str() {
                    out.push(Finding {
                        path: file.path.clone(),
                        line: d.line,
                        rule: "LOCK-ORDER",
                        message: format!(
                            "duplicate lock rank {}: `{}` collides with `{first}`; every \
                             lock level needs a distinct rank for the order to be total",
                            d.rank, d.name
                        ),
                    });
                }
            } else {
                by_value.insert(d.rank, d.name.as_str());
            }
        }
    }
    if ranks.is_empty() {
        return; // no lockdep table in scope (path-restricted run)
    }

    let resolver = Resolver::build(indexes);
    let mut edges: BTreeSet<Edge> = BTreeSet::new();

    for file in indexes {
        for item in &file.fns {
            let fr = FnRef { file, item };
            let mut held: Vec<Held> = Vec::new();
            let mut depth = 0i32;
            let acquire =
                |held: &Vec<Held>, edges: &mut BTreeSet<Edge>, rank: &str, line: usize| {
                    for h in held {
                        edges.insert(Edge {
                            from: h.rank.clone(),
                            to: rank.to_string(),
                            path: file.path.clone(),
                            line,
                        });
                    }
                };
            for ev in &item.events {
                match &ev.kind {
                    EventKind::Open => depth += 1,
                    EventKind::Close => {
                        depth -= 1;
                        held.retain(|h| h.depth <= depth);
                    }
                    EventKind::Acquire { rank, bound } if !rank.is_empty() => {
                        acquire(&held, &mut edges, rank, ev.line);
                        if bound.is_some() {
                            held.push(Held {
                                rank: rank.clone(),
                                depth,
                                var: bound.clone(),
                            });
                        }
                    }
                    EventKind::Wait if held.len() >= 2 => {
                        let names: Vec<&str> = held.iter().map(|h| h.rank.as_str()).collect();
                        out.push(Finding {
                            path: file.path.clone(),
                            line: ev.line,
                            rule: "LOCK-ORDER",
                            message: format!(
                                "condvar wait in `{}` while holding {} ranked locks \
                                 ({}): a wait releases only the waited lock, so every \
                                 other held lock deadlocks its next contender",
                                item.name,
                                held.len(),
                                names.join(", ")
                            ),
                        });
                    }
                    EventKind::DropVar { var } => {
                        held.retain(|h| h.var.as_deref() != Some(var.as_str()));
                    }
                    EventKind::Call {
                        callee,
                        receiver,
                        bound,
                    } => {
                        let Some(g) = resolver.resolve(fr, callee, receiver) else {
                            continue;
                        };
                        if let Some(r) = guard_rank(g) {
                            acquire(&held, &mut edges, r, ev.line);
                            if bound.is_some() {
                                held.push(Held {
                                    rank: r.to_string(),
                                    depth,
                                    var: bound.clone(),
                                });
                            }
                            continue;
                        }
                        let (acquired, waits) = callee_acquires(&resolver, g);
                        for r in acquired {
                            acquire(&held, &mut edges, r, ev.line);
                        }
                        if waits && !held.is_empty() {
                            let names: Vec<&str> = held.iter().map(|h| h.rank.as_str()).collect();
                            out.push(Finding {
                                path: file.path.clone(),
                                line: ev.line,
                                rule: "LOCK-ORDER",
                                message: format!(
                                    "`{}` calls `{}`, which waits on a condvar, while \
                                     holding {}: the held lock blocks every thread that \
                                     could satisfy the wait",
                                    item.name,
                                    g.item.name,
                                    names.join(", ")
                                ),
                            });
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    // Rank violations: any edge that does not strictly increase.
    for e in &edges {
        let (Some((rf, _, _)), Some((rt, _, _))) =
            (ranks.get(e.from.as_str()), ranks.get(e.to.as_str()))
        else {
            continue;
        };
        if rf >= rt {
            out.push(Finding {
                path: e.path.clone(),
                line: e.line,
                rule: "LOCK-ORDER",
                message: format!(
                    "lock-order violation: `{}` (rank {rt}) acquired while holding `{}` \
                     (rank {rf}); the declared order in lockdep::ranks requires strictly \
                     increasing ranks",
                    e.to, e.from
                ),
            });
        }
    }

    // Cycles in the acquisition graph (even rank-consistent tables can't
    // have them, but a table-less edge set can).
    let mut adj: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
    for e in &edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for start in nodes {
        // DFS bounded by the edge count; report a cycle through `start` once.
        let mut stack: Vec<(&str, Vec<&Edge>)> = vec![(start, Vec::new())];
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        while let Some((node, trail)) = stack.pop() {
            for &e in adj.get(node).into_iter().flatten() {
                if e.to == start {
                    let mut names: Vec<&str> = trail.iter().map(|t| t.from.as_str()).collect();
                    names.push(e.from.as_str());
                    names.push(start);
                    // canonical orientation: only report from the smallest
                    // node so each cycle appears once
                    if names.iter().min() == Some(&start) {
                        let first = trail.first().copied().unwrap_or(e);
                        out.push(Finding {
                            path: first.path.clone(),
                            line: first.line,
                            rule: "LOCK-ORDER",
                            message: format!(
                                "lock-acquisition cycle: {} -> {}; some interleaving of \
                                 these acquisitions deadlocks",
                                start,
                                names[1..].join(" -> ")
                            ),
                        });
                    }
                } else if seen.insert(e.to.as_str()) {
                    let mut t = trail.clone();
                    t.push(e);
                    stack.push((e.to.as_str(), t));
                }
            }
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
                EventKind::Call {
                    callee, receiver, ..
                } => {
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
                _ => {}
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
    lock_order(indexes, &mut out);
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

    const RANKS: &str = "\
pub const A_LOW: LockRank = LockRank::new(10, \"a\");
pub const B_HIGH: LockRank = LockRank::new(20, \"b\");
";

    #[test]
    fn inverted_nesting_is_a_violation() {
        let bad = "\
fn f(a: &M, b: &M) {
    let g = lock_ranked(b, ranks::B_HIGH);
    let h = lock_ranked(a, ranks::A_LOW);
    drop(h);
    drop(g);
}
";
        let ix = indexes(&[
            ("crates/telemetry/src/lockdep.rs", RANKS),
            ("crates/core/src/bad.rs", bad),
        ]);
        let out = check_workspace(&ix);
        let hits: Vec<&Finding> = out.iter().filter(|f| f.rule == "LOCK-ORDER").collect();
        assert_eq!(hits.len(), 1, "{out:?}");
        assert!(hits[0].message.contains("lock-order violation"));
        assert_eq!(hits[0].line, 3);
    }

    #[test]
    fn ordered_nesting_and_sequential_locks_are_clean() {
        let good = "\
fn nested(a: &M, b: &M) {
    let g = lock_ranked(a, ranks::A_LOW);
    let h = lock_ranked(b, ranks::B_HIGH);
    drop(h);
    drop(g);
}
fn sequential(a: &M, b: &M) {
    lock_ranked(b, ranks::B_HIGH).touch();
    lock_ranked(a, ranks::A_LOW).touch();
}
";
        let ix = indexes(&[
            ("crates/telemetry/src/lockdep.rs", RANKS),
            ("crates/core/src/good.rs", good),
        ]);
        let out = check_workspace(&ix);
        assert!(
            out.iter().all(|f| f.rule != "LOCK-ORDER"),
            "clean nesting flagged: {out:?}"
        );
    }

    #[test]
    fn guard_wrapper_counts_as_acquisition_across_files() {
        let wrapper = "\
impl Adm {
    fn lock(&self) -> RankedGuard<'_, u32> {
        lock_ranked(&self.m, ranks::B_HIGH)
    }
    fn nest(&self, a: &M) {
        let st = self.lock();
        let g = lock_ranked(a, ranks::A_LOW);
    }
}
";
        let ix = indexes(&[
            ("crates/telemetry/src/lockdep.rs", RANKS),
            ("crates/serve/src/adm.rs", wrapper),
        ]);
        let out = check_workspace(&ix);
        assert!(
            out.iter()
                .any(|f| f.rule == "LOCK-ORDER" && f.message.contains("lock-order violation")),
            "{out:?}"
        );
    }

    #[test]
    fn condvar_wait_with_two_held_locks_is_flagged() {
        let bad = "\
fn f(a: &M, b: &M, cv: &C) {
    let g = lock_ranked(a, ranks::A_LOW);
    let h = lock_ranked(b, ranks::B_HIGH);
    let (h2, _) = wait_timeout_ranked(cv, h, d);
}
";
        let ix = indexes(&[
            ("crates/telemetry/src/lockdep.rs", RANKS),
            ("crates/core/src/bad.rs", bad),
        ]);
        let out = check_workspace(&ix);
        assert!(
            out.iter()
                .any(|f| f.rule == "LOCK-ORDER" && f.message.contains("condvar wait")),
            "{out:?}"
        );
    }

    #[test]
    fn drop_releases_before_the_next_acquire() {
        let good = "\
fn f(a: &M, b: &M) {
    let g = lock_ranked(b, ranks::B_HIGH);
    drop(g);
    let h = lock_ranked(a, ranks::A_LOW);
}
";
        let ix = indexes(&[
            ("crates/telemetry/src/lockdep.rs", RANKS),
            ("crates/core/src/good.rs", good),
        ]);
        let out = check_workspace(&ix);
        assert!(out.iter().all(|f| f.rule != "LOCK-ORDER"), "{out:?}");
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
