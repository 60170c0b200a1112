//! Serialization helpers: edge-list text format and JSON round-trips.
//!
//! A downstream user wants to feed their own topologies in and get
//! measurable artifacts out; the text format is one `u v multiplicity` line
//! per distinct edge with a `# nodes N` header, stable across versions.

use crate::graph::{Multigraph, MultigraphBuilder, NodeId};

/// Render as the text edge-list format.
pub fn to_edge_list(g: &Multigraph) -> String {
    use std::fmt::Write;
    let mut s = format!("# nodes {}\n", g.node_count());
    for e in g.edges() {
        let _ = writeln!(s, "{} {} {}", e.u, e.v, e.multiplicity);
    }
    s
}

/// Parse the text edge-list format.
///
/// Blank lines and `#` comments (other than the mandatory first `# nodes N`
/// header) are ignored; missing multiplicity defaults to 1.
pub fn from_edge_list(text: &str) -> Result<Multigraph, String> {
    let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
    let header = lines.next().ok_or("empty input")?;
    let n: usize = header
        .strip_prefix("# nodes ")
        .ok_or_else(|| format!("expected '# nodes N' header, got {header:?}"))?
        .trim()
        .parse()
        .map_err(|e| format!("bad node count: {e}"))?;
    let mut b = MultigraphBuilder::new(n);
    for (i, line) in lines.enumerate() {
        if line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let u: NodeId = parts
            .next()
            .ok_or_else(|| format!("line {}: missing source", i + 2))?
            .parse()
            .map_err(|e| format!("line {}: bad source: {e}", i + 2))?;
        let v: NodeId = parts
            .next()
            .ok_or_else(|| format!("line {}: missing target", i + 2))?
            .parse()
            .map_err(|e| format!("line {}: bad target: {e}", i + 2))?;
        let mult: u32 = match parts.next() {
            Some(m) => m
                .parse()
                .map_err(|e| format!("line {}: bad multiplicity: {e}", i + 2))?,
            None => 1,
        };
        if (u as usize) >= n || (v as usize) >= n {
            return Err(format!("line {}: edge ({u},{v}) out of range", i + 2));
        }
        b.add_edge_mult(u, v, mult);
    }
    Ok(b.build())
}

/// Schema tag stamped on the JSON envelope emitted by [`to_json`] and
/// required by [`from_json`] — the workspace convention (`fcn-*/N`) for
/// every machine-readable artifact.
pub const JSON_SCHEMA: &str = "fcn-multigraph/1";

#[derive(serde::Serialize, serde::Deserialize)]
struct JsonEnvelope {
    schema: String,
    graph: Multigraph,
}

/// Render as a tagged JSON envelope:
/// `{"schema":"fcn-multigraph/1","graph":{…}}`.
pub fn to_json(g: &Multigraph) -> String {
    let env = JsonEnvelope {
        schema: JSON_SCHEMA.to_string(),
        graph: g.clone(),
    };
    #[expect(
        clippy::expect_used,
        reason = "serializing a derived struct of integers and strings cannot fail"
    )]
    serde_json::to_string(&env).expect("multigraph envelope serializes")
}

/// Parse a JSON-serialized multigraph, validating the schema tag.
pub fn from_json(s: &str) -> Result<Multigraph, String> {
    let env: JsonEnvelope = serde_json::from_str(s).map_err(|e| e.to_string())?;
    if env.schema != JSON_SCHEMA {
        return Err(format!(
            "wrong schema tag {:?} (want {JSON_SCHEMA:?})",
            env.schema
        ));
    }
    Ok(env.graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Multigraph {
        let mut b = MultigraphBuilder::new(4);
        b.add_edge(0, 1)
            .add_edge_mult(1, 2, 3)
            .add_edge(2, 3)
            .add_edge(3, 0);
        b.build()
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = sample();
        let text = to_edge_list(&g);
        let back = from_edge_list(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn edge_list_defaults_multiplicity() {
        let g = from_edge_list("# nodes 3\n0 1\n1 2 5\n").unwrap();
        assert_eq!(g.multiplicity(0, 1), 1);
        assert_eq!(g.multiplicity(1, 2), 5);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(from_edge_list("").is_err());
        assert!(from_edge_list("nodes 3\n0 1\n").is_err());
        assert!(from_edge_list("# nodes 2\n0 5\n").is_err());
        assert!(from_edge_list("# nodes 2\n0 x\n").is_err());
    }

    #[test]
    fn edge_list_skips_comments_and_blanks() {
        let g = from_edge_list("# nodes 2\n\n# a comment\n0 1 2\n").unwrap();
        assert_eq!(g.multiplicity(0, 1), 2);
    }

    #[test]
    fn json_roundtrip() {
        let g = sample();
        let text = to_json(&g);
        assert!(text.contains("\"schema\":\"fcn-multigraph/1\""));
        let back = from_json(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn json_rejects_untagged_and_wrong_tag() {
        let g = sample();
        let text = to_json(&g);
        let wrong = text.replace("fcn-multigraph/1", "fcn-multigraph/9");
        let err = from_json(&wrong).unwrap_err();
        assert!(err.contains("schema tag"), "{err}");
        assert!(from_json("{\"nodes\":4,\"edges\":[]}").is_err());
    }
}
