//! The committed reference outputs (`reference.json`): at the reference
//! seed, every printed β̂ per (workload, machine) and the Table 4 class
//! columns. `fcn-benchmark run --seed 1 --update-reference` regenerates it.

use serde::Value;

/// Schema tag of `reference.json` and of the per-workload observation files
/// `--update-reference` merges into it.
pub const REFERENCE_SCHEMA: &str = "fcn-benchmark-reference/1";

/// The seed the reference was recorded at.
pub const REFERENCE_SEED: u64 = 1;

/// Largest relative deviation of a β̂ from its reference that still passes.
pub const BETA_TOLERANCE: f64 = 0.02;

const COMMITTED: &str = include_str!("../reference.json");

/// Path of the committed file, relative to the repository root.
pub const PATH: &str = "crates/bench/src/bin/fcn-benchmark/reference.json";

/// Outputs observed by one or more workload runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observed {
    /// `(workload, machine, β̂)`.
    pub betas: Vec<(String, String, f64)>,
    /// `(family, β class, λ class, flux class)`.
    pub classes: Vec<(String, String, String, String)>,
}

fn s(v: &str) -> Value {
    Value::String(v.to_string())
}

fn field_str(v: &Value, key: &str) -> Result<String, String> {
    match serde::value_field(v, key).map_err(|e| e.to_string())? {
        Value::String(x) => Ok(x.clone()),
        other => Err(format!("{key}: expected a string, found {other:?}")),
    }
}

fn items<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], String> {
    match serde::value_field(v, key).map_err(|e| e.to_string())? {
        Value::Array(x) => Ok(x),
        other => Err(format!("{key}: expected a list, found {other:?}")),
    }
}

impl Observed {
    pub fn merge(&mut self, other: Observed) {
        self.betas.extend(other.betas);
        self.classes.extend(other.classes);
        self.betas.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        self.classes.sort();
    }

    /// Render with one entry per line, so diffs of the committed file read
    /// entry by entry.
    pub fn to_json(&self) -> String {
        let line = |v: Value| serde_json::to_string(&v).expect("entry renders");
        let betas: Vec<String> = self
            .betas
            .iter()
            .map(|(w, m, b)| {
                line(Value::Object(vec![
                    ("workload".into(), s(w)),
                    ("machine".into(), s(m)),
                    ("beta".into(), Value::Float(*b)),
                ]))
            })
            .collect();
        let classes: Vec<String> = self
            .classes
            .iter()
            .map(|(f, b, l, x)| {
                line(Value::Object(vec![
                    ("family".into(), s(f)),
                    ("beta_class".into(), s(b)),
                    ("lambda_class".into(), s(l)),
                    ("flux_class".into(), s(x)),
                ]))
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"{REFERENCE_SCHEMA}\",\n  \"seed\": {REFERENCE_SEED},\n  \
             \"betas\": [\n    {}\n  ],\n  \"classes\": [\n    {}\n  ]\n}}\n",
            betas.join(",\n    "),
            classes.join(",\n    ")
        )
    }

    /// Parse and check a reference or observation file.
    pub fn parse(text: &str) -> Result<Observed, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("reference: {e}"))?;
        if field_str(&v, "schema")? != REFERENCE_SCHEMA {
            return Err(format!("reference: schema is not {REFERENCE_SCHEMA}"));
        }
        let betas = items(&v, "betas")?
            .iter()
            .map(|e| {
                let beta = match serde::value_field(e, "beta").map_err(|e| e.to_string())? {
                    Value::Float(f) => *f,
                    Value::UInt(u) => *u as f64,
                    other => return Err(format!("beta: expected a number, found {other:?}")),
                };
                Ok((field_str(e, "workload")?, field_str(e, "machine")?, beta))
            })
            .collect::<Result<_, String>>()?;
        let classes = items(&v, "classes")?
            .iter()
            .map(|e| {
                Ok((
                    field_str(e, "family")?,
                    field_str(e, "beta_class")?,
                    field_str(e, "lambda_class")?,
                    field_str(e, "flux_class")?,
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(Observed { betas, classes })
    }
}

/// The committed reference.
pub fn committed() -> Result<Observed, String> {
    Observed::parse(COMMITTED)
}

/// Check observations against a reference: every β̂ within
/// [`BETA_TOLERANCE`] of its entry and every class column equal. Returns
/// the largest relative β̂ deviation.
pub fn check(observed: &Observed, reference: &Observed) -> Result<f64, String> {
    let mut worst = 0.0f64;
    for (w, m, b) in &observed.betas {
        let Some((_, _, r)) = reference
            .betas
            .iter()
            .find(|(rw, rm, _)| rw == w && rm == m)
        else {
            return Err(format!("no reference β̂ for {w} {m}"));
        };
        let dev = (b - r).abs() / r.abs().max(1e-12);
        if dev > BETA_TOLERANCE {
            return Err(format!(
                "{w} {m}: β̂ {b} deviates {dev:.4} from reference {r}"
            ));
        }
        worst = worst.max(dev);
    }
    for c in &observed.classes {
        if !reference.classes.contains(c) {
            return Err(format!("Table 4 classes {c:?} differ from the reference"));
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_round_trips_and_checks() {
        let mut a = Observed {
            betas: vec![("beta-bfs".into(), "mesh2(side=48)".into(), 82.655)],
            classes: vec![(
                "mesh2".into(),
                "n^(1/2)".into(),
                "n^(1/2)".into(),
                "n^(1/2)".into(),
            )],
        };
        a.merge(Observed::default());
        assert_eq!(Observed::parse(&a.to_json()), Ok(a.clone()));
        assert_eq!(check(&a, &a), Ok(0.0));
        let mut off = a.clone();
        off.betas[0].2 *= 1.05;
        assert!(check(&off, &a).is_err());
        off.betas[0].2 = 82.655 * 1.01;
        assert!(check(&off, &a).is_ok_and(|d| d > 0.009));
        let mut other = a.clone();
        other.classes[0].1 = "n".into();
        assert!(check(&other, &a).is_err());
    }

    #[test]
    fn committed_reference_parses() {
        let r = committed().expect("reference.json parses");
        assert!(!r.betas.is_empty() && !r.classes.is_empty());
    }
}
