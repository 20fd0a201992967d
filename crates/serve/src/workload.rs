//! Seeded workload instantiation: Q1–Q5 templates with
//! randomized-but-reproducible parameters.
//!
//! Each template takes the stock workload query from
//! [`fedlake_datagen::workload`] and substitutes its ground
//! instantiation with a seeded draw from the generator's own value
//! domains (`crates/datagen/src/datasets.rs`), so every variant is a
//! query the lake can actually answer and two runs with the same seed
//! instantiate the same variants. The parameter domains deliberately
//! span selectivities: a serve mix stresses the engine with cheap and
//! expensive instances of the same plan shape.

use fedlake_datagen::workload;
use fedlake_prng::Prng;

/// One instantiated workload query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstantiatedQuery {
    /// The template it came from (`Q1` … `Q5`).
    pub base: &'static str,
    /// Template plus parameters, e.g. `Q3[cat-12]`.
    pub label: String,
    /// The instantiated SPARQL text.
    pub sparql: String,
    /// Datasets the query touches (for subset lakes).
    pub datasets: &'static [&'static str],
}

/// Weighted draw mirroring the data generator's `pick`.
fn pick<'a>(rng: &mut Prng, options: &[(&'a str, u32)]) -> &'a str {
    weighted(rng, options).map_or("", |&(v, _)| v)
}

/// The entry a weighted draw lands on: one uniform draw below the weights'
/// sum falls in one entry's interval (the last entry's when every weight
/// is zero). `None` only for no entries.
fn weighted<'o, T>(rng: &mut Prng, options: &'o [(T, u32)]) -> Option<&'o (T, u32)> {
    let last = options.last()?;
    let total: u64 = options.iter().map(|(_, w)| u64::from(*w)).sum();
    let mut x = rng.gen_range(0..total);
    let hit = options.iter().find(|(_, w)| {
        let w = u64::from(*w);
        if x < w {
            return true;
        }
        x -= w;
        false
    });
    Some(hit.unwrap_or(last))
}

/// Instantiates template `id` with parameters drawn from `rng`.
/// `None` for ids without a template (only `Q1` … `Q5` are templated).
pub fn instantiate(id: &str, rng: &mut Prng) -> Option<InstantiatedQuery> {
    match id {
        // ChEBI name-substring filter: the suffix domain of the compound
        // name generator ("acid" ~80 % of rows, "oxide" ~5 %).
        "Q1" => {
            let q = workload::q1();
            let kind =
                pick(rng, &[("acid", 40), ("ester", 25), ("amine", 20), ("oxide", 15)]);
            Some(InstantiatedQuery {
                base: "Q1",
                label: format!("Q1[{kind}]"),
                sparql: q.sparql.replace("\"acid\"", &format!("\"{kind}\"")),
                datasets: q.datasets,
            })
        }
        // DrugBank target action: ground term inside the BGP.
        "Q2" => {
            let q = workload::q2();
            let action =
                pick(rng, &[("inhibitor", 40), ("agonist", 35), ("antagonist", 25)]);
            Some(InstantiatedQuery {
                base: "Q2",
                label: format!("Q2[{action}]"),
                sparql: q.sparql.replace("\"inhibitor\"", &format!("\"{action}\"")),
                datasets: q.datasets,
            })
        }
        // LinkedCT category: the generator emits `cat-0` … `cat-49` at
        // every scale (`ncat = 50.max(n / 40)`), so any k < 50 is a live
        // index-lookup target.
        "Q3" => {
            let q = workload::q3();
            let k = rng.gen_range(0u64..50);
            Some(InstantiatedQuery {
                base: "Q3",
                label: format!("Q3[cat-{k}]"),
                sparql: q.sparql.replace("\"cat-7\"", &format!("\"cat-{k}\"")),
                datasets: q.datasets,
            })
        }
        // SIDER frequency: skewed, never indexed.
        "Q4" => {
            let q = workload::q4();
            let freq = pick(rng, &[("common", 30), ("rare", 35), ("very rare", 35)]);
            Some(InstantiatedQuery {
                base: "Q4",
                label: format!("Q4[{freq}]"),
                sparql: q.sparql.replace("\"very rare\"", &format!("\"{freq}\"")),
                datasets: q.datasets,
            })
        }
        // TCGA expression threshold × Diseasome class: numeric range and
        // categorical equality vary independently.
        "Q5" => {
            let q = workload::q5();
            let thr = 2 + rng.gen_range(0u64..4); // 2.0 … 5.0
            let cl = pick(
                rng,
                &[
                    ("Cancer", 25),
                    ("Metabolic", 20),
                    ("Neurological", 20),
                    ("Cardiovascular", 15),
                    ("Immunological", 10),
                    ("Unclassified", 10),
                ],
            );
            Some(InstantiatedQuery {
                base: "Q5",
                label: format!("Q5[>{thr}.0,{cl}]"),
                sparql: q
                    .sparql
                    .replace("?v > 3.0", &format!("?v > {thr}.0"))
                    .replace("\"Cancer\"", &format!("\"{cl}\"")),
                datasets: q.datasets,
            })
        }
        _ => None,
    }
}

/// A weighted mix of workload templates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mix(pub Vec<(String, u32)>);

impl Default for Mix {
    /// Q1 … Q5, equally weighted.
    fn default() -> Self {
        Mix(["Q1", "Q2", "Q3", "Q4", "Q5"]
            .iter()
            .map(|q| (q.to_string(), 1))
            .collect())
    }
}

impl Mix {
    /// Parses `Q1=2,Q3=1` (weight 1 when omitted: `Q1,Q3`).
    pub fn parse(s: &str) -> Result<Mix, String> {
        let mut out = Vec::new();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (id, w) = match part.split_once('=') {
                Some((id, w)) => {
                    (id.trim(), w.trim().parse::<u32>().map_err(|e| format!("{part}: {e}"))?)
                }
                None => (part, 1),
            };
            let id = id.to_ascii_uppercase();
            if !matches!(id.as_str(), "Q1" | "Q2" | "Q3" | "Q4" | "Q5") {
                return Err(format!("{id}: not a templated workload query (Q1…Q5)"));
            }
            if w == 0 {
                return Err(format!("{id}: weight must be positive"));
            }
            out.push((id, w));
        }
        if out.is_empty() {
            return Err("empty mix".into());
        }
        Ok(Mix(out))
    }

    /// Draws one template id; `None` for a mix with no entry.
    pub(crate) fn draw(&self, rng: &mut Prng) -> Option<&str> {
        weighted(rng, &self.0).map(|(id, _)| id.as_str())
    }

    /// All dataset ids the mix can touch, deduplicated in first-use order
    /// (the lake a serve run needs).
    pub fn datasets(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for (id, _) in &self.0 {
            if let Some(q) = workload::by_id(id) {
                for d in q.datasets {
                    if !out.contains(d) {
                        out.push(d);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instantiation_is_seeded() {
        for id in ["Q1", "Q2", "Q3", "Q4", "Q5"] {
            let a = instantiate(id, &mut Prng::seed_from_u64(9)).unwrap();
            let b = instantiate(id, &mut Prng::seed_from_u64(9)).unwrap();
            assert_eq!(a, b);
            assert!(a.label.starts_with(id));
            fedlake_sparql::parser::parse_query(&a.sparql).expect("variant parses");
        }
        assert!(instantiate("QM", &mut Prng::seed_from_u64(9)).is_none());
    }

    #[test]
    fn variants_cover_the_domain() {
        let mut seen = std::collections::BTreeSet::new();
        for s in 0..64 {
            seen.insert(instantiate("Q3", &mut Prng::seed_from_u64(s)).unwrap().label);
        }
        assert!(seen.len() > 8, "64 seeds drew only {} Q3 variants", seen.len());
    }

    #[test]
    fn mix_parses() {
        let m = Mix::parse("Q1=2, q3").unwrap();
        assert_eq!(m.0, vec![("Q1".to_string(), 2), ("Q3".to_string(), 1)]);
        assert!(Mix::parse("Q9").is_err());
        assert!(Mix::parse("").is_err());
        assert!(Mix::parse("Q1=0").is_err());
        let ds = m.datasets();
        assert!(ds.contains(&"chebi") && ds.contains(&"linkedct"));
    }

    #[test]
    fn a_mix_draws_by_weight_and_an_empty_one_draws_nothing() {
        let mut rng = Prng::seed_from_u64(7);
        assert_eq!(Mix(Vec::new()).draw(&mut rng), None);
        let m = Mix(vec![("Q1".into(), 0), ("Q2".into(), 3), ("Q3".into(), 0)]);
        assert!((0..50).all(|_| m.draw(&mut rng) == Some("Q2")));
    }
}
