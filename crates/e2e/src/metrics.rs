//! The metric and workload tables. `BENCHMARK.json` at the repository root is
//! the only copy: the driver reads the file, the harness compiles it in and
//! reads it once at start-up.

use crate::json::{self, Json};
use std::sync::OnceLock;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median an end-to-end metric may worsen by;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

impl MetricDef {
    /// Counts that repeat exactly for a seed. `BENCHMARK.json` has no word
    /// for that, so they carry a small bound there and `e2e compare` holds
    /// them to equality.
    pub fn exact(&self) -> bool {
        ["wire_kb_per_hop", "pool_kb_per_instance"].contains(&self.name.as_str())
    }
}

/// `BENCHMARK.json`, as far as the harness needs it.
#[derive(Debug)]
pub struct Spec {
    pub run_seconds: u64,
    /// Name and `why` of every workload, in the file's order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text)?;
    let list = |key: &str| {
        doc.get(key).and_then(Json::as_array).ok_or_else(|| format!("'{key}' is not a list"))
    };
    let text_of = |item: &Json, key: &str| {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("an entry lacks '{key}'"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
        list(key)?
            .iter()
            .map(|m| {
                let better = match text_of(m, "better")?.as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("'better' is '{other}'")),
                };
                Ok(MetricDef {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    better,
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: doc.get("run_seconds").and_then(Json::as_f64).ok_or("no 'run_seconds'")?
            as u64,
        workloads: list("workloads")?
            .iter()
            .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
            .collect::<Result<_, String>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        parse_spec(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json as compiled in")
    })
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// `measured` in the order of `defs`, printed as a table. Every metric the
/// file names must have been measured.
pub fn report(title: &str, defs: &'static [MetricDef], measured: &[(&str, f64)]) -> Vec<Metric> {
    println!("{title:<40} {:>16}  unit", "value");
    defs.iter()
        .map(|def| {
            let (_, value) = measured
                .iter()
                .find(|(name, _)| *name == def.name)
                .unwrap_or_else(|| panic!("{} was not measured", def.name));
            println!("{:<40} {value:>16.4}  {}", def.name, def.unit);
            Metric { name: &def.name, value: *value, unit: &def.unit }
        })
        .collect()
}
