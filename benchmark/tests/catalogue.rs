//! `BENCHMARK.json` and the crate's metric catalogue must say the same
//! thing, and the result line must carry exactly the catalogue's metrics.

use facade_benchmark::report::{END_TO_END, MetricDef, PER_LAYER, RunReport, Samples};
use facade_benchmark::workloads::NAMES;
use metrics::json::{self, Json};
use std::collections::BTreeSet;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("`{key}` array"))
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).unwrap_or("")
}

fn assert_mirrors(listed: &[Json], catalogue: &[MetricDef]) {
    assert_eq!(listed.len(), catalogue.len());
    for (entry, def) in listed.iter().zip(catalogue) {
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
        let better = if def.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(text(entry, "better"), better, "{}", def.name);
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            def.bound,
            "{}",
            def.name
        );
    }
}

#[test]
fn benchmark_json_mirrors_the_catalogue() {
    let doc = manifest();
    assert_mirrors(entries(&doc, "end_to_end"), END_TO_END);
    assert_mirrors(entries(&doc, "per_layer"), PER_LAYER);
    let workloads: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(workloads, NAMES);
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    assert!(
        END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s")
    );
}

#[test]
fn metric_names_are_unique_and_well_formed() {
    let mut seen = BTreeSet::new();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(seen.insert(def.name), "{} listed twice", def.name);
        assert!(def.name.len() <= 64 && def.unit.len() <= 16);
        assert!(
            def.name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        );
        assert!(
            def.unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
    }
}

#[test]
fn the_result_line_carries_exactly_the_catalogue() {
    for (traced, catalogue) in [(false, END_TO_END), (true, PER_LAYER)] {
        let mut samples = Samples::default();
        samples.push(catalogue[0].name, 1.5);
        samples.push(catalogue[0].name, 2.5);
        samples.push(catalogue[0].name, 9.0);
        let report = RunReport {
            workload: "graph_batch",
            seed: 42,
            traced,
            attempted: 10,
            failed: 0,
            failures: Vec::new(),
            samples,
        };
        let line = report.result_json();
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).expect("result line is JSON");
        let Json::Obj(top) = &doc else {
            panic!("result is an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics is an object")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = catalogue.iter().map(|d| d.name).collect();
        assert_eq!(names, expected);
        let first = doc.get("metrics").and_then(|m| m.get(catalogue[0].name));
        assert_eq!(
            first.and_then(|m| m.get("value")).and_then(Json::as_f64),
            Some(2.5),
            "a metric reports the median of its samples"
        );
        assert_eq!(
            first.and_then(|m| m.get("unit")).and_then(Json::as_str),
            Some(catalogue[0].unit)
        );
    }
}
