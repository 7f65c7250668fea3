//! `BENCHMARK.json` and `README.md` must agree with the in-code metric
//! catalogue and workload list.

use adrias_obs::json::{self, Json};
use adrias_perfbench::metrics::{END_TO_END, PER_LAYER};
use adrias_perfbench::spec::Workload;

fn manifest_file(relative: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string {key:?} in {entry:?}"))
}

#[test]
fn benchmark_json_mirrors_the_catalogue() {
    let doc = json::parse(&manifest_file("../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();

    let workloads = list("workloads");
    let names: Vec<&str> = workloads.iter().map(|w| field(w, "name")).collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);

    let end_to_end = list("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, m) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(field(entry, "name"), m.name);
        assert_eq!(field(entry, "unit"), m.unit, "{}", m.name);
        assert_eq!(field(entry, "better"), m.better.as_str(), "{}", m.name);
        let bound = entry.get("bound").and_then(Json::as_num);
        assert_eq!(bound, Some(m.bound), "{}", m.name);
    }

    let per_layer = list("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, m) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(field(entry, "name"), m.name);
        assert_eq!(field(entry, "unit"), m.unit, "{}", m.name);
        assert_eq!(field(entry, "better"), m.better.as_str(), "{}", m.name);
    }
}

#[test]
fn metric_names_are_unique() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total);
}

#[test]
fn readme_glossary_names_every_metric_and_workload() {
    let readme = manifest_file("README.md");
    for name in END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .chain(Workload::ALL.iter().map(|w| w.name()))
    {
        assert!(readme.contains(name), "README.md does not mention {name}");
    }
}
