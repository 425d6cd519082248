//! Golden bytes for stored JSON envelopes: one evaluation of gzip at
//! Test scale, interval 20,000, into a fresh store writes nine JSON
//! objects (four `profile`s, then `mappable`, `vli`, `simpoint`, `map`
//! and the `fli` lease), and the SHA-256 of each file is pinned here.
//!
//! Keys, payloads and every float the writer prints enter these bytes,
//! so a change to the JSON codec or to the envelope that alters a
//! stored byte fails this test. A change that alters them on purpose
//! bumps `SCHEMA_VERSION` and updates the table.

use cbsp_bench::experiment::evaluate_benchmark_cached;
use cbsp_par::Pool;
use cbsp_program::Scale;
use cbsp_sim::MemoryConfig;
use cbsp_store::{hex_digest, ArtifactStore, TraceCache};
use serde::Value;

/// `(stage, SHA-256 of the object file)`, sorted.
const GOLDEN: [(&str, &str); 9] = [
    (
        "fli",
        "3327b9f87b6ed7dcf9fd1e8a2a2dd97584d56de1b3cba3d64a4801a5d1fb91d3",
    ),
    (
        "map",
        "bdfd66f6f61f659c30516e744064ed710da35b752ff29acd3bf7aaf8d5fb2ced",
    ),
    (
        "mappable",
        "ad094e999a4c46a0a06bd7009948f5fb729ef46f43f7505454061f15623dc2bb",
    ),
    (
        "profile",
        "5de6f8192994024b69271c4b68758e080a6b276cc31bf197ec8c29891a3a65c2",
    ),
    (
        "profile",
        "884d3e7879766af03fc7a5a904e44753e9e24dfc46938590ed1e0ce56bf38df6",
    ),
    (
        "profile",
        "b3ad3a48d28d4cae848f45a00c46f95abf91475f62b1c9972f51bd3287a99072",
    ),
    (
        "profile",
        "ffb7a0fd62007f6e01179a2effd5db00b1ea811fda72e2bf69495c1808bcd147",
    ),
    (
        "simpoint",
        "54b95b7a8599583f3ee0139818d0ff9e8149c683f49a29ba4c8f1fd62c5c1ddc",
    ),
    (
        "vli",
        "7546740fad78c57b0ef8416041fd981fb6ba0066838c891a678f5b5f146b7e17",
    ),
];

/// Every JSON object file under `root/objects`, as its envelope's stage
/// and the SHA-256 of its bytes, sorted.
fn json_objects(root: &std::path::Path) -> Vec<(String, String)> {
    let mut found = Vec::new();
    for shard in std::fs::read_dir(root.join("objects")).expect("objects listed") {
        for entry in std::fs::read_dir(shard.expect("shard").path()).expect("shard listed") {
            let path = entry.expect("entry").path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            let bytes = std::fs::read(&path).expect("object read");
            let envelope = serde_json::parse(std::str::from_utf8(&bytes).expect("UTF-8"))
                .expect("envelope parses");
            let stage = envelope
                .as_object()
                .and_then(|fields| fields.iter().find(|(k, _)| k == "stage"))
                .map(|(_, v)| v.clone());
            let Some(Value::Str(stage)) = stage else {
                panic!("{} has no stage", path.display());
            };
            found.push((stage, hex_digest(&bytes)));
        }
    }
    found.sort();
    found
}

#[test]
fn gzip_envelopes_are_byte_identical_to_the_golden_store() {
    let dir = std::env::temp_dir().join(format!("cbsp-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).expect("store opens");
    evaluate_benchmark_cached(
        "gzip",
        Scale::Test,
        20_000,
        &MemoryConfig::table1(),
        Some(&store),
        &TraceCache::new(Some(&store)),
        &Pool::new(2),
    );
    let found = json_objects(&dir);
    let golden: Vec<(String, String)> = GOLDEN
        .iter()
        .map(|&(stage, hex)| (stage.to_string(), hex.to_string()))
        .collect();
    assert_eq!(found, golden);
    let _ = std::fs::remove_dir_all(&dir);
}
