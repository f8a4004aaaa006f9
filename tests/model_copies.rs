//! Shipped models are copied where a package can only include its own
//! tree: `benchmark/models/` is a standalone copy for the benchmark
//! package, and `tests/corpus/` holds the fuzz seeds. A model that appears
//! under the same file name in two of these directories must be the same
//! program; only its `//` comments may differ.

use std::collections::BTreeMap;
use std::path::Path;

const MODEL_DIRS: [&str; 3] = ["crates/core/models", "tests/corpus", "benchmark/models"];

/// The source with every `//` comment and blank line removed.
fn without_comments(src: &str) -> String {
    src.lines()
        .map(|l| l.split("//").next().unwrap_or("").trim_end())
        .filter(|l| !l.is_empty())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn model_copies_differ_only_in_comments() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut copies: BTreeMap<String, Vec<(&str, String)>> = BTreeMap::new();
    for dir in MODEL_DIRS {
        let entries = std::fs::read_dir(root.join(dir)).unwrap_or_else(|e| panic!("{dir}: {e}"));
        for path in entries.map(|e| e.expect("dir entry").path()) {
            if path.extension().is_some_and(|x| x == "kpt") {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                let text = std::fs::read_to_string(&path).expect("model reads");
                copies
                    .entry(name)
                    .or_default()
                    .push((dir, without_comments(&text)));
            }
        }
    }
    let mut shared = 0;
    for (name, versions) in copies.iter().filter(|(_, v)| v.len() > 1) {
        shared += 1;
        let (first_dir, first) = &versions[0];
        for (dir, text) in &versions[1..] {
            assert_eq!(
                text, first,
                "{name}: {dir}/ and {first_dir}/ differ in more than comments"
            );
        }
    }
    // Ten shipped models and five fuzz seeds have a benchmark copy.
    assert!(shared >= 15, "only {shared} shared model names found");
}
