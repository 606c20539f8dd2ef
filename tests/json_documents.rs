//! Every checked-in JSON document parses with the workspace's one codec,
//! and a fresh analysis artifact for each OS flavour is byte-identical
//! after `to_json → parse → to_json`.

use std::fs;
use std::path::Path;

use embsan::analysis::AnalysisArtifact;
use embsan::emu::profile::Arch;
use embsan::guestos::{os, BuildOptions};
use embsan::obs::json;

#[test]
fn checked_in_documents_parse_and_artifacts_round_trip() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut lines = 0;
    for entry in fs::read_dir(root.join("tests/golden")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|ext| ext == "jsonl") {
            for (index, line) in fs::read_to_string(&path).unwrap().lines().enumerate() {
                json::parse(line)
                    .unwrap_or_else(|e| panic!("{}:{}: {e}", path.display(), index + 1));
                lines += 1;
            }
        }
    }
    assert!(lines > 0, "no golden trace lines found");
    let bench = json::parse(&fs::read_to_string(root.join("BENCH_throughput.json")).unwrap())
        .unwrap_or_else(|e| panic!("BENCH_throughput.json: {e}"));
    assert_eq!(
        bench.get("schema").and_then(json::Value::as_str),
        Some("embsan-bench-throughput-v1")
    );

    let opts = BuildOptions::new(Arch::Armv);
    let images = [
        ("emblinux", os::emblinux::build(&opts, &[]).unwrap()),
        ("freertos", os::freertos::build(&opts, &[]).unwrap()),
        ("liteos", os::liteos::build(&opts, &[]).unwrap()),
        ("vxworks", os::vxworks::build(&opts, &[]).unwrap()),
    ];
    for (flavour, image) in images {
        let text = AnalysisArtifact::from_image(&image).to_json();
        let reparsed = AnalysisArtifact::parse(&text).unwrap_or_else(|e| panic!("{flavour}: {e}"));
        assert_eq!(reparsed.to_json(), text, "{flavour}: artifact is not byte-stable");
    }
}
