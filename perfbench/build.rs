//! Records the compiler version the benchmark was built with, for the
//! stamp in every results file, and turns the metric lists of
//! `BENCHMARK.json` into the tables the benchmark reports from, so names
//! and units are declared in one place.
use std::path::Path;
use std::process::Command;

/// The string literals of a JSON text, in order. `BENCHMARK.json` holds
/// no escapes in its names and units, so none are decoded.
fn strings(json: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut chars = json.chars();
    while let Some(c) = chars.next() {
        if c == '"' {
            let mut s = String::new();
            while let Some(c) = chars.next() {
                match c {
                    '\\' => s.extend(chars.next()),
                    '"' => break,
                    c => s.push(c),
                }
            }
            out.push(s);
        }
    }
    out
}

/// `(name, unit)` of every metric under the key `list`.
fn metrics(tokens: &[String], list: &str) -> Vec<(String, String)> {
    let from = tokens
        .iter()
        .position(|t| t == list)
        .unwrap_or(tokens.len());
    let mut out = Vec::new();
    let mut name = None;
    for pair in tokens[from..].windows(2) {
        match pair[0].as_str() {
            "end_to_end" | "per_layer" | "workloads" if pair[0] != list => break,
            "name" => name = Some(pair[1].clone()),
            "unit" => out.extend(name.take().map(|n| (n, pair[1].clone()))),
            _ => {}
        }
    }
    out
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC_VERSION={version}");

    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo");
    let bench = Path::new(&manifest).join("../BENCHMARK.json");
    let json =
        std::fs::read_to_string(&bench).unwrap_or_else(|e| panic!("{}: {e}", bench.display()));
    let tokens = strings(&json);
    let mut table = String::new();
    for (list, konst) in [("end_to_end", "END_TO_END"), ("per_layer", "PER_LAYER")] {
        let ms = metrics(&tokens, list);
        assert!(!ms.is_empty(), "{}: no {list} metrics", bench.display());
        table.push_str(&format!("pub const {konst}: &[(&str, &str)] = &[\n"));
        for (name, unit) in ms {
            table.push_str(&format!("    ({name:?}, {unit:?}),\n"));
        }
        table.push_str("];\n");
    }
    let out = Path::new(&std::env::var("OUT_DIR").expect("set by cargo")).join("metrics.rs");
    std::fs::write(&out, table).unwrap_or_else(|e| panic!("{}: {e}", out.display()));
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=../BENCHMARK.json");
}
