//! Validates every JSON export under `target/obs-export/` against the
//! checked-in schemas in `schemas/`, as one CI step covering all formats:
//! metrics, Chrome trace, bottleneck analysis, chunk ledger, flight dumps,
//! and `inspect --json`. Run after `obs_export` and the CLI `analyze`,
//! `timeline`, `trace` and `inspect` steps so the directory is populated; exits
//! non-zero when a category is missing entirely or any document fails
//! validation.

use ocelot_svc::schema::validate;
use serde_json::Value;

/// Maps an export file name to its schema, or `None` for files the check
/// ignores (Prometheus text, folded profiles).
fn schema_for(file: &str) -> Option<&'static str> {
    match file {
        "metrics.json" => Some("metrics.schema.json"),
        _ if file.starts_with("trace") && file.ends_with(".json") => Some("trace.schema.json"),
        "bottleneck.json" | "analyze.json" => Some("bottleneck.schema.json"),
        _ if file.starts_with("ledger") && file.ends_with(".json") => Some("ledger.schema.json"),
        _ if file.starts_with("flight-") && file.ends_with(".json") => Some("flightdump.schema.json"),
        _ if file.starts_with("inspect") && file.ends_with(".json") => Some("inspect.schema.json"),
        _ => None,
    }
}

fn main() {
    let out_dir = std::path::Path::new("target/obs-export");
    let schema_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../schemas");
    let mut failures: Vec<String> = Vec::new();
    let mut checked: Vec<(String, &'static str)> = Vec::new();

    let entries = match std::fs::read_dir(out_dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("FAIL: cannot read {} ({e}) — run the obs_export example first", out_dir.display());
            std::process::exit(1);
        }
    };
    let mut files: Vec<String> =
        entries.filter_map(|e| e.ok()).filter_map(|e| e.file_name().into_string().ok()).collect();
    files.sort();

    for file in &files {
        let Some(schema_file) = schema_for(file) else { continue };
        let schema_text = match std::fs::read_to_string(format!("{schema_dir}/{schema_file}")) {
            Ok(t) => t,
            Err(e) => {
                failures.push(format!("{file}: cannot read schema {schema_file}: {e}"));
                continue;
            }
        };
        let schema: Value = match serde_json::from_str(&schema_text) {
            Ok(s) => s,
            Err(e) => {
                failures.push(format!("{schema_file} is not valid JSON: {e}"));
                continue;
            }
        };
        let text = match std::fs::read_to_string(out_dir.join(file)) {
            Ok(t) => t,
            Err(e) => {
                failures.push(format!("{file}: unreadable: {e}"));
                continue;
            }
        };
        match serde_json::from_str::<Value>(&text) {
            Ok(doc) => failures.extend(validate(&schema, &doc).into_iter().map(|err| format!("{file}: {err}"))),
            Err(e) => failures.push(format!("{file} is not valid JSON: {e}")),
        }
        checked.push((file.clone(), schema_file));
    }

    // Every schema category must have had at least one document; a refactor
    // that silently stops producing an export should fail here, not pass.
    for required in [
        "metrics.schema.json",
        "trace.schema.json",
        "bottleneck.schema.json",
        "ledger.schema.json",
        "flightdump.schema.json",
        "inspect.schema.json",
    ] {
        if !checked.iter().any(|(_, s)| *s == required) {
            failures.push(format!("no export covered {required}"));
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        eprintln!("schema_check: {} failure(s)", failures.len());
        std::process::exit(1);
    }
    for (file, schema_file) in &checked {
        println!("  {file} ✓ {schema_file}");
    }
    println!("schema_check: OK ({} document(s) validated)", checked.len());
}
