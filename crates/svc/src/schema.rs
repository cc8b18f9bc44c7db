//! Minimal JSON-Schema validator for the checked-in export schemas.
//!
//! The observability exporters (`ocelot metrics --json`, `ocelot trace`)
//! hand-emit JSON; `schemas/*.schema.json` pin their shape and CI validates
//! every export against them. Only the subset of JSON Schema those files
//! use is implemented: `type` (string or array of strings), `required`,
//! `properties`, `items`, `minItems`, `minimum`, and `enum`. Unknown
//! keywords are ignored, matching JSON Schema's open-world semantics.

use serde_json::Value;

/// Validates `value` against `schema`, returning every violation as a
/// human-readable message with a JSON-pointer-style path. Empty means valid.
pub fn validate(schema: &Value, value: &Value) -> Vec<String> {
    let mut errors = Vec::new();
    check(schema, value, "$", &mut errors);
    errors
}

fn check(schema: &Value, value: &Value, path: &str, errors: &mut Vec<String>) {
    if let Some(ty) = schema.get("type") {
        let allowed: Vec<&str> = match ty {
            Value::String(s) => vec![s.as_str()],
            Value::Array(items) => items.iter().filter_map(Value::as_str).collect(),
            _ => Vec::new(),
        };
        if !allowed.is_empty() && !allowed.iter().any(|t| type_matches(t, value)) {
            errors.push(format!("{path}: expected type {}, got {}", allowed.join("|"), value.kind()));
            return; // structural keywords below assume the right type
        }
    }
    if let Some(Value::Array(options)) = schema.get("enum") {
        if !options.iter().any(|o| o == value) {
            errors.push(format!("{path}: {value} is not one of the allowed values"));
        }
    }
    if let Some(min) = schema.get("minimum").and_then(Value::as_f64) {
        if let Some(v) = value.as_f64() {
            if v < min {
                errors.push(format!("{path}: {v} is below the minimum {min}"));
            }
        }
    }
    if let Some(Value::Array(required)) = schema.get("required") {
        if let Some(entries) = value.as_object() {
            for key in required.iter().filter_map(Value::as_str) {
                if !entries.iter().any(|(k, _)| k == key) {
                    errors.push(format!("{path}: missing required property '{key}'"));
                }
            }
        }
    }
    if let Some(props) = schema.get("properties").and_then(Value::as_object) {
        if let Some(entries) = value.as_object() {
            for (key, sub) in props {
                if let Some((_, v)) = entries.iter().find(|(k, _)| k == key) {
                    check(sub, v, &format!("{path}.{key}"), errors);
                }
            }
        }
    }
    if let Some(items) = value.as_array() {
        if let Some(min) = schema.get("minItems").and_then(Value::as_u64) {
            if (items.len() as u64) < min {
                errors.push(format!("{path}: has {} item(s), schema requires at least {min}", items.len()));
            }
        }
        if let Some(item_schema) = schema.get("items") {
            for (i, item) in items.iter().enumerate() {
                check(item_schema, item, &format!("{path}[{i}]"), errors);
            }
        }
    }
}

fn type_matches(ty: &str, value: &Value) -> bool {
    match ty {
        "null" => matches!(value, Value::Null),
        "boolean" => matches!(value, Value::Bool(_)),
        "integer" => matches!(value, Value::UInt(_) | Value::Int(_)),
        "number" => matches!(value, Value::UInt(_) | Value::Int(_) | Value::Float(_)),
        "string" => matches!(value, Value::String(_)),
        "array" => matches!(value, Value::Array(_)),
        "object" => matches!(value, Value::Object(_)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Value {
        serde_json::from_str(s).unwrap()
    }

    #[test]
    fn validates_types_required_and_enums() {
        let schema = parse(
            r#"{"type":"object","required":["a","b"],"properties":{
                "a":{"type":"string"},
                "b":{"enum":["x","y"]},
                "c":{"type":["number","string"]}}}"#,
        );
        assert!(validate(&schema, &parse(r#"{"a":"hi","b":"x","c":1.5}"#)).is_empty());
        assert!(validate(&schema, &parse(r#"{"a":"hi","b":"y","c":"s"}"#)).is_empty());

        let errs = validate(&schema, &parse(r#"{"a":3,"b":"z"}"#));
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs[0].contains("$.a") && errs[0].contains("string"));
        assert!(errs[1].contains("$.b"));

        let errs = validate(&schema, &parse(r#"{"a":"hi"}"#));
        assert!(errs.iter().any(|e| e.contains("missing required property 'b'")), "{errs:?}");
    }

    #[test]
    fn validates_arrays_items_and_min_items() {
        let schema = parse(
            r#"{"type":"array","minItems":2,"items":{"type":"object","required":["n"],
                "properties":{"n":{"type":"integer"}}}}"#,
        );
        assert!(validate(&schema, &parse(r#"[{"n":1},{"n":2}]"#)).is_empty());
        let errs = validate(&schema, &parse(r#"[{"n":1.5}]"#));
        assert!(errs.iter().any(|e| e.contains("at least 2")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("$[0].n")), "{errs:?}");
    }

    #[test]
    fn validates_minimum() {
        let schema = parse(
            r#"{"type":"object","properties":{"cores":{"type":"integer","minimum":1},"r":{"type":"number","minimum":0}}}"#,
        );
        assert!(validate(&schema, &parse(r#"{"cores":4,"r":0.0}"#)).is_empty());
        assert!(validate(&schema, &parse(r#"{"cores":1,"r":1.5}"#)).is_empty());
        let errs = validate(&schema, &parse(r#"{"cores":0,"r":-0.1}"#));
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs[0].contains("$.cores") && errs[0].contains("below the minimum"));
        assert!(errs[1].contains("$.r"));
        // Non-numeric values are the `type` keyword's problem, not `minimum`'s.
        let errs = validate(&parse(r#"{"minimum":3}"#), &parse(r#""str""#));
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn checked_in_schemas_parse_and_accept_real_exports() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../schemas");
        let metrics_schema: Value =
            serde_json::from_str(&std::fs::read_to_string(format!("{root}/metrics.schema.json")).unwrap()).unwrap();
        let trace_schema: Value =
            serde_json::from_str(&std::fs::read_to_string(format!("{root}/trace.schema.json")).unwrap()).unwrap();

        let obs = ocelot_obs::Obs::enabled();
        obs.inc("ocelot_test_jobs_total", "jobs");
        obs.observe("ocelot_test_lat_seconds", "latency", 0.5);

        let metrics: Value = serde_json::from_str(&ocelot_obs::export::metrics_json(obs.registry().unwrap())).unwrap();
        assert_eq!(validate(&metrics_schema, &metrics), Vec::<String>::new());

        let schedule = ocelot_obs::ledger::Schedule::new(ocelot_obs::ledger::Lifecycle {
            job: 0,
            transfer_end_s: 2.0,
            total_s: 2.0,
            ..Default::default()
        });
        let path = ocelot_obs::critpath::attribute(&schedule);
        let trace: Value = serde_json::from_str(&ocelot_obs::export::chrome_trace(&[path])).unwrap();
        assert_eq!(validate(&trace_schema, &trace), Vec::<String>::new());

        // The schemas are not vacuous: an empty export must fail minItems.
        let empty: Value = serde_json::from_str(r#"{"metrics":[]}"#).unwrap();
        assert!(!validate(&metrics_schema, &empty).is_empty());
        let empty: Value = serde_json::from_str(r#"{"displayTimeUnit":"ms","traceEvents":[]}"#).unwrap();
        assert!(!validate(&trace_schema, &empty).is_empty());
    }
}
