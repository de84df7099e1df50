//! Machine-readable lint report (`lint_report.json`).

use crate::config::LintConfig;
use crate::rules::{Finding, LintOutcome, RULE_IDS};
use serde_json::Value;
use std::collections::BTreeMap;

fn num(n: u64) -> Value {
    serde_json::to_value(&n)
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<String, Value>>(),
    )
}

fn finding_json(f: &Finding, config: &LintConfig) -> Value {
    let mut pairs = vec![
        ("rule", Value::String(f.rule.to_string())),
        ("path", Value::String(f.path.clone())),
        ("line", num(u64::from(f.line))),
        ("message", Value::String(f.message.clone())),
        ("snippet", Value::String(f.snippet.clone())),
        ("allowed", Value::Bool(f.allowed_by.is_some())),
    ];
    if let Some(i) = f.allowed_by {
        pairs.push((
            "allow_reason",
            Value::String(config.allow[i].reason.clone()),
        ));
    }
    obj(pairs)
}

/// Builds the `lint_report.json` document.
pub(crate) fn build(outcome: &LintOutcome, config: &LintConfig) -> Value {
    let per_rule: Vec<Value> = RULE_IDS
        .iter()
        .map(|id| {
            let total = outcome.findings.iter().filter(|f| f.rule == *id).count();
            let allowed = outcome
                .findings
                .iter()
                .filter(|f| f.rule == *id && f.allowed_by.is_some())
                .count();
            obj(vec![
                ("id", Value::String((*id).to_string())),
                ("findings", num(total as u64)),
                ("allowed", num(allowed as u64)),
                ("violations", num((total - allowed) as u64)),
            ])
        })
        .collect();

    let findings: Vec<Value> = outcome
        .findings
        .iter()
        .map(|f| finding_json(f, config))
        .collect();

    let stale: Vec<Value> = outcome
        .stale_allows
        .iter()
        .map(|&i| {
            let e = &config.allow[i];
            obj(vec![
                ("rule", Value::String(e.rule.clone())),
                ("path", Value::String(e.path.clone())),
                ("contains", Value::String(e.contains.clone())),
                ("config_line", num(u64::from(e.line))),
            ])
        })
        .collect();

    obj(vec![
        ("schema_version", num(1)),
        ("tool", Value::String("hllc-xtask lint".to_string())),
        ("files_scanned", num(outcome.files_scanned as u64)),
        ("violations", num(outcome.violations().count() as u64)),
        ("rules", Value::Array(per_rule)),
        ("findings", Value::Array(findings)),
        ("stale_allow_entries", Value::Array(stale)),
        (
            "stale_path_prefixes",
            Value::Array(
                outcome
                    .stale_paths
                    .iter()
                    .map(|(rule, prefix)| {
                        obj(vec![
                            ("rule", Value::String(rule.clone())),
                            ("prefix", Value::String(prefix.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_violations_and_allowed_separately() {
        let outcome = LintOutcome {
            findings: vec![
                Finding {
                    rule: "no-panic-paths",
                    path: "a.rs".into(),
                    line: 1,
                    message: "m".into(),
                    snippet: "s".into(),
                    allowed_by: None,
                },
                Finding {
                    rule: "no-panic-paths",
                    path: "b.rs".into(),
                    line: 2,
                    message: "m".into(),
                    snippet: "s".into(),
                    allowed_by: Some(0),
                },
            ],
            files_scanned: 2,
            stale_allows: vec![],
            stale_paths: vec![],
        };
        let mut config = LintConfig::default();
        config.allow.push(crate::config::AllowEntry {
            rule: "no-panic-paths".into(),
            path: "b.rs".into(),
            contains: String::new(),
            reason: "documented".into(),
            line: 1,
        });
        let v = build(&outcome, &config);
        let text = serde_json::to_string(&v).expect("serializes");
        assert!(text.contains("\"violations\":1") || text.contains("\"violations\": 1"));
        assert!(text.contains("documented"));
    }
}
