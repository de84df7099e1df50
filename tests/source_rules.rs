//! The two source rules clippy cannot express, checked over the text of the
//! workspace (DESIGN §12.1). Clippy runs every other workspace lint.
//!
//! * `banned-config-literals`: configuration literals that `ExperimentSpec`
//!   owns must not leak outside `crates/config`, not even in a comment or a
//!   doc example.
//! * `no-float-replay`: replay-affecting code (trace framing, deterministic
//!   scheduling) must be float-free, since float arithmetic is the classic
//!   source of byte-level replay divergence. Runner analytics (`sweep.rs`)
//!   consume replay output and are out of scope, and so is `#[cfg(test)]`
//!   code.
//!
//! An exception names its rule, its file and a substring of the flagged
//! line, and carries a reason. An exception that matches nothing fails the
//! check, and so does a scope path that matches no `.rs` file, so neither
//! list can rot.

use std::path::Path;

/// One text rule: the files it scans and the hits it finds in a file.
struct Rule {
    id: &'static str,
    /// Workspace-relative path prefixes the rule scans.
    paths: &'static [&'static str],
    /// Prefixes inside `paths` that it skips.
    exclude: &'static [&'static str],
    /// The 1-based lines of a source text that break the rule, each with
    /// a message.
    scan: fn(&str) -> Vec<(usize, String)>,
}

/// A justified exception to a rule.
struct Exception {
    rule: &'static str,
    path: &'static str,
    /// A substring of the flagged line.
    contains: &'static str,
    reason: &'static str,
}

const RULES: &[Rule] = &[
    Rule {
        id: "banned-config-literals",
        paths: &["crates", "src", "tests"],
        // This file names the literals it bans.
        exclude: &["crates/config", "tests/source_rules.rs"],
        scan: banned_literals,
    },
    Rule {
        id: "no-float-replay",
        paths: &[
            "crates/traceio/src",
            "crates/runner/src/seed.rs",
            "crates/runner/src/pool.rs",
        ],
        exclude: &[],
        scan: floats,
    },
];

const EXCEPTIONS: &[Exception] = &[Exception {
    rule: "no-float-replay",
    path: "crates/traceio/src/format.rs",
    contains: "cycles",
    reason: "the header cycles field is framed bit-exactly via to_bits/from_bits and validated \
             on decode; no float arithmetic happens on the replay path",
}];

/// Configuration literals owned by `ExperimentSpec` (`crates/config`).
const BANNED: &[&str] = &[
    "scaled_down(",
    "with_endurance(1e8, 0.2)",
    "with_epoch_cycles(100_000)",
    "/ 4096.0",
    "/ 409_0.0",
];

/// Every line holding a banned literal, comments and strings included.
fn banned_literals(source: &str) -> Vec<(usize, String)> {
    let mut hits = Vec::new();
    for (i, line) in source.lines().enumerate() {
        for pattern in BANNED.iter().filter(|p| line.contains(*p)) {
            hits.push((
                i + 1,
                format!("`{pattern}` outside crates/config: route it through ExperimentSpec"),
            ));
        }
    }
    hits
}

/// Every float literal and `f32`/`f64` outside comments, strings and
/// `#[cfg(test)]` items.
fn floats(source: &str) -> Vec<(usize, String)> {
    const CFG_TEST: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let tokens = lex(source);
    let mut hits = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let cfg_test = tokens
            .get(i..i + CFG_TEST.len())
            .is_some_and(|run| run.iter().zip(CFG_TEST).all(|(t, text)| t.text == text));
        if cfg_test {
            i = item_end(&tokens, i + CFG_TEST.len());
            continue;
        }
        let t = &tokens[i];
        if t.float || t.text == "f32" || t.text == "f64" {
            hits.push((
                t.line,
                format!("floating point `{}` in replay code", t.text),
            ));
        }
        i += 1;
    }
    hits
}

/// The index just past the item that starts at `tokens[i]`: past the `}`
/// closing its first `{`, or past a `;` met before any `{`.
fn item_end(tokens: &[Token], mut i: usize) -> usize {
    let mut depth = 0;
    while let Some(t) = tokens.get(i) {
        i += 1;
        match t.text.as_str() {
            "{" => depth += 1,
            "}" if depth == 1 => return i,
            "}" => depth -= 1,
            ";" if depth == 0 => return i,
            _ => {}
        }
    }
    i
}

/// An identifier, number or punctuation character of Rust source.
struct Token {
    line: usize,
    text: String,
    /// True for a float literal (`1.5`, `2e5`, `1f64`).
    float: bool,
}

/// Lexes `source` into tokens, dropping whitespace, comments, and string
/// and character literals.
fn lex(source: &str) -> Vec<Token> {
    let chars: Vec<char> = source.chars().collect();
    let at = |i: usize| chars.get(i).copied().unwrap_or('\0');
    let word = |i: usize| at(i).is_alphanumeric() || at(i) == '_';
    let mut tokens: Vec<Token> = Vec::new();
    let (mut i, mut line) = (0, 1);
    while i < chars.len() {
        let start = i;
        // Whether the text from `start` to `i` is a token, and a float.
        let (mut keep, mut float) = (false, false);
        let c = chars[i];
        if c == '/' && at(i + 1) == '/' {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            loop {
                match (at(i), at(i + 1)) {
                    ('/', '*') => (depth, i) = (depth + 1, i + 2),
                    ('*', '/') => (depth, i) = (depth - 1, i + 2),
                    ('\0', _) => break,
                    _ => i += 1,
                }
                if depth == 0 {
                    break;
                }
            }
        } else if let Some(end) = string_end(&chars, i) {
            i = end;
        } else if c == '\'' && (at(i + 1) == '\\' || at(i + 2) == '\'') {
            // A character literal; a lifetime falls through to punctuation.
            let from = if at(i + 1) == '\\' { i + 3 } else { i + 2 };
            i = (from..chars.len())
                .find(|&j| chars[j] == '\'')
                .map_or(chars.len(), |j| j + 1);
        } else if c.is_ascii_digit() {
            let mut before = tokens.iter().rev().map(|t| t.text.as_str());
            // `x.0` is a field, `..0` the end of a range.
            let field = before.next() == Some(".") && before.next() != Some(".");
            (i, float) = number(&chars, i, field);
            keep = true;
        } else if word(i) {
            while word(i) {
                i += 1;
            }
            keep = true;
        } else {
            i += 1;
            keep = !c.is_whitespace();
        }
        let text: String = chars[start..i].iter().collect();
        line += text.matches('\n').count();
        if keep {
            tokens.push(Token { line, text, float });
        }
    }
    tokens
}

/// The index just past the string literal (`"…"`, `b"…"`, `r#"…"#`, …)
/// that starts at `i`, or `None` if none starts there.
fn string_end(chars: &[char], i: usize) -> Option<usize> {
    let at = |j: usize| chars.get(j).copied().unwrap_or('\0');
    let prefix = if at(i) == 'b' && at(i + 1) == 'r' {
        2
    } else {
        usize::from(matches!(at(i), 'b' | 'r'))
    };
    if i > 0 && (at(i - 1).is_alphanumeric() || at(i - 1) == '_') && prefix > 0 {
        return None;
    }
    let hashes = (i + prefix..chars.len())
        .take_while(|&j| chars[j] == '#')
        .count();
    let open = i + prefix + hashes;
    if at(open) != '"' {
        return None;
    }
    let raw = prefix > 0 && at(i + prefix - 1) == 'r';
    let mut j = open + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' if !raw => j += 2,
            '"' if (1..=hashes).all(|k| at(j + k) == '#') => return Some(j + 1 + hashes),
            _ => j += 1,
        }
    }
    Some(chars.len())
}

/// The index just past the number literal that starts at `i`, and whether
/// it is a float. A tuple field (`x.0`) is always an integer.
fn number(chars: &[char], i: usize, field: bool) -> (usize, bool) {
    let at = |j: usize| chars.get(j).copied().unwrap_or('\0');
    let hex = at(i) == '0' && matches!(at(i + 1), 'x' | 'o' | 'b');
    let digits = |mut j: usize| {
        while at(j).is_ascii_digit() || at(j) == '_' || hex && at(j).is_ascii_hexdigit() {
            j += 1;
        }
        j
    };
    let mut j = digits(if hex { i + 2 } else { i });
    let mut float = false;
    if !hex && !field {
        let next = at(j + 1);
        if at(j) == '.' && next != '.' && !next.is_alphabetic() && next != '_' {
            (j, float) = (digits(j + 1), true);
        }
        let signed = matches!(at(j + 1), '+' | '-');
        if matches!(at(j), 'e' | 'E') && at(j + 1 + usize::from(signed)).is_ascii_digit() {
            (j, float) = (digits(j + 1 + usize::from(signed)), true);
        }
    }
    let end = (j..=chars.len())
        .find(|&k| !(at(k).is_alphanumeric() || at(k) == '_'))
        .unwrap_or(chars.len());
    let suffix: String = chars[j..end].iter().collect();
    (end, float || !hex && (suffix == "f32" || suffix == "f64"))
}

/// Every `.rs` file under `root` as a sorted `/`-separated relative path,
/// skipping `target`, `vendor` and `.git`.
fn rs_files(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir)
            .expect("readable directory")
            .flatten()
        {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if !matches!(name.to_str(), Some("target" | "vendor" | ".git")) {
                    dirs.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).expect("under the root");
                files.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    files.sort();
    files
}

/// Every failure of `rules` over the workspace at `root`: a hit no
/// exception covers, an exception that matches nothing, and a scope path
/// that matches no `.rs` file.
fn check(root: &Path, rules: &[Rule], exceptions: &[Exception]) -> Vec<String> {
    let files = rs_files(root);
    let mut used = vec![false; exceptions.len()];
    let mut failures = Vec::new();
    for rule in rules {
        for prefix in rule.paths.iter().chain(rule.exclude) {
            if !files.iter().any(|f| f.starts_with(prefix)) {
                failures.push(format!(
                    "[{}] scope path {prefix:?} matches no .rs file",
                    rule.id
                ));
            }
        }
        let in_scope = |f: &&String| {
            rule.paths.iter().any(|p| f.starts_with(p))
                && !rule.exclude.iter().any(|p| f.starts_with(p))
        };
        for file in files.iter().filter(in_scope) {
            let source = std::fs::read_to_string(root.join(file)).expect("readable source");
            for (line, message) in (rule.scan)(&source) {
                let text = source.lines().nth(line - 1).unwrap_or("").trim();
                let covered = exceptions
                    .iter()
                    .position(|e| e.rule == rule.id && e.path == file && text.contains(e.contains));
                match covered {
                    Some(k) => used[k] = true,
                    None => failures.push(format!(
                        "{file}:{line}: [{}] {message}\n    {text}",
                        rule.id
                    )),
                }
            }
        }
    }
    for (e, _) in exceptions.iter().zip(used).filter(|(_, used)| !used) {
        failures.push(format!(
            "stale exception: [{}] {} containing {:?} matches nothing (reason: {})",
            e.rule, e.path, e.contains, e.reason
        ));
    }
    failures
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn the_workspace_keeps_the_text_rules() {
    let failures = check(workspace_root(), RULES, EXCEPTIONS);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn the_float_scan_flags_float_literals_and_types() {
    for source in [
        "let x = 1.5;",
        "let n = 2e5;",
        "fn f(x: f32) {}",
        "let y = 1f64;",
        "2.;",
        "1E-3",
    ] {
        assert_eq!(floats(source).len(), 1, "{source}");
    }
    let hits = floats("fn f() -> u64 {\n    let x = 0.5;\n    x as u64\n}\n");
    assert_eq!(
        hits,
        [(2, "floating point `0.5` in replay code".to_string())]
    );
}

#[test]
fn the_float_scan_passes_integers_fields_comments_and_test_code() {
    for source in [
        "let n = 1_000;",
        "let n: u64 = 0;",
        "let a = x.0;",
        "let b = x.0.1;",
        "// 2.0",
        "/* 2.0 /* nested 3.0 */ 4.0 */",
        "let s = \"2.0\";",
        "let s = r#\"f64 \"2.0\"\"#;",
        "let c = '.'; let d = b'1';",
        "fn f<'a>(x: &'a u8) {}",
        "for i in 0..2 {}",
        "let r = 1..=2;",
        "let h = 0x2e5;",
        "let m = 1.max(2);",
        "#[cfg(test)]\nmod tests {\n    const X: f64 = 2.0;\n}\n",
        "#[cfg(test)]\nconst X: f64 = 2.0;\n",
    ] {
        assert_eq!(floats(source), [], "{source}");
    }
    // Code after a `#[cfg(test)]` item is scanned again.
    assert_eq!(
        floats("#[cfg(test)]\nmod t { }\nconst X: f32 = 0.0;\n").len(),
        2
    );
}

#[test]
fn the_banned_literal_scan_reports_pattern_and_line() {
    let hits = banned_literals("fn f() {}\n// cfg.with_epoch_cycles(100_000)\n");
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].0, 2);
}

#[test]
fn an_exception_that_matches_nothing_fails() {
    let rule = Rule {
        id: "banned-config-literals",
        paths: &["src"],
        exclude: &[],
        scan: |_| Vec::new(),
    };
    let stale = Exception {
        rule: "banned-config-literals",
        path: "src/lib.rs",
        contains: "scaled_down(",
        reason: "the literal was removed",
    };
    assert_eq!(
        check(workspace_root(), &[rule], &[stale]),
        [
            "stale exception: [banned-config-literals] src/lib.rs containing \"scaled_down(\" \
          matches nothing (reason: the literal was removed)"
        ]
    );
}

#[test]
fn a_scope_path_that_matches_no_file_fails() {
    let rule = Rule {
        id: "no-float-replay",
        paths: &["crates/traceio/src", "crates/gone/src"],
        exclude: &["crates/traceio/src/gone.rs"],
        scan: |_| Vec::new(),
    };
    assert_eq!(
        check(workspace_root(), &[rule], &[]),
        [
            "[no-float-replay] scope path \"crates/gone/src\" matches no .rs file",
            "[no-float-replay] scope path \"crates/traceio/src/gone.rs\" matches no .rs file",
        ]
    );
}
