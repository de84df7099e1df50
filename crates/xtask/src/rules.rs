//! The lint rules and the engine that runs them.
//!
//! Each rule scans one tokenized file and yields [`Finding`]s. The engine
//! walks the workspace, applies each rule to the files its configuration
//! covers, and resolves findings against the `[[allow]]` list.

use crate::config::{AllowEntry, LintConfig, RuleConfig};
use crate::tokenizer::{self, Lexed, TokKind};
use std::path::{Path, PathBuf};

/// All rule ids, in reporting order.
pub(crate) const RULE_IDS: &[&str] = &[
    "no-panic-paths",
    "indexing-without-comment",
    "no-unordered-iteration",
    "no-float-replay",
    "exhaustive-match",
    "banned-config-literals",
];

/// One lint hit.
#[derive(Debug, Clone)]
pub(crate) struct Finding {
    /// Rule id.
    pub(crate) rule: &'static str,
    /// Workspace-relative path.
    pub(crate) path: String,
    /// 1-based source line.
    pub(crate) line: u32,
    /// Human-readable description.
    pub(crate) message: String,
    /// The offending source line, trimmed (allowlist `contains` matches
    /// against this).
    pub(crate) snippet: String,
    /// Set when an `[[allow]]` entry suppressed the finding.
    pub(crate) allowed_by: Option<usize>,
}

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub(crate) struct LintOutcome {
    /// Every finding, allowed or not, in path/line order.
    pub(crate) findings: Vec<Finding>,
    /// Number of files scanned.
    pub(crate) files_scanned: usize,
    /// Indices into `config.allow` that matched nothing (stale entries).
    pub(crate) stale_allows: Vec<usize>,
    /// `(rule id, prefix)` for each `paths`/`exclude` prefix of a rule that
    /// matches no `.rs` file (stale prefixes).
    pub(crate) stale_paths: Vec<(String, String)>,
}

impl LintOutcome {
    /// Findings not covered by the allowlist.
    pub(crate) fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.allowed_by.is_none())
    }

    /// True when the run is clean: no finding outside the allowlist, no
    /// stale allowlist entry and no stale path prefix, so the configuration
    /// cannot rot.
    pub(crate) fn passes(&self) -> bool {
        self.violations().next().is_none()
            && self.stale_allows.is_empty()
            && self.stale_paths.is_empty()
    }
}

/// Recursively collects `.rs` files under `root`, skipping build products,
/// vendored code, and VCS metadata. Paths come back sorted so reports are
/// deterministic.
fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if path.is_dir() {
                if name == "target" || name == "vendor" || name == ".git" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn applies(rule: &RuleConfig, rel_path: &str) -> bool {
    rule.paths.iter().any(|p| rel_path.starts_with(p.as_str()))
        && !rule
            .exclude
            .iter()
            .any(|p| rel_path.starts_with(p.as_str()))
}

/// Source line `line` (1-based), trimmed, for snippets.
fn line_text(lines: &[&str], line: u32) -> String {
    lines
        .get(line as usize - 1)
        .map(|l| l.trim().to_string())
        .unwrap_or_default()
}

/// Per-file context shared by the token-based rules.
struct FileCtx<'a> {
    rel_path: &'a str,
    lines: &'a [&'a str],
    lexed: &'a Lexed,
    test_spans: &'a [(usize, usize)],
}

impl FileCtx<'_> {
    fn finding(&self, rule: &'static str, line: u32, message: String) -> Finding {
        Finding {
            rule,
            path: self.rel_path.to_string(),
            line,
            message,
            snippet: line_text(self.lines, line),
            allowed_by: None,
        }
    }

    fn in_test(&self, tok_idx: usize) -> bool {
        tokenizer::in_spans(self.test_spans, tok_idx)
    }
}

// ---------------------------------------------------------------------------
// Rule: no-panic-paths
// ---------------------------------------------------------------------------

/// Flags `.unwrap()`, `.expect(..)`, and the `panic!` family in hot-path
/// crates. Typed errors or `debug_assert!`-backed invariants belong there
/// instead; documented exceptions go in the allowlist.
fn rule_no_panic_paths(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    const MACROS: &[&str] = &["panic", "unreachable", "unimplemented", "todo"];
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.in_test(i) {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct(".");
        let next_paren = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        if prev_dot && next_paren && (t.text == "unwrap" || t.text == "expect") {
            out.push(ctx.finding(
                "no-panic-paths",
                t.line,
                format!(
                    ".{}() in a hot-path crate — return a typed error or \
                     guard the invariant with debug_assert!",
                    t.text
                ),
            ));
        }
        if MACROS.contains(&t.text.as_str()) && toks.get(i + 1).is_some_and(|n| n.is_punct("!")) {
            out.push(ctx.finding(
                "no-panic-paths",
                t.line,
                format!(
                    "{}! in a hot-path crate — return a typed error or \
                     guard the invariant with debug_assert!",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: indexing-without-comment
// ---------------------------------------------------------------------------

/// Keywords that can directly precede `[` without forming an index
/// expression (`&mut [T]`, `return [..]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "ref", "dyn", "as", "in", "return", "break", "else", "match", "if", "while", "impl",
    "box", "move", "static", "const", "fn", "where", "use", "crate", "pub", "let", "enum",
    "struct", "type", "unsafe", "loop", "for",
];

/// Flags `expr[index]` with a non-constant index and no nearby comment:
/// slice indexing panics on out-of-range, so hot-path code must either use
/// a checked accessor or document why the bound holds. Each distinct index
/// expression is reported once per file — the first commented occurrence
/// (or one comment at the first site) documents that expression's bound
/// for the whole file.
fn rule_indexing_without_comment(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = &ctx.lexed.tokens;
    let mut documented: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut first_hit: std::collections::BTreeMap<String, usize> =
        std::collections::BTreeMap::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_punct("[") || i == 0 || ctx.in_test(i) {
            continue;
        }
        let prev = &toks[i - 1];
        let indexes_expr = match prev.kind {
            TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
            TokKind::Punct => prev.text == "]" || prev.text == ")",
            _ => false,
        };
        if !indexes_expr {
            continue;
        }
        // Inner tokens up to the matching `]` (shallow).
        let mut depth = 1;
        let mut j = i + 1;
        let mut has_ident = false;
        let mut expr = String::new();
        while j < toks.len() && depth > 0 {
            match toks[j].kind {
                TokKind::Punct if toks[j].text == "[" => depth += 1,
                TokKind::Punct if toks[j].text == "]" => depth -= 1,
                TokKind::Ident if depth == 1 => has_ident = true,
                _ => {}
            }
            if depth > 0 {
                if !expr.is_empty() {
                    expr.push(' ');
                }
                expr.push_str(&toks[j].text);
            }
            j += 1;
        }
        // Constant indices (`x[0]`, `x[1 + 2]`) are visibly in range.
        if !has_ident {
            continue;
        }
        let commented = ctx.lexed.has_comment(t.line) || ctx.lexed.has_comment(t.line - 1);
        if commented {
            documented.insert(expr);
        } else {
            first_hit.entry(expr).or_insert_with(|| {
                out.push(
                    ctx.finding(
                        "indexing-without-comment",
                        t.line,
                        "non-constant index without a bound-justifying comment on \
                     this or the previous line (first use of this index \
                     expression in the file)"
                            .to_string(),
                    ),
                );
                out.len() - 1
            });
        }
    }
    // A commented occurrence anywhere in the file documents the
    // expression's bound, including for occurrences seen earlier: drop
    // findings whose expression turned out to be documented.
    let drop_lines: Vec<u32> = first_hit
        .iter()
        .filter(|(expr, _)| documented.contains(*expr))
        .filter_map(|(_, &idx)| out.get(idx).map(|f| f.line))
        .collect();
    out.retain(|f| {
        f.rule != "indexing-without-comment"
            || f.path != ctx.rel_path
            || !drop_lines.contains(&f.line)
    });
}

// ---------------------------------------------------------------------------
// Rule: no-unordered-iteration
// ---------------------------------------------------------------------------

/// Flags `HashMap`/`HashSet` in deterministic-output paths. Their
/// iteration order varies run to run; deterministic code wants
/// `BTreeMap`/`BTreeSet`, and proven lookup-only uses go in the allowlist.
fn rule_no_unordered_iteration(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for (i, t) in ctx.lexed.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.in_test(i) {
            continue;
        }
        if t.text == "HashMap" || t.text == "HashSet" {
            out.push(ctx.finding(
                "no-unordered-iteration",
                t.line,
                format!(
                    "{} in a deterministic output path — iteration order is \
                     nondeterministic; use BTreeMap/BTreeSet, or allowlist a \
                     proven lookup-only use",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: no-float-replay
// ---------------------------------------------------------------------------

/// Flags floating-point literals and `f32`/`f64` in replay-affecting code
/// (trace framing, deterministic scheduling): float arithmetic is the
/// classic source of byte-level replay divergence.
fn rule_no_float_replay(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for (i, t) in ctx.lexed.tokens.iter().enumerate() {
        if ctx.in_test(i) {
            continue;
        }
        let hit = match t.kind {
            TokKind::Num { float } => float,
            TokKind::Ident => t.text == "f32" || t.text == "f64",
            _ => false,
        };
        if hit {
            out.push(ctx.finding(
                "no-float-replay",
                t.line,
                format!(
                    "floating point (`{}`) in replay-affecting code — use \
                     integers or bit-exact framing",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: exhaustive-match
// ---------------------------------------------------------------------------

/// Flags `_ =>` catch-all arms in `match` expressions over the configured
/// enums (`Policy`, the coherence-state enums): a wildcard arm silently
/// absorbs newly added variants instead of forcing each site to decide.
fn rule_exhaustive_match(ctx: &FileCtx<'_>, enums: &[String], out: &mut Vec<Finding>) {
    let toks = &ctx.lexed.tokens;
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("match") || ctx.in_test(i) {
            i += 1;
            continue;
        }
        // Scrutinee runs to the body `{` at shallow depth (struct literals
        // cannot appear bare in a scrutinee, so the first shallow `{` is
        // the body).
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < toks.len() {
            if toks[j].kind == TokKind::Punct {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        if j >= toks.len() {
            break;
        }
        let body_start = j + 1;
        // Walk the arms at shallow depth inside the body.
        let mut depth = 1i32;
        let mut k = body_start;
        let mut arm_pattern: Vec<usize> = Vec::new();
        let mut in_pattern = true;
        let mut names_enum = false;
        let mut wildcard_line: Option<u32> = None;
        let mut matched_enum_name = String::new();
        while k < toks.len() && depth > 0 {
            let tk = &toks[k];
            if tk.kind == TokKind::Punct {
                match tk.text.as_str() {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => depth -= 1,
                    "=>" if depth == 1 && in_pattern => {
                        // Pattern complete: classify it.
                        for &pi in &arm_pattern {
                            if toks[pi].kind == TokKind::Ident
                                && enums.iter().any(|e| e == &toks[pi].text)
                                && toks.get(pi + 1).is_some_and(|n| n.is_punct("::"))
                            {
                                names_enum = true;
                                matched_enum_name = toks[pi].text.clone();
                            }
                        }
                        if arm_pattern.len() == 1 && toks[arm_pattern[0]].is_ident("_") {
                            wildcard_line = Some(toks[arm_pattern[0]].line);
                        }
                        arm_pattern.clear();
                        in_pattern = false;
                    }
                    "," if depth == 1 => in_pattern = true,
                    _ => {}
                }
            } else if tk.kind == TokKind::Ident && tk.text == "match" && !in_pattern {
                // Nested match inside an arm body: its own `{` bumps depth,
                // so the shallow walk already skips it.
            }
            if in_pattern
                && depth == 1
                && !(tk.kind == TokKind::Punct && (tk.text == "=>" || tk.text == ","))
            {
                arm_pattern.push(k);
            }
            // An arm whose body is a block `{...}` is not followed by `,`;
            // returning to depth 1 after the block re-opens a pattern. A
            // struct pattern's own `}` (depth back to 1 while still in the
            // pattern) must not reset the accumulator.
            if depth == 1 && !in_pattern && tk.kind == TokKind::Punct && tk.text == "}" {
                in_pattern = true;
                arm_pattern.clear();
            }
            k += 1;
        }
        if names_enum {
            if let Some(line) = wildcard_line {
                out.push(ctx.finding(
                    "exhaustive-match",
                    line,
                    format!(
                        "wildcard `_` arm in a match over `{matched_enum_name}` — \
                         list every variant so new ones are handled explicitly"
                    ),
                ));
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Rule: banned-config-literals
// ---------------------------------------------------------------------------

/// Flags configuration literals that `ExperimentSpec` owns leaking outside
/// `crates/config` (migrated from the old `tests/no_banned_literals.rs`
/// integration test; same failure mode, now with the rule id in the
/// output). Matches raw source lines, comments and strings included — a
/// literal in a doc example leaks just as surely.
fn rule_banned_config_literals(
    rel_path: &str,
    lines: &[&str],
    patterns: &[String],
    out: &mut Vec<Finding>,
) {
    for (idx, line) in lines.iter().enumerate() {
        for p in patterns {
            if line.contains(p.as_str()) {
                out.push(Finding {
                    rule: "banned-config-literals",
                    path: rel_path.to_string(),
                    line: (idx + 1) as u32,
                    message: format!(
                        "banned configuration literal `{p}` outside crates/config — \
                         route it through ExperimentSpec"
                    ),
                    snippet: line.trim().to_string(),
                    allowed_by: None,
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Runs every configured rule over the workspace at `root`.
pub(crate) fn run(root: &Path, config: &LintConfig) -> LintOutcome {
    let files = collect_rs_files(root);
    let mut findings = Vec::new();
    let mut files_scanned = 0usize;
    let empty = RuleConfig::default();
    let rule_cfg = |id: &str| config.rules.get(id).unwrap_or(&empty);

    for file in &files {
        let rel_path = rel(root, file);
        let wanted = RULE_IDS.iter().any(|id| applies(rule_cfg(id), &rel_path));
        if !wanted {
            continue;
        }
        let Ok(src) = std::fs::read_to_string(file) else {
            continue;
        };
        files_scanned += 1;
        let lines: Vec<&str> = src.lines().collect();
        let lexed = tokenizer::lex(&src);
        let test_spans = tokenizer::test_mod_spans(&lexed.tokens);
        let ctx = FileCtx {
            rel_path: &rel_path,
            lines: &lines,
            lexed: &lexed,
            test_spans: &test_spans,
        };

        if applies(rule_cfg("no-panic-paths"), &rel_path) {
            rule_no_panic_paths(&ctx, &mut findings);
        }
        if applies(rule_cfg("indexing-without-comment"), &rel_path) {
            rule_indexing_without_comment(&ctx, &mut findings);
        }
        if applies(rule_cfg("no-unordered-iteration"), &rel_path) {
            rule_no_unordered_iteration(&ctx, &mut findings);
        }
        if applies(rule_cfg("no-float-replay"), &rel_path) {
            rule_no_float_replay(&ctx, &mut findings);
        }
        let em = rule_cfg("exhaustive-match");
        if applies(em, &rel_path) {
            rule_exhaustive_match(&ctx, &em.enums, &mut findings);
        }
        let bl = rule_cfg("banned-config-literals");
        if applies(bl, &rel_path) {
            rule_banned_config_literals(&rel_path, &lines, &bl.patterns, &mut findings);
        }
    }

    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));

    // Resolve against the allowlist.
    let mut used = vec![false; config.allow.len()];
    for f in &mut findings {
        for (i, entry) in config.allow.iter().enumerate() {
            if entry.rule == f.rule
                && f.path == entry.path
                && (entry.contains.is_empty() || f.snippet.contains(&entry.contains))
            {
                f.allowed_by = Some(i);
                used[i] = true;
                break;
            }
        }
    }
    let stale_allows = used
        .iter()
        .enumerate()
        .filter(|(_, u)| !**u)
        .map(|(i, _)| i)
        .collect();
    let rel_paths: Vec<String> = files.iter().map(|f| rel(root, f)).collect();
    let stale_paths = config
        .rules
        .iter()
        .flat_map(|(id, rule)| rule.paths.iter().chain(&rule.exclude).map(move |p| (id, p)))
        .filter(|(_, p)| !rel_paths.iter().any(|f| f.starts_with(p.as_str())))
        .map(|(id, p)| (id.clone(), p.clone()))
        .collect();

    LintOutcome {
        findings,
        files_scanned,
        stale_allows,
        stale_paths,
    }
}

/// Formats one finding as a `file:line: [rule] message` diagnostic.
pub(crate) fn format_finding(f: &Finding, allow: &[AllowEntry]) -> String {
    match f.allowed_by {
        Some(i) => format!(
            "{}:{}: [{}] allowed: {} (reason: {})",
            f.path, f.line, f.rule, f.message, allow[i].reason
        ),
        None => format!(
            "{}:{}: [{}] {}\n    {}",
            f.path, f.line, f.rule, f.message, f.snippet
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer;

    fn ctx_findings(src: &str, rule: fn(&FileCtx<'_>, &mut Vec<Finding>)) -> Vec<Finding> {
        let lines: Vec<&str> = src.lines().collect();
        let lexed = tokenizer::lex(src);
        let spans = tokenizer::test_mod_spans(&lexed.tokens);
        let ctx = FileCtx {
            rel_path: "test.rs",
            lines: &lines,
            lexed: &lexed,
            test_spans: &spans,
        };
        let mut out = Vec::new();
        rule(&ctx, &mut out);
        out
    }

    #[test]
    fn panic_rule_catches_unwrap_expect_and_macros() {
        let src = "fn f() { a.unwrap(); b.expect(\"x\"); panic!(\"y\"); unreachable!(); }\n\
                   fn g() { c.unwrap_or(0); d.unwrap_or_else(|| 1); }\n";
        let hits = ctx_findings(src, rule_no_panic_paths);
        assert_eq!(hits.len(), 4);
        assert!(hits.iter().all(|f| f.line == 1));
    }

    #[test]
    fn panic_rule_skips_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { a.unwrap(); }\n}\n";
        assert!(ctx_findings(src, rule_no_panic_paths).is_empty());
    }

    #[test]
    fn indexing_rule_wants_a_comment_for_variable_indices() {
        let uncommented = "fn f(v: &[u8], i: usize) -> u8 { v[i] }\n";
        assert_eq!(
            ctx_findings(uncommented, rule_indexing_without_comment).len(),
            1
        );
        let commented =
            "fn f(v: &[u8], i: usize) -> u8 {\n    // i < v.len(): caller checked\n    v[i]\n}\n";
        assert!(ctx_findings(commented, rule_indexing_without_comment).is_empty());
        let constant = "fn f(v: &[u8]) -> u8 { v[0] }\n";
        assert!(ctx_findings(constant, rule_indexing_without_comment).is_empty());
        let array_ty = "fn f() -> [u8; 4] { [0; 4] }\nstruct S { x: [u64; 2] }\n";
        assert!(ctx_findings(array_ty, rule_indexing_without_comment).is_empty());
    }

    #[test]
    fn unordered_rule_flags_hash_collections() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        assert_eq!(ctx_findings(src, rule_no_unordered_iteration).len(), 3);
    }

    #[test]
    fn float_rule_flags_literals_and_types() {
        let src = "fn f() -> f64 { 1.5 }\nfn g() -> u64 { 42 }\n";
        let hits = ctx_findings(src, rule_no_float_replay);
        assert_eq!(hits.len(), 2); // `f64` + `1.5`
    }

    #[test]
    fn exhaustive_rule_flags_wildcards_over_configured_enums() {
        let enums = vec!["Policy".to_string()];
        let flagged = "fn f(p: Policy) -> u8 { match p { Policy::Bh => 1, _ => 0 } }\n";
        let lines: Vec<&str> = flagged.lines().collect();
        let lexed = tokenizer::lex(flagged);
        let spans = tokenizer::test_mod_spans(&lexed.tokens);
        let ctx = FileCtx {
            rel_path: "t.rs",
            lines: &lines,
            lexed: &lexed,
            test_spans: &spans,
        };
        let mut out = Vec::new();
        rule_exhaustive_match(&ctx, &enums, &mut out);
        assert_eq!(out.len(), 1);

        // Exhaustive match: clean. Wildcard over an unconfigured enum: clean.
        for clean in [
            "fn f(p: Policy) -> u8 { match p { Policy::Bh => 1, Policy::Cp => 0 } }\n",
            "fn f(x: u8) -> u8 { match x { 1 => 1, _ => 0 } }\n",
        ] {
            let lines: Vec<&str> = clean.lines().collect();
            let lexed = tokenizer::lex(clean);
            let spans = tokenizer::test_mod_spans(&lexed.tokens);
            let ctx = FileCtx {
                rel_path: "t.rs",
                lines: &lines,
                lexed: &lexed,
                test_spans: &spans,
            };
            let mut out = Vec::new();
            rule_exhaustive_match(&ctx, &enums, &mut out);
            assert!(out.is_empty(), "{clean}");
        }
    }

    #[test]
    fn a_stale_allow_entry_fails_the_run() {
        let root = std::env::temp_dir().join(format!("hllc-xtask-stale-{}", std::process::id()));
        std::fs::create_dir_all(root.join("src")).expect("temp workspace");
        std::fs::write(root.join("src/lib.rs"), "use std::collections::HashMap;\n")
            .expect("temp source");
        let rules = "[rules.no-unordered-iteration]\npaths = [\"src\"]\n";
        let live = "[[allow]]\nrule = \"no-unordered-iteration\"\npath = \"src/lib.rs\"\n\
                    reason = \"keyed lookups only\"\n";
        let stale = "[[allow]]\nrule = \"no-unordered-iteration\"\npath = \"src/gone.rs\"\n\
                     reason = \"the file was deleted\"\n";

        let clean = run(
            &root,
            &crate::config::parse(&format!("{rules}{live}")).expect("parses"),
        );
        let rotted = run(
            &root,
            &crate::config::parse(&format!("{rules}{live}{stale}")).expect("parses"),
        );
        std::fs::remove_dir_all(&root).expect("remove temp workspace");

        assert_eq!(clean.violations().count(), 0);
        assert!(clean.stale_allows.is_empty() && clean.passes());
        assert_eq!(rotted.violations().count(), 0);
        assert_eq!(rotted.stale_allows, [1]);
        assert!(!rotted.passes());
    }

    #[test]
    fn a_path_prefix_matching_no_file_fails_the_run() {
        let root = std::env::temp_dir().join(format!("hllc-xtask-paths-{}", std::process::id()));
        std::fs::create_dir_all(root.join("src")).expect("temp workspace");
        std::fs::write(root.join("src/lib.rs"), "fn f() {}\n").expect("temp source");
        let config = |paths: &str| {
            crate::config::parse(&format!(
                "[rules.no-panic-paths]\npaths = [{paths}]\nexclude = [\"src/lib.rs\"]\n"
            ))
            .expect("parses")
        };

        let clean = run(&root, &config("\"src\""));
        let rotted = run(
            &root,
            &config("\"src\", \"crates/gone/src\", \"src/gone.rs\""),
        );
        std::fs::remove_dir_all(&root).expect("remove temp workspace");

        assert!(clean.stale_paths.is_empty() && clean.passes());
        let stale = |p: &str| ("no-panic-paths".to_string(), p.to_string());
        assert_eq!(
            rotted.stale_paths,
            [stale("crates/gone/src"), stale("src/gone.rs")]
        );
        assert!(!rotted.passes());
    }

    #[test]
    fn banned_literal_rule_reports_pattern_and_line() {
        let patterns = vec!["with_epoch_cycles(100_000)".to_string()];
        let src = "fn f() { cfg.with_epoch_cycles(100_000); }\n";
        let lines: Vec<&str> = src.lines().collect();
        let mut out = Vec::new();
        rule_banned_config_literals("t.rs", &lines, &patterns, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 1);
    }
}
