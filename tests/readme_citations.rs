//! README's citations stay true: every backticked `crates/…` path it
//! cites exists, every backticked `Type::member` names a `fn`, a field or
//! a `const` in a file under `crates/` that defines or implements `Type`,
//! and every backticked dotted rig metric (`executor.scan.ns_per_row`) is
//! a metric `BENCHMARK.json` declares. A rename that leaves README behind
//! fails here.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// README's inline code spans, fenced blocks left out.
fn code_spans(readme: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in readme.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// The text of every `.rs` file under `dir`.
fn rust_sources(dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(std::fs::read_to_string(&path).unwrap());
        }
    }
}

fn is_ident(s: &str) -> bool {
    s.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_alphanumeric() || c == '_')
}

/// `span` as `(Type, member)` when it reads `Type::member`, optionally
/// followed by an argument list: a CamelCase type and a snake_case
/// method or field, or a SCREAMING_CASE const. Enum variants (CamelCase
/// members) and module paths (lowercase first segments) are not names
/// of this kind.
fn type_member(span: &str) -> Option<(&str, &str)> {
    let span = span.split('(').next()?;
    let (ty, member) = span.split_once("::")?;
    let camel = ty.starts_with(|c: char| c.is_ascii_uppercase()) && is_ident(ty);
    let snake = member.starts_with(|c: char| c.is_ascii_lowercase() || c == '_');
    let screaming = member.len() > 1
        && member
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_');
    (camel && is_ident(member) && (snake || screaming)).then_some((ty, member))
}

/// `rest` starts with `word` as a whole identifier.
fn starts_with_word(rest: &str, word: &str) -> bool {
    rest.strip_prefix(word)
        .is_some_and(|after| !after.starts_with(|c: char| c.is_alphanumeric() || c == '_'))
}

/// The line declares the item `ty` (`struct`, `enum`, `trait`, `type`)
/// or opens an `impl` block whose self type is `ty`.
fn defines_or_implements(line: &str, ty: &str) -> bool {
    let line = line.trim_start();
    let line = line
        .strip_prefix("pub(crate) ")
        .or_else(|| line.strip_prefix("pub "))
        .unwrap_or(line);
    for keyword in ["struct ", "enum ", "trait ", "type "] {
        if let Some(rest) = line.strip_prefix(keyword) {
            return starts_with_word(rest, ty);
        }
    }
    let Some(mut rest) = line.strip_prefix("impl") else {
        return false;
    };
    if rest.starts_with('<') {
        let mut depth = 0;
        let end = rest.char_indices().find_map(|(i, c)| {
            depth += match c {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            (depth == 0).then_some(i + 1)
        });
        rest = &rest[end.unwrap_or(rest.len())..];
    }
    if let Some((_, self_ty)) = rest.rsplit_once(" for ") {
        rest = self_ty;
    }
    let rest = rest.trim_start();
    let path_end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(rest.len());
    rest[..path_end].rsplit("::").next() == Some(ty)
}

/// The text declares `member` as a `fn`, a field or a `const`.
fn declares_member(text: &str, member: &str) -> bool {
    text.lines().any(|line| {
        let line = line.trim_start();
        let line = line
            .strip_prefix("pub(crate) ")
            .or_else(|| line.strip_prefix("pub "))
            .unwrap_or(line);
        let line = line.strip_prefix("const ").unwrap_or(line);
        let line = line.strip_prefix("fn ").unwrap_or(line);
        line.strip_prefix(member)
            .is_some_and(|after| after.starts_with(['(', '<', ':']))
    })
}

/// Every `"name"` string of `BENCHMARK.json`: its metrics, and its
/// workloads, which no dotted span can match.
fn benchmark_names(root: &Path) -> Vec<String> {
    let json = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
    json.split("\"name\"")
        .skip(1)
        .filter_map(|rest| {
            let rest = rest.trim_start().strip_prefix(':')?.trim_start();
            let rest = rest.strip_prefix('"')?;
            Some(rest[..rest.find('"')?].to_string())
        })
        .collect()
}

/// `span` reads as a rig metric: lowercase identifiers joined by dots,
/// the first of them one of the metric families (`families`), and not a
/// file name such as `query.rs`.
fn is_metric(span: &str, families: &[&str]) -> bool {
    let mut segments = span.split('.');
    let family = segments.next().unwrap_or_default();
    let segment = |s: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    span.contains('.')
        && !span.ends_with(".rs")
        && families.contains(&family)
        && span.split('.').all(segment)
}

#[test]
fn readme_cites_only_paths_and_names_that_exist() {
    let root = repo_root();
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);

    let metrics = benchmark_names(&root);
    let families: Vec<&str> = metrics
        .iter()
        .filter_map(|name| Some(name.split_once('.')?.0))
        .collect();

    let (mut paths, mut names, mut cited_metrics, mut stale) = (0, 0, 0, Vec::new());
    for span in code_spans(&readme) {
        if is_metric(&span, &families) {
            cited_metrics += 1;
            if !metrics.contains(&span) {
                stale.push(format!("metric `{span}`"));
            }
        } else if span.starts_with("crates/") {
            paths += 1;
            let path = span.split(':').next().unwrap_or(&span);
            if !root.join(path).exists() {
                stale.push(format!("path `{span}`"));
            }
        } else if let Some((ty, member)) = type_member(&span) {
            names += 1;
            let found = sources.iter().any(|text| {
                text.lines().any(|l| defines_or_implements(l, ty)) && declares_member(text, member)
            });
            if !found {
                stale.push(format!("name `{span}`"));
            }
        }
    }
    assert!(
        paths > 0 && names > 0 && cited_metrics > 0,
        "README cites {paths} paths, {names} names and {cited_metrics} metrics"
    );
    assert!(
        stale.is_empty(),
        "README cites what crates/ or BENCHMARK.json does not hold: {stale:?}"
    );
}
