//! Repository lint tasks, run in CI as `cargo run -p xtask -- lint`.
//!
//! Nine checks, all over the source tree as text (no compiler plumbing):
//!
//! 1. **unsafe-free**: every crate root (`lib.rs` / `main.rs`) must carry
//!    `#![forbid(unsafe_code)]`.
//! 2. **clock discipline**: `Instant::now` / `SystemTime` may appear only in
//!    files listed in `xtask/time_allowlist.txt` — per-cube costs feed the
//!    Monte Carlo estimator, so clock reads stay confined to modules gated
//!    behind `SolverConfig::time_accounting` or explicitly wall-clock-facing
//!    code.
//! 3. **knob documentation**: every public field of `SolverConfig` and
//!    `BatchConfig` must be named (in backticks) in DESIGN.md, and every
//!    `` `SolverConfig::x` ``, `` `BatchConfig::x` ``, `` `SolveModeConfig::x` ``
//!    or `` `EvaluatorConfig::x` `` DESIGN.md spells must be a public field
//!    that exists, so the configuration surface and its documentation cannot
//!    drift apart in either direction.
//! 4. **no parked code**: no `allow(dead_code)` attribute in any form (code
//!    that nothing calls is deleted, test-only helpers are `#[cfg(test)]`),
//!    no `allow(clippy::too_many_arguments)` either (positional plumbing is
//!    folded into one value, not waved through) and no `serde` entry in any workspace `Cargo.toml` (persistence is the
//!    two hand-written text codecs; a derive-only stub must not come back),
//!    nor a `criterion` dependency or `[[bench]]` table (measurements are
//!    made with the `benchmark/` package; a second harness must not either).
//! 5. **counters travel whole**: the non-test code of `crates/distrib/src`
//!    and `crates/experiments/src` (everything before a file's
//!    `#[cfg(test)]` module) names no individual family counter — the names
//!    are read off the `family_counters!` list in `pdsat-core`, so the next
//!    counter added there cannot be hand-threaded through the codec and the
//!    tables again.
//! 6. **batches borrow**: `crates/pdsat-core/src/oracle.rs` and the files
//!    under `oracle/` name neither `mpsc` nor `recv_timeout` — pool threads
//!    are scoped to a batch and hand their results back through their join,
//!    so the channel-fed pool (and the watchdog that polled it) cannot grow
//!    back beside them — and neither name `CubeOutcome` nor fill a
//!    `vec![…; n]` with a constructed record: results are two zeroed columns
//!    the workers write in place, not a placeholder per cube.
//! 7. **the checker stands alone**: the `[dependencies]` of
//!    `crates/checker/Cargo.toml` name no crate but `pdsat_cnf`. The checker
//!    is the trust boundary, so its propagation is a port of the solver's,
//!    never shared code; the solver may only be a dev-dependency, to emit
//!    the certificates the tests check.
//! 8. **the grid's faults come from its clients**: the non-test code of
//!    `crates/distrib/src` names neither `FaultPlan` nor `FaultState`. The
//!    grid's one fault model is its simulated client population
//!    (`ClientBehavior`), and the store's faults are bytes on disk that its
//!    tests damage directly; the injected plan is the pool's alone.
//! 9. **the checkpoint reader cannot panic**: the non-test code of
//!    `crates/distrib/src/codec.rs`, which reads checkpoint text and store
//!    files off disk, calls no `unwrap` / `expect`, invokes no `panic!`,
//!    `unreachable!`, `todo!` or `unimplemented!`, and casts nothing with
//!    `as` — numbers convert with `From` / `TryFrom`, so a model longer than
//!    `u32::MAX` variables is an error rather than a truncated index.
//!    Comments and the insides of string and character literals are not
//!    code and are not searched.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint");
            ExitCode::from(2)
        }
    }
}

/// Repository root: xtask always runs from the workspace (CARGO_MANIFEST_DIR
/// is `<root>/xtask`).
fn repo_root() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    Path::new(&manifest)
        .parent()
        .expect("xtask sits one level below the repository root")
        .to_path_buf()
}

fn lint() -> ExitCode {
    let root = repo_root();
    let mut errors: Vec<String> = Vec::new();

    check_forbid_unsafe(&root, &mut errors);
    check_clock_discipline(&root, &mut errors);
    check_knob_docs(&root, &mut errors);
    check_no_parked_code(&root, &mut errors);
    check_counters_travel_whole(&root, &mut errors);
    check_batches_borrow(&root, &mut errors);
    check_checker_stands_alone(&root, &mut errors);
    check_grid_faults_come_from_clients(&root, &mut errors);
    check_checkpoint_reader_cannot_panic(&root, &mut errors);

    if errors.is_empty() {
        println!("xtask lint: ok");
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("xtask lint: {e}");
        }
        eprintln!("xtask lint: {} error(s)", errors.len());
        ExitCode::FAILURE
    }
}

/// All `.rs` files under the given directory, recursively, sorted.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name.starts_with('.') || name == "vendor" {
                continue;
            }
            rust_files(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// Crate roots: `src/lib.rs` or `src/main.rs` of every workspace member.
fn crate_roots(root: &Path) -> Vec<PathBuf> {
    let mut roots = Vec::new();
    let mut candidates = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for d in dirs {
            candidates.push(d.join("src"));
        }
    }
    candidates.push(root.join("xtask").join("src"));
    for src in candidates {
        for name in ["lib.rs", "main.rs"] {
            let p = src.join(name);
            if p.is_file() {
                roots.push(p);
            }
        }
    }
    roots
}

fn check_forbid_unsafe(root: &Path, errors: &mut Vec<String>) {
    for path in crate_roots(root) {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                errors.push(format!("{}: unreadable: {e}", path.display()));
                continue;
            }
        };
        if !text.contains("#![forbid(unsafe_code)]") {
            errors.push(format!(
                "{}: crate root is missing #![forbid(unsafe_code)]",
                rel(root, &path)
            ));
        }
    }
}

fn check_clock_discipline(root: &Path, errors: &mut Vec<String>) {
    let allowlist_path = root.join("xtask").join("time_allowlist.txt");
    let allowlist: Vec<String> = match std::fs::read_to_string(&allowlist_path) {
        Ok(t) => t
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect(),
        Err(e) => {
            errors.push(format!("{}: unreadable: {e}", allowlist_path.display()));
            return;
        }
    };
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("src"), &mut files);
    for path in files {
        let relpath = rel(root, &path);
        if allowlist.contains(&relpath) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        for (i, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or(line);
            if code.contains("Instant::now") || code.contains("SystemTime") {
                errors.push(format!(
                    "{relpath}:{}: clock read outside xtask/time_allowlist.txt \
                     (wall-clock reads must stay behind time_accounting gates)",
                    i + 1
                ));
            }
        }
    }
    // Stale allowlist entries are errors too: the list must shrink when the
    // code stops reading clocks, or it silently rots.
    for entry in &allowlist {
        let path = root.join(entry);
        let Ok(text) = std::fs::read_to_string(&path) else {
            errors.push(format!("time_allowlist.txt: {entry}: file does not exist"));
            continue;
        };
        let used = text.lines().any(|line| {
            let code = line.split("//").next().unwrap_or(line);
            code.contains("Instant::now") || code.contains("SystemTime")
        });
        if !used {
            errors.push(format!(
                "time_allowlist.txt: {entry}: no clock reads left; remove the entry"
            ));
        }
    }
}

/// Public field names of a `pub struct <name>` block in the given file.
fn pub_fields(path: &Path, struct_name: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let header = format!("pub struct {struct_name} {{");
    let start = text
        .find(&header)
        .ok_or_else(|| format!("{}: `{header}` not found", path.display()))?;
    let body = &text[start + header.len()..];
    let end = body
        .find("\n}")
        .ok_or_else(|| format!("{}: unterminated struct {struct_name}", path.display()))?;
    let mut fields = Vec::new();
    for line in body[..end].lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("pub ") {
            if let Some(colon) = rest.find(':') {
                let name = rest[..colon].trim();
                if name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') && !name.is_empty() {
                    fields.push(name.to_string());
                }
            }
        }
    }
    if fields.is_empty() {
        return Err(format!(
            "{}: no public fields parsed for {struct_name}",
            path.display()
        ));
    }
    Ok(fields)
}

fn check_knob_docs(root: &Path, errors: &mut Vec<String>) {
    let design = match std::fs::read_to_string(root.join("DESIGN.md")) {
        Ok(t) => t,
        Err(e) => {
            errors.push(format!("DESIGN.md: unreadable: {e}"));
            return;
        }
    };
    // (file, struct, whether DESIGN.md's knob tables must list every field)
    let sources = [
        ("crates/solver/src/config.rs", "SolverConfig", true),
        ("crates/pdsat-core/src/oracle.rs", "BatchConfig", true),
        (
            "crates/pdsat-core/src/solve_mode.rs",
            "SolveModeConfig",
            false,
        ),
        ("crates/pdsat-core/src/predict.rs", "EvaluatorConfig", false),
    ];
    for (path, struct_name, tabulated) in sources {
        let fields = match pub_fields(&root.join(path), struct_name) {
            Ok(fields) => fields,
            Err(e) => {
                errors.push(e);
                continue;
            }
        };
        if tabulated {
            for f in &fields {
                let needle = format!("`{f}`");
                if !design.contains(&needle) {
                    errors.push(format!(
                        "DESIGN.md: {struct_name} knob `{f}` is undocumented \
                         (add it to the configuration-knob table)"
                    ));
                }
            }
        }
        // The reverse: prose that spells `Struct::name` names a field that
        // exists. Brace groups and method paths are not plain names and are
        // left alone.
        let prefix = format!("`{struct_name}::");
        for (at, _) in design.match_indices(&prefix) {
            let rest = &design[at + prefix.len()..];
            let Some(name) = rest.find('`').map(|end| &rest[..end]) else {
                continue;
            };
            let plain = !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
            if plain && !fields.iter().any(|f| f == name) {
                errors.push(format!(
                    "DESIGN.md: `{struct_name}::{name}` names no public field of \
                     {struct_name} in {path}"
                ));
            }
        }
    }
}

fn check_no_parked_code(root: &Path, errors: &mut Vec<String>) {
    let mut sources = Vec::new();
    for dir in ["crates", "src", "examples", "tests", "xtask"] {
        rust_files(&root.join(dir), &mut sources);
    }
    // Spelled in two halves so this file passes its own check.
    let allowance = concat!("allow(dead", "_code)");
    let advice = "delete the unused item or make it #[cfg(test)]";
    forbid(root, &sources, "//", None, allowance, advice, errors);
    let allowance = concat!("allow(clippy::too_many", "_arguments)");
    let advice = "pass one value that describes the thing (as `BackendSpec` does)";
    forbid(root, &sources, "//", None, allowance, advice, errors);

    let mut manifests = vec![root.join("Cargo.toml"), root.join("xtask/Cargo.toml")];
    for dir in ["crates", "vendor"] {
        if let Ok(entries) = std::fs::read_dir(root.join(dir)) {
            manifests.extend(entries.flatten().map(|e| e.path().join("Cargo.toml")));
        }
    }
    manifests.sort();
    let advice = "nothing serializes through it; remove the manifest entry";
    forbid(root, &manifests, "#", None, "serde", advice, errors);
    let advice = "benchmark/ is the one measuring harness; add a workload there";
    for needle in ["criterion", "[[bench]]"] {
        forbid(root, &manifests, "#", None, needle, advice, errors);
    }
}

/// The family counters' names, read off the one list that declares them
/// (the `family_counters!` invocation next to `SolveReport`).
fn family_counter_names(root: &Path) -> Result<Vec<String>, String> {
    let path = root.join("crates/pdsat-core/src/solve_mode.rs");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_family_counters(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The names a `family_counters!` invocation in `text` lists, in order: one
/// `name,` or `name: reserved,` a line — a reserved slot is still a counter
/// nothing outside the list may name.
fn parse_family_counters(text: &str) -> Result<Vec<String>, String> {
    let header = "\nfamily_counters! {\n";
    let start = text.find(header).ok_or("`family_counters! {` not found")?;
    let body = &text[start + header.len()..];
    let end = body.find("\n}").ok_or("unterminated family_counters!")?;
    let names: Vec<String> = body[..end]
        .lines()
        .map(str::trim)
        .filter(|line| !line.starts_with("//"))
        .filter_map(|line| line.strip_suffix(','))
        .map(|entry| {
            entry
                .strip_suffix(": reserved")
                .unwrap_or(entry)
                .to_string()
        })
        .collect();
    if names.is_empty() {
        return Err("no family counters parsed".to_string());
    }
    Ok(names)
}

fn check_counters_travel_whole(root: &Path, errors: &mut Vec<String>) {
    let names = match family_counter_names(root) {
        Ok(names) => names,
        Err(e) => {
            errors.push(e);
            return;
        }
    };
    let mut sources = Vec::new();
    for dir in ["crates/distrib/src", "crates/experiments/src"] {
        rust_files(&root.join(dir), &mut sources);
    }
    let advice = "carry the whole FamilyCounters value (its sum, its ordered view) \
                  instead of naming one counter";
    for name in &names {
        forbid(
            root,
            &sources,
            "//",
            Some("#[cfg(test)]"),
            name,
            advice,
            errors,
        );
    }
}

fn check_batches_borrow(root: &Path, errors: &mut Vec<String>) {
    let mut sources = vec![root.join("crates/pdsat-core/src/oracle.rs")];
    rust_files(&root.join("crates/pdsat-core/src/oracle"), &mut sources);
    let advice = "pool threads are scoped to one batch and report through their join; \
                  keep channels and their watchdog out of the oracle";
    for needle in ["mpsc", "recv_timeout"] {
        forbid(root, &sources, "//", None, needle, advice, errors);
    }
    let advice = "results come back as the zeroed `costs` / `verdicts` columns, written in \
                  place; keep the per-cube record and its placeholder fill out of the oracle";
    forbid(root, &sources, "//", None, "CubeOutcome", advice, errors);
    for path in &sources {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        for (i, line) in text.lines().enumerate() {
            if fills_with_a_record(line.split("//").next().unwrap_or(line)) {
                let at = rel(root, path);
                errors.push(format!("{at}:{}: placeholder fill: {advice}", i + 1));
            }
        }
    }
}

/// Whether `code` holds a `vec![element; n]` whose element is built by a
/// call or a struct literal.
fn fills_with_a_record(code: &str) -> bool {
    code.split("vec![").skip(1).any(|rest| {
        let inside = rest.split(']').next().unwrap_or(rest);
        let element = inside.split_once(';').map(|(element, _)| element);
        element.is_some_and(|e| e.contains(['(', '{']))
    })
}

fn check_checker_stands_alone(root: &Path, errors: &mut Vec<String>) {
    let path = root.join("crates/checker/Cargo.toml");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            errors.push(format!("{}: unreadable: {e}", path.display()));
            return;
        }
    };
    for name in dependency_names(&text) {
        if name != "pdsat_cnf" {
            errors.push(format!(
                "crates/checker/Cargo.toml: [dependencies] names `{name}`: the checker is \
                 the trust boundary and shares no code but pdsat_cnf's vocabulary (a solver \
                 crate may be a dev-dependency)"
            ));
        }
    }
}

fn check_grid_faults_come_from_clients(root: &Path, errors: &mut Vec<String>) {
    let mut sources = Vec::new();
    rust_files(&root.join("crates/distrib/src"), &mut sources);
    let advice = "the grid's faults come from its clients (`ClientBehavior`) and the \
                  store's from damaged bytes on disk; the injected plan is the pool's alone";
    let until = Some("#[cfg(test)]");
    for needle in ["FaultPlan", "FaultState"] {
        forbid(root, &sources, "//", until, needle, advice, errors);
    }
}

fn check_checkpoint_reader_cannot_panic(root: &Path, errors: &mut Vec<String>) {
    let path = root.join("crates/distrib/src/codec.rs");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            errors.push(format!("{}: unreadable: {e}", path.display()));
            return;
        }
    };
    let until = text
        .lines()
        .position(|line| line.trim() == "#[cfg(test)]")
        .unwrap_or(usize::MAX);
    let code = code_only(&text);
    for (i, line) in code.lines().enumerate().take(until) {
        for word in panicking_words(line) {
            errors.push(format!(
                "{}:{}: `{word}`: the checkpoint reader reads bytes from disk and must not \
                 panic or truncate; return a `CheckpointError` and convert with `From` / \
                 `TryFrom`",
                rel(root, &path),
                i + 1
            ));
        }
    }
}

/// The words of one line of code that can panic or truncate: calls of
/// `unwrap` / `expect`, the macros `panic!`, `unreachable!`, `todo!` and
/// `unimplemented!`, and the `as` keyword. Whole identifiers only, so
/// `unwrap_or` and `expected` pass.
fn panicking_words(line: &str) -> Vec<&'static str> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut found = Vec::new();
    let mut rest = line;
    while let Some(start) = rest.find(is_ident) {
        let tail = &rest[start..];
        let len = tail.find(|c: char| !is_ident(c)).unwrap_or(tail.len());
        let (word, after) = tail.split_at(len);
        let bang = after.starts_with('!');
        let banned = match word {
            "unwrap" => Some("unwrap"),
            "expect" => Some("expect"),
            "as" => Some("as"),
            "panic" if bang => Some("panic!"),
            "unreachable" if bang => Some("unreachable!"),
            "todo" if bang => Some("todo!"),
            "unimplemented" if bang => Some("unimplemented!"),
            _ => None,
        };
        found.extend(banned);
        rest = after;
    }
    found
}

/// `source` with its comments and the insides of its string and character
/// literals blanked out (newlines kept, so lines keep their numbers). Raw
/// strings are not recognised.
fn code_only(source: &str) -> String {
    let chars: Vec<char> = source.chars().collect();
    let mut code = String::with_capacity(source.len());
    let mut i = 0;
    while let Some(&c) = chars.get(i) {
        let next = chars.get(i + 1).copied();
        // Just past the first `end` at or after `from`.
        let find = |from: usize, end: &[char]| {
            (from..chars.len())
                .find(|&j| chars[j..].starts_with(end))
                .map_or(chars.len(), |j| j + end.len())
        };
        let end = match (c, next) {
            ('/', Some('/')) => (i..chars.len())
                .find(|&j| chars[j] == '\n')
                .unwrap_or(chars.len()),
            ('/', Some('*')) => find(i + 2, &['*', '/']),
            ('"', _) => {
                let mut j = i + 1;
                while j < chars.len() && chars[j] != '"' {
                    j += if chars[j] == '\\' { 2 } else { 1 };
                }
                j + 1
            }
            ('\'', Some('\\')) => find(i + 3, &['\'']),
            ('\'', _) if chars.get(i + 2) == Some(&'\'') => i + 3,
            _ => {
                code.push(c);
                i += 1;
                continue;
            }
        };
        let end = end.min(chars.len());
        code.extend(
            chars[i..end]
                .iter()
                .map(|&c| if c == '\n' { '\n' } else { ' ' }),
        );
        i = end;
    }
    code
}

/// The crates a manifest's dependency tables name: `[dependencies]`,
/// `[target.….dependencies]` and dotted `[dependencies.name]` headers, but
/// not dev- or build-dependencies.
fn dependency_names(manifest: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_table = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or(line).trim();
        if let Some(header) = line.strip_prefix('[').and_then(|h| h.strip_suffix(']')) {
            let segments: Vec<&str> = header.split('.').map(str::trim).collect();
            let at = segments.iter().position(|&s| s == "dependencies");
            in_table = at.is_some_and(|at| at + 1 == segments.len());
            if let Some(&name) = at.and_then(|at| segments.get(at + 1)) {
                names.push(name.trim_matches('"').to_string());
            }
        } else if in_table {
            if let Some((key, _)) = line.split_once('=') {
                let name = key.split('.').next().unwrap_or(key).trim();
                names.push(name.trim_matches('"').to_string());
            }
        }
    }
    names
}

/// Reports every line of `files` that contains `needle` outside a comment;
/// with `until`, only the lines before a file's first line equal to it.
fn forbid(
    root: &Path,
    files: &[PathBuf],
    comment: &str,
    until: Option<&str>,
    needle: &str,
    advice: &str,
    errors: &mut Vec<String>,
) {
    for path in files {
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let scanned = text.lines().take_while(|line| Some(line.trim()) != until);
        for (i, line) in scanned.enumerate() {
            if line.split(comment).next().unwrap_or(line).contains(needle) {
                let at = rel(root, path);
                errors.push(format!("{at}:{}: {needle}: {advice}", i + 1));
            }
        }
    }
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_counters_are_parsed_with_their_reserved_slots() {
        let text = "macro_rules! family_counters {\n    () => {};\n}\n\n\
                    family_counters! {\n    /// Reused.\n    reused_assumptions,\n    \
                    /// Field 9.\n    exported_clauses: reserved,\n    // a comment,\n    \
                    requeued_cubes,\n}\n\nfn after() {}\n";
        assert_eq!(
            parse_family_counters(text),
            Ok(vec![
                "reused_assumptions".to_string(),
                "exported_clauses".to_string(),
                "requeued_cubes".to_string(),
            ])
        );
        assert!(parse_family_counters("family_counters! {\n}\n").is_err());
        assert!(parse_family_counters("\nfamily_counters! {\n    a,\n").is_err());
    }

    #[test]
    fn dependency_names_skip_dev_and_build_dependencies() {
        let manifest = "[package]\nname = \"pdsat_checker\"\n\n\
                        [dependencies]\npdsat_cnf.workspace = true # the vocabulary\n\
                        # pdsat_solver.workspace = true\n\n\
                        [dev-dependencies]\npdsat_solver.workspace = true\n\n\
                        [build-dependencies]\ncc = \"1\"\n";
        assert_eq!(dependency_names(manifest), ["pdsat_cnf"]);
        let widened = format!(
            "{manifest}\n[target.'cfg(unix)'.dependencies]\npdsat_solver = {{ path = \"../solver\" }}\n\
             \n[dependencies.pdsat_core]\nworkspace = true\n"
        );
        assert_eq!(
            dependency_names(&widened),
            ["pdsat_cnf", "pdsat_solver", "pdsat_core"]
        );
    }

    #[test]
    fn batches_borrow_refuses_a_channel_in_the_oracle_and_ignores_comments() {
        let root = std::env::temp_dir().join(format!("xtask-lint-{}", std::process::id()));
        let oracle = root.join("crates/pdsat-core/src/oracle");
        std::fs::create_dir_all(&oracle).expect("temp tree");
        let write = |path: &str, text: &str| std::fs::write(root.join(path), text).expect("write");
        write(
            "crates/pdsat-core/src/oracle.rs",
            "// mpsc went away, CubeOutcome too\nmod pool;\n\
             fn columns(n: usize) { (vec![0.0; n], vec![None; n], vec![0u64; 2 * (n - 1)]); }\n",
        );
        write("crates/pdsat-core/src/oracle/pool.rs", "use std::thread;\n");
        let mut errors = Vec::new();
        check_batches_borrow(&root, &mut errors);
        assert_eq!(errors, Vec::<String>::new());

        write(
            "crates/pdsat-core/src/oracle/pool.rs",
            "use std::sync::mpsc;\nfn f(rx: &mpsc::Receiver<u8>) {\n    let _ = rx.recv_timeout(D);\n}\n\
             struct CubeOutcome;\nfn g(n: usize) {\n    let _ = vec![Record::unsolved(); n];\n    \
             let _ = vec![Record { index: MAX }; n];\n    let _ = vec![one(), two()];\n}\n",
        );
        check_batches_borrow(&root, &mut errors);
        std::fs::remove_dir_all(&root).expect("clean up");
        let at: Vec<&str> = errors
            .iter()
            .map(|e| e.split(": ").next().expect("a location"))
            .collect();
        assert_eq!(
            at,
            [
                "crates/pdsat-core/src/oracle/pool.rs:1",
                "crates/pdsat-core/src/oracle/pool.rs:2",
                "crates/pdsat-core/src/oracle/pool.rs:3",
                "crates/pdsat-core/src/oracle/pool.rs:5",
                "crates/pdsat-core/src/oracle/pool.rs:7",
                "crates/pdsat-core/src/oracle/pool.rs:8",
            ]
        );
        assert!(errors[2].contains("recv_timeout"), "{}", errors[2]);
        assert!(errors[3].contains("CubeOutcome"), "{}", errors[3]);
        assert!(errors[5].contains("placeholder fill"), "{}", errors[5]);
    }

    #[test]
    fn checkpoint_reader_refuses_panics_and_casts_in_code_only() {
        let root = std::env::temp_dir().join(format!("xtask-codec-{}", std::process::id()));
        let src = root.join("crates/distrib/src");
        std::fs::create_dir_all(&src).expect("temp tree");
        let write = |text: &str| std::fs::write(src.join("codec.rs"), text).expect("write");
        write(
            "//! Never `unwrap`, never `as`: as said.\n\
             fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) } // x.unwrap() as u8\n\
             fn g(line: &[u8]) -> String { format!(\"expected 17 fields, as \\\" written in '{}'\", 1) }\n\
             fn h<'a>(b: &'a [u8]) -> bool { b == b\"as\" || b[0] == b'\"' || b[0] == b'\\'' }\n\
             /* a block comment: panic!(), x as u32 */ fn expected() {}\n\
             #[cfg(test)]\n\
             mod tests { fn t() { let _ = Some(1).unwrap() as u64; panic!(); } }\n",
        );
        let mut errors = Vec::new();
        check_checkpoint_reader_cannot_panic(&root, &mut errors);
        assert_eq!(errors, Vec::<String>::new());

        write(
            "use std::fmt::Write as _;\n\
             fn f(x: Option<u8>) -> u32 { x.unwrap() as u32 }\n\
             fn g(r: Result<u8, ()>) -> u8 { r.expect(\"no\") }\n\
             fn h() { panic!(\"no\"); unreachable!(); todo!(); unimplemented!() }\n\
             fn panic() { let todo = 1; }\n",
        );
        check_checkpoint_reader_cannot_panic(&root, &mut errors);
        std::fs::remove_dir_all(&root).expect("clean up");
        let found: Vec<(&str, &str)> = errors
            .iter()
            .map(|e| {
                let mut parts = e.split(": ");
                (
                    parts.next().expect("a location"),
                    parts.next().expect("a word"),
                )
            })
            .collect();
        assert_eq!(
            found,
            [
                ("crates/distrib/src/codec.rs:1", "`as`"),
                ("crates/distrib/src/codec.rs:2", "`unwrap`"),
                ("crates/distrib/src/codec.rs:2", "`as`"),
                ("crates/distrib/src/codec.rs:3", "`expect`"),
                ("crates/distrib/src/codec.rs:4", "`panic!`"),
                ("crates/distrib/src/codec.rs:4", "`unreachable!`"),
                ("crates/distrib/src/codec.rs:4", "`todo!`"),
                ("crates/distrib/src/codec.rs:4", "`unimplemented!`"),
            ]
        );
    }

    #[test]
    fn grid_faults_refuse_an_injected_plan_outside_tests_and_comments() {
        let root = std::env::temp_dir().join(format!("xtask-grid-{}", std::process::id()));
        let src = root.join("crates/distrib/src");
        std::fs::create_dir_all(&src).expect("temp tree");
        let write = |text: &str| std::fs::write(src.join("store.rs"), text).expect("write");
        write(
            "//! No FaultPlan here.
use crate::client::ClientBehavior;
             #[cfg(test)]
mod tests {
    use pdsat_core::FaultPlan;
}
",
        );
        let mut errors = Vec::new();
        check_grid_faults_come_from_clients(&root, &mut errors);
        assert_eq!(errors, Vec::<String>::new());

        write(
            "use pdsat_core::FaultPlan;
struct Store {
    faults: Arc<FaultState>,
}
             #[cfg(test)]
mod tests {}
",
        );
        check_grid_faults_come_from_clients(&root, &mut errors);
        std::fs::remove_dir_all(&root).expect("clean up");
        let at: Vec<&str> = errors
            .iter()
            .map(|e| e.split(": ").next().expect("a location"))
            .collect();
        assert_eq!(
            at,
            [
                "crates/distrib/src/store.rs:1",
                "crates/distrib/src/store.rs:3"
            ]
        );
        assert!(errors[1].contains("FaultState"), "{}", errors[1]);
    }
}
