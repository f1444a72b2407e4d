//! Repository lint tasks, run in CI as `cargo run -p xtask -- lint`, and the
//! `orphans` check that is too slow for CI.
//!
//! Ten checks, all over the source tree as text (no compiler plumbing).
//! They keep the numbers other documents cite them by, so there is no 8:
//! what it refused, the injected fault plan, is one of rule 10's names.
//! The rules that search Rust files read their code: comments and the
//! insides of string and character literals are blanked. A file's non-test
//! code is everything before its test module — the first `#[cfg(test)]`
//! line followed by a `mod` line — so a `#[cfg(test)]` helper above the
//! module hides none of the code after it.
//!
//! 1. **unsafe-free**: every crate root (`lib.rs` / `main.rs`) must carry
//!    `#![forbid(unsafe_code)]`.
//! 2. **clock discipline**: `Instant::now` / `SystemTime` may appear only in
//!    files listed in `xtask/time_allowlist.txt` — per-cube costs feed the
//!    Monte Carlo estimator, so clock reads stay confined to modules gated
//!    behind `SolverConfig::time_accounting` or explicitly wall-clock-facing
//!    code.
//! 3. **knob documentation**: each of the seven config structs
//!    (`SolverConfig`, `BatchConfig`, `SolveModeConfig`, `EvaluatorConfig`,
//!    `TabuConfig`, `LoopbackConfig`, `CoordinatorConfig`) that has a public
//!    field has a knob table in DESIGN.md
//!    — a `` `Name`: `` line followed by a `| Knob | Meaning |` table — whose
//!    rows are exactly its public fields (a struct without one needs no
//!    table, and a table it has may list none), and every `` `Name::x` `` DESIGN.md
//!    spells must be a public field that exists, so
//!    the configuration surface and its documentation cannot drift apart in
//!    either direction: an option added back fails until it is documented,
//!    and a deleted one until its row goes.
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
//! 6. **batches borrow, and nothing sets an unused limit**:
//!    `crates/pdsat-core/src/oracle.rs` and the files under `oracle/` name
//!    neither `mpsc` nor `recv_timeout` — pool threads
//!    are scoped to a batch and hand their results back through their join,
//!    so the channel-fed pool (and the watchdog that polled it) cannot grow
//!    back beside them — and neither name `CubeOutcome` nor fill a
//!    `vec![…; n]` with a constructed record: results are two zeroed columns
//!    the workers write in place, not a placeholder per cube. There is one
//!    executor: the non-test code of those files names no `Sequential`
//!    variant (a one-slot pool drains its stripe on the calling thread), and
//!    the non-test code of `crates/pdsat-core/src` names no `stop_on_sat` —
//!    every batch is solved whole, as the paper's solving mode does. Nor
//!    does a solve or a search carry a limit no caller sets: the non-test
//!    code of `crates/solver/src` and `crates/pdsat-core/src` names none of
//!    `StopReason`, `max_conflicts`, `max_propagations`, `max_decisions`,
//!    `max_wall_time`, `with_time_limit` or `TIME_SLICE`. A raised interrupt
//!    is a solve's only early exit, and a search is bounded by its points or
//!    by its own strategy.
//! 7. **the checker stands alone**: the `[dependencies]` of
//!    `crates/checker/Cargo.toml` name no crate but `pdsat_cnf`. The checker
//!    is the trust boundary, so its propagation is a port of the solver's,
//!    never shared code; the solver may only be a dev-dependency, to emit
//!    the certificates the tests check.
//! 9. **the readers cannot panic**: the non-test code of
//!    `crates/distrib/src/codec.rs`, which reads checkpoint text and store
//!    files off disk, of `crates/cnf/src/dimacs.rs` and
//!    `crates/cnf/src/drat.rs`, which read every formula and proof that
//!    comes from a file, and of `src/bin/pdsat.rs`, the command line that
//!    hands them those files, calls no `unwrap` / `expect`, invokes
//!    no `panic!`, `unreachable!`, `todo!` or `unimplemented!`, and casts
//!    nothing with `as` — numbers convert with `From` / `TryFrom`, so a model
//!    longer than `u32::MAX` variables is an error rather than a truncated
//!    index. Comments and the insides of string and character literals are
//!    not code and are not searched, and a `use … as _` import is not a
//!    cast.
//! 10. **the test policies stay in tests**: each layer's hidden test policy
//!     — the solver's `TestPolicy` / `set_test_policy`, the oracle's
//!     `OracleTestPolicy` / `CubeOracle::with_test_policy` and the pool's
//!     injected `FaultPlan`, the grid's `GridTestPolicy` /
//!     `LoopbackTransport::with_test_policy` — is named,
//!     as a whole identifier, by no non-test code outside its home crate:
//!     `crates/*/src` before a file's `#[cfg(test)]` module, `src/` and
//!     `examples/`. Each layer runs one production policy (MiniSat's at its
//!     defaults; a pool capped at the machine's parallelism with no injected
//!     fault; the chaotic, self-renewing volunteer population); the replay
//!     reference, an exact pool shape, injected faults and ideal or
//!     unreplaced clients cannot be configured into a workload. The grid's
//!     faults come from its simulated client population (`ClientBehavior`)
//!     and the store's are bytes on disk that its tests damage directly;
//!     the pool's `FaultState` is crate-private, so the compiler keeps it
//!     home.
//! 11. **every public item has a caller**: every `pub fn`, `pub const fn`,
//!     `pub const` and `pub enum` variant in the non-test code of a library
//!     crate (`crates/*/src` outside `src/bin/`, and the root `src/lib.rs`;
//!     everything before a file's `#[cfg(test)]` module) is named, as a whole
//!     identifier, by code in `crates/`, `src/`, `examples/`, `tests/` or
//!     `benchmark/src` other than its own definition, a `pub use` statement
//!     and its own file's test module (an out-of-line `mod tests;` included).
//!     Comments and literals are not code, so a doc example calls nothing.
//!     `UNCALLED` lists the exceptions, each with its reason; an entry whose
//!     item is gone or has found a caller fails too. The match is by name, so
//!     a name that a used item shares hides an unused one (`Cube::evaluate`
//!     hid behind `Cnf::evaluate`): what the rule reports has no caller, but
//!     what it passes may still have none.
//!
//! `cargo run -p xtask -- orphans` sees through that, with the compiler: a
//! tool to run after a refactor, not a CI check (several minutes). It copies
//! the tree to `target/xtask-orphans/tree` and, one at a time, renames each
//! public item of rule 11 whose name another declaration shares (an item, a
//! field, a parameter, a binding) or is a common `std` method, then runs
//! `cargo check --all-targets` on the workspace and on `benchmark/`. An item
//! whose rename breaks nothing outside its own file's tests is printed, unless
//! `ORPHANS_KEPT` lists it with a reason. It prints nothing on a clean tree.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some("orphans") => orphans(),
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint | orphans");
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
    check_readers_cannot_panic(&root, &mut errors);
    check_test_policy_stays_in_tests(&root, &mut errors);
    check_public_items_have_callers(&root, &mut errors);

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

/// Public field names of a `pub struct <name>` in the given file: none for a
/// unit struct (`pub struct Name;`) or an empty one.
fn pub_fields(path: &Path, struct_name: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let header = format!("pub struct {struct_name}");
    let start = text
        .match_indices(&header)
        .find(|&(at, _)| !text[at + header.len()..].starts_with(is_ident))
        .ok_or_else(|| format!("{}: `{header}` not found", path.display()))?
        .0;
    let rest = text[start + header.len()..].trim_start();
    if rest.starts_with(';') {
        return Ok(Vec::new());
    }
    let body = rest
        .strip_prefix('{')
        .ok_or_else(|| format!("{}: `{header}` has no field block", path.display()))?;
    if body.trim_start().starts_with('}') {
        return Ok(Vec::new());
    }
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

/// The config structs DESIGN.md gives a knob table, and where each lives.
const KNOB_SOURCES: [(&str, &str); 7] = [
    ("crates/solver/src/config.rs", "SolverConfig"),
    ("crates/pdsat-core/src/oracle.rs", "BatchConfig"),
    ("crates/pdsat-core/src/solve_mode.rs", "SolveModeConfig"),
    ("crates/pdsat-core/src/predict.rs", "EvaluatorConfig"),
    ("crates/pdsat-core/src/tabu.rs", "TabuConfig"),
    ("crates/distrib/src/transport.rs", "LoopbackConfig"),
    ("crates/distrib/src/coordinator.rs", "CoordinatorConfig"),
];

fn check_knob_docs(root: &Path, errors: &mut Vec<String>) {
    let design = match std::fs::read_to_string(root.join("DESIGN.md")) {
        Ok(t) => t,
        Err(e) => {
            errors.push(format!("DESIGN.md: unreadable: {e}"));
            return;
        }
    };
    for (path, struct_name) in KNOB_SOURCES {
        match pub_fields(&root.join(path), struct_name) {
            Ok(fields) => check_knob_table(&design, path, struct_name, &fields, errors),
            Err(e) => errors.push(e),
        }
    }
}

/// The first cell of every row of the knob table DESIGN.md heads with a
/// `` `Name`: `` line, or `None` if there is no such line.
fn knob_table(design: &str, struct_name: &str) -> Option<Vec<String>> {
    let heading = format!("`{struct_name}`:");
    let mut lines = design.lines().skip_while(|line| line.trim() != heading);
    lines.next()?;
    let rows = lines
        .skip_while(|line| line.trim().is_empty())
        .take_while(|line| line.starts_with('|'))
        // The header row and the separator.
        .skip(2);
    Some(
        rows.filter_map(|row| row.split('|').nth(1))
            .map(|cell| cell.trim().trim_matches('`').to_string())
            .collect(),
    )
}

/// Requires `struct_name`'s knob table to list exactly `fields`, and every
/// `` `Name::x` `` DESIGN.md spells to be one of them.
fn check_knob_table(
    design: &str,
    path: &str,
    struct_name: &str,
    fields: &[String],
    errors: &mut Vec<String>,
) {
    match knob_table(design, struct_name) {
        // A struct without fields has no knobs to document.
        None if fields.is_empty() => {}
        None => errors.push(format!(
            "DESIGN.md: no knob table for {struct_name} (a `{struct_name}`: line \
             followed by a | Knob | Meaning | table)"
        )),
        Some(rows) => {
            for f in fields.iter().filter(|f| !rows.contains(f)) {
                errors.push(format!(
                    "DESIGN.md: {struct_name} knob `{f}` is undocumented \
                     (add a row to its knob table)"
                ));
            }
            for row in rows.iter().filter(|row| !fields.contains(row)) {
                errors.push(format!(
                    "DESIGN.md: the {struct_name} knob table lists `{row}`, \
                     which is no public field of {struct_name} in {path}"
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

fn check_no_parked_code(root: &Path, errors: &mut Vec<String>) {
    let mut sources = Vec::new();
    for dir in ["crates", "src", "examples", "tests", "xtask"] {
        rust_files(&root.join(dir), &mut sources);
    }
    // Spelled in two halves so this file passes its own check.
    let allowance = concat!("allow(dead", "_code)");
    let advice = "delete the unused item or make it #[cfg(test)]";
    forbid(root, &sources, Lines::Code, &[allowance], advice, errors);
    let allowance = concat!("allow(clippy::too_many", "_arguments)");
    let advice = "pass one value that describes the thing (as `BackendSpec` does)";
    forbid(root, &sources, Lines::Code, &[allowance], advice, errors);

    let mut manifests = vec![root.join("Cargo.toml"), root.join("xtask/Cargo.toml")];
    for dir in ["crates", "vendor"] {
        if let Ok(entries) = std::fs::read_dir(root.join(dir)) {
            manifests.extend(entries.flatten().map(|e| e.path().join("Cargo.toml")));
        }
    }
    manifests.sort();
    let advice = "nothing serializes through it; remove the manifest entry";
    forbid(
        root,
        &manifests,
        Lines::Manifest,
        &["serde"],
        advice,
        errors,
    );
    let advice = "benchmark/ is the one measuring harness; add a workload there";
    let needles = ["criterion", "[[bench]]"];
    forbid(root, &manifests, Lines::Manifest, &needles, advice, errors);
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
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    forbid(root, &sources, Lines::NonTestCode, &names, advice, errors);
}

fn check_batches_borrow(root: &Path, errors: &mut Vec<String>) {
    let mut sources = vec![root.join("crates/pdsat-core/src/oracle.rs")];
    rust_files(&root.join("crates/pdsat-core/src/oracle"), &mut sources);
    let advice = "pool threads are scoped to one batch and report through their join; \
                  keep channels and their watchdog out of the oracle";
    let needles = ["mpsc", "recv_timeout"];
    forbid(root, &sources, Lines::Code, &needles, advice, errors);
    let advice = "results come back as the zeroed `costs` / `verdicts` columns, written in \
                  place; keep the per-cube record and its placeholder fill out of the oracle";
    forbid(
        root,
        &sources,
        Lines::Code,
        &["CubeOutcome"],
        advice,
        errors,
    );
    for path in &sources {
        let source = Source::read(root, path);
        for (i, line) in source.code.lines().enumerate() {
            if fills_with_a_record(line) {
                let at = &source.path;
                errors.push(format!("{at}:{}: placeholder fill: {advice}", i + 1));
            }
        }
    }
    let advice = "every batch runs on the worker pool; a one-slot pool already drains its \
                  stripe on the calling thread, so a second executor must not come back";
    let needles = ["Sequential"];
    forbid(root, &sources, Lines::NonTestCode, &needles, advice, errors);
    let mut core = Vec::new();
    rust_files(&root.join("crates/pdsat-core/src"), &mut core);
    let advice = "every cube of a batch is solved and reported, as the paper's solving mode \
                  processes whole families; no mode abandons a batch at its first SAT cube";
    let needles = ["stop_on_sat"];
    forbid(root, &core, Lines::NonTestCode, &needles, advice, errors);
    let mut limited = core;
    rust_files(&root.join("crates/solver/src"), &mut limited);
    let advice = "every cube runs to a verdict and every search ends on its points or its \
                  strategy; a raised interrupt is the only early exit, and a test that needs \
                  one mid-search sets `TestPolicy::interrupt_at_conflict`";
    let needles = [
        "StopReason",
        "max_conflicts",
        "max_propagations",
        "max_decisions",
        "max_wall_time",
        "with_time_limit",
        "TIME_SLICE",
    ];
    forbid(root, &limited, Lines::NonTestCode, &needles, advice, errors);
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

/// The files rule 9 holds, what each reads and the error it returns instead
/// of panicking.
const READERS: [(&str, &str, &str); 4] = [
    (
        "crates/distrib/src/codec.rs",
        "checkpoint",
        "a `CheckpointError`",
    ),
    ("crates/cnf/src/dimacs.rs", "DIMACS", "a `ParseDimacsError`"),
    ("crates/cnf/src/drat.rs", "DRAT", "an `Err` with the line"),
    ("src/bin/pdsat.rs", "`pdsat check`", "exit code 2 or 3"),
];

fn check_readers_cannot_panic(root: &Path, errors: &mut Vec<String>) {
    for (file, reader, error) in READERS {
        let path = root.join(file);
        if let Err(e) = std::fs::metadata(&path) {
            errors.push(format!("{}: unreadable: {e}", path.display()));
            continue;
        }
        let source = Source::read(root, &path);
        for (i, line) in source.non_test_lines().enumerate() {
            for word in panicking_words(line) {
                errors.push(format!(
                    "{file}:{}: `{word}`: the {reader} reader reads bytes from disk and must \
                     not panic or truncate; return {error} and convert with `From` / \
                     `TryFrom`",
                    i + 1
                ));
            }
        }
    }
}

/// The names of each layer's hidden test policy and of its entry point, by
/// home crate.
const TEST_POLICIES: [(&str, &str); 7] = [
    ("solver", "TestPolicy"),
    ("solver", "set_test_policy"),
    ("pdsat-core", "OracleTestPolicy"),
    ("pdsat-core", "CubeOracle::with_test_policy"),
    ("pdsat-core", "FaultPlan"),
    ("distrib", "GridTestPolicy"),
    ("distrib", "LoopbackTransport::with_test_policy"),
];

fn check_test_policy_stays_in_tests(root: &Path, errors: &mut Vec<String>) {
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .map(|entries| entries.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    crates.sort();
    let mut paths = Vec::new();
    for dir in &crates {
        rust_files(&dir.join("src"), &mut paths);
    }
    for dir in ["src", "examples"] {
        rust_files(&root.join(dir), &mut paths);
    }
    let sources: Vec<Source> = paths.iter().map(|path| Source::read(root, path)).collect();
    for (home, name) in TEST_POLICIES {
        let home = format!("crates/{home}/");
        for source in sources.iter().filter(|s| !s.path.starts_with(&home)) {
            for (i, line) in source.non_test_lines().enumerate() {
                if spells(line, name) {
                    let at = &source.path;
                    errors.push(format!(
                        "{at}:{}: {name}: every layer runs one production policy; its test \
                         policy is for the suites under tests/ only",
                        i + 1
                    ));
                }
            }
        }
    }
}

/// Rule 11's exceptions: public items of a library crate that nothing calls
/// but that stay, as `(file, name, reason)`.
const UNCALLED: [(&str, &str, &str); 0] = [];

/// One Rust file as the rules read it: its code with comments and literals
/// blanked, and the line its first `#[cfg(test)] mod` starts on.
struct Source {
    path: String,
    code: String,
    test_from: usize,
}

impl Source {
    fn read(root: &Path, path: &Path) -> Source {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        // A `#[cfg(test)]` helper before the module is not where it starts.
        let lines: Vec<&str> = text.lines().collect();
        let test_from = lines
            .windows(2)
            .position(|w| w[0].trim() == "#[cfg(test)]" && w[1].trim().starts_with("mod "))
            .unwrap_or(usize::MAX);
        Source {
            path: rel(root, path),
            code: code_only(&text),
            test_from,
        }
    }

    /// Its non-test code, line by line: everything before its test module.
    fn non_test_lines(&self) -> impl Iterator<Item = &str> {
        self.code.lines().take(self.test_from)
    }

    /// The files of the out-of-line modules (`mod name;`) that its test
    /// code declares: they are part of its `#[cfg(test)]` module.
    fn test_module_files(&self) -> Vec<String> {
        let Some(stem) = self.path.strip_suffix(".rs") else {
            return Vec::new();
        };
        let dir = match stem.rsplit_once('/') {
            Some((dir, "lib" | "mod")) => dir,
            _ => stem,
        };
        self.code
            .lines()
            .skip(self.test_from)
            .filter_map(|line| line.trim().strip_prefix("mod ")?.strip_suffix(';'))
            .map(|name| format!("{dir}/{}.rs", name.trim()))
            .collect()
    }

    /// Whether the file is library code: a crate's `src/` outside `src/bin/`,
    /// or the root crate's `lib.rs`.
    fn is_library(&self) -> bool {
        match self.path.split('/').collect::<Vec<_>>()[..] {
            ["crates", _, "src", "bin", ..] => false,
            ["crates", _, "src", ..] | ["src", "lib.rs"] => true,
            _ => false,
        }
    }
}

/// The byte offset line `line` of `code` starts at (its length past the end).
fn line_start(code: &str, line: usize) -> usize {
    let start: usize = code.split('\n').take(line).map(|l| l.len() + 1).sum();
    start.min(code.len())
}

/// The identifiers of one line of code, in order: the names it spells whole.
fn identifiers(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !is_ident(c))
        .filter(|word| word.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// The line and name of every `pub fn`, `pub const fn`, `pub const` and
/// `pub enum` variant that `code` declares.
fn public_items(code: &str) -> Vec<(usize, &str)> {
    let mut items = Vec::new();
    for (i, line) in code.lines().enumerate() {
        let words: Vec<&str> = identifiers(line).collect();
        let Some(at) = words.iter().position(|&w| w == "pub") else {
            continue;
        };
        match words[at + 1..] {
            ["fn", name, ..] | ["const", "fn", name, ..] => items.push((i, name)),
            ["const", name, ..] if name != "_" => items.push((i, name)),
            ["enum", ..] => items.extend(enum_variants(code, i)),
            _ => {}
        }
    }
    items
}

/// The line and name of every variant of the enum declared on line `at` of
/// `code`: the first identifier of each comma-separated entry of its body.
fn enum_variants(code: &str, at: usize) -> Vec<(usize, &str)> {
    let start = line_start(code, at);
    let Some(open) = code[start..].find('{').map(|o| start + o + 1) else {
        return Vec::new();
    };
    let mut variants = Vec::new();
    let mut line = code[..open].matches('\n').count();
    let (mut depth, mut entry_starts) = (1, true);
    let mut rest = &code[open..];
    while let Some(c) = rest.chars().next() {
        if entry_starts && depth == 1 && (c.is_alphabetic() || c == '_') {
            let len = rest.find(|c: char| !is_ident(c)).unwrap_or(rest.len());
            variants.push((line, &rest[..len]));
            entry_starts = false;
            rest = &rest[len..];
            continue;
        }
        match c {
            '\n' => line += 1,
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' if depth == 1 => break,
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 1 => entry_starts = true,
            _ => {}
        }
        rest = &rest[c.len_utf8()..];
    }
    variants
}

fn check_public_items_have_callers(root: &Path, errors: &mut Vec<String>) {
    check_callers(root, &UNCALLED, errors);
}

/// Every file that can call a public item, as rule 11 and `orphans` read it.
struct Sources {
    files: Vec<Source>,
    /// Each file's out-of-line test modules, by index.
    test_modules: Vec<Vec<usize>>,
}

impl Sources {
    fn read(root: &Path) -> Sources {
        let mut paths = Vec::new();
        for dir in ["crates", "src", "examples", "tests", "benchmark/src"] {
            rust_files(&root.join(dir), &mut paths);
        }
        let files: Vec<Source> = paths.iter().map(|p| Source::read(root, p)).collect();
        let test_modules = files
            .iter()
            .map(|s| {
                let modules = s.test_module_files();
                (0..files.len())
                    .filter(|&g| modules.contains(&files[g].path))
                    .collect()
            })
            .collect();
        Sources {
            files,
            test_modules,
        }
    }

    /// The file, line and name of every public item of a library crate.
    fn library_items(&self) -> Vec<(usize, usize, &str)> {
        let mut items = Vec::new();
        for (f, source) in self.files.iter().enumerate() {
            if !source.is_library() || self.test_modules.iter().any(|t| t.contains(&f)) {
                continue;
            }
            let code = &source.code[..line_start(&source.code, source.test_from)];
            items.extend(public_items(code).into_iter().map(|(l, name)| (f, l, name)));
        }
        items
    }

    /// Whether line `m` of file `g` is in file `f`'s own test module.
    fn in_own_tests(&self, f: usize, g: usize, m: usize) -> bool {
        g == f && m >= self.files[f].test_from || self.test_modules[f].contains(&g)
    }
}

/// Rule 11 over the tree at `root`, with `allowlist` as its exceptions.
fn check_callers(root: &Path, allowlist: &[(&str, &str, &str)], errors: &mut Vec<String>) {
    let sources = Sources::read(root);
    // Where each identifier is spelled, `pub use` statements left out.
    let mut spelled: std::collections::HashMap<&str, Vec<(usize, usize)>> = Default::default();
    for (f, source) in sources.files.iter().enumerate() {
        let mut in_pub_use = false;
        for (i, line) in source.code.lines().enumerate() {
            let statement = line.trim_start();
            in_pub_use |= statement.starts_with("pub use ")
                || statement.starts_with("pub(") && statement.contains(") use ");
            if in_pub_use {
                in_pub_use = !line.contains(';');
                continue;
            }
            for word in identifiers(line) {
                spelled.entry(word).or_default().push((f, i));
            }
        }
    }
    let items: Vec<(&str, usize, &str, bool)> = sources
        .library_items()
        .into_iter()
        .map(|(f, line, name)| {
            let called = spelled.get(name).is_some_and(|at| {
                at.iter()
                    .any(|&(g, m)| (g, m) != (f, line) && !sources.in_own_tests(f, g, m))
            });
            (sources.files[f].path.as_str(), line, name, called)
        })
        .collect();
    let advice = "a public item nothing calls outside its own file's tests; delete it with the \
                  tests that only exercise it, or allowlist it with a reason";
    errors.extend(uncalled_items(
        &items,
        allowlist,
        "rule 11 allowlist",
        advice,
    ));
}

/// The findings of a no-caller check over `items` (file, line, name and
/// whether code outside the item's own tests calls it), with `allowlist`,
/// named `list` in the messages, as its exceptions: an uncalled item the list
/// does not hold, a listed item that has a caller, and an entry that matches
/// no item.
fn uncalled_items(
    items: &[(&str, usize, &str, bool)],
    allowlist: &[(&str, &str, &str)],
    list: &str,
    advice: &str,
) -> Vec<String> {
    let mut errors = Vec::new();
    let mut listed = vec![false; allowlist.len()];
    for &(path, line, name, called) in items {
        let entry = allowlist
            .iter()
            .position(|&(file, item, _)| file == path && item == name);
        let at = format!("{path}:{}: {name}", line + 1);
        match (called, entry) {
            (false, None) => errors.push(format!("{at}: {advice}")),
            (true, Some(_)) => {
                errors.push(format!("{at}: has a caller now; remove its {list} entry"));
            }
            _ => {}
        }
        if let Some(e) = entry {
            listed[e] = true;
        }
    }
    for ((file, name, _), listed) in allowlist.iter().zip(listed) {
        if !listed {
            errors.push(format!(
                "{file}: {name}: the {list} lists an item that is gone or that the check does \
                 not cover; remove the entry"
            ));
        }
    }
    errors
}

/// `orphans`' exceptions: public items of a library crate whose name a used
/// item shares, that nothing outside their own tests calls and that stay,
/// as `(file, name, reason)`.
const ORPHANS_KEPT: [(&str, &str, &str); 1] = [(
    "crates/cnf/src/cube.rs",
    "is_empty",
    "clippy's `len_without_is_empty` asks for it beside `Cube::len`, which `LitBuffer::write` calls",
)];

/// `std` method names common enough that an item taking one hides behind
/// every call of the `std` method.
const STD_METHODS: [&str; 36] = [
    "as_slice", "as_str", "capacity", "clear", "contains", "count", "default", "extend", "find",
    "first", "flush", "get", "get_mut", "insert", "is_empty", "iter", "iter_mut", "join", "keys",
    "last", "len", "max", "min", "new", "next", "parse", "path", "pop", "push", "read", "remove",
    "retain", "sort", "take", "values", "write",
];

/// The `cargo check` arguments of the workspace and of `benchmark/`, the
/// package outside it.
const CHECKS: [&[&str]; 2] = [
    &["--workspace"],
    &["--manifest-path", "benchmark/Cargo.toml"],
];

/// `cargo run -p xtask -- orphans` (see the module documentation): prints
/// each finding and exits 1, or prints nothing and exits 0.
fn orphans() -> ExitCode {
    let root = repo_root();
    let scratch = root.join("target").join("xtask-orphans");
    let probe = Probe {
        cargo: std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()),
        tree: scratch.join("tree"),
        target: scratch.join("target"),
    };
    // The copy is under `target/`, which `copy_tree` leaves out.
    let _ = std::fs::remove_dir_all(&probe.tree);
    let found = copy_tree(&root, &probe.tree)
        .map_err(|e| format!("copying the tree: {e}"))
        .and_then(|()| find_orphans(&probe, &ORPHANS_KEPT));
    match found {
        Ok(found) if found.is_empty() => ExitCode::SUCCESS,
        Ok(found) => {
            for line in found {
                println!("{line}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask orphans: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `orphans` over the copy in `probe`, with `kept` as its exceptions.
fn find_orphans(probe: &Probe, kept: &[(&str, &str, &str)]) -> Result<Vec<String>, String> {
    let sources = Sources::read(&probe.tree);
    for args in CHECKS {
        if !probe.errors(args)?.is_empty() {
            return Err(format!(
                "`cargo check {}` fails on the tree",
                args.join(" ")
            ));
        }
    }
    let mut items = Vec::new();
    for (f, line, name) in shared_name_items(&sources) {
        let called = probe.has_caller(&sources, (f, line, name))?;
        items.push((sources.files[f].path.as_str(), line, name, called));
    }
    let advice = "renaming it breaks nothing outside its own file's tests; delete it with the \
                  tests that only exercise it, or keep it in ORPHANS_KEPT with a reason";
    Ok(uncalled_items(&items, kept, "ORPHANS_KEPT", advice))
}

/// The public items of library crates whose name is a common `std` method
/// or is declared more than once in the tree.
fn shared_name_items(sources: &Sources) -> Vec<(usize, usize, &str)> {
    let mut declared: std::collections::HashMap<&str, usize> = Default::default();
    for source in &sources.files {
        for name in declared_names(&source.code) {
            *declared.entry(name).or_default() += 1;
        }
    }
    let shared = |name: &str| declared.get(name).is_some_and(|&n| n > 1);
    sources
        .library_items()
        .into_iter()
        .filter(|&(_, _, name)| shared(name) || STD_METHODS.contains(&name))
        .collect()
}

/// Every name `code` declares: the word after `fn`, `const`, `static`, `let`
/// or `mut`, a word before a single `:` (a field, a parameter, a binding's
/// type) and every enum variant.
fn declared_names(code: &str) -> Vec<&str> {
    let mut names = Vec::new();
    for (i, line) in code.lines().enumerate() {
        let mut previous = "";
        let mut rest = line;
        while let Some(start) = rest.find(is_ident) {
            let tail = &rest[start..];
            let len = tail.find(|c: char| !is_ident(c)).unwrap_or(tail.len());
            let (word, after) = tail.split_at(len);
            let typed = after.trim_start().strip_prefix(':');
            let declares = matches!(previous, "fn" | "const" | "static" | "let" | "mut")
                || typed.is_some_and(|t| !t.starts_with(':'));
            if declares && word.starts_with(|c: char| c.is_alphabetic() || c == '_') {
                names.push(word);
            }
            if word == "enum" {
                names.extend(enum_variants(code, i).into_iter().map(|(_, name)| name));
            }
            previous = word;
            rest = after;
        }
    }
    names
}

/// A scratch copy of the tree and the target directory of its checks.
struct Probe {
    cargo: String,
    tree: PathBuf,
    target: PathBuf,
}

impl Probe {
    /// The file and line of every error `cargo check` reports in the copy
    /// with `args`, or its output if it failed without a located error.
    fn errors(&self, args: &[&str]) -> Result<Vec<(String, usize)>, String> {
        let output = std::process::Command::new(&self.cargo)
            .args([
                "check",
                "--offline",
                "--quiet",
                "--all-targets",
                "--keep-going",
            ])
            .args(["--message-format", "short"])
            .args(args)
            .current_dir(&self.tree)
            .env("CARGO_TARGET_DIR", &self.target)
            .output()
            .map_err(|e| format!("running {}: {e}", self.cargo))?;
        let stderr = String::from_utf8_lossy(&output.stderr);
        let errors: Vec<(String, usize)> = stderr.lines().filter_map(error_location).collect();
        if output.status.success() || !errors.is_empty() {
            Ok(errors)
        } else {
            Err(format!(
                "`cargo check {}` failed:\n{stderr}",
                args.join(" ")
            ))
        }
    }

    /// Whether code outside its own file's tests names `item`: its
    /// definition is renamed in the copy, the workspace and `benchmark/`
    /// are checked, and the file is put back. A call the rename sends to a
    /// trait method of the same name, or a doc example, is not seen.
    fn has_caller(&self, sources: &Sources, item: (usize, usize, &str)) -> Result<bool, String> {
        let (f, line, name) = item;
        let source = &sources.files[f];
        let path = self.tree.join(&source.path);
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        let text = std::fs::read_to_string(&path).map_err(io)?;
        std::fs::write(&path, rename_at(&text, &source.code, line, name)).map_err(io)?;
        let outside = |(file, at): &(String, usize)| {
            let g = sources.files.iter().position(|s| &s.path == file);
            !g.is_some_and(|g| sources.in_own_tests(f, g, at.saturating_sub(1)))
        };
        let called = self.errors(CHECKS[0]).and_then(|errors| {
            if errors.iter().any(outside) {
                return Ok(true);
            }
            // Everything the package outside the workspace compiles is
            // non-test code of the libraries or the package's own.
            self.errors(CHECKS[1]).map(|errors| !errors.is_empty())
        });
        std::fs::write(&path, text).map_err(io)?;
        called
    }
}

/// The file and line of an error in `cargo check --message-format short`
/// output (`file:line:column: error…`).
fn error_location(line: &str) -> Option<(String, usize)> {
    let (at, message) = line.split_once(": ")?;
    if !message.starts_with("error") {
        return None;
    }
    let mut parts = at.rsplitn(3, ':');
    let (_column, line, file) = (parts.next()?, parts.next()?, parts.next()?);
    Some((file.to_string(), line.parse().ok()?))
}

/// `text` with the first whole `name` on line `line` renamed, where `code`
/// is `code_only(text)` (one char for each of `text`'s).
fn rename_at(text: &str, code: &str, line: usize, name: &str) -> String {
    let code_line = &code[line_start(code, line)..];
    let code_line = code_line.split('\n').next().unwrap_or(code_line);
    let column = code_line
        .match_indices(name)
        .find(|&(at, _)| {
            !code_line[..at].ends_with(is_ident)
                && !code_line[at + name.len()..].starts_with(is_ident)
        })
        .map_or(0, |(at, _)| code_line[..at].chars().count());
    let start = line_start(text, line);
    let at = text[start..]
        .char_indices()
        .nth(column)
        .map_or(text.len(), |(at, _)| start + at);
    format!(
        "{}{name}_xtask_orphan{}",
        &text[..at],
        &text[at + name.len()..]
    )
}

/// Copies a file, or a directory without its `target` and hidden entries.
fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    if from.is_dir() {
        std::fs::create_dir_all(to)?;
        for entry in std::fs::read_dir(from)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if name != "target" && !name.starts_with('.') {
                copy_tree(&from.join(&*name), &to.join(&*name))?;
            }
        }
    } else if from.is_file() {
        if let Some(dir) = to.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::copy(from, to)?;
    }
    Ok(())
}

/// Whether `c` can be part of an identifier.
fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `code` spells `name` whole: not as a part of a longer identifier.
fn spells(code: &str, name: &str) -> bool {
    code.match_indices(name).any(|(at, _)| {
        !code[..at].ends_with(is_ident) && !code[at + name.len()..].starts_with(is_ident)
    })
}

/// The words of one line of code that can panic or truncate: calls of
/// `unwrap` / `expect`, the macros `panic!`, `unreachable!`, `todo!` and
/// `unimplemented!`, and the `as` keyword — but not the `as _` of a `use`
/// line, which imports a trait unnamed and casts nothing. Whole identifiers
/// only, so `unwrap_or` and `expected` pass.
fn panicking_words(line: &str) -> Vec<&'static str> {
    let import = ["use ", "pub use "]
        .iter()
        .any(|prefix| line.trim_start().starts_with(prefix));
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
            "as" if import
                && after
                    .trim_start()
                    .strip_prefix('_')
                    .is_some_and(|rest| !rest.starts_with(is_ident)) =>
            {
                None
            }
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
/// literals blanked out (newlines kept, so lines keep their numbers).
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
        // A raw string, `r"…"` or `r#"…"#` (`br` too), opens with `hashes`.
        let hashes = chars[i + 1..].iter().take_while(|&&h| h == '#').count();
        let word_start = |j: usize| j == 0 || !is_ident(chars[j - 1]);
        let raw = c == 'r'
            && chars.get(i + 1 + hashes) == Some(&'"')
            && (word_start(i) || chars[i - 1] == 'b' && word_start(i - 1));
        let end = match (c, next) {
            ('r', _) if raw => {
                let close: Vec<char> = std::iter::once('"')
                    .chain(std::iter::repeat_n('#', hashes))
                    .collect();
                find(i + 2 + hashes, &close)
            }
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

/// Which lines of a file [`forbid`] searches.
#[derive(Clone, Copy)]
enum Lines {
    /// Every line of a manifest, up to its `#` comment.
    Manifest,
    /// Every line of a Rust file's code (comments and literals blanked).
    Code,
    /// The code of a Rust file before its `#[cfg(test)]` module.
    NonTestCode,
}

/// Reports every line of `files` that contains one of `needles`, searching
/// the `lines` of each file (read once), needle by needle.
fn forbid(
    root: &Path,
    files: &[PathBuf],
    lines: Lines,
    needles: &[&str],
    advice: &str,
    errors: &mut Vec<String>,
) {
    let searched: Vec<(String, Vec<String>)> = files
        .iter()
        .map(|path| {
            let code: Vec<String> = match lines {
                Lines::Manifest => {
                    let text = std::fs::read_to_string(path).unwrap_or_default();
                    let code = text
                        .lines()
                        .map(|line| line.split('#').next().unwrap_or(line));
                    code.map(String::from).collect()
                }
                Lines::Code => Source::read(root, path)
                    .code
                    .lines()
                    .map(String::from)
                    .collect(),
                Lines::NonTestCode => {
                    let source = Source::read(root, path);
                    source.non_test_lines().map(String::from).collect()
                }
            };
            (rel(root, path), code)
        })
        .collect();
    for needle in needles {
        for (at, code) in &searched {
            for (i, line) in code.iter().enumerate() {
                if line.contains(needle) {
                    errors.push(format!("{at}:{}: {needle}: {advice}", i + 1));
                }
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

    /// A scratch tree under the temp directory, removed when dropped.
    struct Tree(PathBuf);

    impl Tree {
        fn new(name: &str) -> Tree {
            Tree(std::env::temp_dir().join(format!("xtask-{name}-{}", std::process::id())))
        }

        /// Writes `text` to `path`, creating its directories.
        fn write(&self, path: &str, text: &str) {
            let path = self.0.join(path);
            std::fs::create_dir_all(path.parent().expect("a directory")).expect("temp tree");
            std::fs::write(path, text).expect("write");
        }
    }

    impl Drop for Tree {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

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
    fn a_knob_table_lists_exactly_the_public_fields() {
        let fields = ["sample_size".to_string()];
        let errors = |design: &str| {
            let mut errors = Vec::new();
            check_knob_table(
                design,
                "predict.rs",
                "EvaluatorConfig",
                &fields,
                &mut errors,
            );
            errors
        };
        let table = "`EvaluatorConfig`:\n\n| Knob | Meaning |\n|---|---|\n\
                     | `sample_size` | `N`. |\n";
        assert_eq!(errors(table), Vec::<String>::new());
        // An option added back without a row, a row left behind by a deleted
        // option, a field spelled in prose that does not exist, no table.
        let missing =
            errors("`EvaluatorConfig`:\n\n| Knob | Meaning |\n|---|---|\n\nsample_size\n");
        assert!(
            missing[0].contains("`sample_size` is undocumented"),
            "{missing:?}"
        );
        let stale = errors(&format!("{table}| `radius` | ρ. |\n"));
        assert!(stale[0].contains("lists `radius`"), "{stale:?}");
        let prose = errors(&format!("{table}\nSee `EvaluatorConfig::radius`.\n"));
        assert!(
            prose[0].contains("`EvaluatorConfig::radius` names no"),
            "{prose:?}"
        );
        let untabled = errors("`sample_size` is documented in prose only.\n");
        assert!(untabled[0].contains("no knob table"), "{untabled:?}");
        assert!([missing, stale, prose, untabled]
            .iter()
            .all(|e| e.len() == 1));
    }

    #[test]
    fn knob_docs_cover_the_grid_configs() {
        let tree = Tree::new("knobs");
        let loopback =
            "pub struct LoopbackConfig {\n    pub seed: u64,\n    pub num_clients: usize,\n}\n";
        tree.write("crates/distrib/src/transport.rs", loopback);
        let coordinator = "pub struct CoordinatorConfig {\n    pub redundancy: u32,\n}\n";
        tree.write("crates/distrib/src/coordinator.rs", coordinator);
        // A struct without fields needs no table, as unit or with braces.
        tree.write(
            "crates/pdsat-core/src/tabu.rs",
            "#[derive(Default)]\npub struct TabuConfig;\npub struct Tabu {}\n",
        );
        tree.write(
            "crates/pdsat-core/src/oracle.rs",
            "pub struct BatchConfig {}\n",
        );
        let design = "`LoopbackConfig`:\n\n| Knob | Meaning |\n|---|---|\n| `seed` | Seed. |\n\n\
                      `BatchConfig`:\n\n| Knob | Meaning |\n|---|---|\n\nSee `TabuConfig::radius`.\n";
        tree.write("DESIGN.md", design);
        let mut errors = Vec::new();
        check_knob_docs(&tree.0, &mut errors);
        // The three other structs' files are missing from the temp tree.
        let design: Vec<&String> = errors.iter().filter(|e| e.starts_with("DESIGN")).collect();
        assert_eq!(design.len(), 3, "{errors:?}");
        assert!(design[0].contains("`TabuConfig::radius` names no public field"));
        assert!(design[1].contains("LoopbackConfig knob `num_clients` is undocumented"));
        assert!(design[2].contains("no knob table for CoordinatorConfig"));
        assert_eq!(errors.len(), 6, "{errors:?}");
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
    fn batches_borrow_refuses_a_second_executor_and_stop_on_sat_outside_tests() {
        let root = std::env::temp_dir().join(format!("xtask-executor-{}", std::process::id()));
        let oracle = root.join("crates/pdsat-core/src/oracle");
        std::fs::create_dir_all(&oracle).expect("temp tree");
        let write = |path: &str, text: &str| std::fs::write(root.join(path), text).expect("write");
        write(
            "crates/pdsat-core/src/oracle.rs",
            "// No Sequential executor, no stop_on_sat.\nstruct CubeOracle { pool: WorkerPool }\n\
             #[cfg(test)]\nmod tests {\n    enum Executor { Sequential }\n    const stop_on_sat: bool = false;\n}\n",
        );
        write("crates/pdsat-core/src/oracle/pool.rs", "fn drain() {}\n");
        write(
            "crates/pdsat-core/src/solve_mode.rs",
            "/// Whole families: no `stop_on_sat`.\npub struct SolveModeConfig;\n",
        );
        let mut errors = Vec::new();
        check_batches_borrow(&root, &mut errors);
        assert_eq!(errors, Vec::<String>::new());

        write(
            "crates/pdsat-core/src/oracle/pool.rs",
            "enum Executor {\n    Sequential(Box<dyn CubeBackend>),\n    Pool(WorkerPool),\n}\n",
        );
        write(
            "crates/pdsat-core/src/solve_mode.rs",
            "pub struct SolveModeConfig {\n    pub stop_on_sat: bool,\n}\n",
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
                "crates/pdsat-core/src/oracle/pool.rs:2",
                "crates/pdsat-core/src/solve_mode.rs:2",
            ]
        );
        assert!(errors[0].contains("Sequential"), "{}", errors[0]);
        assert!(errors[1].contains("stop_on_sat"), "{}", errors[1]);
    }

    #[test]
    fn batches_borrow_refuses_solve_and_search_limits_outside_tests() {
        let root = std::env::temp_dir().join(format!("xtask-limits-{}", std::process::id()));
        for dir in ["crates/pdsat-core/src", "crates/solver/src/solver"] {
            std::fs::create_dir_all(root.join(dir)).expect("temp tree");
        }
        let write = |path: &str, text: &str| std::fs::write(root.join(path), text).expect("write");
        write(
            "crates/solver/src/budget.rs",
            "/// No `max_conflicts`, no `StopReason`.\npub struct Budget;\n\
             #[cfg(test)]\nmod tests {\n    const max_wall_time: u8 = 0;\n}\n",
        );
        write(
            "crates/solver/src/solver/trail.rs",
            "fn cancel_until() {}\n",
        );
        write(
            "crates/pdsat-core/src/search.rs",
            "// No time limit: no with_time_limit, no TIME_SLICE.\npub struct SearchLimits;\n",
        );
        let mut errors = Vec::new();
        check_batches_borrow(&root, &mut errors);
        assert_eq!(errors, Vec::<String>::new());

        write(
            "crates/solver/src/solver/trail.rs",
            "fn stop() -> StopReason {\n    StopReason::ConflictLimit\n}\n",
        );
        write(
            "crates/pdsat-core/src/search.rs",
            "const TIME_SLICE: usize = 8;\npub fn with_time_limit() {}\n",
        );
        check_batches_borrow(&root, &mut errors);
        std::fs::remove_dir_all(&root).expect("clean up");
        let mut found: Vec<String> = errors
            .iter()
            .map(|e| e.splitn(3, ": ").take(2).collect::<Vec<_>>().join(" "))
            .collect();
        found.sort();
        assert_eq!(
            found,
            [
                "crates/pdsat-core/src/search.rs:1 TIME_SLICE",
                "crates/pdsat-core/src/search.rs:2 with_time_limit",
                "crates/solver/src/solver/trail.rs:1 StopReason",
                "crates/solver/src/solver/trail.rs:2 StopReason",
            ]
        );
    }

    #[test]
    fn checkpoint_reader_refuses_panics_and_casts_in_code_only() {
        let tree = Tree::new("codec");
        let readers = [
            "crates/distrib/src/codec.rs",
            "crates/cnf/src/dimacs.rs",
            "crates/cnf/src/drat.rs",
            "src/bin/pdsat.rs",
        ];
        let write = |text: &str| readers.iter().for_each(|file| tree.write(file, text));
        write(
            "//! Never `unwrap`, never `as`: as said.\n\
             use std::fmt::Write as _;\n\
             fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) } // x.unwrap() as u8\n\
             fn g(line: &[u8]) -> String { format!(\"expected 17 fields, as \\\" written in '{}'\", 1) }\n\
             fn h<'a>(b: &'a [u8]) -> bool { b == b\"as\" || b[0] == b'\"' || b[0] == b'\\'' }\n\
             /* a block comment: panic!(), x as u32 */ fn expected() {}\n\
             #[cfg(test)]\n\
             mod tests { fn t() { let _ = Some(1).unwrap() as u64; panic!(); } }\n",
        );
        let mut errors = Vec::new();
        check_readers_cannot_panic(&tree.0, &mut errors);
        assert_eq!(errors, Vec::<String>::new());

        write(
            "use std::fmt::Write as _;\n\
             fn f(x: Option<u8>) -> u32 { x.unwrap() as u32 }\n\
             fn g(r: Result<u8, ()>) -> u8 { r.expect(\"no\") }\n\
             fn h() { panic!(\"no\"); unreachable!(); todo!(); unimplemented!() }\n\
             fn panic(x: u64) -> u32 { let todo = 1; x as _ }\n\
             use std::io::Read as Input;\n",
        );
        check_readers_cannot_panic(&tree.0, &mut errors);
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
        let per_file = [
            (2, "`unwrap`"),
            (2, "`as`"),
            (3, "`expect`"),
            (4, "`panic!`"),
            (4, "`unreachable!`"),
            (4, "`todo!`"),
            (4, "`unimplemented!`"),
            (5, "`as`"),
            (6, "`as`"),
        ];
        let expected: Vec<(String, &str)> = readers
            .iter()
            .flat_map(|file| {
                per_file
                    .iter()
                    .map(move |&(line, word)| (format!("{file}:{line}"), word))
            })
            .collect();
        assert_eq!(
            found,
            expected
                .iter()
                .map(|(at, word)| (at.as_str(), *word))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn test_policy_is_refused_outside_tests_and_the_solver() {
        let tree = Tree::new("policy");
        let write = |path: &str, text: &str| tree.write(path, text);
        write(
            "crates/solver/src/solver.rs",
            "pub fn set_test_policy(&mut self, policy: TestPolicy) {}\n",
        );
        write(
            "crates/pdsat-core/src/oracle.rs",
            "// No TestPolicy here.\npub struct OracleTestPolicy;\nfn f() { CubeOracle::with_test_policy(); }\n\
             #[cfg(test)]\nmod tests {\n    use pdsat_solver::TestPolicy;\n}\n",
        );
        write(
            "crates/distrib/src/transport.rs",
            "pub struct GridTestPolicy;\nfn f() { Self::with_test_policy(); }\n\
             #[cfg(test)]\nmod tests {\n    use pdsat_core::{FaultPlan, OracleTestPolicy};\n}\n",
        );
        write(
            "examples/quickstart.rs",
            "// No FaultPlan here.\nfn main() {}\n",
        );
        let mut errors = Vec::new();
        check_test_policy_stays_in_tests(&tree.0, &mut errors);
        assert_eq!(errors, Vec::<String>::new());

        write(
            "crates/pdsat-core/src/oracle.rs",
            "use pdsat_solver::TestPolicy;\nfn f(s: &mut Solver) {\n    s.set_test_policy(p);\n}\n\
             fn g() { LoopbackTransport::with_test_policy(c, GridTestPolicy::default(), s); }\n",
        );
        write(
            "crates/distrib/src/transport.rs",
            "fn f() { CubeOracle::with_test_policy(c, OracleTestPolicy::default()); }\n\
             use pdsat_core::FaultPlan;\n",
        );
        write(
            "examples/quickstart.rs",
            "fn main() { s.set_test_policy(p); }\n",
        );
        write("src/lib.rs", "pub use pdsat_solver::TestPolicy;\n");
        check_test_policy_stays_in_tests(&tree.0, &mut errors);
        let found: Vec<String> = errors
            .iter()
            .map(|e| e.splitn(3, ": ").take(2).collect::<Vec<_>>().join(" "))
            .collect();
        assert_eq!(
            found,
            [
                "crates/pdsat-core/src/oracle.rs:1 TestPolicy",
                "src/lib.rs:1 TestPolicy",
                "crates/pdsat-core/src/oracle.rs:3 set_test_policy",
                "examples/quickstart.rs:1 set_test_policy",
                "crates/distrib/src/transport.rs:1 OracleTestPolicy",
                "crates/distrib/src/transport.rs:1 CubeOracle::with_test_policy",
                "crates/distrib/src/transport.rs:2 FaultPlan",
                "crates/pdsat-core/src/oracle.rs:5 GridTestPolicy",
                "crates/pdsat-core/src/oracle.rs:5 LoopbackTransport::with_test_policy",
            ]
        );
    }

    #[test]
    fn a_cfg_test_helper_before_the_test_module_hides_no_code() {
        // Each file: a `#[cfg(test)]` helper, a forbidden name on line 3,
        // then the test module naming it again (not reported).
        let planted = |code: &str| {
            format!(
                "#[cfg(test)]\nfn with_capacity() {{}}\nfn f() {{ {code}; }}\n\
                 #[cfg(test)]\nmod tests {{\n    fn t() {{ {code}; }}\n}}\n"
            )
        };
        let tree = Tree::new("helper");
        tree.write(
            "crates/pdsat-core/src/solve_mode.rs",
            "\nfamily_counters! {\n    reused_assumptions,\n}\n",
        );
        tree.write(
            "crates/distrib/src/lease.rs",
            &planted("reused_assumptions"),
        );
        tree.write(
            "crates/pdsat-core/src/predict/cache.rs",
            &planted("max_conflicts"),
        );
        for (file, _, _) in READERS {
            tree.write(file, &planted("x.unwrap()"));
        }
        tree.write("crates/distrib/src/transport.rs", &planted("TestPolicy"));
        let mut errors = Vec::new();
        check_counters_travel_whole(&tree.0, &mut errors);
        check_batches_borrow(&tree.0, &mut errors);
        check_readers_cannot_panic(&tree.0, &mut errors);
        check_test_policy_stays_in_tests(&tree.0, &mut errors);
        let found: Vec<String> = errors
            .iter()
            .map(|e| e.splitn(3, ": ").take(2).collect::<Vec<_>>().join(" "))
            .collect();
        assert_eq!(
            found,
            [
                "crates/distrib/src/lease.rs:3 reused_assumptions",
                "crates/pdsat-core/src/predict/cache.rs:3 max_conflicts",
                "crates/distrib/src/codec.rs:3 `unwrap`",
                "crates/cnf/src/dimacs.rs:3 `unwrap`",
                "crates/cnf/src/drat.rs:3 `unwrap`",
                "src/bin/pdsat.rs:3 `unwrap`",
                "crates/distrib/src/transport.rs:3 TestPolicy",
            ]
        );
    }

    #[test]
    fn orphans_probes_shared_names_and_reads_what_cargo_check_reports() {
        let tree = Tree::new("orphans");
        tree.write(
            "crates/a/src/lib.rs",
            "pub fn unique_name() {}\npub fn len(&self) -> usize { 0 }\n\
             /* χ */ pub fn config() {}\npub enum Mode {\n    Fast,\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t() { let config = 1; }\n}\n",
        );
        tree.write(
            "crates/b/src/lib.rs",
            "pub struct S {\n    pub fast: bool,\n}\nfn f(unique_name2: u8) { let mut Fast = 0; }\n",
        );
        let sources = Sources::read(&tree.0);
        let names: Vec<&str> = shared_name_items(&sources)
            .iter()
            .map(|&(_, _, name)| name)
            .collect();
        // `len` is a `std` method, the test binding shares `config`, and the
        // `let mut` binding shares `Fast`; nothing else declares `unique_name`.
        assert_eq!(names, ["len", "config", "Fast"]);

        let text = std::fs::read_to_string(tree.0.join("crates/a/src/lib.rs")).expect("read");
        let renamed = rename_at(&text, &code_only(&text), 2, "config");
        assert!(renamed.contains("/* χ */ pub fn config_xtask_orphan() {}\n"));
        assert!(renamed.contains("let config = 1;"));

        let stderr = "crates/a/src/lib.rs:9:20: error[E0425]: cannot find function `config`\n\
                      crates/b/src/lib.rs:4:5: warning: unused variable\n\
                      error: could not compile `a` (lib test) due to 1 previous error\n";
        let errors: Vec<_> = stderr.lines().filter_map(error_location).collect();
        assert_eq!(errors, [("crates/a/src/lib.rs".to_string(), 9)]);
    }

    #[test]
    fn every_public_item_needs_a_caller_outside_its_own_tests() {
        let tree = Tree::new("callers");
        let write = |path: &str, text: &str| tree.write(path, text);
        write(
            "crates/a/src/lib.rs",
            "pub mod codec;\n\
             pub fn orphan() {}\n\
             /// Call `documented()`.\n\
             pub fn documented() {}\n\
             pub fn tested_only() {}\n\
             pub fn for_benchmark() {}\n\
             pub fn for_tests() {}\n\
             pub const fn for_b() -> u8 { 0 }\n\
             pub const KEPT: u8 = 0;\n\
             pub fn now_called() {}\n\
             pub enum Mode {\n    #[default]\n    Used,\n    Unused(u8, Vec<u8>),\n    \
             Struct { used: u8 },\n}\n\
             #[cfg(test)]\n\
             pub fn helper() -> Mode { Mode::Used }\n\
             #[cfg(test)]\n\
             mod tests {\n    fn t() { super::tested_only(); super::helper(); }\n}\n",
        );
        write(
            "crates/a/src/codec.rs",
            "pub fn out_of_line() {}\n#[cfg(test)]\nmod tests;\n",
        );
        write(
            "crates/a/src/codec/tests.rs",
            "fn t() { super::out_of_line(); }\n",
        );
        write(
            "crates/b/src/lib.rs",
            "pub use a::documented;\n\
             pub fn uses() -> u8 { a::now_called(); a::for_b() + Struct }\n\
             const RAW: &str = r#\"out_of_line \"Unused\"#;\n",
        );
        write("crates/b/src/bin/tool.rs", "pub fn main() { b::uses(); }\n");
        write(
            "benchmark/src/main.rs",
            "fn main() { a::for_benchmark(); }\n",
        );
        write(
            "tests/end_to_end.rs",
            "#[test]\nfn t() { a::for_tests(); }\n",
        );
        let allowlist = [
            ("crates/a/src/lib.rs", "KEPT", "kept without a caller"),
            (
                "crates/a/src/lib.rs",
                "now_called",
                "stale: it has a caller",
            ),
            ("crates/a/src/gone.rs", "deleted", "stale: the item is gone"),
        ];
        let mut errors = Vec::new();
        check_callers(&tree.0, &allowlist, &mut errors);
        let found: Vec<String> = errors
            .iter()
            .map(|e| e.splitn(3, ": ").take(2).collect::<Vec<_>>().join(" "))
            .collect();
        assert_eq!(
            found,
            [
                "crates/a/src/codec.rs:1 out_of_line",
                "crates/a/src/lib.rs:2 orphan",
                "crates/a/src/lib.rs:4 documented",
                "crates/a/src/lib.rs:5 tested_only",
                "crates/a/src/lib.rs:10 now_called",
                "crates/a/src/lib.rs:14 Unused",
                "crates/a/src/lib.rs:18 helper",
                "crates/a/src/gone.rs deleted",
            ]
        );
        assert!(errors[4].contains("remove its rule 11 allowlist entry"));
        assert!(errors[7].contains("is gone"));
    }
}
