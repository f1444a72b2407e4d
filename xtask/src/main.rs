//! Repository lint tasks, run in CI as `cargo run -p xtask -- lint`, and the
//! `orphans` check that is too slow for CI.
//!
//! Ten checks, all over the source tree as text (no compiler plumbing).
//! They keep the numbers other documents cite them by, so there is no 8:
//! what it refused, the injected fault plan, is one of rule 10's names.
//! A run reads each file once into one [`Sources`]; a Rust file that cannot
//! be read as text is an error. The rules read a Rust file's code: comments
//! and the insides of string and character literals are blanked. Its
//! non-test code is everything before its test module — the first
//! `#[cfg(test)]` line followed by a `mod` line — so a `#[cfg(test)]` helper
//! above the module hides none of the code after it. Rules 2, 4, 5, 6, 9
//! and 10 are rows of [`BANS`]: the files, lines and needles each refuses,
//! and the reason its findings give. The others are the functions of
//! [`CHECKS`].
//!
//! 1. **unsafe-free**: every crate root must carry `#![forbid(unsafe_code)]`:
//!    each `lib.rs` / `main.rs`, and each binary in `src/bin/` or
//!    `crates/*/src/bin/` and each example in `examples/`.
//! 2. **clock discipline**: the code of `crates/` and `src/` reads clocks
//!    (`Instant::now` / `SystemTime`) only in the files
//!    `xtask/time_allowlist.txt` lists, and each of those reads one —
//!    per-cube costs feed the Monte Carlo estimator, so clock reads stay
//!    confined to modules gated behind `SolverConfig::time_accounting` or
//!    explicitly wall-clock-facing code.
//! 3. **knob documentation**: each of the nine config structs
//!    (`SolverConfig`, `SolveModeConfig`, `EvaluatorConfig`, `TabuConfig`,
//!    `DriverConfig`, `SearchLimits`, `LoopbackConfig`, `CoordinatorConfig`,
//!    `ClusterConfig`) that has a public field has a
//!    knob table in DESIGN.md — a `` `Name`: `` line followed by a
//!    `| Knob | Meaning |` table — whose rows are exactly its public fields,
//!    and every `` `Name::x` `` DESIGN.md spells is a public field that
//!    exists: an option added back fails until it is documented, and a
//!    deleted one until its row goes.
//! 4. **no parked code**: no allowance for dead code or for positional
//!    plumbing, and no manifest entry for `serde` or for a second measuring
//!    harness.
//! 5. **counters travel whole**: the grid and the experiments name no single
//!    counter of the `family_counters!` list.
//! 6. **batches borrow, and nothing sets an unused limit**: the oracle keeps
//!    no channel, per-cube record or second executor, no batch stops at its
//!    first SAT cube, and no solve or search carries a limit no caller sets.
//! 7. **the checker stands alone**: the `[dependencies]` of
//!    `crates/checker/Cargo.toml` name no crate but `pdsat_cnf`. The checker
//!    is the trust boundary, so its propagation is a port of the solver's,
//!    never shared code; the solver may only be a dev-dependency, to emit
//!    the certificates the tests check.
//! 9. **the readers cannot panic**: the checkpoint codec, the DIMACS and DRAT
//!    readers and the `pdsat` command line that hands them files neither
//!    panic nor cast with `as` in their non-test code.
//! 10. **the test policies stay in tests**: each layer's hidden test policy is
//!     named by no non-test code outside its home crate, so every workload
//!     runs the one production policy of each layer.
//! 11. **every public item has a caller**: every `pub fn`, `pub const fn`,
//!     `pub const` and `pub enum` variant in the non-test code of a library
//!     crate (`crates/*/src` outside `src/bin/`, and the root `src/lib.rs`)
//!     is named, as a whole identifier, by code in `crates/`, `src/`,
//!     `examples/`, `tests/` or `benchmark/src` other than its own
//!     definition, a `pub use` statement and its own file's test module (an
//!     out-of-line `mod tests;` included). A doc example calls nothing.
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
use Needle::{FamilyCounters, Ident, PanicsAndCasts, RecordFill, Text};

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
    let errors = findings(&Sources::read(&repo_root()), |_| true);
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

/// What the rules `run` selects find in `sources`, after the files that
/// could not be read.
fn findings(sources: &Sources, run: impl Fn(u8) -> bool) -> Vec<String> {
    let mut errors = sources.unreadable.clone();
    for ban in BANS.iter().filter(|ban| run(ban.rule)) {
        scan(ban, sources, &mut errors);
    }
    for (_, check) in CHECKS.iter().filter(|(rule, _)| run(*rule)) {
        check(sources, &mut errors);
    }
    errors
}

/// A rule that is not a row of [`BANS`]: it adds what it finds to the list.
type Check = fn(&Sources, &mut Vec<String>);

/// The rules that are not rows of [`BANS`], by number.
const CHECKS: [(u8, Check); 5] = [
    (1, check_forbid_unsafe),
    (2, check_clock_allowlist),
    (3, check_knob_docs),
    (7, check_checker_stands_alone),
    (11, |sources, errors| {
        check_callers(sources, &UNCALLED, errors)
    }),
];

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

/// Everything a `lint` run reads, each file once.
struct Sources {
    /// Every Rust file under `crates`, `src`, `examples`, `tests`, `xtask`
    /// and `benchmark/src`.
    files: Vec<Source>,
    /// Each file's out-of-line test modules, by index.
    test_modules: Vec<Vec<usize>>,
    /// The root's, `xtask`'s and every `crates/*` and `vendor/*` manifest.
    manifests: Vec<Source>,
    design: Result<String, String>,
    /// The entries of `xtask/time_allowlist.txt`, with their line numbers.
    clock_allowlist: Result<Vec<(usize, String)>, String>,
    /// The names the `family_counters!` list next to `SolveReport` declares.
    family_counters: Result<Vec<String>, String>,
    /// An error for each of those Rust files and manifests that is there but
    /// could not be read as text.
    unreadable: Vec<String>,
}

impl Sources {
    fn read(root: &Path) -> Sources {
        let mut unreadable = Vec::new();
        let mut read = |path: &Path| match std::fs::read_to_string(path) {
            Ok(text) => Some((rel(root, path), text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => {
                unreadable.push(format!("{}: unreadable: {e}", rel(root, path)));
                None
            }
        };
        let mut paths = Vec::new();
        for dir in [
            "crates",
            "src",
            "examples",
            "tests",
            "xtask",
            "benchmark/src",
        ] {
            rust_files(&root.join(dir), &mut paths);
        }
        let files: Vec<Source> = paths
            .iter()
            .filter_map(|path| read(path).map(|(path, text)| Source::new(path, &text)))
            .collect();
        let mut dirs = vec![root.to_path_buf(), root.join("xtask")];
        for dir in ["crates", "vendor"] {
            if let Ok(entries) = std::fs::read_dir(root.join(dir)) {
                dirs.extend(entries.flatten().map(|e| e.path()).filter(|p| p.is_dir()));
            }
        }
        dirs.sort();
        let manifests = dirs
            .iter()
            .filter_map(|dir| read(&dir.join("Cargo.toml")))
            .map(|(path, text)| Source::manifest(path, &text))
            .collect();

        let test_modules = files
            .iter()
            .map(|s| {
                let modules = s.test_module_files();
                (0..files.len())
                    .filter(|&g| modules.contains(&files[g].path))
                    .collect()
            })
            .collect();
        let text = |file: &str| {
            std::fs::read_to_string(root.join(file)).map_err(|e| format!("{file}: unreadable: {e}"))
        };
        let clock_allowlist = text("xtask/time_allowlist.txt").map(|text| {
            let entries = text.lines().map(str::trim).enumerate();
            entries
                .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
                .map(|(i, l)| (i + 1, l.to_string()))
                .collect()
        });
        let counters = "crates/pdsat-core/src/solve_mode.rs";
        let family_counters = match files.iter().find(|s| s.path == counters) {
            Some(source) => {
                parse_family_counters(&source.code).map_err(|e| format!("{counters}: {e}"))
            }
            None => Err(format!("{counters}: not found")),
        };
        Sources {
            files,
            test_modules,
            manifests,
            design: text("DESIGN.md"),
            clock_allowlist,
            family_counters,
            unreadable,
        }
    }

    /// The Rust file at `path`, relative to the root.
    fn file(&self, path: &str) -> Option<&Source> {
        self.files.iter().find(|s| s.path == path)
    }

    /// The files that can call a public item, by index: all but xtask's own.
    fn callers(&self) -> impl Iterator<Item = (usize, &Source)> {
        let files = self.files.iter().enumerate();
        files.filter(|(_, s)| !s.path.starts_with("xtask/"))
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

/// One file as the rules read it: a Rust file's code with comments and
/// literals blanked, or a manifest's lines up to their `#` comments, and the
/// line its first `#[cfg(test)] mod` starts on.
struct Source {
    path: String,
    code: String,
    test_from: usize,
}

impl Source {
    fn new(path: String, text: &str) -> Source {
        let code = code_only(text);
        // A `#[cfg(test)]` helper before the module is not where it starts.
        let lines: Vec<&str> = code.lines().collect();
        let test_from = lines
            .windows(2)
            .position(|w| w[0].trim() == "#[cfg(test)]" && w[1].trim().starts_with("mod "))
            .unwrap_or(usize::MAX);
        Source {
            path,
            code,
            test_from,
        }
    }

    fn manifest(path: String, text: &str) -> Source {
        let lines: Vec<&str> = text
            .lines()
            .map(|l| l.split('#').next().unwrap_or(l))
            .collect();
        Source {
            path,
            code: lines.join("\n"),
            test_from: usize::MAX,
        }
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

/// Whether `path` is `pattern` or lies under it: a file, or a directory
/// ending in `/`, in which `*` stands for any one path segment.
fn under(path: &str, pattern: &str) -> bool {
    let mut segments = path.split('/');
    pattern
        .trim_end_matches('/')
        .split('/')
        .all(|p| segments.next().is_some_and(|s| p == "*" || p == s))
}

/// Rule 1, over the crate roots: the root crate's, every `crates/*` crate's
/// and xtask's `lib.rs` and `main.rs`, and every file directly in a binary
/// or example directory.
fn check_forbid_unsafe(sources: &Sources, errors: &mut Vec<String>) {
    for source in &sources.files {
        let library_or_main = ["src/", "crates/*/src/", "xtask/src/"].iter().any(|dir| {
            ["lib.rs", "main.rs"]
                .map(|file| format!("{dir}{file}"))
                .iter()
                .any(|root| under(&source.path, root))
        });
        let binary_or_example = ["src/bin/", "crates/*/src/bin/", "examples/"]
            .iter()
            .any(|dir| {
                under(&source.path, &format!("{dir}*"))
                    && source.path.matches('/').count() == dir.matches('/').count()
            });
        let root = library_or_main || binary_or_example;
        if root && !source.code.contains("#![forbid(unsafe_code)]") {
            errors.push(format!(
                "{}: crate root is missing #![forbid(unsafe_code)]",
                source.path
            ));
        }
    }
}

/// Rule 2's other half: every entry of the allowlist still reads a clock.
/// Stale entries are errors, or the list silently rots.
fn check_clock_allowlist(sources: &Sources, errors: &mut Vec<String>) {
    let Ok(entries) = &sources.clock_allowlist else {
        errors.extend(sources.clock_allowlist.clone().err());
        return;
    };
    for (line, entry) in entries {
        let at = format!("xtask/time_allowlist.txt:{line}: {entry}");
        let Some(source) = sources.file(entry) else {
            errors.push(format!("{at}: file does not exist"));
            continue;
        };
        let reads = |line: &str| {
            CLOCK_READS
                .iter()
                .any(|n| !n.find(line, sources).is_empty())
        };
        if !source.code.lines().any(reads) {
            errors.push(format!("{at}: no clock reads left; remove the entry"));
        }
    }
}

/// Public field names of a `pub struct <name>` in the code of the file at
/// `path`: none for a unit struct (`pub struct Name;`) or an empty one.
fn pub_fields(code: &str, path: &str, struct_name: &str) -> Result<Vec<String>, String> {
    let header = format!("pub struct {struct_name}");
    let start = code
        .match_indices(&header)
        .find(|&(at, _)| !code[at + header.len()..].starts_with(is_ident))
        .ok_or_else(|| format!("{path}: `{header}` not found"))?
        .0;
    let rest = code[start + header.len()..].trim_start();
    if rest.starts_with(';') {
        return Ok(Vec::new());
    }
    let body = rest
        .strip_prefix('{')
        .ok_or_else(|| format!("{path}: `{header}` has no field block"))?;
    if body.trim_start().starts_with('}') {
        return Ok(Vec::new());
    }
    let end = body
        .find("\n}")
        .ok_or_else(|| format!("{path}: unterminated struct {struct_name}"))?;
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
        return Err(format!("{path}: no public fields parsed for {struct_name}"));
    }
    Ok(fields)
}

/// The config structs DESIGN.md gives a knob table, and where each lives.
const KNOB_SOURCES: [(&str, &str); 9] = [
    ("crates/solver/src/config.rs", "SolverConfig"),
    ("crates/pdsat-core/src/solve_mode.rs", "SolveModeConfig"),
    ("crates/pdsat-core/src/predict.rs", "EvaluatorConfig"),
    ("crates/pdsat-core/src/tabu.rs", "TabuConfig"),
    ("crates/pdsat-core/src/driver.rs", "DriverConfig"),
    ("crates/pdsat-core/src/search.rs", "SearchLimits"),
    ("crates/distrib/src/transport.rs", "LoopbackConfig"),
    ("crates/distrib/src/coordinator.rs", "CoordinatorConfig"),
    ("crates/distrib/src/cluster.rs", "ClusterConfig"),
];

/// Rule 3.
fn check_knob_docs(sources: &Sources, errors: &mut Vec<String>) {
    let Ok(design) = &sources.design else {
        errors.extend(sources.design.clone().err());
        return;
    };
    for (path, struct_name) in KNOB_SOURCES {
        let fields = match sources.file(path) {
            Some(source) => pub_fields(&source.code, path, struct_name),
            None => Err(format!("{path}: not found")),
        };
        match fields {
            Ok(fields) => check_knob_table(design, path, struct_name, &fields, errors),
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

/// The names a `family_counters!` invocation in `code` lists, in order: one
/// `name,` or `name: reserved,` a line — a reserved slot is still a counter
/// nothing outside the list may name.
fn parse_family_counters(code: &str) -> Result<Vec<String>, String> {
    let header = "\nfamily_counters! {\n";
    let start = code.find(header).ok_or("`family_counters! {` not found")?;
    let body = &code[start + header.len()..];
    let end = body.find("\n}").ok_or("unterminated family_counters!")?;
    let names: Vec<String> = body[..end]
        .lines()
        .filter_map(|line| line.trim().strip_suffix(','))
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

/// Whether `code` holds a `vec![element; n]` whose element is built by a
/// call or a struct literal.
fn fills_with_a_record(code: &str) -> bool {
    code.split("vec![").skip(1).any(|rest| {
        let inside = rest.split(']').next().unwrap_or(rest);
        let element = inside.split_once(';').map(|(element, _)| element);
        element.is_some_and(|e| e.contains(['(', '{']))
    })
}

/// Rule 7.
fn check_checker_stands_alone(sources: &Sources, errors: &mut Vec<String>) {
    let path = "crates/checker/Cargo.toml";
    let Some(manifest) = sources.manifests.iter().find(|s| s.path == path) else {
        errors.push(format!("{path}: not found"));
        return;
    };
    for name in dependency_names(&manifest.code) {
        if name != "pdsat_cnf" {
            errors.push(format!(
                "{path}: [dependencies] names `{name}`: the checker is \
                 the trust boundary and shares no code but pdsat_cnf's vocabulary (a solver \
                 crate may be a dev-dependency)"
            ));
        }
    }
}

/// One rule, or one part of one: needles that may not appear in some lines
/// of some files.
struct Ban {
    /// Its number in the module documentation.
    rule: u8,
    /// The files it holds, as [`under`]'s patterns; a file named outright
    /// must exist.
    files: &'static [&'static str],
    except: Except,
    lines: Lines,
    needles: &'static [Needle],
    /// Why a needle is refused, and what to do instead.
    advice: &'static str,
}

impl Ban {
    /// Whether it holds the file at `path`.
    fn holds(&self, path: &str, sources: &Sources) -> bool {
        let excepted = match self.except {
            Except::Paths(patterns) => patterns.iter().any(|p| under(path, p)),
            Except::ClockAllowlist => sources
                .clock_allowlist
                .as_ref()
                .map_or(true, |entries| entries.iter().any(|(_, e)| e == path)),
        };
        self.files.iter().any(|p| under(path, p)) && !excepted
    }
}

/// Which of its files a [`Ban`] leaves alone.
#[derive(Clone, Copy)]
enum Except {
    /// Those under these patterns.
    Paths(&'static [&'static str]),
    /// Those `xtask/time_allowlist.txt` lists (all, if it is unreadable).
    ClockAllowlist,
}

/// Which lines of a file a [`Ban`] searches.
#[derive(Clone, Copy)]
enum Lines {
    /// Every line of a manifest, up to its `#` comment.
    Manifest,
    /// Every line of a Rust file's code (comments and literals blanked).
    Code,
    /// The code of a Rust file before its `#[cfg(test)]` module.
    NonTestCode,
}

/// What a [`Ban`] looks for in a line.
#[derive(Clone, Copy, PartialEq)]
enum Needle {
    /// This text, anywhere.
    Text(&'static str),
    /// This name as a whole identifier ([`spells`]).
    Ident(&'static str),
    /// Each name the `family_counters!` list declares, anywhere.
    FamilyCounters,
    /// What [`panicking_words`] finds.
    PanicsAndCasts,
    /// A `vec![…; n]` filled with a constructed record
    /// ([`fills_with_a_record`]).
    RecordFill,
}

impl Needle {
    /// What of the needle `line` holds, as a finding names it.
    fn find(self, line: &str, sources: &Sources) -> Vec<String> {
        match self {
            Text(text) if line.contains(text) => vec![text.to_string()],
            Ident(name) if spells(line, name) => vec![name.to_string()],
            FamilyCounters => {
                let names = sources.family_counters.iter().flatten();
                names.filter(|name| line.contains(*name)).cloned().collect()
            }
            PanicsAndCasts => panicking_words(line)
                .into_iter()
                .map(|word| format!("`{word}`"))
                .collect(),
            RecordFill if fills_with_a_record(line) => vec!["placeholder fill".into()],
            _ => Vec::new(),
        }
    }
}

/// What a [`BANS`] row holds unless it says otherwise: non-test code, with
/// no exceptions.
const BAN: Ban = Ban {
    rule: 0,
    files: &[],
    except: Except::Paths(&[]),
    lines: Lines::NonTestCode,
    needles: &[],
    advice: "",
};

const CLOCK_READS: [Needle; 2] = [Text("Instant::now"), Text("SystemTime")];
const WORKSPACE_RUST: [&str; 5] = ["crates/", "src/", "examples/", "tests/", "xtask/"];
const MANIFESTS: [&str; 4] = ["Cargo.toml", "crates/", "vendor/", "xtask/"];
const ORACLE: [&str; 2] = [
    "crates/pdsat-core/src/oracle.rs",
    "crates/pdsat-core/src/oracle/",
];
/// Rule 10's files: each row leaves its policy's home crate out.
const POLICY_CALLERS: [&str; 3] = ["crates/*/src/", "src/", "examples/"];
const TEST_POLICY_ADVICE: &str =
    "every layer runs one production policy; its test policy is for the suites under tests/ only";

/// Rules 2, 4, 5, 6, 9 and 10, read by one scanner ([`scan`]), one row a
/// ban; a row leaves out what it takes from [`BAN`].
#[rustfmt::skip]
const BANS: [Ban; 18] = [
    Ban { rule: 2, files: &["crates/", "src/"], except: Except::ClockAllowlist, lines: Lines::Code,
          needles: &CLOCK_READS,
          advice: "clock read outside xtask/time_allowlist.txt (wall-clock reads must stay behind \
                   time_accounting gates)" },
    Ban { rule: 4, files: &WORKSPACE_RUST, lines: Lines::Code, needles: &[Text("allow(dead_code)")],
          advice: "delete the unused item or make it #[cfg(test)]", ..BAN },
    Ban { rule: 4, files: &WORKSPACE_RUST, lines: Lines::Code,
          needles: &[Text("allow(clippy::too_many_arguments)")],
          advice: "pass one value that describes the thing (as `BackendSpec` does)", ..BAN },
    Ban { rule: 4, files: &MANIFESTS, lines: Lines::Manifest, needles: &[Text("serde")],
          advice: "nothing serializes through it; remove the manifest entry", ..BAN },
    Ban { rule: 4, files: &MANIFESTS, lines: Lines::Manifest,
          needles: &[Text("criterion"), Text("[[bench]]")],
          advice: "benchmark/ is the one measuring harness; add a workload there", ..BAN },
    Ban { rule: 5, files: &["crates/distrib/src/", "crates/experiments/src/"],
          needles: &[FamilyCounters],
          advice: "carry the whole FamilyCounters value (its sum, its ordered view) instead of \
                   naming one counter", ..BAN },
    Ban { rule: 6, files: &ORACLE, lines: Lines::Code,
          needles: &[Text("mpsc"), Text("recv_timeout")],
          advice: "pool threads are scoped to one batch and report through their join; keep \
                   channels and their watchdog out of the oracle", ..BAN },
    Ban { rule: 6, files: &ORACLE, lines: Lines::Code, needles: &[Text("CubeOutcome"), RecordFill],
          advice: "results come back as the zeroed `costs` / `verdicts` columns, written in place; \
                   keep the per-cube record and its placeholder fill out of the oracle", ..BAN },
    Ban { rule: 6, files: &ORACLE, needles: &[Text("Sequential")],
          advice: "every batch runs on the worker pool; a one-slot pool already drains its stripe \
                   on the calling thread, so a second executor must not come back", ..BAN },
    Ban { rule: 6, files: &["crates/pdsat-core/src/"], needles: &[Text("stop_on_sat")],
          advice: "every cube of a batch is solved and reported, as the paper's solving mode \
                   processes whole families; no mode abandons a batch at its first SAT cube",
          ..BAN },
    Ban { rule: 6, files: &["crates/pdsat-core/src/", "crates/solver/src/"],
          needles: &[Text("StopReason"), Text("max_conflicts"), Text("max_propagations"),
                     Text("max_decisions"), Text("max_wall_time"), Text("with_time_limit"),
                     Text("TIME_SLICE")],
          advice: "every cube runs to a verdict and every search ends on its points or its \
                   strategy; a raised interrupt is the only early exit, and a test that needs one \
                   mid-search sets `TestPolicy::interrupt_at_conflict`", ..BAN },
    Ban { rule: 9, files: &["crates/distrib/src/codec.rs"], needles: &[PanicsAndCasts],
          advice: "the checkpoint reader reads bytes from disk and must not panic or truncate; \
                   return a `CheckpointError` and convert with `From` / `TryFrom`", ..BAN },
    Ban { rule: 9, files: &["crates/cnf/src/dimacs.rs"], needles: &[PanicsAndCasts],
          advice: "the DIMACS reader reads bytes from disk and must not panic or truncate; return \
                   a `ParseDimacsError` and convert with `From` / `TryFrom`", ..BAN },
    Ban { rule: 9, files: &["crates/cnf/src/drat.rs"], needles: &[PanicsAndCasts],
          advice: "the DRAT reader reads bytes from disk and must not panic or truncate; return an \
                   `Err` with the line and convert with `From` / `TryFrom`", ..BAN },
    Ban { rule: 9, files: &["src/bin/pdsat.rs"], needles: &[PanicsAndCasts],
          advice: "the `pdsat check` reader reads bytes from disk and must not panic or truncate; \
                   return exit code 2 or 3 and convert with `From` / `TryFrom`", ..BAN },
    Ban { rule: 10, files: &POLICY_CALLERS, except: Except::Paths(&["crates/solver/"]),
          needles: &[Ident("TestPolicy"), Ident("set_test_policy")],
          advice: TEST_POLICY_ADVICE, ..BAN },
    Ban { rule: 10, files: &POLICY_CALLERS, except: Except::Paths(&["crates/pdsat-core/"]),
          needles: &[Ident("OracleTestPolicy"), Ident("CubeOracle::with_test_policy"),
                     Ident("FaultPlan")],
          advice: TEST_POLICY_ADVICE, ..BAN },
    Ban { rule: 10, files: &POLICY_CALLERS, except: Except::Paths(&["crates/distrib/"]),
          needles: &[Ident("GridTestPolicy"), Ident("LoopbackTransport::with_test_policy")],
          advice: TEST_POLICY_ADVICE, ..BAN },
];

/// Reports every needle of `ban` in the lines it searches of the files it
/// holds, and each file it names outright that is not there.
fn scan(ban: &Ban, sources: &Sources, errors: &mut Vec<String>) {
    if ban.needles.contains(&FamilyCounters) {
        errors.extend(sources.family_counters.clone().err());
    }
    let files = match ban.lines {
        Lines::Manifest => &sources.manifests,
        Lines::Code | Lines::NonTestCode => &sources.files,
    };
    for file in ban.files.iter().filter(|p| !p.ends_with('/')) {
        if !files.iter().any(|s| s.path == *file) {
            errors.push(format!("{file}: not found, and rule {} holds it", ban.rule));
        }
    }
    for source in files.iter().filter(|s| ban.holds(&s.path, sources)) {
        let path = &source.path;
        let end = match ban.lines {
            Lines::NonTestCode => source.test_from,
            Lines::Manifest | Lines::Code => usize::MAX,
        };
        for (i, line) in source.code.lines().take(end).enumerate() {
            for needle in ban.needles {
                for found in needle.find(line, sources) {
                    errors.push(format!("{path}:{}: {found}: {}", i + 1, ban.advice));
                }
            }
        }
    }
}

/// Rule 11's exceptions: public items of a library crate that nothing calls
/// but that stay, as `(file, name, reason)`.
const UNCALLED: [(&str, &str, &str); 0] = [];

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

/// Rule 11 over `sources`, with `allowlist` as its exceptions.
fn check_callers(sources: &Sources, allowlist: &[(&str, &str, &str)], errors: &mut Vec<String>) {
    // Where each identifier is spelled, `pub use` statements left out.
    let mut spelled: std::collections::HashMap<&str, Vec<(usize, usize)>> = Default::default();
    for (f, source) in sources.callers() {
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
const CARGO_CHECKS: [&[&str]; 2] = [
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
    if let Some(e) = sources.unreadable.first() {
        return Err(e.clone());
    }
    for args in CARGO_CHECKS {
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
    for (_, source) in sources.callers() {
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
        let called = self.errors(CARGO_CHECKS[0]).and_then(|errors| {
            if errors.iter().any(outside) {
                return Ok(true);
            }
            // Everything the package outside the workspace compiles is
            // non-test code of the libraries or the package's own.
            self.errors(CARGO_CHECKS[1])
                .map(|errors| !errors.is_empty())
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
    let column = spelled_at(code_line, name).map_or(0, |at| code_line[..at].chars().count());
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
    spelled_at(code, name).is_some()
}

/// Where `code` first spells `name` whole.
fn spelled_at(code: &str, name: &str) -> Option<usize> {
    let whole = |&(at, _): &(usize, &str)| {
        !code[..at].ends_with(is_ident) && !code[at + name.len()..].starts_with(is_ident)
    };
    code.match_indices(name).find(whole).map(|(at, _)| at)
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
        fn write(&self, path: &str, text: impl AsRef<[u8]>) {
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
    fn the_module_doc_lists_every_rule() {
        let listed: Vec<u8> = include_str!("main.rs")
            .lines()
            .take_while(|line| line.starts_with("//!"))
            .filter_map(|line| line.strip_prefix("//! ")?.split_once(". **"))
            .filter_map(|(number, _)| number.parse().ok())
            .collect();
        let mut rules: Vec<u8> = BANS.iter().map(|ban| ban.rule).collect();
        rules.extend(CHECKS.map(|(rule, _)| rule));
        rules.sort_unstable();
        rules.dedup();
        assert_eq!(listed, rules);
    }

    /// Planted trees, here and in the named cases below. The first line names the rules to run, a `== path` line
    /// starts a file (`{R}` stands for each file rule 9 holds), a `--` line
    /// ends them, and each line after it is one finding, as `file:line needle`.
    const CASES: [&[u8]; 6] = [
        // A commented-out or quoted attribute forbids nothing, and a binary
        // under `src/bin/` is a crate root; a module beside it is not.
        b"\
rules 1
== crates/a/src/lib.rs
// #![forbid(unsafe_code)]
pub fn f() {}
== crates/a/src/bin/tool.rs
fn main() {}
== crates/a/src/bin/tool/part.rs
pub fn g() {}
== src/main.rs
#![forbid(unsafe_code)]
fn main() {}
== xtask/src/main.rs
const S: &str = \"#![forbid(unsafe_code)]\";
--
crates/a/src/lib.rs crate root is missing #![forbid(unsafe_code)]
crates/a/src/bin/tool.rs crate root is missing #![forbid(unsafe_code)]
xtask/src/main.rs crate root is missing #![forbid(unsafe_code)]
",
        // An example is a crate root too.
        b"\
rules 1
== examples/demo.rs
fn main() {}
== examples/safe.rs
#![forbid(unsafe_code)]
fn main() {}
--
examples/demo.rs crate root is missing #![forbid(unsafe_code)]
",
        // Clock reads in code outside the allowlist, and entries that name no
        // file or a file whose only clock is in a comment. A block comment
        // and a string read no clock, and `tests/` is not held.
        b"\
rules 2
== xtask/time_allowlist.txt
# Files allowed to read wall clocks.
crates/a/src/timed.rs
crates/a/src/gone.rs
crates/a/src/quiet.rs
== crates/a/src/timed.rs
fn t() { let _ = std::time::Instant::now(); }
== crates/a/src/quiet.rs
// Instant::now went away.
== crates/b/src/lib.rs
use std::time::SystemTime;
fn f() { let _ = Instant::now(); }
/* Instant::now */ const S: &str = \"SystemTime\";
== src/main.rs
fn main() { SystemTime::now(); }
== tests/t.rs
fn t() { Instant::now(); }
--
crates/b/src/lib.rs:1 SystemTime
crates/b/src/lib.rs:2 Instant::now
src/main.rs:1 SystemTime
xtask/time_allowlist.txt:3 crates/a/src/gone.rs
xtask/time_allowlist.txt:4 crates/a/src/quiet.rs
",
        // Allowances in code, not in a comment, a string or `benchmark/`, and
        // `serde`, `criterion` and `[[bench]]` in a manifest, not in a comment.
        b"\
rules 4
== crates/a/src/lib.rs
#![allow(dead_code)]
// allow(dead_code) in a comment
#[allow(clippy::too_many_arguments)]
fn f() { let _ = \"allow(dead_code)\"; }
== benchmark/src/main.rs
#[allow(dead_code)]
fn f() {}
== Cargo.toml
[workspace]
[[bench]]
== crates/a/Cargo.toml
[package]
# serde = \"1\"
[dependencies]
serde = { version = \"1\" }
== vendor/rand/Cargo.toml
[dev-dependencies]
criterion = \"0.5\"
--
crates/a/src/lib.rs:1 allow(dead_code)
crates/a/src/lib.rs:3 allow(clippy::too_many_arguments)
Cargo.toml:2 [[bench]]
crates/a/Cargo.toml:4 serde
vendor/rand/Cargo.toml:2 criterion
",
        // A file a row names that is gone is an error, not a pass.
        b"\
rules 9
== crates/distrib/src/codec.rs
fn f() {}
--
crates/cnf/src/dimacs.rs not found, and rule 9 holds it
crates/cnf/src/drat.rs not found, and rule 9 holds it
src/bin/pdsat.rs not found, and rule 9 holds it
",
        // A Rust file that is not UTF-8 text is one error, whatever holds it.
        b"\
rules 2 10 11
== xtask/time_allowlist.txt
# No clock reads.
== crates/distrib/src/latin1.rs
// caf\xe9
fn f() {}
--
crates/distrib/src/latin1.rs unreadable
",
    ];

    #[test]
    fn every_planted_case_is_reported_by_file_line_and_needle() {
        for (n, case) in CASES.iter().enumerate() {
            assert_planted(&format!("case-{n}"), case);
        }
    }

    /// A channel, the per-cube record and its fills, not a comment or a column.
    const CHANNEL: &[u8] = b"\
rules 6
== crates/pdsat-core/src/oracle.rs
// mpsc went away, CubeOutcome too
mod pool;
fn columns(n: usize) { (vec![0.0; n], vec![None; n], vec![0u64; 2 * (n - 1)]); }
== crates/pdsat-core/src/oracle/pool.rs
use std::sync::mpsc;
fn f(rx: &mpsc::Receiver<u8>) {
    let _ = rx.recv_timeout(D);
}
struct CubeOutcome;
fn g(n: usize) {
    let _ = vec![Record::unsolved(); n];
    let _ = vec![Record { index: MAX }; n];
    let _ = vec![one(), two()];
}
--
crates/pdsat-core/src/oracle/pool.rs:1 mpsc
crates/pdsat-core/src/oracle/pool.rs:2 mpsc
crates/pdsat-core/src/oracle/pool.rs:3 recv_timeout
crates/pdsat-core/src/oracle/pool.rs:5 CubeOutcome
crates/pdsat-core/src/oracle/pool.rs:7 placeholder fill
crates/pdsat-core/src/oracle/pool.rs:8 placeholder fill
";

    #[test]
    fn batches_borrow_refuses_a_channel_in_the_oracle_and_ignores_comments() {
        assert_planted("channel", CHANNEL);
    }

    /// A second executor and `stop_on_sat` in non-test code, not in tests.
    const SECOND_EXECUTOR: &[u8] = b"\
rules 6
== crates/pdsat-core/src/oracle.rs
// No Sequential executor, no stop_on_sat.
struct CubeOracle { pool: WorkerPool }
#[cfg(test)]
mod tests {
    enum Executor { Sequential }
    const stop_on_sat: bool = false;
}
== crates/pdsat-core/src/oracle/pool.rs
enum Executor {
    Sequential(Box<dyn CubeBackend>),
    Pool(WorkerPool),
}
== crates/pdsat-core/src/solve_mode.rs
pub struct SolveModeConfig {
    pub stop_on_sat: bool,
}
/// Whole families: no `stop_on_sat`.
--
crates/pdsat-core/src/oracle/pool.rs:2 Sequential
crates/pdsat-core/src/solve_mode.rs:2 stop_on_sat
";

    #[test]
    fn batches_borrow_refuses_a_second_executor_and_stop_on_sat_outside_tests() {
        assert_planted("second_executor", SECOND_EXECUTOR);
    }

    /// Solve and search limits in non-test code, not in comments or tests.
    const LIMITS: &[u8] = b"\
rules 6
== crates/pdsat-core/src/oracle.rs
== crates/solver/src/budget.rs
/// No `max_conflicts`, no `StopReason`.
pub struct Budget;
#[cfg(test)]
mod tests {
    const max_wall_time: u8 = 0;
}
== crates/solver/src/solver/trail.rs
fn stop() -> StopReason {
    StopReason::ConflictLimit
}
== crates/pdsat-core/src/search.rs
const TIME_SLICE: usize = 8;
pub fn with_time_limit() {}
// No time limit: no with_time_limit, no TIME_SLICE.
--
crates/pdsat-core/src/search.rs:1 TIME_SLICE
crates/pdsat-core/src/search.rs:2 with_time_limit
crates/solver/src/solver/trail.rs:1 StopReason
crates/solver/src/solver/trail.rs:2 StopReason
";

    #[test]
    fn batches_borrow_refuses_solve_and_search_limits_outside_tests() {
        assert_planted("limits", LIMITS);
    }

    /// Every panicking word and cast of the readers' code, but not what
    /// comments, literals, `as _` imports and test modules hold.
    const PANICS_AND_CASTS: &[u8] = b"\
rules 9
== {R}
use std::fmt::Write as _;
fn f(x: Option<u8>) -> u32 { x.unwrap() as u32 }
fn g(r: Result<u8, ()>) -> u8 { r.expect(\"no\") }
fn h() { panic!(\"no\"); unreachable!(); todo!(); unimplemented!() }
fn panic(x: u64) -> u32 { let todo = 1; x as _ }
use std::io::Read as Input;
//! Never `unwrap`, never `as`: as said.
fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) } // x.unwrap() as u8
fn g(line: &[u8]) -> String { format!(\"expected 17 fields, as \\\" written in '{}'\", 1) }
fn h<'a>(b: &'a [u8]) -> bool { b == b\"as\" || b[0] == b'\"' || b[0] == b'\\'' }
/* a block comment: panic!(), x as u32 */ fn expected() {}
#[cfg(test)]
mod tests { fn t() { let _ = Some(1).unwrap() as u64; panic!(); } }
--
{R}:2 `unwrap`
{R}:2 `as`
{R}:3 `expect`
{R}:4 `panic!`
{R}:4 `unreachable!`
{R}:4 `todo!`
{R}:4 `unimplemented!`
{R}:5 `as`
{R}:6 `as`
";

    #[test]
    fn checkpoint_reader_refuses_panics_and_casts_in_code_only() {
        assert_planted("panics_and_casts", PANICS_AND_CASTS);
    }

    /// Each test policy named whole outside its home crate, in a `pub use`
    /// too, but not at home, in comments or in test modules.
    const TEST_POLICY: &[u8] = b"\
rules 10
== crates/solver/src/solver.rs
pub fn set_test_policy(&mut self, policy: TestPolicy) {}
== crates/pdsat-core/src/oracle.rs
use pdsat_solver::TestPolicy;
fn f(s: &mut Solver) {
    s.set_test_policy(p);
}
fn g() { LoopbackTransport::with_test_policy(c, GridTestPolicy::default(), s); }
// No TestPolicy here.
pub struct OracleTestPolicy;
fn f() { CubeOracle::with_test_policy(); }
#[cfg(test)]
mod tests {
    use pdsat_solver::TestPolicy;
}
== crates/distrib/src/transport.rs
fn f() { CubeOracle::with_test_policy(c, OracleTestPolicy::default()); }
use pdsat_core::FaultPlan;
pub struct GridTestPolicy;
fn f() { Self::with_test_policy(); }
#[cfg(test)]
mod tests {
    use pdsat_core::{FaultPlan, OracleTestPolicy};
}
== examples/quickstart.rs
fn main() { s.set_test_policy(p); }
// No FaultPlan here.
== src/lib.rs
pub use pdsat_solver::TestPolicy;
--
crates/pdsat-core/src/oracle.rs:1 TestPolicy
src/lib.rs:1 TestPolicy
crates/pdsat-core/src/oracle.rs:3 set_test_policy
examples/quickstart.rs:1 set_test_policy
crates/distrib/src/transport.rs:1 OracleTestPolicy
crates/distrib/src/transport.rs:1 CubeOracle::with_test_policy
crates/distrib/src/transport.rs:2 FaultPlan
crates/pdsat-core/src/oracle.rs:5 GridTestPolicy
crates/pdsat-core/src/oracle.rs:5 LoopbackTransport::with_test_policy
";

    #[test]
    fn test_policy_is_refused_outside_tests_and_the_solver() {
        assert_planted("test_policy", TEST_POLICY);
    }

    /// A `#[cfg(test)]` helper before the test module hides none of the
    /// code after it from rules 5, 6, 9 and 10.
    const CFG_TEST_HELPER: &[u8] = b"\
rules 5 6 9 10
== crates/pdsat-core/src/solve_mode.rs

family_counters! {
    reused_assumptions,
}
== crates/pdsat-core/src/oracle.rs
== crates/distrib/src/lease.rs
#[cfg(test)]
fn with_capacity() {}
fn f() { reused_assumptions; }
#[cfg(test)]
mod tests { fn t() { reused_assumptions; } }
== crates/pdsat-core/src/predict/cache.rs
#[cfg(test)]
fn with_capacity() {}
fn f() { max_conflicts; }
#[cfg(test)]
mod tests { fn t() { max_conflicts; } }
== {R}
#[cfg(test)]
fn with_capacity() {}
fn f() { x.unwrap(); }
#[cfg(test)]
mod tests { fn t() { x.unwrap(); } }
== crates/distrib/src/transport.rs
#[cfg(test)]
fn with_capacity() {}
fn f() { TestPolicy; }
#[cfg(test)]
mod tests { fn t() { TestPolicy; } }
--
crates/distrib/src/lease.rs:3 reused_assumptions
crates/pdsat-core/src/predict/cache.rs:3 max_conflicts
{R}:3 `unwrap`
crates/distrib/src/transport.rs:3 TestPolicy
";

    #[test]
    fn a_cfg_test_helper_before_the_test_module_hides_no_code() {
        assert_planted("cfg_test_helper", CFG_TEST_HELPER);
    }

    /// Writes the planted tree `case` under a scratch directory named after
    /// `name`, runs its rules, and checks that the findings are exactly its own.
    fn assert_planted(name: &str, case: &[u8]) {
        let each_reader = |line: &str| -> Vec<String> {
            let readers = BANS.iter().filter(|ban| ban.rule == 9);
            let readers = readers.flat_map(|ban| ban.files);
            match line.contains("{R}") {
                true => readers.map(|r| line.replace("{R}", r)).collect(),
                false => vec![line.to_string()],
            }
        };
        let mut lines = case.split_inclusive(|&b| b == b'\n');
        let first = String::from_utf8_lossy(lines.next().expect("the rules"));
        let rules: Vec<u8> = first.split_whitespace().flat_map(str::parse).collect();
        let mut files: Vec<(Vec<String>, Vec<u8>)> = Vec::new();
        for line in lines.by_ref() {
            let text = String::from_utf8_lossy(line);
            match text.strip_prefix("== ") {
                _ if text.trim_end() == "--" => break,
                Some(path) => files.push((each_reader(path.trim_end()), Vec::new())),
                None => files.last_mut().expect("a file").1.extend_from_slice(line),
            }
        }
        let mut expected: Vec<String> = lines
            .flat_map(|line| each_reader(String::from_utf8_lossy(line).trim_end()))
            .collect();
        let tree = Tree::new(name);
        for (paths, text) in &files {
            paths.iter().for_each(|path| tree.write(path, text));
        }
        let mut found: Vec<String> = findings(&Sources::read(&tree.0), |r| rules.contains(&r))
            .iter()
            .map(|e| e.splitn(3, ": ").take(2).collect::<Vec<_>>().join(" "))
            .collect();
        found.sort();
        expected.sort();
        assert_eq!(found, expected, "{name}: {first}");
    }

    #[test]
    fn family_counters_are_parsed_with_their_reserved_slots() {
        let text = "macro_rules! family_counters {\n    () => {};\n}\n\n\
                    family_counters! {\n    /// Reused.\n    reused_assumptions,\n    \
                    /// Field 9.\n    exported_clauses: reserved,\n    // a comment,\n    \
                    requeued_cubes,\n}\n\nfn after() {}\n";
        assert_eq!(
            parse_family_counters(&code_only(text)),
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
            "crates/pdsat-core/src/solve_mode.rs",
            "pub struct SolveModeConfig {}\n",
        );
        let design = "`LoopbackConfig`:\n\n| Knob | Meaning |\n|---|---|\n| `seed` | Seed. |\n\n\
                      `SolveModeConfig`:\n\n| Knob | Meaning |\n|---|---|\n\nSee `TabuConfig::radius`.\n";
        tree.write("DESIGN.md", design);
        let errors = findings(&Sources::read(&tree.0), |rule| rule == 3);
        // The five other structs' files are missing from the temp tree.
        let design: Vec<&String> = errors.iter().filter(|e| e.starts_with("DESIGN")).collect();
        assert_eq!(design.len(), 3, "{errors:?}");
        assert!(design[0].contains("`TabuConfig::radius` names no public field"));
        assert!(design[1].contains("LoopbackConfig knob `num_clients` is undocumented"));
        assert!(design[2].contains("no knob table for CoordinatorConfig"));
        assert_eq!(errors.len(), 8, "{errors:?}");
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
        check_callers(&Sources::read(&tree.0), &allowlist, &mut errors);
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
