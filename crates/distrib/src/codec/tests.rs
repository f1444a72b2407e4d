//! Differential tests of the byte-level writer and the single-scan reader
//! against the `str`-based codec they replaced ([`super::reference`],
//! verbatim), in the way `tests/lease_index_parity.rs` keeps the scanning
//! lease table:
//!
//! * generated checkpoints — counters up to `u64::MAX`, wall times past
//!   `u64` nanoseconds, models holding all three values, empty and long
//!   cost lists, `first_sat_index` both ways — are written to the same
//!   bytes, bare and framed;
//! * hostile checkpoint text and damaged store files get the same answer:
//!   the same checkpoint (and generation), or the same error variant with
//!   the same `line_number`.
//!
//! The one difference allowed is the one `codec.rs` documents: non-ASCII
//! whitespace no longer separates payload fields, so a text holding some
//! in a line that is not blank may be `Malformed` where the reference read
//! it.

use super::reference::{self, Reference};
use super::*;
use crate::store::{crc32, CheckpointStore};
use crate::{
    synthetic_family_solver, ClientBehavior, Coordinator, CoordinatorConfig, LoopbackConfig,
    LoopbackTransport, RunStatus,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a reader made of its input, comparable across the two codecs: the
/// checkpoint spelled out (reference text, which is bit-exact for floats,
/// plus `Debug` for what the text does not carry) with its generation, or
/// the error variant with the line number of a `LineCorrupt`.
type Outcome = Result<(String, u64), (&'static str, usize)>;

fn outcome(result: Result<(CoordinatorCheckpoint, u64), CheckpointError>) -> Outcome {
    match result {
        Ok((checkpoint, generation)) => Ok((
            format!("{}{checkpoint:?}", Reference::to_text(&checkpoint)),
            generation,
        )),
        Err(CheckpointError::Io { .. }) => Err(("Io", 0)),
        Err(CheckpointError::Malformed { .. }) => Err(("Malformed", 0)),
        Err(CheckpointError::LineCorrupt { line_number }) => Err(("LineCorrupt", line_number)),
        Err(CheckpointError::BadTrailer { .. }) => Err(("BadTrailer", 0)),
        Err(CheckpointError::NoValidGeneration { .. }) => Err(("NoValidGeneration", 0)),
    }
}

/// The reference's answer for a store file: unframe, then parse.
fn reference_store(text: &str) -> Result<(CoordinatorCheckpoint, u64), CheckpointError> {
    reference::decode_store(text).and_then(|(payload, generation)| {
        CoordinatorCheckpoint::from_text_v1(&payload).map(|checkpoint| (checkpoint, generation))
    })
}

impl CoordinatorCheckpoint {
    /// [`Reference::from_text`] under a name that cannot be mistaken for
    /// the inherent one.
    fn from_text_v1(text: &str) -> Result<CoordinatorCheckpoint, CheckpointError> {
        <CoordinatorCheckpoint as Reference>::from_text(text)
    }
}

/// Whether a line of `text` that is not blank holds non-ASCII whitespace.
fn has_non_ascii_whitespace(text: &str) -> bool {
    text.lines().any(|line| {
        !line.trim().is_empty() && line.chars().any(|c| c.is_whitespace() && !c.is_ascii())
    })
}

/// Asserts the two outcomes agree, allowing only the documented
/// tightening.
fn assert_same(new: &Outcome, old: &Outcome, text: &str) {
    if new != old && has_non_ascii_whitespace(text) {
        assert_eq!(new, &Err(("Malformed", 0)), "{text:?}");
    } else {
        assert_eq!(new, old, "{text:?}");
    }
}

// ------------------------------------------------------------ generators --

fn pick<T: Copy>(rng: &mut StdRng, values: &[T]) -> T {
    values[rng.gen_range(0..values.len())]
}

fn edge_u64(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..4u32) {
        0 => rng.gen(),
        1 => rng.gen_range(0..1_000_000),
        _ => pick(
            rng,
            &[
                0,
                1,
                9,
                10,
                99,
                100,
                4_194_305,
                9_999_999_999_999_999_999,
                10_000_000_000_000_000_000,
                u64::MAX - 1,
                u64::MAX,
            ],
        ),
    }
}

fn edge_usize(rng: &mut StdRng) -> usize {
    usize::try_from(edge_u64(rng)).unwrap_or(usize::MAX)
}

fn float(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..3u32) {
        0 => f64::from_bits(rng.gen()),
        1 => rng.gen_range(0.0..100.0),
        _ => pick(
            rng,
            &[
                0.0,
                -0.0,
                1.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                f64::from_bits(1),
                f64::from_bits(0x7FF0_0000_0000_0001),
                f64::MAX,
            ],
        ),
    }
}

fn model(rng: &mut StdRng) -> Assignment {
    let mut model = Assignment::new(rng.gen_range(0..70));
    for v in 0..model.num_vars() {
        match rng.gen_range(0..3u32) {
            0 => model.assign(Var::new(u32::try_from(v).expect("short model")), true),
            1 => model.assign(Var::new(u32::try_from(v).expect("short model")), false),
            _ => {}
        }
    }
    model
}

/// A report for a unit of `cubes` cubes: of its shape when `fits`, with
/// arbitrary counts otherwise.
fn report(rng: &mut StdRng, set_size: usize, cubes: usize, fits: bool) -> SolveReport {
    let mut r = SolveReport::empty(set_size);
    r.cubes_processed = if fits { cubes } else { edge_usize(rng) };
    let costs = if fits {
        cubes
    } else {
        pick(rng, &[0, 1, cubes, 40])
    };
    r.per_cube_costs = (0..costs).map(|_| float(rng)).collect();
    r.total_cost = float(rng);
    if fits {
        r.sat_count = rng.gen_range(0..=cubes);
        r.unknown_count = rng.gen_range(0..=cubes - r.sat_count);
        r.first_sat_index = (cubes > 0 && rng.gen_bool(0.5)).then(|| rng.gen_range(0..cubes));
    } else {
        r.sat_count = edge_usize(rng);
        r.unknown_count = edge_usize(rng);
        r.first_sat_index = rng.gen_bool(0.5).then(|| edge_usize(rng));
    }
    r.cost_to_first_sat = rng.gen_bool(0.5).then(|| float(rng));
    r.wall_time = if !fits && rng.gen_bool(0.2) {
        // Past `u64` nanoseconds: written as a `u128`, read back by neither.
        Duration::new(u64::MAX, 999_999_999)
    } else {
        Duration::from_nanos(edge_u64(rng))
    };
    for counter in r.counters.values_mut() {
        *counter = edge_u64(rng);
    }
    r.model = rng.gen_bool(0.4).then(|| model(rng));
    r
}

/// A checkpoint of up to 40 units, most of them completed, of their shape
/// unless `fits` is false.
fn checkpoint(rng: &mut StdRng, fits: bool) -> CoordinatorCheckpoint {
    let work_unit_size = rng.gen_range(1..6usize);
    let num_units = rng.gen_range(1..40usize);
    let total_cubes = num_units * work_unit_size - rng.gen_range(0..work_unit_size);
    let set_size = if fits {
        rng.gen_range(0..64)
    } else {
        edge_usize(rng)
    };
    let mut checkpoint = CoordinatorCheckpoint::empty(set_size, total_cubes, work_unit_size);
    for index in 0..num_units {
        if rng.gen_bool(0.7) {
            let fits = fits || rng.gen_bool(0.5);
            let report = report(rng, set_size, checkpoint.unit_cubes(index), fits);
            let id = u32::try_from(index).expect("fewer than 40 units");
            checkpoint.completed.insert(id, report);
        }
    }
    checkpoint
}

/// The text of a small completed chaotic run, as `tests/coordinator_props.rs`
/// damages it.
fn run_text() -> String {
    let config = CoordinatorConfig {
        work_unit_size: 3,
        redundancy: 1,
        lease_timeout: 20_000.0,
    };
    let mut coordinator = Coordinator::new(4, 11, &config);
    let costs = (0..11).map(|i| 0.5 + f64::from(i) * 0.13).collect();
    let mut transport = LoopbackTransport::new(
        LoopbackConfig {
            num_clients: 6,
            seed: 5,
            behavior: ClientBehavior::default(),
            poll_interval: 250.0,
            replace_departed: true,
            ideal_hosts: false,
        },
        synthetic_family_solver(4, costs, Some(4)),
    );
    assert_eq!(
        coordinator.run(&mut transport, Some(2_000_000)),
        RunStatus::Complete
    );
    coordinator.checkpoint().to_text()
}

/// `tests/coordinator_props.rs`' hostile tokens, and spellings
/// `from_str_radix` accepts that the writer never produces.
const HOSTILE_TOKENS: [&str; 20] = [
    "0",
    "1",
    "7",
    "-",
    "-1",
    "x10",
    "4194305",
    "18446744073709551615",
    "18446744073709551616",
    "ffffffffffffffff",
    "4014000000000000",
    "4014000000000000,4008000000000000",
    "+1",
    "+",
    "007",
    "+4014000000000000",
    "401400000000000A",
    "00004014000000000000",
    "4014000000000000,",
    "",
];

/// Separators that `split_whitespace` and the byte cursor both split on,
/// and three non-ASCII ones only the former did.
const SEPARATORS: [&str; 10] = [
    " ", "  ", "\t", "\x0B", "\x0C", "\r", " \t ", "\u{A0}", "\u{3000}", "\u{85}",
];

/// Damages `valid` checkpoint text one of several ways.
fn hostile_text(rng: &mut StdRng, valid: &str) -> String {
    let mut lines: Vec<Vec<String>> = valid
        .lines()
        .map(|line| line.split(' ').map(str::to_string).collect())
        .collect();
    let join = |lines: &[Vec<String>], separator: &str| {
        lines
            .iter()
            .map(|fields| fields.join(" "))
            .collect::<Vec<_>>()
            .join(separator)
    };
    match rng.gen_range(0..8u32) {
        // Arbitrary bytes.
        0 => {
            let bytes: Vec<u8> = (0..rng.gen_range(0..200usize))
                .map(|_| rng.gen_range(0..=255u8))
                .collect();
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // A valid text with some bytes overwritten, then cut short.
        1 => {
            let mut bytes = valid.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..6usize) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.gen_range(0..=255u8);
            }
            bytes.truncate(rng.gen_range(0..=bytes.len()));
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Whole fields replaced by hostile ones.
        2 => {
            for _ in 0..rng.gen_range(1..4usize) {
                let line = rng.gen_range(1..lines.len());
                let field = rng.gen_range(0..lines[line].len());
                let hostile = pick(rng, &HOSTILE_TOKENS);
                lines[line][field] = match lines[line][field].split_once('=') {
                    Some((key, _)) if rng.gen_bool(0.8) => format!("{key}={hostile}"),
                    _ => hostile.to_string(),
                };
            }
            join(&lines, "\n")
        }
        // Other separators, blank lines, CRLF and trailing whitespace; the
        // non-ASCII separators only in some texts, so that the others are
        // held to the reference exactly.
        3 => {
            let separators = if rng.gen_bool(0.3) {
                &SEPARATORS[..]
            } else {
                &SEPARATORS[..7]
            };
            let mut text = String::new();
            for fields in &lines {
                if rng.gen_bool(0.2) {
                    text.push_str(pick(rng, &["", " ", "\t", "\r", "\u{3000}"]));
                    text.push('\n');
                }
                for (i, field) in fields.iter().enumerate() {
                    if i > 0 {
                        text.push_str(if rng.gen_bool(0.2) {
                            pick(rng, separators)
                        } else {
                            " "
                        });
                    }
                    text.push_str(field);
                }
                if rng.gen_bool(0.1) {
                    text.push_str(pick(rng, separators));
                }
                text.push_str(if rng.gen_bool(0.3) { "\r\n" } else { "\n" });
            }
            if rng.gen_bool(0.3) {
                text.pop();
            }
            text
        }
        // Unit lines out of order, repeated or dropped.
        4 => {
            if lines.len() > 3 {
                let a = rng.gen_range(2..lines.len());
                let b = rng.gen_range(2..lines.len());
                match rng.gen_range(0..3u32) {
                    0 => lines.swap(a, b),
                    1 => lines.insert(b, lines[a].clone()),
                    _ => {
                        lines.remove(a);
                    }
                }
            }
            join(&lines, "\n")
        }
        // The family line rewritten: keys reordered, repeated or missing.
        5 => {
            let mut family = lines[1][1..].to_vec();
            match rng.gen_range(0..3u32) {
                0 => family.reverse(),
                1 => family.push(family[rng.gen_range(0..family.len())].clone()),
                _ => {
                    family.remove(rng.gen_range(0..family.len()));
                }
            }
            lines[1] = std::iter::once("family".to_string())
                .chain(family)
                .collect();
            join(&lines, "\n")
        }
        // One field respelled — as `from_str_radix` also reads it, or
        // broken — and perhaps run into the next one, or one field too
        // many or too few.
        6 => {
            let line = rng.gen_range(1..lines.len());
            let len = lines[line].len();
            let field = if rng.gen_bool(0.25) {
                len - 1
            } else {
                rng.gen_range(1..len)
            };
            let (key, value) = match lines[line][field].split_once('=') {
                Some((key, value)) => (format!("{key}="), value.to_string()),
                None => (String::new(), lines[line][field].clone()),
            };
            let value = match rng.gen_range(0..8u32) {
                0 => format!("+{value}"),
                1 => format!("00{value}"),
                2 => value.to_uppercase(),
                3 => format!("{value},"),
                4 => format!("-{value}"),
                5 => format!("{value},{value}"),
                6 => format!("{value}x"),
                _ => value,
            };
            lines[line][field] = format!("{key}{value}");
            match rng.gen_range(0..5u32) {
                0 if field + 1 < len => {
                    let next = lines[line].remove(field + 1);
                    lines[line][field].push_str(&next);
                }
                1 => lines[line].insert(field, pick(rng, &["0", "-", "x"]).to_string()),
                2 => lines[line].push(pick(rng, &["0", "-", "x"]).to_string()),
                3 => {
                    lines[line].remove(field);
                }
                _ => {}
            }
            join(&lines, "\n")
        }
        // The header or the family line missing, or nothing after them.
        _ => {
            let keep = pick(rng, &[0, 1, 2]);
            if rng.gen_bool(0.5) {
                lines.truncate(keep);
            } else if keep < lines.len() {
                lines.remove(keep);
            }
            join(&lines, "\n")
        }
    }
}

/// Damages a valid store file one of several ways; `text` is its payload.
fn damaged_store(rng: &mut StdRng, framed: &str, text: &str, generation: u64) -> Vec<u8> {
    let mut lines: Vec<String> = framed.lines().map(str::to_string).collect();
    let join = |lines: &[String]| (lines.join("\n") + "\n").into_bytes();
    let trailer = lines.len() - 1;
    match rng.gen_range(0..9u32) {
        // Torn at an arbitrary byte.
        0 => framed.as_bytes()[..rng.gen_range(0..framed.len())].to_vec(),
        // One bit flipped, which may leave bytes that are not UTF-8.
        1 => {
            let mut bytes = framed.as_bytes().to_vec();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8u32);
            bytes
        }
        // CRC fields spelled as `from_str_radix` also reads them.
        2 => {
            for line in &mut lines[1..trailer] {
                let (crc, body) = line.split_at(8);
                *line = match rng.gen_range(0..4u32) {
                    0 => format!("{}{body}", crc.to_uppercase()),
                    1 => format!("+{crc}{body}"),
                    2 => format!("00{crc}{body}"),
                    _ => format!("{crc}\t{body}"),
                };
            }
            join(&lines)
        }
        // CRLF line ends, a `\r` too many, whitespace around the header.
        3 => match rng.gen_range(0..3u32) {
            0 => framed.replace('\n', "\r\n").into_bytes(),
            1 => (lines.join("\r\r\n") + "\r\r\n").into_bytes(),
            _ => [format!(" {}\t\n", lines[0]).into_bytes(), join(&lines[1..])].concat(),
        },
        // Lines after the trailer, a second trailer among them.
        4 => {
            lines.push(pick(rng, &["junk", "", "end generation=99 lines=1 crc=0"]).to_string());
            lines.push(format!("{:08x} unit 0", crc32(b"unit 0")));
            join(&lines)
        }
        // A payload line dropped, repeated or moved.
        5 => {
            let a = rng.gen_range(1..trailer);
            let b = rng.gen_range(1..trailer);
            match rng.gen_range(0..3u32) {
                0 => lines.swap(a, b),
                1 => lines.insert(b, lines[a].clone()),
                _ => {
                    lines.remove(a);
                }
            }
            join(&lines)
        }
        // A hostile payload framed honestly: payload errors through the
        // framing, and with the framing also broken, framing errors first.
        6 => {
            let payload = hostile_text(rng, text);
            let mut lines: Vec<String> = reference::encode_store(&payload, generation)
                .lines()
                .map(str::to_string)
                .collect();
            let trailer = lines.len() - 1;
            match rng.gen_range(0..3u32) {
                0 if trailer > 1 => {
                    let line = rng.gen_range(1..trailer);
                    lines[line].push('!');
                }
                1 => lines[trailer].push_str(" lines=0"),
                _ => {}
            }
            join(&lines)
        }
        // Trailer fields replaced, repeated, dropped or unknown.
        7 => {
            let mut fields: Vec<String> = lines[trailer].split(' ').map(str::to_string).collect();
            let field = rng.gen_range(1..fields.len());
            match rng.gen_range(0..4u32) {
                0 => {
                    let key = fields[field].split('=').next().unwrap_or("").to_string();
                    fields[field] = format!("{key}={}", pick(rng, &HOSTILE_TOKENS));
                }
                1 => fields.push(fields[field].clone()),
                2 => {
                    fields.remove(field);
                }
                _ => fields.insert(field, "epoch=1".to_string()),
            }
            lines[trailer] = fields.join(pick(rng, &[" ", "\t", "  "]));
            join(&lines)
        }
        // The header damaged or missing, or the file empty.
        _ => match rng.gen_range(0..3u32) {
            0 => framed.replacen("v1", "v2", 1).into_bytes(),
            1 => join(&lines[1..]),
            _ => Vec::new(),
        },
    }
}

// ----------------------------------------------------------------- tests --

#[test]
fn writer_writes_the_bytes_of_the_reference() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_C001);
    for case in 0..512 {
        let checkpoint = checkpoint(&mut rng, case % 2 == 0);
        let text = Reference::to_text(&checkpoint);
        assert_eq!(checkpoint.to_text(), text, "case {case}");
        let generation = edge_u64(&mut rng);
        assert_eq!(
            write_store(&checkpoint, generation),
            reference::encode_store(&text, generation).into_bytes(),
            "case {case}"
        );
    }
}

#[test]
fn reader_reads_generated_checkpoints_as_the_reference_does() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_C002);
    let mut read = 0;
    for case in 0..512 {
        let checkpoint = checkpoint(&mut rng, case % 2 == 0);
        let text = Reference::to_text(&checkpoint);
        let new = outcome(read_text(text.as_bytes()).map(|c| (c, 0)));
        let old = outcome(CoordinatorCheckpoint::from_text_v1(&text).map(|c| (c, 0)));
        assert_eq!(new, old, "case {case}");
        read += usize::from(new.is_ok());
        let framed = reference::encode_store(&text, 3);
        assert_eq!(
            outcome(read_store(framed.as_bytes())),
            outcome(reference_store(&framed)),
            "case {case}"
        );
    }
    // Both sides of the shape rule are reached.
    assert!((128..384).contains(&read), "{read} of 512 read back");
}

#[test]
fn reader_decides_hostile_text_as_the_reference_does() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_C003);
    let run = run_text();
    let mut accepted = 0;
    for case in 0..4096 {
        let valid = if case % 2 == 0 {
            run.clone()
        } else {
            Reference::to_text(&checkpoint(&mut rng, true))
        };
        let text = hostile_text(&mut rng, &valid);
        let new = outcome(read_text(text.as_bytes()).map(|c| (c, 0)));
        let old = outcome(CoordinatorCheckpoint::from_text_v1(&text).map(|c| (c, 0)));
        assert_same(&new, &old, &text);
        accepted += usize::from(new.is_ok());
    }
    assert!(
        accepted > 400,
        "only {accepted} hostile texts were accepted"
    );
}

#[test]
fn reader_decides_damaged_store_files_as_the_reference_does() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_C004);
    let run = run_text();
    let mut seen = std::collections::BTreeSet::new();
    for case in 0..2048 {
        let text = if case % 2 == 0 {
            run.clone()
        } else {
            Reference::to_text(&checkpoint(&mut rng, true))
        };
        let generation = rng.gen_range(0..20);
        let framed = reference::encode_store(&text, generation);
        let bytes = damaged_store(&mut rng, &framed, &text, generation);
        // A byte that is not UTF-8 fails its line (or the trailer, or the
        // header) whatever it is replaced with.
        let lossy = String::from_utf8_lossy(&bytes);
        let new = outcome(read_store(&bytes));
        assert_same(&new, &outcome(reference_store(&lossy)), &lossy);
        assert_eq!(
            declared_generation(&bytes),
            reference::declared_generation(&lossy),
            "{lossy:?}"
        );
        seen.insert(new.map(|_| "Ok").unwrap_or_else(|(kind, _)| kind));
    }
    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        ["BadTrailer", "LineCorrupt", "Malformed", "Ok"]
    );
}

/// `CheckpointStore::load` reads each file's trailer once; it must still
/// try the files in the order the reference did (descending declared
/// generation, the live file first on a tie) and return the first that
/// verifies.
#[test]
fn load_picks_the_generation_the_reference_order_picks() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_C005);
    let path = std::env::temp_dir().join(format!("pdsat-codec-{}.ckpt", std::process::id()));
    let prev = path.with_file_name(format!("pdsat-codec-{}.ckpt.prev", std::process::id()));
    for case in 0..64 {
        let mut files = Vec::new();
        for file in [&path, &prev] {
            let text = Reference::to_text(&checkpoint(&mut rng, true));
            let generation = rng.gen_range(0..4);
            let framed = reference::encode_store(&text, generation);
            let bytes = if rng.gen_bool(0.4) {
                damaged_store(&mut rng, &framed, &text, generation)
            } else {
                framed.into_bytes()
            };
            std::fs::write(file, &bytes).expect("scratch file is writable");
            files.push(String::from_utf8_lossy(&bytes).into_owned());
        }
        let mut store = CheckpointStore::new(&path);
        let loaded = store.load();

        let mut order: Vec<&String> = files.iter().collect();
        order.sort_by_key(|text| std::cmp::Reverse(reference::declared_generation(text)));
        let expected = order.iter().find_map(|text| reference_store(text).ok());
        match (loaded, expected) {
            (Ok(Some(checkpoint)), Some((expected, generation))) => {
                assert_eq!(
                    outcome(Ok((checkpoint, store.generation()))),
                    outcome(Ok((expected, generation + 1))),
                    "case {case}"
                );
            }
            (Err(CheckpointError::NoValidGeneration { .. }), None) => {}
            (loaded, expected) => panic!("case {case}: {loaded:?} against {expected:?}"),
        }
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&prev);
}

#[test]
fn numbers_parse_as_from_str_radix_parses_them() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_C006);
    let alphabet = ['0', '1', '7', '9', 'a', 'f', 'A', 'F', 'g', '+', '-', ' '];
    let mut cases: Vec<String> = HOSTILE_TOKENS.iter().map(|t| t.to_string()).collect();
    cases.extend(["0".repeat(40), format!("{}1", "0".repeat(40)), "+-1".into()]);
    cases.extend(["ffffffffffffffff0", "10000000000000000", &"1".repeat(20)].map(String::from));
    for _ in 0..20_000 {
        let len = rng.gen_range(0..20);
        cases.push((0..len).map(|_| pick(&mut rng, &alphabet)).collect());
    }
    for case in &cases {
        for radix in [10, 16] {
            assert_eq!(
                parse(case.as_bytes(), radix),
                u64::from_str_radix(case, u32::from(radix)).ok(),
                "{case:?} in radix {radix}"
            );
            // A field of the line: as `split_whitespace` cuts it, then read.
            let mut cursor = Cursor(case.as_bytes());
            let field = case.split_whitespace().next();
            assert_eq!(
                cursor.number(radix),
                field.and_then(|f| u64::from_str_radix(f, u32::from(radix)).ok()),
                "{case:?} in radix {radix}"
            );
        }
    }
}

#[test]
fn lines_and_spaces_are_those_of_str() {
    for byte in 0..128u8 {
        assert_eq!(is_space(byte), char::from(byte).is_whitespace(), "{byte}");
    }
    let mut rng = StdRng::seed_from_u64(0xC0DE_C007);
    for _ in 0..20_000 {
        let len = rng.gen_range(0..24);
        let text: String = (0..len)
            .map(|_| pick(&mut rng, &['a', ' ', '\r', '\n']))
            .collect();
        let expected: Vec<&[u8]> = text.lines().map(str::as_bytes).collect();
        assert_eq!(
            Lines(text.as_bytes()).collect::<Vec<_>>(),
            expected,
            "{text:?}"
        );
        assert_eq!(
            fields(text.as_bytes()).collect::<Vec<_>>(),
            text.split_whitespace()
                .map(str::as_bytes)
                .collect::<Vec<_>>(),
            "{text:?}"
        );
    }
}
