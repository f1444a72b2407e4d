//! The checkpoint codec and store framing as they were before [`super`]
//! replaced them, kept verbatim as the reference model of the differential
//! tests in `tests.rs`: `to_text` / `from_text` (as the trait [`Reference`],
//! so their bodies keep `self`), `encode_store`, `decode_store`,
//! `declared_generation` and `parse_trailer`. They are the definition of
//! what the byte-level writer must write and what the single-scan reader
//! must accept. Do not edit them to match the new code.

use crate::coordinator::{report_fits_unit, CoordinatorCheckpoint};
use crate::store::{crc32, crc32_fold, CheckpointError, CRC_INIT};
use crate::transport::WorkUnitId;
use pdsat_cnf::{Assignment, Value, Var};
use pdsat_core::SolveReport;
use std::fmt::Write as _;
use std::time::Duration;

/// First line of the checkpoint text.
const CHECKPOINT_HEADER: &str = "pdsat-coordinator-checkpoint v1";

/// Appends the IEEE-754 bits of `value` as 16 lower-case hex digits — the
/// form every float of the checkpoint travels in.
fn push_bits(out: &mut String, value: f64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let bits = value.to_bits();
    let hex: [u8; 16] = std::array::from_fn(|i| DIGITS[(bits >> (60 - 4 * i)) as usize & 0xF]);
    out.push_str(std::str::from_utf8(&hex).expect("hex digits are ASCII"));
}

fn decode_bits(field: &str, line: &str) -> Result<f64, CheckpointError> {
    u64::from_str_radix(field, 16)
        .map(f64::from_bits)
        .map_err(|_| malformed(format!("bad value bits '{field}' in '{line}'")))
}

/// Shorthand for the parse-error variant of [`CheckpointError`].
fn malformed(reason: String) -> CheckpointError {
    CheckpointError::Malformed { reason }
}

/// `CoordinatorCheckpoint::{to_text, from_text}` as they were.
pub(super) trait Reference: Sized {
    fn to_text(&self) -> String;
    fn from_text(text: &str) -> Result<Self, CheckpointError>;
}

impl Reference for CoordinatorCheckpoint {
    /// Serializes the checkpoint into a line-oriented text form restored
    /// **bit-for-bit** by [`from_text`](CoordinatorCheckpoint::from_text):
    /// floats travel as hex-encoded IEEE-754 bits, models as one character
    /// per variable. This codec is what makes coordinator progress
    /// crash-safe on disk.
    fn to_text(&self) -> String {
        const INFALLIBLE: &str = "formatting into a String cannot fail";
        // One buffer, sized before the first byte is written: a unit line
        // is its counters (13 numbers, under 160 bytes unless they are
        // astronomically large), 17 bytes per cube cost and one per model
        // variable.
        let unit_bytes: usize = self
            .completed
            .values()
            .map(|r| {
                160 + 17 * r.per_cube_costs.len() + r.model.as_ref().map_or(0, Assignment::num_vars)
            })
            .sum();
        let mut out = String::with_capacity(128 + unit_bytes);
        out.push_str(CHECKPOINT_HEADER);
        out.push('\n');
        writeln!(
            out,
            "family set_size={} total_cubes={} work_unit_size={}",
            self.set_size, self.total_cubes, self.work_unit_size
        )
        .expect(INFALLIBLE);
        for (id, r) in &self.completed {
            write!(out, "unit {} {} ", id, r.cubes_processed).expect(INFALLIBLE);
            push_bits(&mut out, r.total_cost);
            write!(
                out,
                " {} {} {} ",
                r.sat_count,
                r.unknown_count,
                r.wall_time.as_nanos(),
            )
            .expect(INFALLIBLE);
            for counter in r.counters.values() {
                write!(out, "{counter} ").expect(INFALLIBLE);
            }
            match r.first_sat_index {
                Some(index) => {
                    write!(out, "{index}").expect(INFALLIBLE);
                }
                None => out.push('-'),
            }
            out.push(' ');
            match r.cost_to_first_sat {
                Some(cost) => push_bits(&mut out, cost),
                None => out.push('-'),
            }
            out.push(' ');
            match &r.model {
                Some(model) => {
                    out.extend((0..model.num_vars()).map(
                        |i| match model.value(Var::new(i as u32)) {
                            Value::True => '1',
                            Value::False => '0',
                            Value::Unassigned => 'x',
                        },
                    ))
                }
                None => out.push('-'),
            }
            out.push(' ');
            if r.per_cube_costs.is_empty() {
                out.push('-');
            }
            for (i, &cost) in r.per_cube_costs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_bits(&mut out, cost);
            }
            out.push('\n');
        }
        out
    }

    /// Parses the text form produced by
    /// [`to_text`](CoordinatorCheckpoint::to_text).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] describing the first bad line:
    /// one that does not parse, a family of zero-cube units or of more than
    /// [`MAX_UNITS`](Self::MAX_UNITS) of them, or a unit report that does not
    /// have the shape of its slice of the family (the rule uploads pass).
    fn from_text(text: &str) -> Result<CoordinatorCheckpoint, CheckpointError> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| malformed("empty checkpoint".into()))?;
        if header.trim() != CHECKPOINT_HEADER {
            return Err(malformed(format!(
                "unrecognized checkpoint header '{header}'"
            )));
        }
        let family = lines
            .next()
            .ok_or_else(|| malformed("missing family line".into()))?;
        let mut set_size = None;
        let mut total_cubes = None;
        let mut work_unit_size = None;
        for field in family
            .strip_prefix("family ")
            .ok_or_else(|| malformed(format!("bad family line '{family}'")))?
            .split_whitespace()
        {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| malformed(format!("bad family field '{field}'")))?;
            let parsed: usize = value
                .parse()
                .map_err(|_| malformed(format!("bad family value '{field}'")))?;
            match key {
                "set_size" => set_size = Some(parsed),
                "total_cubes" => total_cubes = Some(parsed),
                "work_unit_size" => work_unit_size = Some(parsed),
                _ => return Err(malformed(format!("unknown family field '{field}'"))),
            }
        }
        let (Some(set_size), Some(total_cubes), Some(work_unit_size)) =
            (set_size, total_cubes, work_unit_size)
        else {
            return Err(malformed(format!("incomplete family line '{family}'")));
        };
        let mut checkpoint = CoordinatorCheckpoint::empty(set_size, total_cubes, work_unit_size);
        if work_unit_size == 0 || checkpoint.num_units() > CoordinatorCheckpoint::MAX_UNITS {
            return Err(malformed(format!(
                "family line '{family}' shards into zero-cube units or into more than the \
                 supported maximum of {} units",
                CoordinatorCheckpoint::MAX_UNITS
            )));
        }
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let rest = line
                .strip_prefix("unit ")
                .ok_or_else(|| malformed(format!("expected 'unit …', got '{line}'")))?;
            let wrong_count = || malformed(format!("expected 17 unit fields in '{line}'"));
            let mut fields = rest.split_whitespace();
            let mut field = || fields.next().ok_or_else(wrong_count);
            let parse_usize = |f: &str| -> Result<usize, CheckpointError> {
                f.parse()
                    .map_err(|_| malformed(format!("bad count '{f}' in '{line}'")))
            };
            let parse_u64 = |f: &str| -> Result<u64, CheckpointError> {
                f.parse()
                    .map_err(|_| malformed(format!("bad count '{f}' in '{line}'")))
            };
            let id: WorkUnitId = field()?
                .parse()
                .map_err(|_| malformed(format!("bad unit id in '{line}'")))?;
            if (id as usize) >= checkpoint.num_units() {
                return Err(malformed(format!(
                    "unit id {id} outside the family in '{line}'"
                )));
            }
            let mut report = SolveReport::empty(set_size);
            report.cubes_processed = parse_usize(field()?)?;
            report.total_cost = decode_bits(field()?, line)?;
            report.sat_count = parse_usize(field()?)?;
            report.unknown_count = parse_usize(field()?)?;
            let nanos: u128 = field()?
                .parse()
                .map_err(|_| malformed(format!("bad wall time in '{line}'")))?;
            report.wall_time = Duration::from_nanos(
                u64::try_from(nanos)
                    .map_err(|_| malformed(format!("wall time overflow in '{line}'")))?,
            );
            for counter in report.counters.values_mut() {
                *counter = parse_u64(field()?)?;
            }
            report.first_sat_index = match field()? {
                "-" => None,
                index => Some(parse_usize(index)?),
            };
            report.cost_to_first_sat = match field()? {
                "-" => None,
                bits => Some(decode_bits(bits, line)?),
            };
            report.model = match field()? {
                "-" => None,
                values => {
                    let mut model = Assignment::new(values.len());
                    for (i, c) in values.chars().enumerate() {
                        match c {
                            '1' => model.assign(Var::new(i as u32), true),
                            '0' => model.assign(Var::new(i as u32), false),
                            'x' => {}
                            _ => {
                                return Err(malformed(format!(
                                    "bad model character '{c}' in '{line}'"
                                )))
                            }
                        }
                    }
                    Some(model)
                }
            };
            report.per_cube_costs = match field()? {
                "-" => Vec::new(),
                costs => costs
                    .split(',')
                    .map(|bits| decode_bits(bits, line))
                    .collect::<Result<_, _>>()?,
            };
            if fields.next().is_some() {
                return Err(wrong_count());
            }
            if !report_fits_unit(&report, set_size, checkpoint.unit_cubes(id as usize)) {
                return Err(malformed(format!(
                    "report does not have the shape of unit {id} in '{line}'"
                )));
            }
            if checkpoint.completed.insert(id, report).is_some() {
                return Err(malformed(format!("unit {id} listed twice")));
            }
        }
        Ok(checkpoint)
    }
}

/// File-format header for the store framing (distinct from the inner
/// checkpoint codec's own header, which travels as payload line 1).
const STORE_HEADER: &str = "pdsat-checkpoint-store v1";
/// Frames `payload` (the inner checkpoint text) with the store header,
/// per-line CRCs, and the generation trailer, in one walk over the payload:
/// the whole-payload CRC is folded line by line beside the per-line ones.
pub(super) fn encode_store(payload: &str, generation: u64) -> String {
    const INFALLIBLE: &str = "formatting into a String cannot fail";
    // Nine bytes of CRC prefix per line; checkpoint unit lines are far
    // longer than the 72 bytes this allows for, and a shorter-lined payload
    // only costs the buffer a regrowth.
    let mut out = String::with_capacity(payload.len() + payload.len() / 8 + 128);
    out.push_str(STORE_HEADER);
    out.push('\n');
    let mut lines = 0usize;
    let mut payload_crc = CRC_INIT;
    for raw in payload.split_inclusive('\n') {
        // What `str::lines` yields for this piece: no terminator.
        let line = raw
            .strip_suffix('\n')
            .map_or(raw, |line| line.strip_suffix('\r').unwrap_or(line));
        payload_crc = crc32_fold(payload_crc, raw.as_bytes());
        writeln!(out, "{:08x} {line}", crc32(line.as_bytes())).expect(INFALLIBLE);
        lines += 1;
    }
    writeln!(
        out,
        "end generation={generation} lines={lines} crc={:08x}",
        !payload_crc
    )
    .expect(INFALLIBLE);
    out
}

/// Verifies framing and CRCs, returning the inner payload text and the
/// generation number from the trailer.
pub(super) fn decode_store(text: &str) -> Result<(String, u64), CheckpointError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(CheckpointError::BadTrailer {
        reason: "empty file".into(),
    })?;
    if header.trim() != STORE_HEADER {
        return Err(CheckpointError::Malformed {
            reason: format!("unrecognized store header '{header}'"),
        });
    }

    let mut payload = String::with_capacity(text.len());
    let mut payload_lines = 0usize;
    let mut payload_crc = CRC_INIT;
    let mut trailer: Option<&str> = None;
    for (index, line) in lines {
        if let Some(rest) = line.strip_prefix("end ") {
            trailer = Some(rest);
            break;
        }
        let (crc_field, body) = line.split_once(' ').ok_or(CheckpointError::LineCorrupt {
            line_number: index + 1,
        })?;
        let stored =
            u32::from_str_radix(crc_field, 16).map_err(|_| CheckpointError::LineCorrupt {
                line_number: index + 1,
            })?;
        if stored != crc32(body.as_bytes()) {
            return Err(CheckpointError::LineCorrupt {
                line_number: index + 1,
            });
        }
        let start = payload.len();
        payload.push_str(body);
        payload.push('\n');
        payload_crc = crc32_fold(payload_crc, &payload.as_bytes()[start..]);
        payload_lines += 1;
    }

    let trailer = trailer.ok_or(CheckpointError::BadTrailer {
        reason: "missing 'end …' trailer".into(),
    })?;
    let (generation, declared_lines, declared_crc) = parse_trailer(trailer)?;
    if declared_lines != payload_lines {
        return Err(CheckpointError::BadTrailer {
            reason: format!("trailer declares {declared_lines} lines, found {payload_lines}"),
        });
    }
    if declared_crc != !payload_crc {
        return Err(CheckpointError::BadTrailer {
            reason: "payload CRC mismatch".into(),
        });
    }
    Ok((payload, generation))
}

/// The generation a store file's trailer declares, found and parsed as
/// [`decode_store`] does but with nothing verified: whenever `decode_store`
/// accepts `text`, it returns this generation.
pub(super) fn declared_generation(text: &str) -> Option<u64> {
    let trailer = text
        .lines()
        .skip(1)
        .find_map(|line| line.strip_prefix("end "))?;
    parse_trailer(trailer)
        .ok()
        .map(|(generation, _, _)| generation)
}

/// Parses the fields of an `end generation=… lines=… crc=…` trailer (the
/// text after `end `): generation, payload line count, payload CRC.
fn parse_trailer(trailer: &str) -> Result<(u64, usize, u32), CheckpointError> {
    let mut generation = None;
    let mut declared_lines = None;
    let mut declared_crc = None;
    for field in trailer.split_whitespace() {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| CheckpointError::BadTrailer {
                reason: format!("bad trailer field '{field}'"),
            })?;
        match key {
            "generation" => {
                generation =
                    Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| CheckpointError::BadTrailer {
                                reason: format!("bad generation '{value}'"),
                            })?,
                    );
            }
            "lines" => {
                declared_lines =
                    Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| CheckpointError::BadTrailer {
                                reason: format!("bad line count '{value}'"),
                            })?,
                    );
            }
            "crc" => {
                declared_crc = Some(u32::from_str_radix(value, 16).map_err(|_| {
                    CheckpointError::BadTrailer {
                        reason: format!("bad payload crc '{value}'"),
                    }
                })?);
            }
            _ => {
                return Err(CheckpointError::BadTrailer {
                    reason: format!("unknown trailer field '{field}'"),
                })
            }
        }
    }
    let (Some(generation), Some(declared_lines), Some(declared_crc)) =
        (generation, declared_lines, declared_crc)
    else {
        return Err(CheckpointError::BadTrailer {
            reason: format!("incomplete trailer 'end {trailer}'"),
        });
    };
    Ok((generation, declared_lines, declared_crc))
}
