//! The v1 checkpoint text and the store framing around it, byte for byte.
//!
//! A [`CoordinatorCheckpoint`] is a header line, a `family` line and one
//! 17-field `unit` line per completed unit. On disk those lines are the
//! payload of a store file:
//!
//! ```text
//! pdsat-checkpoint-store v1
//! <crc32-hex8> <checkpoint line>
//! …
//! end generation=<g> lines=<n> crc=<crc32-hex8 of the payload>
//! ```
//!
//! This module is the only code that knows either layout. It has one line
//! writer and one line reader, each a single pass over bytes:
//!
//! * The writer formats integers and IEEE-754 hex straight into one
//!   `Vec<u8>`. Framed, it reserves each line's CRC prefix, writes the line,
//!   then folds the line's CRC and the running payload CRC over it as two
//!   interleaved chains and fills the prefix in.
//! * The reader walks the lines once. Framed, it checks each line's CRC and
//!   folds the payload CRC as it goes. Either way it parses each line's
//!   fields from a byte cursor: table-driven hex and overflow-checked
//!   decimal, no copy of the payload. Unit ids that ascend, as written ones
//!   do, become the `completed` map in one bulk build.
//!
//! It accepts and refuses what the `str`-based codec before it did, which
//! its tests keep as the reference: numbers are read as `str::parse` /
//! `from_str_radix` read them (an optional `+`, leading zeros, hex digits
//! of either case), and the header, blank lines and the trailer are
//! trimmed and split as `str` methods do. One thing is stricter: payload
//! fields are separated by ASCII whitespace only (space, tab, vertical
//! tab, form feed, carriage return), so non-ASCII whitespace around or
//! between the fields of a `family` or `unit` line makes it
//! [`Malformed`](CheckpointError::Malformed). A line that is not UTF-8 is
//! a line whose fields do not parse — framed, it fails its CRC and is a
//! [`LineCorrupt`](CheckpointError::LineCorrupt) one.
//!
//! Framing errors take precedence over payload errors: the reader keeps the
//! first payload error it meets and returns it only once the rest of the
//! file has passed its line CRCs and the trailer.
//!
//! Everything here reads bytes from outside the program, so the non-test
//! code names no `unwrap`, `expect`, `panic!`, `unreachable!` or `todo!`,
//! and converts numbers with `From` / `TryFrom`, never `as` (`xtask lint`
//! rule 9): a model longer than `u32::MAX` variables is `Malformed`.

use crate::coordinator::{report_fits_unit, CoordinatorCheckpoint};
use crate::store::{crc32_fold, crc32_fold2, CheckpointError, CRC_INIT};
use crate::transport::WorkUnitId;
use pdsat_cnf::{Assignment, Var};
use pdsat_core::SolveReport;
use std::time::Duration;

/// First line of the checkpoint text.
pub(crate) const CHECKPOINT_HEADER: &str = "pdsat-coordinator-checkpoint v1";

/// First line of a store file (the checkpoint's own header travels as
/// payload line 1).
const STORE_HEADER: &str = "pdsat-checkpoint-store v1";

/// Length of a framed line's `<crc32-hex8> ` prefix.
const CRC_PREFIX: usize = 9;

/// The value of every byte as a hex digit of either case, or [`NOT_HEX`].
const HEX_VALUES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut index = 0;
    let mut byte = 0u8;
    while index < table.len() {
        table[index] = match byte {
            b'0'..=b'9' => byte - b'0',
            b'a'..=b'f' => byte - b'a' + 10,
            b'A'..=b'F' => byte - b'A' + 10,
            _ => NOT_HEX,
        };
        index += 1;
        byte = byte.wrapping_add(1);
    }
    table
};

/// [`HEX_VALUES`] entry of a byte that is no hex digit.
const NOT_HEX: u8 = 0xFF;

// ---------------------------------------------------------------- writer --

/// The checkpoint text of `checkpoint`.
pub(crate) fn write_text(checkpoint: &CoordinatorCheckpoint) -> Vec<u8> {
    let mut writer = Writer::new(capacity(checkpoint, 0), false);
    writer.checkpoint(checkpoint);
    writer.out
}

/// The store file holding `checkpoint` as generation `generation`.
pub(crate) fn write_store(checkpoint: &CoordinatorCheckpoint, generation: u64) -> Vec<u8> {
    let mut writer = Writer::new(capacity(checkpoint, CRC_PREFIX), true);
    writer.out.extend_from_slice(STORE_HEADER.as_bytes());
    writer.out.push(b'\n');
    writer.checkpoint(checkpoint);
    let Writer {
        mut out,
        lines,
        payload_crc,
        ..
    } = writer;
    out.extend_from_slice(b"end generation=");
    push_decimal(&mut out, generation);
    out.extend_from_slice(b" lines=");
    push_decimal(&mut out, lines);
    out.extend_from_slice(b" crc=");
    out.extend_from_slice(&crc_digits(!payload_crc));
    out.push(b'\n');
    out
}

/// Bytes to reserve for `checkpoint`'s text with `prefix` bytes before
/// every line: a unit line is its counters (13 numbers, under 160 bytes
/// unless they are astronomically large), 17 bytes per cube cost and one
/// per model variable.
fn capacity(checkpoint: &CoordinatorCheckpoint, prefix: usize) -> usize {
    let units: usize = checkpoint
        .completed
        .values()
        .map(|r| {
            prefix
                + 160
                + 17 * r.per_cube_costs.len()
                + r.model.as_ref().map_or(0, Assignment::num_vars)
        })
        .sum();
    256 + units
}

/// One buffer the checkpoint's lines are written into, framed or bare.
struct Writer {
    out: Vec<u8>,
    /// Whether every line gets its `<crc32-hex8> ` prefix.
    framed: bool,
    /// Payload lines framed so far.
    lines: usize,
    /// Running CRC-32 state of the payload framed so far.
    payload_crc: u32,
}

impl Writer {
    fn new(capacity: usize, framed: bool) -> Writer {
        Writer {
            out: Vec::with_capacity(capacity),
            framed,
            lines: 0,
            payload_crc: CRC_INIT,
        }
    }

    /// Writes the three kinds of line of a checkpoint.
    fn checkpoint(&mut self, checkpoint: &CoordinatorCheckpoint) {
        self.line(|out| out.extend_from_slice(CHECKPOINT_HEADER.as_bytes()));
        self.line(|out| {
            out.extend_from_slice(b"family set_size=");
            push_decimal(out, checkpoint.set_size);
            out.extend_from_slice(b" total_cubes=");
            push_decimal(out, checkpoint.total_cubes);
            out.extend_from_slice(b" work_unit_size=");
            push_decimal(out, checkpoint.work_unit_size);
        });
        for (&id, report) in &checkpoint.completed {
            self.line(|out| push_unit(out, id, report));
        }
    }

    /// Writes one payload line with `write`, then frames it: the line's CRC
    /// goes into the prefix reserved before it, and the line and its
    /// newline into the payload CRC.
    fn line(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        let start = self.out.len();
        if self.framed {
            self.out.extend_from_slice(b"00000000 ");
        }
        write(&mut self.out);
        if self.framed {
            let (prefix, line) = self.out[start..].split_at_mut(CRC_PREFIX);
            let (line_crc, payload_crc) = crc32_fold2(CRC_INIT, self.payload_crc, line);
            self.payload_crc = crc32_fold(payload_crc, b"\n");
            self.lines += 1;
            prefix[..8].copy_from_slice(&crc_digits(!line_crc));
        }
        self.out.push(b'\n');
    }
}

/// The 17 fields of a `unit` line, after `unit `: id, cubes, total cost,
/// SAT and unknown counts, wall time in nanoseconds, the seven family
/// counters, first SAT index, cost to it, model and per-cube costs.
fn push_unit(out: &mut Vec<u8>, id: WorkUnitId, r: &SolveReport) {
    out.extend_from_slice(b"unit ");
    push_decimal(out, id);
    out.push(b' ');
    push_decimal(out, r.cubes_processed);
    out.push(b' ');
    push_bits(out, r.total_cost);
    out.push(b' ');
    push_decimal(out, r.sat_count);
    out.push(b' ');
    push_decimal(out, r.unknown_count);
    out.push(b' ');
    push_decimal(out, r.wall_time.as_nanos());
    out.push(b' ');
    for counter in r.counters.values() {
        push_decimal(out, counter);
        out.push(b' ');
    }
    match r.first_sat_index {
        Some(index) => push_decimal(out, index),
        None => out.push(b'-'),
    }
    out.push(b' ');
    match r.cost_to_first_sat {
        Some(cost) => push_bits(out, cost),
        None => out.push(b'-'),
    }
    out.push(b' ');
    match &r.model {
        Some(model) => {
            let start = out.len();
            out.resize(start + model.num_vars(), b'x');
            let row = &mut out[start..];
            for (var, value) in model.iter() {
                row[var.index()] = if value { b'1' } else { b'0' };
            }
        }
        None => out.push(b'-'),
    }
    out.push(b' ');
    match r.per_cube_costs.split_first() {
        Some((&first, rest)) => {
            push_bits(out, first);
            for &cost in rest {
                out.push(b',');
                push_bits(out, cost);
            }
        }
        None => out.push(b'-'),
    }
}

/// Appends `n` in decimal, as `Display` writes it.
fn push_decimal<T: Copy + TryInto<u64> + ToString>(out: &mut Vec<u8>, n: T) {
    // Only a wall time past 584 years misses the `u64` path.
    let Ok(mut n) = n.try_into() else {
        out.extend_from_slice(n.to_string().as_bytes());
        return;
    };
    if n < 10 {
        out.push(b'0' + low_byte(n));
        return;
    }
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + low_byte(n % 10);
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends the IEEE-754 bits of `value` as 16 lower-case hex digits — the
/// form every float of the checkpoint travels in.
fn push_bits(out: &mut Vec<u8>, value: f64) {
    let bits = value.to_bits();
    out.extend_from_slice(&hex_digits(bits >> 32).to_be_bytes());
    out.extend_from_slice(&hex_digits(bits & 0xFFFF_FFFF).to_be_bytes());
}

/// A CRC as 8 lower-case hex digits.
fn crc_digits(crc: u32) -> [u8; 8] {
    hex_digits(u64::from(crc)).to_be_bytes()
}

/// The eight lower-case hex digits of `value` (below 2^32) as the
/// big-endian bytes of the result, all eight at once: each nibble moves
/// into a byte of its own, which becomes `'0' + nibble`, plus the distance
/// from `'9' + 1` to `'a'` where the nibble is ten or more.
fn hex_digits(value: u64) -> u64 {
    const BYTES: u64 = 0x0101_0101_0101_0101;
    let x = (value | value << 16) & 0x0000_FFFF_0000_FFFF;
    let x = (x | x << 8) & 0x00FF_00FF_00FF_00FF;
    let nibbles = (x | x << 4) & 0x0F0F_0F0F_0F0F_0F0F;
    let letters = (nibbles + 6 * BYTES) >> 4 & BYTES;
    nibbles + u64::from(b'0') * BYTES + letters * u64::from(b'a' - b'9' - 1)
}

/// The least significant byte of `value`.
fn low_byte(value: u64) -> u8 {
    value.to_le_bytes()[0]
}

// ---------------------------------------------------------------- reader --

/// Parses checkpoint text, as [`CoordinatorCheckpoint::from_text`]
/// documents.
pub(crate) fn read_text(text: &[u8]) -> Result<CoordinatorCheckpoint, CheckpointError> {
    let mut parser = Parser::new(text.len());
    for line in Lines(text) {
        parser.line(line)?;
    }
    parser.finish()
}

/// Verifies a store file and parses its payload in one pass, returning the
/// checkpoint and the generation its trailer declares.
///
/// Errors, first to last precedence: [`BadTrailer`](CheckpointError::BadTrailer)
/// for an empty file, [`Malformed`](CheckpointError::Malformed) for a wrong
/// store header, [`LineCorrupt`](CheckpointError::LineCorrupt) for the first
/// payload line whose CRC fails, `BadTrailer` for a missing or wrong
/// trailer, then the first `Malformed` payload line.
pub(crate) fn read_store(bytes: &[u8]) -> Result<(CoordinatorCheckpoint, u64), CheckpointError> {
    let mut lines = Lines(bytes);
    let header = lines.next().ok_or_else(|| bad_trailer("empty file"))?;
    if !is_line(header, STORE_HEADER) {
        return Err(malformed(format!(
            "unrecognized store header '{}'",
            String::from_utf8_lossy(header)
        )));
    }
    let mut parser = Parser::new(bytes.len());
    let mut payload_error = None;
    let mut payload_lines = 0usize;
    let mut payload_crc = CRC_INIT;
    // 1-based line numbers of the file; the header is line 1.
    let mut line_number = 1;
    let trailer = loop {
        let line = lines
            .next()
            .ok_or_else(|| bad_trailer("missing 'end …' trailer"))?;
        line_number += 1;
        if let Some(trailer) = line.strip_prefix(b"end ") {
            break trailer;
        }
        // A line without a space has an empty CRC field, which `parse` refuses.
        let (crc_field, body) = split_once(line, b' ').unwrap_or_default();
        let stored = parse(crc_field, 16).and_then(|crc| u32::try_from(crc).ok());
        let (line_crc, payload) = crc32_fold2(CRC_INIT, payload_crc, body);
        if stored != Some(!line_crc) {
            return Err(CheckpointError::LineCorrupt { line_number });
        }
        payload_crc = crc32_fold(payload, b"\n");
        payload_lines += 1;
        if payload_error.is_none() {
            payload_error = parser.line(body).err();
        }
    };
    let (generation, declared_lines, declared_crc) = parse_trailer(trailer)?;
    if declared_lines != payload_lines {
        return Err(CheckpointError::BadTrailer {
            reason: format!("trailer declares {declared_lines} lines, found {payload_lines}"),
        });
    }
    if declared_crc != !payload_crc {
        return Err(bad_trailer("payload CRC mismatch"));
    }
    match payload_error {
        Some(error) => Err(error),
        None => Ok((parser.finish()?, generation)),
    }
}

/// The generation a store file's trailer declares, found and parsed as
/// [`read_store`] does but with nothing verified: whenever `read_store`
/// accepts `bytes`, it returns this generation.
pub(crate) fn declared_generation(bytes: &[u8]) -> Option<u64> {
    let trailer = Lines(bytes)
        .skip(1)
        .find_map(|line| line.strip_prefix(b"end "))?;
    parse_trailer(trailer)
        .ok()
        .map(|(generation, _, _)| generation)
}

/// Parses the fields of an `end generation=… lines=… crc=…` trailer (the
/// bytes after `end `): generation, payload line count, payload CRC. One
/// line per file, so it is read as `str` fields, exactly as before the byte
/// reader.
fn parse_trailer(trailer: &[u8]) -> Result<(u64, usize, u32), CheckpointError> {
    let trailer = std::str::from_utf8(trailer).map_err(|_| bad_trailer("trailer is not UTF-8"))?;
    let bad = |what: &str, field: &str| CheckpointError::BadTrailer {
        reason: format!("{what} '{field}'"),
    };
    let mut generation = None;
    let mut declared_lines = None;
    let mut declared_crc = None;
    for field in trailer.split_whitespace() {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| bad("bad trailer field", field))?;
        match key {
            "generation" => {
                generation = Some(value.parse().map_err(|_| bad("bad generation", value))?);
            }
            "lines" => {
                declared_lines = Some(value.parse().map_err(|_| bad("bad line count", value))?);
            }
            "crc" => {
                let crc = u32::from_str_radix(value, 16);
                declared_crc = Some(crc.map_err(|_| bad("bad payload crc", value))?);
            }
            _ => return Err(bad("unknown trailer field", field)),
        }
    }
    match (generation, declared_lines, declared_crc) {
        (Some(generation), Some(declared_lines), Some(declared_crc)) => {
            Ok((generation, declared_lines, declared_crc))
        }
        _ => Err(bad("incomplete trailer", trailer)),
    }
}

/// Where the reader is in the checkpoint text.
enum Parser {
    /// Before the header line; holds the input's length, which bounds the
    /// number of unit lines.
    Header(usize),
    /// The header is read; the family line is next.
    Family(usize),
    /// The family is known; unit lines (and blank ones) follow.
    Units(Units),
}

/// What the unit lines read so far add up to.
struct Units {
    /// The family, its `completed` map still empty.
    checkpoint: CoordinatorCheckpoint,
    /// Every unit read, in the order read.
    units: Vec<(WorkUnitId, SolveReport)>,
    /// Whether every id read exceeds the one before it.
    ascending: bool,
}

impl Parser {
    fn new(input_len: usize) -> Parser {
        Parser::Header(input_len)
    }

    /// Takes one line of checkpoint text (without its newline).
    fn line(&mut self, line: &[u8]) -> Result<(), CheckpointError> {
        match self {
            Parser::Header(input_len) => {
                if !is_line(line, CHECKPOINT_HEADER) {
                    return Err(malformed(format!(
                        "unrecognized checkpoint header '{}'",
                        String::from_utf8_lossy(line)
                    )));
                }
                *self = Parser::Family(*input_len);
            }
            Parser::Family(input_len) => *self = Parser::Units(family(line, *input_len)?),
            Parser::Units(units) => units.line(line)?,
        }
        Ok(())
    }

    /// The checkpoint the lines spelled out.
    fn finish(self) -> Result<CoordinatorCheckpoint, CheckpointError> {
        match self {
            Parser::Header(_) => Err(malformed("empty checkpoint".into())),
            Parser::Family(_) => Err(malformed("missing family line".into())),
            Parser::Units(units) => units.finish(),
        }
    }
}

/// Parses a `family set_size=… total_cubes=… work_unit_size=…` line.
fn family(line: &[u8], input_len: usize) -> Result<Units, CheckpointError> {
    let bad = |what: &str| {
        malformed(format!(
            "{what} in family line '{}'",
            String::from_utf8_lossy(line)
        ))
    };
    let rest = line
        .strip_prefix(b"family ")
        .ok_or_else(|| bad("no 'family ' prefix"))?;
    let mut set_size = None;
    let mut total_cubes = None;
    let mut work_unit_size = None;
    for field in fields(rest) {
        let (key, value) = split_once(field, b'=').ok_or_else(|| bad("bad family field"))?;
        let value = parse(value, 10)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| bad("bad family value"))?;
        match key {
            b"set_size" => set_size = Some(value),
            b"total_cubes" => total_cubes = Some(value),
            b"work_unit_size" => work_unit_size = Some(value),
            _ => return Err(bad("unknown family field")),
        }
    }
    let (Some(set_size), Some(total_cubes), Some(work_unit_size)) =
        (set_size, total_cubes, work_unit_size)
    else {
        return Err(bad("missing family field"));
    };
    let checkpoint = CoordinatorCheckpoint::empty(set_size, total_cubes, work_unit_size);
    let num_units = checkpoint.num_units();
    if work_unit_size == 0 || num_units > CoordinatorCheckpoint::MAX_UNITS {
        return Err(malformed(format!(
            "family line '{}' shards into zero-cube units or into more than the supported \
             maximum of {} units",
            String::from_utf8_lossy(line),
            CoordinatorCheckpoint::MAX_UNITS
        )));
    }
    Ok(Units {
        checkpoint,
        // Room for a unit per 64 bytes of input, which every line the
        // writer writes exceeds: the family line alone may overstate.
        units: Vec::with_capacity(num_units.min(input_len / 64)),
        ascending: true,
    })
}

impl Units {
    /// Takes one line after the family line: a unit, or a blank line.
    fn line(&mut self, line: &[u8]) -> Result<(), CheckpointError> {
        let Some(fields) = line.strip_prefix(b"unit ") else {
            if is_blank(line) {
                return Ok(());
            }
            return Err(malformed(format!(
                "expected 'unit …', got '{}'",
                String::from_utf8_lossy(line)
            )));
        };
        let (id, report) = self
            .unit(Cursor(fields))
            .map_err(|what| malformed(format!("{what} in '{}'", String::from_utf8_lossy(line))))?;
        self.ascending &= self.units.last().is_none_or(|&(last, _)| last < id);
        self.units.push((id, report));
        Ok(())
    }

    /// The 17 fields of a unit line, or what is wrong with them.
    fn unit(&self, mut line: Cursor<'_>) -> Result<(WorkUnitId, SolveReport), &'static str> {
        const FIELDS: &str = "expected 17 unit fields";
        let family = &self.checkpoint;
        let id = line
            .number(10)
            .and_then(|id| WorkUnitId::try_from(id).ok())
            .ok_or("bad unit id")?;
        let index = usize::try_from(id)
            .ok()
            .filter(|&index| index < family.num_units())
            .ok_or("unit id outside the family")?;
        let mut report = SolveReport::empty(family.set_size);
        report.cubes_processed = line.count("bad cube count")?;
        report.total_cost = line.bits("bad total cost")?;
        report.sat_count = line.count("bad SAT count")?;
        report.unknown_count = line.count("bad unknown count")?;
        report.wall_time = Duration::from_nanos(line.number(10).ok_or("bad wall time")?);
        for counter in report.counters.values_mut() {
            *counter = line.number(10).ok_or("bad family counter")?;
        }
        if !line.dash() {
            report.first_sat_index = Some(line.count("bad first SAT index")?);
        }
        if !line.dash() {
            report.cost_to_first_sat = Some(line.bits("bad cost to first SAT")?);
        }
        if !line.dash() {
            report.model = Some(model(line.field().ok_or(FIELDS)?)?);
        }
        if !line.dash() {
            report.per_cube_costs = line.costs()?;
        }
        if line.field().is_some() {
            return Err(FIELDS);
        }
        if !report_fits_unit(&report, family.set_size, family.unit_cubes(index)) {
            return Err("report does not have the shape of its unit");
        }
        Ok((id, report))
    }

    /// The checkpoint with every unit read: one bulk build of `completed`
    /// when the ids ascended, as written ones do; a sort and a duplicate
    /// check first when they did not.
    fn finish(self) -> Result<CoordinatorCheckpoint, CheckpointError> {
        let Units {
            mut checkpoint,
            mut units,
            ascending,
        } = self;
        if !ascending {
            units.sort_by_key(|&(id, _)| id);
            let twice = units.windows(2).find_map(|pair| match pair {
                [(first, _), (second, _)] if first == second => Some(*first),
                _ => None,
            });
            if let Some(id) = twice {
                return Err(malformed(format!("unit {id} listed twice")));
            }
        }
        checkpoint.completed = units.into_iter().collect();
        Ok(checkpoint)
    }
}

/// A model field: one `1`, `0` or `x` per variable.
fn model(values: &[u8]) -> Result<Assignment, &'static str> {
    if u32::try_from(values.len()).is_err() {
        return Err("model longer than u32::MAX variables");
    }
    let mut model = Assignment::new(values.len());
    for (&value, index) in values.iter().zip(0..=u32::MAX) {
        match value {
            b'1' => model.assign(Var::new(index), true),
            b'0' => model.assign(Var::new(index), false),
            b'x' => {}
            _ => return Err("bad model character"),
        }
    }
    Ok(model)
}

/// The lines of `bytes` as `str::lines` cuts them: at each `\n`, minus one
/// `\r` before it; a last line without `\n` keeps its `\r`.
struct Lines<'a>(&'a [u8]);

impl<'a> Iterator for Lines<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.0.is_empty() {
            return None;
        }
        let Some(end) = find_newline(self.0) else {
            return Some(std::mem::take(&mut self.0));
        };
        let (line, rest) = self.0.split_at(end);
        self.0 = rest.get(1..).unwrap_or_default();
        Some(line.strip_suffix(b"\r").unwrap_or(line))
    }
}

/// Position of the first `\n` in `bytes`, found eight bytes at a time: a
/// word holds one where the word XOR eight newlines has a zero byte.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const BYTES: u64 = 0x0101_0101_0101_0101;
    let newlines = u64::from(b'\n') * BYTES;
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let word = newlines
            ^ u64::from_le_bytes([
                word[0], word[1], word[2], word[3], word[4], word[5], word[6], word[7],
            ]);
        if word.wrapping_sub(BYTES) & !word & BYTES << 7 != 0 {
            break;
        }
        at += 8;
    }
    let in_word = bytes.get(at..)?.iter().position(|&b| b == b'\n')?;
    Some(at + in_word)
}

/// A position inside one line, from which its fields are taken.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn skip_spaces(&mut self) {
        while let [byte, rest @ ..] = self.0 {
            if !is_space(*byte) {
                break;
            }
            self.0 = rest;
        }
    }

    /// Whether the cursor stands at the end of a field: before whitespace
    /// or at the end of the line.
    fn at_field_end(&self) -> bool {
        self.0.first().is_none_or(|&b| is_space(b))
    }

    /// The next field: the bytes up to the next whitespace.
    fn field(&mut self) -> Option<&'a [u8]> {
        self.skip_spaces();
        let len = self
            .0
            .iter()
            .position(|&b| is_space(b))
            .unwrap_or(self.0.len());
        let (field, rest) = self.0.split_at(len);
        self.0 = rest;
        (!field.is_empty()).then_some(field)
    }

    /// Takes the next field if it is `-`.
    fn dash(&mut self) -> bool {
        self.skip_spaces();
        match self.0 {
            [b'-', rest @ ..] if rest.first().is_none_or(|&b| is_space(b)) => {
                self.0 = rest;
                true
            }
            _ => false,
        }
    }

    /// The next field as a number in `radix` (10 or 16).
    fn number(&mut self, radix: u8) -> Option<u64> {
        self.skip_spaces();
        // One digit, then a space: most fields of a written unit line.
        if let [byte, next, rest @ ..] = self.0 {
            let digit = byte.wrapping_sub(b'0');
            if digit < 10 && is_space(*next) {
                self.0 = rest;
                return Some(u64::from(digit));
            }
        }
        let n = self.digits(radix)?;
        self.at_field_end().then_some(n)
    }

    /// The next field as a decimal `usize`, or the error `what`.
    fn count(&mut self, what: &'static str) -> Result<usize, &'static str> {
        self.number(10)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or(what)
    }

    /// The next field as the hex bits of a float, or the error `what`.
    fn bits(&mut self, what: &'static str) -> Result<f64, &'static str> {
        self.number(16).map(f64::from_bits).ok_or(what)
    }

    /// The next field as comma-separated hex float bits.
    fn costs(&mut self) -> Result<Vec<f64>, &'static str> {
        const BAD: &str = "bad per-cube cost";
        self.skip_spaces();
        let mut costs = Vec::with_capacity(self.0.len() / 17 + 1);
        loop {
            costs.push(f64::from_bits(self.digits(16).ok_or(BAD)?));
            match self.0 {
                [b',', rest @ ..] => self.0 = rest,
                _ if self.at_field_end() => return Ok(costs),
                _ => return Err(BAD),
            }
        }
    }

    /// Takes a number's digits as `from_str_radix` reads them: an optional
    /// `+`, then digits of `radix` (10 or 16) up to the first byte that is
    /// none. `None` without a digit or when the value overflows `u64`.
    fn digits(&mut self, radix: u8) -> Option<u64> {
        if radix == 16 {
            if let Some(n) = self.sixteen_hex_digits() {
                return Some(n);
            }
        }
        let mut rest = self.0.strip_prefix(b"+").unwrap_or(self.0);
        let before = rest.len();
        let mut n = 0u64;
        while let [byte, tail @ ..] = rest {
            let digit = if radix == 10 {
                byte.wrapping_sub(b'0')
            } else {
                HEX_VALUES[usize::from(*byte)]
            };
            if digit >= radix {
                break;
            }
            n = n
                .checked_mul(u64::from(radix))?
                .checked_add(u64::from(digit))?;
            rest = tail;
        }
        if rest.len() == before {
            return None;
        }
        self.0 = rest;
        Some(n)
    }

    /// Takes exactly sixteen hex digits — every float the writer writes —
    /// if that is what comes next, with no branch per digit.
    fn sixteen_hex_digits(&mut self) -> Option<u64> {
        let (digits, rest) = self.0.split_first_chunk::<16>()?;
        if rest
            .first()
            .is_some_and(|&b| HEX_VALUES[usize::from(b)] != NOT_HEX)
        {
            return None;
        }
        // The OR of the digits' table entries exceeds 0xF if one is none.
        let (n, seen) = digits.iter().fold((0, 0), |(n, seen), &byte| {
            let digit = HEX_VALUES[usize::from(byte)];
            (n << 4 | u64::from(digit & 0xF), seen | digit)
        });
        if seen > 0xF {
            return None;
        }
        self.0 = rest;
        Some(n)
    }
}

/// The fields of a line: the runs of bytes between ASCII whitespace.
fn fields(line: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut cursor = Cursor(line);
    std::iter::from_fn(move || cursor.field())
}

/// The ASCII characters `char::is_whitespace` accepts.
fn is_space(byte: u8) -> bool {
    matches!(byte, b' ' | b'\t' | b'\n' | 0x0B | 0x0C | b'\r')
}

/// Whether `line` is `expected` give or take surrounding whitespace.
fn is_line(line: &[u8], expected: &str) -> bool {
    std::str::from_utf8(line).is_ok_and(|l| l.trim() == expected)
}

/// Whether `line` is nothing but whitespace.
fn is_blank(line: &[u8]) -> bool {
    std::str::from_utf8(line).is_ok_and(|l| l.trim().is_empty())
}

/// `bytes` before and after the first `separator`.
fn split_once(bytes: &[u8], separator: u8) -> Option<(&[u8], &[u8])> {
    let at = bytes.iter().position(|&b| b == separator)?;
    let (head, tail) = bytes.split_at(at);
    Some((head, tail.get(1..)?))
}

/// All of `bytes` as a number in `radix`, as `from_str_radix` reads it.
fn parse(bytes: &[u8], radix: u8) -> Option<u64> {
    let mut cursor = Cursor(bytes);
    let n = cursor.digits(radix)?;
    cursor.0.is_empty().then_some(n)
}

fn malformed(reason: String) -> CheckpointError {
    CheckpointError::Malformed { reason }
}

fn bad_trailer(reason: &str) -> CheckpointError {
    CheckpointError::BadTrailer {
        reason: reason.into(),
    }
}

#[cfg(test)]
mod reference;
#[cfg(test)]
mod tests;
