//! Durable, corruption-tolerant persistence for coordinator checkpoints.
//!
//! [`CoordinatorCheckpoint::to_text`] produces a deterministic text form, but
//! writing it straight to disk leaves two failure windows: a crash mid-write
//! leaves a torn file, and a torn file silently loses *all* progress because
//! the codec cannot tell "half a checkpoint" from "a short checkpoint".
//! [`CheckpointStore`] closes both windows:
//!
//! * **Atomic replace** — every save writes a temp file, `fsync`s it, and
//!   `rename`s it over the live path, so the live file is never half-written
//!   by the store itself.
//! * **Per-line CRC + trailer** — each payload line carries a CRC-32 prefix
//!   and the file ends with an `end generation=… lines=… crc=…` trailer, so
//!   truncation and bit-flips (torn sectors, cosmic rays, eager sync tools)
//!   are *detected* rather than parsed into a bogus checkpoint. The bytes
//!   of that framing are written and read by the checkpoint codec
//!   (`codec.rs`), which folds every payload byte into its line's CRC and
//!   the payload's in the one pass that writes or reads the line.
//! * **Double buffering** — the previous good file survives as `<path>.prev`;
//!   [`CheckpointStore::load`] picks the newest generation that verifies, so
//!   a corrupt latest file — bytes that are not even UTF-8 included — falls
//!   back to the last good one instead of restarting the whole family from
//!   scratch.
//!
//! The store injects no faults of its own. Its tests produce a torn or
//! bit-flipped file the way a crash would leave one, by damaging the bytes
//! on disk between a save and a load.

use crate::codec;
use crate::coordinator::CoordinatorCheckpoint;
use std::cmp::Reverse;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Why a checkpoint could not be saved, loaded, or parsed.
///
/// Replaces the seed's `Err(String)` plumbing so callers can distinguish
/// "the disk is broken" (retry, alert) from "the bytes are garbage" (fall
/// back to the previous generation) from "there is nothing to recover"
/// (start fresh or abort, the operator's call).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The operating system refused an I/O operation (open, write, fsync,
    /// rename). Retryable in principle; the checkpoint itself may be fine.
    Io {
        /// Path the failed operation touched.
        path: String,
        /// Operating-system error description.
        message: String,
    },
    /// The checkpoint text itself does not parse — wrong header, bad field,
    /// unit listed twice. The bytes arrived intact but mean nothing.
    Malformed {
        /// Description of the first offending line.
        reason: String,
    },
    /// A payload line failed its CRC-32 check: the file was bit-flipped or
    /// torn mid-line after it was written.
    LineCorrupt {
        /// 1-based line number within the store file.
        line_number: usize,
    },
    /// The `end generation=… lines=… crc=…` trailer is missing or wrong —
    /// the classic signature of a truncated (torn) write.
    BadTrailer {
        /// What exactly was wrong with (or missing from) the trailer.
        reason: String,
    },
    /// Checkpoint files exist on disk but no generation verifies; recovery
    /// is impossible and the caller must decide whether to start over.
    NoValidGeneration {
        /// Per-candidate failure summary for the operator.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint I/O error on '{path}': {message}")
            }
            CheckpointError::Malformed { reason } => {
                write!(f, "malformed checkpoint: {reason}")
            }
            CheckpointError::LineCorrupt { line_number } => {
                write!(f, "checkpoint line {line_number} failed its CRC check")
            }
            CheckpointError::BadTrailer { reason } => {
                write!(f, "checkpoint trailer invalid (truncated write?): {reason}")
            }
            CheckpointError::NoValidGeneration { detail } => {
                write!(f, "no valid checkpoint generation on disk: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Step tables of the reflected CRC-32 (polynomial `0xEDB88320`), built at
/// compile time. `CRC_TABLES[0][b]` is the byte `b` shifted out through the
/// polynomial, so one lookup advances a running CRC by a byte;
/// `CRC_TABLES[k][b]` is the same byte followed by `k` zero bytes, which
/// lets eight bytes be folded with eight independent lookups
/// (slicing-by-8) instead of a chain of eight dependent ones.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut zeros = 1;
    while zeros < 8 {
        let mut byte = 0;
        while byte < 256 {
            let shorter = tables[zeros - 1][byte];
            tables[zeros][byte] = (shorter >> 8) ^ tables[0][(shorter & 0xFF) as usize];
            byte += 1;
        }
        zeros += 1;
    }
    tables
};

/// State of a CRC-32 before its first byte (and the mask of its final
/// inversion).
pub(crate) const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Advances a running CRC-32 state over one eight-byte word with eight
/// independent lookups.
#[inline]
fn fold_word(crc: u32, word: &[u8]) -> u32 {
    let low = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
    CRC_TABLES[7][(low & 0xFF) as usize]
        ^ CRC_TABLES[6][(low >> 8 & 0xFF) as usize]
        ^ CRC_TABLES[5][(low >> 16 & 0xFF) as usize]
        ^ CRC_TABLES[4][(low >> 24) as usize]
        ^ CRC_TABLES[3][usize::from(word[4])]
        ^ CRC_TABLES[2][usize::from(word[5])]
        ^ CRC_TABLES[1][usize::from(word[6])]
        ^ CRC_TABLES[0][usize::from(word[7])]
}

/// Advances a running CRC-32 state over one byte.
#[inline]
fn fold_byte(crc: u32, byte: u8) -> u32 {
    CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8)
}

/// Folds `data` into a running CRC-32 state; `!state` is the CRC of
/// everything folded since [`CRC_INIT`].
pub(crate) fn crc32_fold(crc: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    let crc = (&mut words).fold(crc, fold_word);
    words
        .remainder()
        .iter()
        .fold(crc, |crc, &byte| fold_byte(crc, byte))
}

/// Folds the same `data` into two running CRC-32 states at once: the framing
/// folds each line into the line's own CRC and into the running payload CRC
/// this way. The two chains are independent, so their lookups overlap and
/// the pair costs little more than one chain.
pub(crate) fn crc32_fold2(mut first: u32, mut second: u32, data: &[u8]) -> (u32, u32) {
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        first = fold_word(first, word);
        second = fold_word(second, word);
    }
    for &byte in words.remainder() {
        first = fold_byte(first, byte);
        second = fold_byte(second, byte);
    }
    (first, second)
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) over `data`.
///
/// Table-driven: the store framing checksums every payload byte into two
/// CRCs (its line's and the whole payload's), both folded in the one pass
/// that writes or reads the line, and the shift-per-bit form this replaced
/// was most of the time of a save and of a load. The workspace vendors no
/// checksum crate; the tables are compared with the bitwise definition, at
/// every short length and offset, in `tests/checkpoint_byte_identity.rs`.
/// Matches zlib's `crc32()` for cross-checking.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_fold(CRC_INIT, data)
}

/// Durable writer/reader for [`CoordinatorCheckpoint`]s with generations,
/// CRC framing, and a double-buffered fallback file.
///
/// One store instance owns one `path`; the previous good generation lives
/// beside it at `<path>.prev` and the in-flight temp file at `<path>.tmp`.
#[derive(Debug)]
pub struct CheckpointStore {
    path: PathBuf,
    generation: u64,
}

impl CheckpointStore {
    /// Creates a store rooted at `path`. Nothing touches the disk until
    /// [`save`](CheckpointStore::save) or [`load`](CheckpointStore::load).
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> CheckpointStore {
        CheckpointStore {
            path: path.into(),
            generation: 0,
        }
    }

    /// The generation number the *next* [`save`](CheckpointStore::save)
    /// will write. Starts at 0 and is bumped past the newest on-disk
    /// generation by [`load`](CheckpointStore::load).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Path of the live checkpoint file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn prev_path(&self) -> PathBuf {
        sibling(&self.path, ".prev")
    }

    fn tmp_path(&self) -> PathBuf {
        sibling(&self.path, ".tmp")
    }

    /// Persists `checkpoint` atomically and rotates the previous live file
    /// to `<path>.prev`, returning the generation number written.
    ///
    /// Write order is crash-safe: the new bytes are fully on disk (written
    /// and fsynced under a temp name) before any existing file is disturbed,
    /// so at every instant either the old or the new generation is intact.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the filesystem refuses.
    pub fn save(&mut self, checkpoint: &CoordinatorCheckpoint) -> Result<u64, CheckpointError> {
        let generation = self.generation;
        let encoded = codec::write_store(checkpoint, generation);
        write_synced(&self.tmp_path(), &encoded)?;
        rotate(&self.path, &self.prev_path())?;
        fs::rename(self.tmp_path(), &self.path).map_err(|e| CheckpointError::Io {
            path: self.path.display().to_string(),
            message: e.to_string(),
        })?;
        sync_parent_dir(&self.path);
        self.generation = generation + 1;
        Ok(generation)
    }

    /// Recovers the newest checkpoint generation that verifies, from the
    /// live file or `<path>.prev`.
    ///
    /// Both files are read as bytes and each trailer is read once; the
    /// files are then verified in descending order of the generation their
    /// trailers declare (the live file first on a tie), and the first that
    /// verifies is returned. A verified file's generation is the one its
    /// trailer declares, so this is the newest generation that verifies —
    /// and a stale `.prev` is never decoded while the live file verifies. A
    /// file that is not UTF-8 is one that does not verify, not an I/O
    /// error.
    ///
    /// Returns `Ok(None)` when neither file exists (fresh start). On
    /// success the store's next save generation is set past the recovered
    /// one, so resumed runs keep a monotone generation history.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NoValidGeneration`] when files exist but none
    /// passes CRC + trailer + codec verification, and
    /// [`CheckpointError::Io`] for filesystem-level read failures.
    pub fn load(&mut self) -> Result<Option<CoordinatorCheckpoint>, CheckpointError> {
        let mut files = Vec::with_capacity(2);
        for path in [self.path.clone(), self.prev_path()] {
            match fs::read(&path) {
                Ok(bytes) => files.push((codec::declared_generation(&bytes), path, bytes)),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    return Err(CheckpointError::Io {
                        path: path.display().to_string(),
                        message: e.to_string(),
                    })
                }
            }
        }
        if files.is_empty() {
            return Ok(None);
        }
        // Stable: the live file stays ahead of `.prev` on equal generations.
        files.sort_by_key(|&(declared, ..)| Reverse(declared));

        let mut failures = Vec::new();
        for (_, path, bytes) in &files {
            match codec::read_store(bytes) {
                Ok((checkpoint, generation)) => {
                    self.generation = generation + 1;
                    return Ok(Some(checkpoint));
                }
                Err(e) => failures.push(format!("{}: {e}", path.display())),
            }
        }
        Err(CheckpointError::NoValidGeneration {
            detail: failures.join("; "),
        })
    }
}

/// Appends `suffix` to the file name of `path` (`a/b.ckpt` → `a/b.ckpt.prev`).
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    name.push_str(suffix);
    path.with_file_name(name)
}

/// Writes `bytes` to `path` and fsyncs it before close.
fn write_synced(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let io_err = |e: std::io::Error| CheckpointError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    let mut file = fs::File::create(path).map_err(io_err)?;
    file.write_all(bytes).map_err(io_err)?;
    file.sync_all().map_err(io_err)
}

/// Moves the live file to the `.prev` slot if it exists; missing live file
/// (first save ever) is not an error.
fn rotate(live: &Path, prev: &Path) -> Result<(), CheckpointError> {
    match fs::rename(live, prev) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(CheckpointError::Io {
            path: live.display().to_string(),
            message: e.to_string(),
        }),
    }
}

/// Best-effort fsync of the directory containing `path`, so the rename
/// itself is durable. Failure is ignored: some filesystems refuse
/// directory fsync and the data file is already synced.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Reference values from zlib's crc32().
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"pdsat"), crc32(b"pdsat"));
        assert_ne!(crc32(b"pdsat"), crc32(b"pdsbt"));
    }

    /// A checkpoint whose text is its header and family line.
    fn family_only() -> CoordinatorCheckpoint {
        CoordinatorCheckpoint::empty(3, 8, 4)
    }

    /// The store file of `checkpoint` at `generation`, as text.
    fn framed_text(checkpoint: &CoordinatorCheckpoint, generation: u64) -> String {
        String::from_utf8(codec::write_store(checkpoint, generation)).expect("framing writes ASCII")
    }

    #[test]
    fn encode_decode_roundtrip() {
        let framed = codec::write_store(&family_only(), 7);
        let (decoded, generation) = codec::read_store(&framed).expect("framed text decodes");
        assert_eq!(decoded, family_only());
        assert_eq!(generation, 7);
    }

    /// The trailer CRC is folded line by line while framing; it must be the
    /// CRC of the payload's bytes, and each line's prefix the CRC of that
    /// line. A file whose lines end in `\r\n` (a CRLF checkout) reads back
    /// as the original: each line is checked without its `\r`, the payload
    /// with `\n` line ends.
    #[test]
    fn framing_checksums_the_payload_bytes_however_its_lines_end() {
        let with_units = CoordinatorCheckpoint::from_text(
            "pdsat-coordinator-checkpoint v1\n\
             family set_size=2 total_cubes=6 work_unit_size=2\n\
             unit 0 2 4014000000000000 0 0 1500 3 7 11 12 13 14 15 - - - \
             4008000000000000,4000000000000000\n\
             unit 2 2 4014000000000000 1 0 9 0 0 0 0 0 0 0 1 4014000000000000 10x1 \
             4008000000000000,4000000000000000\n",
        )
        .expect("a valid checkpoint");
        for checkpoint in [family_only(), with_units] {
            let payload = checkpoint.to_text();
            let framed = framed_text(&checkpoint, 1);
            let mut expected = "pdsat-checkpoint-store v1\n".to_string();
            for line in payload.lines() {
                expected.push_str(&format!("{:08x} {line}\n", crc32(line.as_bytes())));
            }
            expected.push_str(&format!(
                "end generation=1 lines={} crc={:08x}\n",
                payload.lines().count(),
                crc32(payload.as_bytes())
            ));
            assert_eq!(framed, expected, "{payload:?}");
            let crlf = framed.replace('\n', "\r\n");
            assert_eq!(codec::read_store(crlf.as_bytes()), Ok((checkpoint, 1)));
        }
    }

    /// A store file as written today, spelled out by hand (CRCs from zlib's
    /// `crc32()`), goes through the real disk path: `load` accepts it and a
    /// fresh store's first `save` writes the same bytes back.
    #[test]
    fn golden_store_file_loads_and_resaves_byte_identically() {
        let golden = "pdsat-checkpoint-store v1\n\
            88929a92 pdsat-coordinator-checkpoint v1\n\
            66e64561 family set_size=2 total_cubes=4 work_unit_size=2\n\
            dbb9f46c unit 1 2 4014000000000000 1 0 1500 3 7 11 12 13 14 15 1 4014000000000000 10x1 \
            4008000000000000,4000000000000000\n\
            end generation=0 lines=3 crc=5be36373\n";
        let dir = std::env::temp_dir();
        let original = dir.join(format!("pdsat-golden-{}-a.ckpt", std::process::id()));
        let resaved = dir.join(format!("pdsat-golden-{}-b.ckpt", std::process::id()));
        fs::write(&original, golden).expect("scratch file is writable");

        let mut store = CheckpointStore::new(&original);
        let checkpoint = store
            .load()
            .expect("golden file verifies")
            .expect("golden file exists");
        assert_eq!(store.generation(), 1, "next save follows generation 0");
        assert_eq!(checkpoint.completed[&1].per_cube_costs, vec![3.0, 2.0]);

        let mut fresh = CheckpointStore::new(&resaved);
        assert_eq!(fresh.save(&checkpoint), Ok(0));
        let written = fs::read_to_string(&resaved).expect("saved file is readable");
        let _ = fs::remove_file(&original);
        let _ = fs::remove_file(&resaved);
        assert_eq!(written, golden);
    }

    /// Writes the live file and `.prev` of a store as given (`None`: no
    /// file), loads it, and returns the family size of what it recovered
    /// with the store's next generation. Every checkpoint below is told
    /// apart by its `total_cubes`.
    fn load_from(name: &str, live: Option<&str>, prev: Option<&str>) -> (usize, u64) {
        let path =
            std::env::temp_dir().join(format!("pdsat-load-{}-{name}.ckpt", std::process::id()));
        let mut store = CheckpointStore::new(&path);
        for (file, text) in [(path.clone(), live), (store.prev_path(), prev)] {
            match text {
                Some(text) => fs::write(&file, text).expect("scratch file is writable"),
                None => assert!(!file.exists()),
            }
        }
        let loaded = store.load();
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(store.prev_path());
        let checkpoint = loaded.expect("a generation verifies").expect("files exist");
        (checkpoint.total_cubes, store.generation())
    }

    fn framed(total_cubes: usize, generation: u64) -> String {
        framed_text(&CoordinatorCheckpoint::empty(2, total_cubes, 2), generation)
    }

    #[test]
    fn load_returns_the_newest_generation_that_verifies() {
        // The live file verifies and is newer: `.prev` is never decoded.
        assert_eq!(
            load_from("live", Some(&framed(8, 5)), Some(&framed(4, 4))),
            (8, 6)
        );
        assert_eq!(load_from("only", Some(&framed(8, 5)), None), (8, 6));
        // A torn live file falls back to `.prev`.
        let live = framed(8, 5);
        let torn = &live[..live.len() - 10];
        assert_eq!(load_from("torn", Some(torn), Some(&framed(4, 4))), (4, 5));
        // `.prev` declaring a higher generation is tried first; corrupt, it
        // yields to the live file…
        let newer = framed(16, 9);
        let corrupt = newer.replace("total_cubes=16", "total_cubes=61");
        assert_ne!(corrupt, newer);
        assert_eq!(
            load_from("corrupt", Some(&framed(8, 5)), Some(&corrupt)),
            (8, 6)
        );
        // …and valid, it wins.
        assert_eq!(
            load_from("newer", Some(&framed(8, 5)), Some(&newer)),
            (16, 10)
        );
    }

    #[test]
    fn truncation_is_detected() {
        let framed = codec::write_store(&family_only(), 3);
        for cut in [1, framed.len() / 2, framed.len() - 2] {
            assert!(
                codec::read_store(&framed[..cut]).is_err(),
                "truncation at byte {cut} must not decode"
            );
        }
    }

    #[test]
    fn bit_flip_is_detected() {
        let framed = framed_text(&family_only(), 3);
        // Flip one character inside a payload body (after the first CRC
        // prefix): find the family line and corrupt a digit.
        let corrupted = framed.replace("set_size=3", "set_size=9");
        assert_ne!(corrupted, framed);
        assert!(matches!(
            codec::read_store(corrupted.as_bytes()),
            Err(CheckpointError::LineCorrupt { line_number: 3 })
        ));
    }

    #[test]
    fn trailer_line_count_mismatch_is_detected() {
        let framed = framed_text(&family_only(), 3);
        // Drop the second payload line but keep the trailer intact.
        let mut lines: Vec<&str> = framed.lines().collect();
        lines.remove(2);
        let shortened = lines.join("\n");
        assert!(matches!(
            codec::read_store(shortened.as_bytes()),
            Err(CheckpointError::BadTrailer { .. })
        ));
    }
}
