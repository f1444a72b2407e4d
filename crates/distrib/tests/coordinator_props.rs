//! Property tests for the distributed coordinator's two load-bearing
//! guarantees:
//!
//! 1. **Exactly-once completion** — under heavy-tailed host speeds,
//!    availability gaps, churn, stragglers, vanished/duplicate/corrupted
//!    results and lease re-issue, every work unit of the family ends up
//!    completed exactly once and the aggregate covers every cube exactly
//!    once.
//! 2. **Crash recovery** — killing the coordinator after an arbitrary number
//!    of events and resuming a fresh coordinator from the text-serialized
//!    checkpoint (over a *differently seeded* client population) reproduces
//!    the uninterrupted run's final checkpoint and aggregate bit-for-bit.
//!
//! Client chaos changes nothing in the completed family: a run under chaotic
//! clients ends in the checkpoint text of a run under ideal ones.
//!
//! And for the checkpoint text as a trust boundary: whatever bytes the
//! loader is handed, it and the coordinator resumed from what it accepts
//! never panic. The checkpoint store's recovery is tested below by damaging
//! its files on disk.

use pdsat_distrib::{
    synthetic_family_solver, ClientBehavior, ClientPopulation, Coordinator, CoordinatorCheckpoint,
    CoordinatorConfig, GridTestPolicy, LoopbackConfig, LoopbackTransport, RunStatus,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic, mildly irregular per-cube costs.
fn family(num_cubes: usize, seed: u64) -> Vec<f64> {
    (0..num_cubes)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed) % 97;
            0.5 + x as f64 * 0.13
        })
        .collect()
}

fn chaotic(seed: u64, num_clients: usize) -> LoopbackConfig {
    LoopbackConfig {
        num_clients,
        seed,
        poll_interval: 250.0,
    }
}

/// An event budget far above anything a healthy run needs: hitting it means
/// the coordinator livelocked, and the test fails instead of hanging.
const EVENT_CEILING: u64 = 2_000_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_work_unit_completes_exactly_once_under_chaos(
        seed in 0u64..10_000,
        num_cubes in 1usize..80,
        work_unit_size in 1usize..9,
        redundancy in 1usize..4,
        num_clients in 4usize..12,
    ) {
        let costs = family(num_cubes, seed);
        let config = CoordinatorConfig {
            work_unit_size,
            redundancy,
            lease_timeout: 20_000.0,
        };
        let mut coordinator = Coordinator::new(3, num_cubes, &config);
        let mut transport = LoopbackTransport::new(
            chaotic(seed, num_clients),
            synthetic_family_solver(3, costs.clone(), Some(17)),
        );
        let status = coordinator.run(&mut transport, Some(EVENT_CEILING));
        prop_assert_eq!(status, RunStatus::Complete);

        // Every unit id appears exactly once, covering the whole family.
        let checkpoint = coordinator.checkpoint();
        let expected_units = num_cubes.div_ceil(work_unit_size);
        prop_assert_eq!(checkpoint.completed.len(), expected_units);
        for (i, (&id, report)) in checkpoint.completed.iter().enumerate() {
            prop_assert_eq!(id as usize, i, "unit ids must be contiguous");
            let first = i * work_unit_size;
            prop_assert_eq!(report.cubes_processed, work_unit_size.min(num_cubes - first));
        }

        // The aggregate covers every cube exactly once, in enumeration order.
        let aggregate = coordinator.aggregate().expect("complete run aggregates");
        prop_assert_eq!(aggregate.cubes_processed, num_cubes);
        prop_assert_eq!(&aggregate.per_cube_costs, &costs);
        let total: f64 = costs.iter().sum();
        prop_assert!((aggregate.total_cost - total).abs() < 1e-6 * total.max(1.0));

        // Quorum discipline: every unit was assigned at least `redundancy`
        // times (replication), and only counted results reached the map.
        prop_assert!(coordinator.stats().assignments >= redundancy * expected_units);
    }

    #[test]
    fn kill_restart_from_checkpoint_reproduces_the_aggregate_bit_for_bit(
        seed in 0u64..10_000,
        num_cubes in 1usize..60,
        work_unit_size in 1usize..7,
        redundancy in 1usize..3,
        kill_after in 1u64..2_500,
    ) {
        let costs = family(num_cubes, seed);
        let config = CoordinatorConfig {
            work_unit_size,
            redundancy,
            lease_timeout: 20_000.0,
        };
        let solver = || synthetic_family_solver(4, costs.clone(), Some(13));

        // Reference: one uninterrupted run.
        let mut uninterrupted = Coordinator::new(4, num_cubes, &config);
        let mut transport = LoopbackTransport::new(chaotic(seed, 6), solver());
        prop_assert_eq!(
            uninterrupted.run(&mut transport, Some(EVENT_CEILING)),
            RunStatus::Complete
        );
        let reference_text = uninterrupted.checkpoint().to_text();
        let reference_aggregate = uninterrupted.aggregate().expect("complete");

        // Kill: same population seed, cut off after `kill_after` events.
        let mut killed = Coordinator::new(4, num_cubes, &config);
        let mut transport = LoopbackTransport::new(chaotic(seed, 6), solver());
        let status = killed.run(&mut transport, Some(kill_after));
        let persisted = killed.checkpoint().to_text();
        drop(killed);
        drop(transport);

        if status == RunStatus::Complete {
            // The budget outlived the run; the checkpoint is already final.
            prop_assert_eq!(&persisted, &reference_text);
            return;
        }
        prop_assert_eq!(status, RunStatus::OutOfEvents);

        // Restart: a fresh coordinator from the persisted text, over a
        // *different* client population. No completed unit is recomputed,
        // and the final state matches the uninterrupted run exactly.
        let restored = CoordinatorCheckpoint::from_text(&persisted).expect("valid checkpoint");
        let resumed_from = restored.completed.len();
        let mut resumed = Coordinator::resume(restored, &config);
        let mut transport = LoopbackTransport::new(chaotic(seed ^ 0xDEAD_BEEF, 5), solver());
        prop_assert_eq!(
            resumed.run(&mut transport, Some(EVENT_CEILING)),
            RunStatus::Complete
        );
        prop_assert!(resumed.checkpoint().completed.len() >= resumed_from);
        prop_assert_eq!(resumed.checkpoint().to_text(), reference_text);

        let resumed_aggregate = resumed.aggregate().expect("complete");
        prop_assert_eq!(&resumed_aggregate, &reference_aggregate);
        // Bit-for-bit, not just approximately: the merge follows the same
        // enumeration order regardless of which population solved what.
        prop_assert_eq!(
            resumed_aggregate.total_cost.to_bits(),
            reference_aggregate.total_cost.to_bits()
        );
    }
}

/// Runs a whole family of `num_cubes` cubes over a population of 8 clients
/// drawn from `seed` and behaving as `behavior`; returns its final
/// checkpoint.
fn run_to_completion(
    num_cubes: usize,
    config: &CoordinatorConfig,
    costs: &[f64],
    seed: u64,
    behavior: ClientBehavior,
) -> CoordinatorCheckpoint {
    let mut coordinator = Coordinator::new(4, num_cubes, config);
    let mut transport = LoopbackTransport::with_test_policy(
        chaotic(seed, 8),
        GridTestPolicy {
            population: ClientPopulation::Synthetic(behavior),
            ..GridTestPolicy::default()
        },
        synthetic_family_solver(4, costs.to_vec(), Some(13)),
    );
    assert_eq!(
        coordinator.run(&mut transport, Some(EVENT_CEILING)),
        RunStatus::Complete
    );
    coordinator.checkpoint().clone()
}

/// The completed family depends on the family alone: perfectly behaved
/// clients, and clients that lose, duplicate, delay and corrupt results,
/// end in the same checkpoint text.
#[test]
fn client_chaos_never_changes_the_completed_family() {
    let num_cubes = 57;
    let config = CoordinatorConfig {
        work_unit_size: 5,
        redundancy: 2,
        lease_timeout: 20_000.0,
    };
    let costs = family(num_cubes, 11);
    for seed in [1u64, 7, 23, 99] {
        let run = |behavior| run_to_completion(num_cubes, &config, &costs, seed, behavior);
        assert_eq!(
            run(ClientBehavior::default()).to_text(),
            run(ClientBehavior::ideal()).to_text(),
            "seed {seed}: client chaos must not change the completed family"
        );
    }
}

/// The text of a small completed run: something for the hostile cases below
/// to damage.
fn valid_checkpoint_text() -> String {
    let config = CoordinatorConfig {
        work_unit_size: 3,
        redundancy: 1,
        lease_timeout: 20_000.0,
    };
    let mut coordinator = Coordinator::new(4, 11, &config);
    let mut transport = LoopbackTransport::new(
        chaotic(5, 6),
        synthetic_family_solver(4, family(11, 5), Some(4)),
    );
    assert_eq!(
        coordinator.run(&mut transport, Some(EVENT_CEILING)),
        RunStatus::Complete
    );
    coordinator.checkpoint().to_text()
}

/// Numbers and non-numbers that sit on the edges the loader has to mind.
const HOSTILE_TOKENS: [&str; 12] = [
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
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_checkpoint_text_never_panics_the_loader_or_the_resumed_coordinator(
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let valid = valid_checkpoint_text();
        let mut bytes = valid.clone().into_bytes();
        match rng.gen_range(0..4u32) {
            // Arbitrary bytes.
            0 => {
                bytes = (0..rng.gen_range(0..200usize))
                    .map(|_| rng.gen_range(0..=255u8))
                    .collect();
            }
            // A valid text with some bytes overwritten, then cut short.
            1 => {
                for _ in 0..rng.gen_range(1..6usize) {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] = rng.gen_range(0..=255u8);
                }
                bytes.truncate(rng.gen_range(0..=bytes.len()));
            }
            // A valid text with whole fields replaced by hostile ones: one
            // value of the family line, or a few fields of the unit lines.
            mode => {
                let mut lines: Vec<Vec<String>> = valid
                    .lines()
                    .map(|line| line.split(' ').map(str::to_string).collect())
                    .collect();
                let replacements = if mode == 2 { 1 } else { rng.gen_range(1..4usize) };
                for _ in 0..replacements {
                    let line = if mode == 2 { 1 } else { rng.gen_range(2..lines.len()) };
                    let field = rng.gen_range(1..lines[line].len());
                    let hostile = HOSTILE_TOKENS[rng.gen_range(0..HOSTILE_TOKENS.len())];
                    lines[line][field] = match lines[line][field].split_once('=') {
                        Some((key, _)) => format!("{key}={hostile}"),
                        None => hostile.to_string(),
                    };
                }
                let damaged: Vec<String> = lines.iter().map(|fields| fields.join(" ")).collect();
                bytes = damaged.join("\n").into_bytes();
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(checkpoint) = CoordinatorCheckpoint::from_text(&text) {
            let total_cubes = checkpoint.total_cubes;
            let config = CoordinatorConfig {
                work_unit_size: checkpoint.work_unit_size,
                redundancy: 1,
                lease_timeout: 20_000.0,
            };
            let resumed = Coordinator::resume(checkpoint, &config);
            // What a resumed coordinator reports never exceeds its family.
            if let Some(aggregate) = resumed.aggregate() {
                prop_assert_eq!(aggregate.cubes_processed, total_cubes);
                prop_assert_eq!(aggregate.per_cube_costs.len(), total_cubes);
            }
        }
    }
}

mod store_recovery {
    //! Tests of the durable checkpoint store: whatever corruption hits the
    //! *live* file — truncation at an arbitrary byte, a flipped bit, or a
    //! stale generation landing on top — recovery must be bit-for-bit some
    //! *good* generation, never garbage and never a hard failure while
    //! `<path>.prev` still verifies. A crash mid-save is modelled by
    //! truncating the live file by hand after two good saves.

    use super::*;
    use pdsat_distrib::CheckpointStore;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique scratch path without wall clock or RNG (the clock lint bans
    /// `SystemTime` in tests): process id + per-process counter.
    fn scratch_path() -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("pdsat-props-{}-{}.ckpt", std::process::id(), n))
    }

    fn cleanup(path: &Path) {
        for suffix in ["", ".prev", ".tmp"] {
            let mut name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            name.push_str(suffix);
            let _ = std::fs::remove_file(path.with_file_name(name));
        }
    }

    fn prev_of(path: &Path) -> PathBuf {
        let mut name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        name.push_str(".prev");
        path.with_file_name(name)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn corrupted_live_file_recovers_to_the_last_good_generation(
            seed in 0u64..10_000,
            num_cubes in 1usize..60,
            work_unit_size in 1usize..7,
            kill_after in 1u64..2_000,
            corruption in 0usize..3, // 0 truncate, 1 bit-flip, 2 swapped (stale) generations
            site in 0.0f64..1.0,
            bit in 0u32..8,
        ) {
            let costs = family(num_cubes, seed);
            let config = CoordinatorConfig {
                work_unit_size,
                redundancy: 1,
                lease_timeout: 20_000.0,
            };
            let mut coordinator = Coordinator::new(4, num_cubes, &config);
            let mut transport = LoopbackTransport::new(
                chaotic(seed, 6),
                synthetic_family_solver(4, costs.clone(), Some(13)),
            );

            // Two generations on disk: gen 0 (older) rotates to `.prev`
            // when gen 1 (newer) is saved.
            let _ = coordinator.run(&mut transport, Some(kill_after));
            let gen0_text = coordinator.checkpoint().to_text();
            let path = scratch_path();
            cleanup(&path);
            let mut store = CheckpointStore::new(&path);
            store.save(coordinator.checkpoint()).expect("save gen 0");
            // The budget counts every event of this coordinator: the second
            // segment runs as long again, so gen 1 usually holds more units.
            let _ = coordinator.run(&mut transport, Some(2 * kill_after));
            let gen1_text = coordinator.checkpoint().to_text();
            store.save(coordinator.checkpoint()).expect("save gen 1");

            let live = std::fs::read(&path).expect("live file exists");
            let expected = match corruption {
                0 => {
                    // Truncate: cutting only the final newline leaves the
                    // newest generation intact; any deeper cut must fall
                    // back to gen 0.
                    let cut = (site * live.len() as f64) as usize;
                    std::fs::write(&path, &live[..cut]).expect("truncate");
                    if cut >= live.len() - 1 { &gen1_text } else { &gen0_text }
                }
                1 => {
                    // Flip one bit of one byte, any of the eight, so the
                    // file may no longer be UTF-8: CRC framing must catch
                    // it wherever it changes what the file means.
                    let mut bytes = live.clone();
                    let at = ((site * bytes.len() as f64) as usize).min(bytes.len() - 1);
                    bytes[at] ^= 1 << bit;
                    std::fs::write(&path, &bytes).expect("flip");
                    if flip_keeps_meaning(&live, at, bit) { &gen1_text } else { &gen0_text }
                }
                _ => {
                    // Stale generation: the two files swap places, so the
                    // older one sits on the live path (both verify); load
                    // must pick the *newest* generation, now in `.prev`.
                    let prev = std::fs::read(prev_of(&path)).expect("prev exists");
                    std::fs::write(&path, &prev).expect("stale overwrite");
                    std::fs::write(prev_of(&path), &live).expect("newest to prev");
                    &gen1_text
                }
            };

            let mut recovered_store = CheckpointStore::new(&path);
            let recovered = recovered_store
                .load()
                .expect("a good generation always survives")
                .expect("two generations were saved");
            prop_assert_eq!(&recovered.to_text(), expected);
            // The next save never reuses a generation number that might
            // already be on disk.
            prop_assert!(recovered_store.generation() >= 1);
            cleanup(&path);
        }
    }

    /// Whether flipping bit `bit` of byte `at` of a store file leaves it
    /// meaning what it meant. Every payload byte is under a CRC, so only
    /// three flips do:
    /// * the case of a hex letter in a CRC field — `from_str_radix` reads
    ///   both cases;
    /// * a digit of the trailer's generation turned into another digit —
    ///   the trailer is under no CRC, and the generation only orders the
    ///   two files, in which the live one still comes first;
    /// * the file's last newline turned into a vertical tab, which ends the
    ///   trailer's last field just as well.
    fn flip_keeps_meaning(file: &[u8], at: usize, bit: u32) -> bool {
        let flipped = file[at] ^ 1 << bit;
        let case_swap = bit == 5 && file[at].is_ascii_alphabetic();
        let line_start = file[..at]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |newline| newline + 1);
        let line = &file[line_start..];
        let column = at - line_start;
        if !line.starts_with(b"end ") {
            // A payload line's CRC field; the header has none.
            return line_start > 0 && column < 8 && case_swap;
        }
        let value_of = |key: &[u8]| {
            let start = line
                .windows(key.len())
                .position(|w| w == key)
                .expect("the trailer has the field")
                + key.len();
            let len = line[start..]
                .iter()
                .take_while(|b| b.is_ascii_hexdigit())
                .count();
            start..start + len
        };
        (at == file.len() - 1 && char::from(flipped).is_whitespace())
            || (value_of(b"crc=").contains(&column) && case_swap)
            || (value_of(b"generation=").contains(&column) && flipped.is_ascii_digit())
    }

    /// Saves two generations of one run to the store at `path` — the older
    /// rotates to `.prev` — and returns their texts.
    fn save_two_generations(path: &Path) -> (String, String) {
        let config = CoordinatorConfig {
            work_unit_size: 4,
            redundancy: 1,
            lease_timeout: 20_000.0,
        };
        let mut coordinator = Coordinator::new(4, 40, &config);
        let mut transport = LoopbackTransport::new(
            chaotic(11, 6),
            synthetic_family_solver(4, family(40, 11), Some(13)),
        );
        let mut store = CheckpointStore::new(path);
        let _ = coordinator.run(&mut transport, Some(10));
        store.save(coordinator.checkpoint()).expect("save gen 0");
        let gen0_text = coordinator.checkpoint().to_text();
        let _ = coordinator.run(&mut transport, Some(EVENT_CEILING));
        store.save(coordinator.checkpoint()).expect("save gen 1");
        let gen1_text = coordinator.checkpoint().to_text();
        assert_ne!(gen0_text, gen1_text, "the run progressed between saves");
        (gen0_text, gen1_text)
    }

    /// Sets the high bit of byte 81 of `file`, inside the family line's
    /// body: the file is no longer UTF-8.
    fn break_utf8(file: &Path) {
        let mut bytes = std::fs::read(file).expect("file exists");
        bytes[81] ^= 0x80;
        assert!(std::str::from_utf8(&bytes).is_err());
        std::fs::write(file, &bytes).expect("flip");
    }

    #[test]
    fn a_live_file_that_is_not_utf8_falls_back_to_the_previous_generation() {
        let path = scratch_path();
        cleanup(&path);
        let (gen0_text, _) = save_two_generations(&path);
        break_utf8(&path);
        let mut store = CheckpointStore::new(&path);
        let recovered = store
            .load()
            .expect("the previous generation verifies")
            .expect("two generations were saved");
        assert_eq!(recovered.to_text(), gen0_text);
        assert_eq!(store.generation(), 1);
        cleanup(&path);
    }

    #[test]
    fn a_corrupt_prev_beside_a_good_live_file_loads_the_live_one() {
        let path = scratch_path();
        cleanup(&path);
        let (_, gen1_text) = save_two_generations(&path);
        break_utf8(&prev_of(&path));
        let mut store = CheckpointStore::new(&path);
        let recovered = store
            .load()
            .expect("the live generation verifies")
            .expect("two generations were saved");
        assert_eq!(recovered.to_text(), gen1_text);
        assert_eq!(store.generation(), 2);
        cleanup(&path);
    }

    /// Truncates the live file at `path` to its first `cut` bytes, as a
    /// crash mid-write would leave it on a store without atomic replace.
    fn tear(path: &Path, cut: usize) {
        let live = std::fs::read(path).expect("live file exists");
        assert!(cut + 1 < live.len(), "cut {cut} of {} bytes", live.len());
        std::fs::write(path, &live[..cut]).expect("truncate");
    }

    #[test]
    fn store_roundtrips_a_real_checkpoint_with_generations() {
        let num_cubes = 30;
        let config = CoordinatorConfig {
            work_unit_size: 4,
            redundancy: 1,
            lease_timeout: 20_000.0,
        };
        let costs = family(num_cubes, 3);
        let checkpoint =
            run_to_completion(num_cubes, &config, &costs, 3, ClientBehavior::default());

        let path = scratch_path();
        cleanup(&path);
        let mut store = CheckpointStore::new(&path);
        assert_eq!(store.load().expect("empty dir loads"), None);
        assert_eq!(store.save(&checkpoint).expect("save"), 0);
        assert_eq!(store.save(&checkpoint).expect("save again"), 1);

        let mut fresh = CheckpointStore::new(&path);
        let loaded = fresh.load().expect("load").expect("checkpoint present");
        assert_eq!(loaded.to_text(), checkpoint.to_text());
        assert_eq!(fresh.generation(), 2, "next save continues the history");
        cleanup(&path);
    }

    #[test]
    fn torn_final_write_falls_back_to_the_previous_good_generation() {
        let num_cubes = 24;
        let config = CoordinatorConfig {
            work_unit_size: 3,
            redundancy: 1,
            lease_timeout: 20_000.0,
        };
        let costs = family(num_cubes, 5);
        let full = run_to_completion(num_cubes, &config, &costs, 5, ClientBehavior::default());

        // An earlier, partial checkpoint: only the first few units.
        let mut partial = CoordinatorCheckpoint::empty(4, num_cubes, config.work_unit_size);
        for (&id, report) in full.completed.iter().take(3) {
            partial.completed.insert(id, report.clone());
        }

        // Tear the *final* save at many different byte offsets; whatever the
        // tear point, recovery must land exactly on the previous generation.
        for cut in [0usize, 1, 10, 40, 120, 400, 1000] {
            let path = scratch_path();
            cleanup(&path);
            let mut store = CheckpointStore::new(&path);
            store.save(&partial).expect("good first save");
            store.save(&full).expect("good final save");
            tear(&path, cut);

            let mut recovered = CheckpointStore::new(&path);
            let loaded = recovered
                .load()
                .expect("recovery succeeds")
                .expect("previous generation exists");
            assert_eq!(
                loaded.to_text(),
                partial.to_text(),
                "cut={cut}: recovery must be bit-for-bit the last good generation"
            );
            assert_eq!(recovered.generation(), 1, "cut={cut}");
            cleanup(&path);
        }
    }

    #[test]
    fn resuming_from_a_recovered_generation_completes_the_family() {
        let num_cubes = 40;
        let config = CoordinatorConfig {
            work_unit_size: 4,
            redundancy: 1,
            lease_timeout: 20_000.0,
        };
        let costs = family(num_cubes, 9);
        let reference = run_to_completion(num_cubes, &config, &costs, 9, ClientBehavior::default());

        // Run a while and checkpoint; if the family is not done yet, run
        // on, checkpoint again and crash during that save.
        let mut partial_coordinator = Coordinator::new(4, num_cubes, &config);
        let mut transport = LoopbackTransport::new(
            chaotic(9, 8),
            synthetic_family_solver(4, costs.clone(), Some(13)),
        );
        let status = partial_coordinator.run(&mut transport, Some(400));
        let path = scratch_path();
        cleanup(&path);
        let mut store = CheckpointStore::new(&path);
        store
            .save(partial_coordinator.checkpoint())
            .expect("good save");
        if status != RunStatus::Complete {
            let _ = partial_coordinator.run(&mut transport, Some(800));
            store
                .save(partial_coordinator.checkpoint())
                .expect("second save");
            tear(&path, 60);
        }
        drop(store);
        drop(partial_coordinator);

        // Recover whatever generation survived and finish the family on a
        // different client population: same final checkpoint as uninterrupted.
        let mut recovered_store = CheckpointStore::new(&path);
        let recovered = recovered_store
            .load()
            .expect("recovery succeeds")
            .expect("a generation survived");
        let mut resumed = Coordinator::resume(recovered, &config);
        let mut transport = LoopbackTransport::new(
            chaotic(0xFEED, 8),
            synthetic_family_solver(4, costs.clone(), Some(13)),
        );
        assert_eq!(
            resumed.run(&mut transport, Some(EVENT_CEILING)),
            RunStatus::Complete
        );
        assert_eq!(resumed.checkpoint().to_text(), reference.to_text());
        cleanup(&path);
    }
}
