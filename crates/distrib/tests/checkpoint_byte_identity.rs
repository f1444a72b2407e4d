//! The checkpoint codec and the store framing write the bytes they wrote
//! before the one-pass rewrite: one fixed synthetic run, its counters, its
//! checkpoint text and its generation-0 store file are pinned to the length
//! and CRC-32 recorded from the parent commit (bitwise CRC, `format!` per
//! field, framing over a second `String`). The table-driven [`crc32`] is
//! itself compared with the bitwise definition it replaced.

use pdsat_cnf::{Assignment, Var};
use pdsat_distrib::{
    crc32, synthetic_family_solver, CheckpointStore, Coordinator, CoordinatorCheckpoint,
    CoordinatorConfig, LoopbackConfig, LoopbackTransport, RunStatus,
};
use std::time::Duration;

/// CRC-32 (IEEE 802.3, reflected) straight from the definition: eight
/// shift-and-conditionally-xor steps per byte. The reference for the table.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// splitmix64, so the buffer is the same on every platform and toolchain.
fn pseudo_random_bytes(len: usize, mut state: u64) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(len + 8);
    while bytes.len() < len {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        bytes.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    bytes.truncate(len);
    bytes
}

#[test]
fn table_crc_equals_the_bitwise_definition() {
    let bytes = pseudo_random_bytes(1 << 20, 0x000C_4C32);
    for len in 0..=64 {
        assert_eq!(crc32(&bytes[..len]), crc32_bitwise(&bytes[..len]), "{len}");
        // Every split between the eight-byte strides and the byte-wise
        // tail, from an unaligned start too.
        assert_eq!(
            crc32(&bytes[3..3 + len]),
            crc32_bitwise(&bytes[3..3 + len]),
            "{len}"
        );
    }
    assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

const UNITS: usize = 512;
const UNIT_SIZE: usize = 8;

/// 512 units × 8 cubes, redundancy 2, 48 chaotic clients, seed 7; every
/// 23rd cube satisfiable so `first_sat_index` / `cost_to_first_sat` are
/// written both ways.
fn fixed_run() -> Coordinator {
    let costs: Vec<f64> = (0..UNITS * UNIT_SIZE)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(7) % 97;
            0.5 + x as f64 * 0.13
        })
        .collect();
    let config = CoordinatorConfig {
        work_unit_size: UNIT_SIZE,
        redundancy: 2,
        lease_timeout: 2_000.0,
    };
    let mut coordinator = Coordinator::new(3, costs.len(), &config);
    let mut transport = LoopbackTransport::new(
        LoopbackConfig {
            num_clients: 48,
            seed: 7,
            poll_interval: 200.0,
        },
        synthetic_family_solver(3, costs, Some(23)),
    );
    assert_eq!(
        coordinator.run(&mut transport, Some(1_000_000)),
        RunStatus::Complete
    );
    coordinator
}

/// The synthetic solver leaves models and most counters at their defaults;
/// dress every fifth unit so each of the 17 fields is written non-trivially
/// somewhere in the text.
fn dressed(checkpoint: &CoordinatorCheckpoint) -> CoordinatorCheckpoint {
    let mut dressed = checkpoint.clone();
    for (&id, report) in &mut dressed.completed {
        if id % 5 != 0 {
            continue;
        }
        let n = u64::from(id);
        report.unknown_count = (id % 3) as usize;
        report.wall_time = Duration::from_nanos(n * 1_000 + 7);
        report.counters.reused_assumptions = n * 3;
        report.counters.saved_propagations = n * 1_001;
        report.counters.exported_clauses = n + 1;
        report.counters.imported_clauses = n + 2;
        report.counters.import_dropped = n % 4;
        report.counters.worker_panics = n % 2;
        report.counters.requeued_cubes = n % 7;
        let mut model = Assignment::new(11 + (id % 4) as usize);
        for v in 0..model.num_vars() {
            match (v + id as usize) % 3 {
                0 => model.assign(Var::new(v as u32), true),
                1 => model.assign(Var::new(v as u32), false),
                _ => {}
            }
        }
        report.model = Some(model);
    }
    dressed
}

#[test]
fn fixed_run_writes_the_bytes_the_parent_commit_wrote() {
    let coordinator = fixed_run();
    let stats = coordinator.stats();
    // Assignment order and expiry counts, end to end: any drift in which
    // unit a client is handed or when a lease lapses moves these.
    assert_eq!(
        (
            stats.events_processed,
            stats.assignments,
            stats.no_work_replies,
            stats.expired_leases,
            stats.invalid_results,
            stats.duplicate_results,
            stats.late_results,
            stats.makespan.to_bits(),
        ),
        (2499, 1128, 276, 71, 33, 38, 2, 0x40CC_E33E_EE70_BA70)
    );

    let text = coordinator.checkpoint().to_text();
    assert_eq!(
        (text.len(), crc32_bitwise(text.as_bytes())),
        (99_924, 0x36B3_7BA5)
    );

    let checkpoint = dressed(coordinator.checkpoint());
    let text = checkpoint.to_text();
    assert_eq!(
        (text.len(), crc32_bitwise(text.as_bytes())),
        (102_689, 0xCA5D_4DF4)
    );
    assert_eq!(
        CoordinatorCheckpoint::from_text(&text).as_ref(),
        Ok(&checkpoint)
    );

    let path = std::env::temp_dir().join(format!("pdsat-bytes-{}.ckpt", std::process::id()));
    let mut store = CheckpointStore::new(&path);
    assert_eq!(store.save(&checkpoint), Ok(0));
    let file = std::fs::read(&path).expect("the file just saved is readable");
    let loaded = CheckpointStore::new(&path).load();
    let _ = std::fs::remove_file(&path);
    assert_eq!((file.len(), crc32_bitwise(&file)), (107_381, 0x0DD7_3950));
    assert_eq!(loaded, Ok(Some(checkpoint)));
}
