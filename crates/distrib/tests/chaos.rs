//! End-to-end chaos suite for the distributed layer: a coordinator driven
//! through a faulty wire (send failures, message drops, duplicates, delays)
//! must still complete every work unit exactly once with a final checkpoint
//! bit-identical to a fault-free reference run, and the durable checkpoint
//! store must recover the last good generation from torn writes.

use pdsat_distrib::{
    synthetic_family_solver, ChaosTransport, CheckpointError, CheckpointStore, ClientBehavior,
    Coordinator, CoordinatorCheckpoint, CoordinatorConfig, FaultPlan, LoopbackConfig,
    LoopbackTransport, RetryPolicy, RunStatus,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const EVENT_CEILING: u64 = 2_000_000;

fn family(num_cubes: usize, seed: u64) -> Vec<f64> {
    (0..num_cubes)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed) % 97;
            0.5 + x as f64 * 0.13
        })
        .collect()
}

fn loopback(seed: u64) -> LoopbackConfig {
    LoopbackConfig {
        num_clients: 8,
        seed,
        behavior: ClientBehavior::default(),
        poll_interval: 250.0,
        replace_departed: true,
        ideal_hosts: false,
    }
}

/// A unique scratch path that needs no wall clock and no RNG (the clock
/// lint bans `SystemTime` here): process id + a per-process counter.
fn scratch_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "pdsat-chaos-{}-{}-{}.ckpt",
        std::process::id(),
        tag,
        n
    ))
}

fn remove_store_files(path: &Path) {
    for suffix in ["", ".prev", ".tmp"] {
        let mut name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        name.push_str(suffix);
        let _ = std::fs::remove_file(path.with_file_name(name));
    }
}

fn run_to_completion(
    num_cubes: usize,
    config: &CoordinatorConfig,
    costs: &[f64],
    seed: u64,
    plan: Option<FaultPlan>,
) -> CoordinatorCheckpoint {
    let mut coordinator = Coordinator::new(4, num_cubes, config);
    let inner = LoopbackTransport::new(
        loopback(seed),
        synthetic_family_solver(4, costs.to_vec(), Some(13)),
    );
    let status = match plan {
        None => {
            let mut transport = inner;
            coordinator.run(&mut transport, Some(EVENT_CEILING))
        }
        Some(plan) => {
            let policy = RetryPolicy {
                seed: seed ^ 0xBAC0_FF5E,
                ..RetryPolicy::default()
            };
            let mut transport = ChaosTransport::new(inner, plan.arm(), policy);
            let status = coordinator.run(&mut transport, Some(EVENT_CEILING));
            // The retry loop must have been the one absorbing the injected
            // send failures (if the plan scheduled any within the run).
            let stats = transport.stats();
            assert!(stats.send_attempts >= stats.retries);
            status
        }
    };
    assert_eq!(status, RunStatus::Complete, "run must finish under chaos");
    coordinator.checkpoint().clone()
}

#[test]
fn chaotic_wire_reproduces_the_fault_free_checkpoint_bit_for_bit() {
    let num_cubes = 57;
    let config = CoordinatorConfig {
        work_unit_size: 5,
        redundancy: 2,
        lease_timeout: 20_000.0,
    };
    let costs = family(num_cubes, 11);

    let reference = run_to_completion(num_cubes, &config, &costs, 11, None);
    for seed in [1u64, 7, 23, 99] {
        let plan = FaultPlan::seeded(seed, 3, 60);
        let chaotic = run_to_completion(num_cubes, &config, &costs, 11, Some(plan));
        assert_eq!(
            chaotic.to_text(),
            reference.to_text(),
            "seed {seed}: chaos must not change the completed family"
        );
    }
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
    let checkpoint = run_to_completion(num_cubes, &config, &costs, 3, None);

    let path = scratch_path("roundtrip");
    remove_store_files(&path);
    let mut store = CheckpointStore::new(&path);
    assert_eq!(store.load().expect("empty dir loads"), None);
    assert_eq!(store.save(&checkpoint).expect("save"), 0);
    assert_eq!(store.save(&checkpoint).expect("save again"), 1);

    let mut fresh = CheckpointStore::new(&path);
    let loaded = fresh.load().expect("load").expect("checkpoint present");
    assert_eq!(loaded.to_text(), checkpoint.to_text());
    assert_eq!(fresh.generation(), 2, "next save continues the history");
    remove_store_files(&path);
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
    let full = run_to_completion(num_cubes, &config, &costs, 5, None);

    // An earlier, partial checkpoint: only the first few units.
    let mut partial = CoordinatorCheckpoint::empty(4, num_cubes, config.work_unit_size);
    for (&id, report) in full.completed.iter().take(3) {
        partial.completed.insert(id, report.clone());
    }

    // Tear the *final* save at many different byte offsets; whatever the
    // tear point, recovery must land exactly on the previous generation.
    for cut in [0usize, 1, 10, 40, 120, 400, 1000] {
        let path = scratch_path("torn");
        remove_store_files(&path);
        let plan = FaultPlan {
            torn_writes: vec![(1, cut)],
            ..FaultPlan::none()
        };
        let mut store = CheckpointStore::with_faults(&path, plan.arm());
        store.save(&partial).expect("good first save");
        let torn = store.save(&full);
        assert!(
            matches!(torn, Err(CheckpointError::Io { .. })),
            "cut={cut}: the torn save must report failure"
        );

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
        remove_store_files(&path);
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
    let reference = run_to_completion(num_cubes, &config, &costs, 9, None);

    // Simulate: run a while, checkpoint, crash during the next checkpoint.
    let mut partial_coordinator = Coordinator::new(4, num_cubes, &config);
    let mut transport = LoopbackTransport::new(
        loopback(9),
        synthetic_family_solver(4, costs.clone(), Some(13)),
    );
    let status = partial_coordinator.run(&mut transport, Some(400));
    let path = scratch_path("resume");
    remove_store_files(&path);
    let plan = FaultPlan {
        torn_writes: vec![(1, 60)],
        ..FaultPlan::none()
    };
    let mut store = CheckpointStore::with_faults(&path, plan.arm());
    store
        .save(partial_coordinator.checkpoint())
        .expect("good save");
    if status != RunStatus::Complete {
        // Progress a little more, then crash mid-save.
        let _ = partial_coordinator.run(&mut transport, Some(400));
        let _ = store.save(partial_coordinator.checkpoint());
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
        loopback(0xFEED),
        synthetic_family_solver(4, costs.clone(), Some(13)),
    );
    assert_eq!(
        resumed.run(&mut transport, Some(EVENT_CEILING)),
        RunStatus::Complete
    );
    assert_eq!(resumed.checkpoint().to_text(), reference.to_text());
    remove_store_files(&path);
}
