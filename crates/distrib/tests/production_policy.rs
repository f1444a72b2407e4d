//! `GridTestPolicy::default()` is the production grid — synthetic hosts,
//! chaotic clients, every departed client replaced: a transport built with it
//! by `LoopbackTransport::with_test_policy` runs what `LoopbackTransport::new`'s
//! does, down to the checkpoint text and every counter.

use pdsat_distrib::{
    synthetic_family_solver, ClientBehavior, ClientPopulation, Coordinator, CoordinatorConfig,
    GridTestPolicy, LoopbackConfig, LoopbackTransport, RunStatus,
};

#[test]
fn the_default_policy_is_production() {
    let chaotic = ClientPopulation::Synthetic(ClientBehavior::default());
    let policy = GridTestPolicy::default();
    assert_eq!(
        (policy.population, policy.replace_departed),
        (chaotic, true)
    );
    let costs: Vec<f64> = (0..300).map(|i| 600.0 + f64::from(i % 13) * 90.0).collect();
    let config = CoordinatorConfig {
        work_unit_size: 6,
        redundancy: 2,
        lease_timeout: 40_000.0,
    };
    for seed in [2, 3] {
        let run = |policy: Option<GridTestPolicy>| {
            let loopback = LoopbackConfig {
                num_clients: 10,
                seed,
                poll_interval: 300.0,
            };
            let solver = synthetic_family_solver(3, costs.clone(), Some(37));
            let mut transport = match policy {
                None => LoopbackTransport::new(loopback, solver),
                Some(policy) => LoopbackTransport::with_test_policy(loopback, policy, solver),
            };
            let mut coordinator = Coordinator::new(3, costs.len(), &config);
            let status = coordinator.run(&mut transport, None);
            let text = coordinator.checkpoint().to_text();
            (status, text, coordinator.stats(), transport.stats())
        };
        let untouched = run(None);
        assert_eq!(untouched.0, RunStatus::Complete);
        assert!(
            untouched.3.departures > 0,
            "seed {seed}: no client was replaced"
        );
        assert_eq!(untouched, run(Some(policy)), "seed {seed}");
    }
}
