//! The coordinator's message layer: work-unit and message types, the
//! pluggable [`Transport`] trait, and a deterministic in-process
//! [`LoopbackTransport`] that simulates a volunteer client population.
//!
//! The coordinator ([`crate::Coordinator`]) never talks to clients directly;
//! it exchanges [`ServerMsg`]/[`ClientMsg`] values through a `Transport`. A
//! production deployment would back the trait with BOINC's HTTP scheduler
//! protocol; the reproduction backs it with a discrete-event simulation whose
//! client behaviour (speeds, gaps, churn, stragglers, duplicates, losses) is
//! fully determined by a seed, so every coordinator test and bench is
//! reproducible.
//!
//! The grid's faults come from that client population and nowhere else: a
//! lost, late, duplicated or corrupted result is something a
//! [`ClientBehavior`] does, and the coordinator absorbs it with lease
//! expiry, re-issue and idempotent result accounting. `send` cannot fail,
//! so there is nothing to retry on this side of the trait; a transport over
//! a real wire would retry inside its own `send`.

use crate::client::{synthetic_host_population, ClientBehavior, ClientFate, Host, VolunteerClient};
use pdsat_core::SolveReport;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Identifier of a work unit: its index in the family's shard order.
pub type WorkUnitId = u32;

/// Identifier of a volunteer client.
pub type ClientId = usize;

/// One shard of a decomposition family: a contiguous run of cube indices
/// (enumeration order), exactly how SAT@home packaged the cubes of a
/// partitioning into BOINC work units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkUnit {
    /// Shard index; unit `i` covers the `i`-th chunk of the family.
    pub id: WorkUnitId,
    /// Index of the first cube of the shard within the family.
    pub first_cube: usize,
    /// Number of cubes in the shard.
    pub num_cubes: usize,
}

/// A message from the coordinator to one client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerMsg {
    /// Lease this work unit to the client.
    Assign(WorkUnit),
    /// Nothing assignable right now; poll again later.
    NoWork,
}

/// A message from a client to the coordinator.
#[derive(Debug, Clone)]
pub enum ClientMsg {
    /// The client is idle and asks for a work unit.
    RequestWork {
        /// The requesting client.
        client: ClientId,
    },
    /// The client returns the result of a leased (or formerly leased) unit.
    SubmitResult {
        /// The submitting client.
        client: ClientId,
        /// The unit the result belongs to.
        unit: WorkUnitId,
        /// The per-unit solve report (boxed: the report dwarfs the
        /// other message payloads).
        report: Box<SolveReport>,
        /// Whether the result passed the transport-level integrity check
        /// (`false` models a corrupted upload; the coordinator discards it
        /// and waits for a replacement).
        checksum_ok: bool,
    },
}

/// A message annotated with its (simulated or real) arrival time in seconds.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    /// Arrival time at the coordinator.
    pub at: f64,
    /// The message itself.
    pub payload: T,
}

/// The coordinator's pluggable message channel.
///
/// Contract:
/// * [`recv`](Transport::recv) returns messages in non-decreasing `at` order;
///   `None` means no client will ever speak again (the coordinator reports
///   starvation).
/// * [`send`](Transport::send) is called with the coordinator's current clock
///   (`now` equals the `at` of the message being answered); any follow-up
///   client messages it triggers must carry `at >= now`.
/// * Replicated or duplicated submissions of the same unit must carry
///   byte-identical reports (BOINC's validator compares replicas; the
///   reproduction memoizes per-unit results instead of comparing).
pub trait Transport {
    /// Delivers a coordinator message to `to` at coordinator time `now`.
    fn send(&mut self, to: ClientId, msg: ServerMsg, now: f64);
    /// Takes the next client message, in arrival order.
    fn recv(&mut self) -> Option<Timed<ClientMsg>>;
}

/// Configuration of the [`LoopbackTransport`]'s simulated client population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopbackConfig {
    /// Number of simulated volunteer clients.
    pub num_clients: usize,
    /// Seed of every stochastic client decision.
    pub seed: u64,
    /// Client behaviour model (gaps, churn, stragglers, duplicates, losses).
    pub behavior: ClientBehavior,
    /// Delay before re-polling after a [`ServerMsg::NoWork`] reply, seconds.
    pub poll_interval: f64,
    /// When `true`, every departed client (churn) is replaced by a fresh one,
    /// so the grid never starves. SAT@home's population was likewise
    /// self-renewing.
    pub replace_departed: bool,
    /// When `true`, all hosts are identical reference cores that are always
    /// on and perfectly reliable (for the parity test against
    /// [`simulate_cluster`](crate::simulate_cluster)); otherwise hosts come
    /// from [`synthetic_host_population`].
    pub ideal_hosts: bool,
}

impl Default for LoopbackConfig {
    fn default() -> Self {
        LoopbackConfig {
            num_clients: 16,
            seed: 0,
            behavior: ClientBehavior::default(),
            poll_interval: 600.0,
            replace_departed: true,
            ideal_hosts: false,
        }
    }
}

/// Aggregate behaviour counters of a loopback run (observational only; not
/// part of any checkpoint).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransportStats {
    /// Total CPU time donated by clients, reference-core seconds (includes
    /// redundant, lost and straggling work).
    pub donated_cpu_time: f64,
    /// Clients that permanently left the grid mid-run.
    pub departures: usize,
    /// Assignments whose result never came back (host vanished with it).
    pub vanished_results: usize,
    /// Results uploaded with a failing integrity check.
    pub invalid_uploads: usize,
    /// Extra (duplicate) uploads of an already-submitted result.
    pub duplicate_uploads: usize,
    /// Assignments that ran far slower than the host's nominal speed.
    pub straggler_runs: usize,
}

/// Internal event: a client message scheduled for a future instant. Ordered
/// as a min-heap by `(time, sequence number)`, so simultaneous events are
/// processed in creation order — the whole simulation is deterministic.
struct QueuedMsg {
    at: f64,
    seq: u64,
    msg: ClientMsg,
}

impl PartialEq for QueuedMsg {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for QueuedMsg {}
impl Ord for QueuedMsg {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .partial_cmp(&self.at)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for QueuedMsg {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic in-process transport: simulated volunteer clients compute
/// work units by calling a local solver closure, with all the pathologies of
/// a real grid (heavy-tailed speeds, availability gaps, churn, stragglers,
/// vanished and duplicated and corrupted results) driven by a seeded RNG.
///
/// Per-unit results are memoized, so replicas and duplicates return
/// byte-identical reports — the loopback analogue of BOINC's replica
/// validation, and the property that makes coordinator checkpoints
/// reproducible bit-for-bit across kill/restart (see the transport contract
/// on [`Transport`]).
pub struct LoopbackTransport<F> {
    clients: Vec<VolunteerClient>,
    queue: BinaryHeap<QueuedMsg>,
    seq: u64,
    solver: F,
    unit_cache: HashMap<WorkUnitId, SolveReport>,
    config: LoopbackConfig,
    stats: TransportStats,
}

impl<F: FnMut(&WorkUnit) -> SolveReport> LoopbackTransport<F> {
    /// Builds the transport: draws the client population from the config's
    /// seed and schedules every client's first work request at time zero.
    ///
    /// `solver` computes the canonical result of a work unit; it is invoked
    /// at most once per unit (results are memoized) and must be a pure
    /// function of the unit for checkpoint reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_clients` is zero.
    pub fn new(config: LoopbackConfig, solver: F) -> LoopbackTransport<F> {
        assert!(config.num_clients > 0, "the grid needs at least one client");
        let hosts: Vec<Host> = if config.ideal_hosts {
            vec![
                Host {
                    speed: 1.0,
                    availability: 1.0,
                    reliability: 1.0,
                };
                config.num_clients
            ]
        } else {
            synthetic_host_population(config.num_clients, config.seed)
        };
        let behavior = if config.ideal_hosts {
            ClientBehavior::ideal()
        } else {
            config.behavior
        };
        let clients: Vec<VolunteerClient> = hosts
            .into_iter()
            .enumerate()
            .map(|(id, host)| VolunteerClient::new(id, host, behavior, config.seed))
            .collect();
        let mut transport = LoopbackTransport {
            clients,
            queue: BinaryHeap::new(),
            seq: 0,
            solver,
            unit_cache: HashMap::new(),
            config,
            stats: TransportStats::default(),
        };
        for id in 0..transport.clients.len() {
            transport.push(0.0, ClientMsg::RequestWork { client: id });
        }
        transport
    }

    /// Behaviour counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    fn push(&mut self, at: f64, msg: ClientMsg) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(QueuedMsg { at, seq, msg });
    }

    /// Replaces a departed client with a fresh host drawn from a seed unique
    /// to the replacement slot, keeping the grid alive under churn.
    fn spawn_replacement(&mut self, now: f64) {
        let id = self.clients.len();
        let host = if self.config.ideal_hosts {
            Host {
                speed: 1.0,
                availability: 1.0,
                reliability: 1.0,
            }
        } else {
            synthetic_host_population(1, self.config.seed ^ (0xD15C_0000 + id as u64))[0]
        };
        let behavior = if self.config.ideal_hosts {
            ClientBehavior::ideal()
        } else {
            self.config.behavior
        };
        self.clients
            .push(VolunteerClient::new(id, host, behavior, self.config.seed));
        self.push(
            now + self.config.poll_interval,
            ClientMsg::RequestWork { client: id },
        );
    }

    fn canonical_report(&mut self, unit: &WorkUnit) -> SolveReport {
        if let Some(cached) = self.unit_cache.get(&unit.id) {
            return cached.clone();
        }
        let report = (self.solver)(unit);
        self.unit_cache.insert(unit.id, report.clone());
        report
    }
}

impl<F: FnMut(&WorkUnit) -> SolveReport> Transport for LoopbackTransport<F> {
    fn send(&mut self, to: ClientId, msg: ServerMsg, now: f64) {
        match msg {
            ServerMsg::NoWork => {
                if !self.clients[to].has_departed() {
                    self.push(
                        now + self.config.poll_interval,
                        ClientMsg::RequestWork { client: to },
                    );
                }
            }
            ServerMsg::Assign(unit) => {
                let report = self.canonical_report(&unit);
                let fate = self.clients[to].respond(now, report.total_cost);
                match fate {
                    ClientFate::Departed => {
                        self.stats.departures += 1;
                        if self.config.replace_departed {
                            self.spawn_replacement(now);
                        }
                    }
                    ClientFate::Vanished {
                        rejoin_at,
                        cpu_spent,
                    } => {
                        self.stats.vanished_results += 1;
                        self.stats.donated_cpu_time += cpu_spent;
                        self.push(rejoin_at, ClientMsg::RequestWork { client: to });
                    }
                    ClientFate::Submit {
                        at,
                        valid,
                        straggled,
                        duplicate_at,
                        next_poll,
                        cpu_spent,
                    } => {
                        self.stats.donated_cpu_time += cpu_spent;
                        if straggled {
                            self.stats.straggler_runs += 1;
                        }
                        if !valid {
                            self.stats.invalid_uploads += 1;
                        }
                        self.push(
                            at,
                            ClientMsg::SubmitResult {
                                client: to,
                                unit: unit.id,
                                report: Box::new(report.clone()),
                                checksum_ok: valid,
                            },
                        );
                        if let Some(dup_at) = duplicate_at {
                            self.stats.duplicate_uploads += 1;
                            self.push(
                                dup_at,
                                ClientMsg::SubmitResult {
                                    client: to,
                                    unit: unit.id,
                                    report: Box::new(report),
                                    checksum_ok: valid,
                                },
                            );
                        }
                        self.push(next_poll, ClientMsg::RequestWork { client: to });
                    }
                }
            }
        }
    }

    fn recv(&mut self) -> Option<Timed<ClientMsg>> {
        self.queue.pop().map(|q| Timed {
            at: q.at,
            payload: q.msg,
        })
    }
}

/// A deterministic stand-in for remote SAT solving in tests and benches: the
/// report of a unit is fabricated from the family's per-cube costs (every
/// cube "solved" at its nominal cost; optionally every `sat_every`-th cube of
/// the family is satisfiable). Pure per unit, so kill/restart runs reproduce
/// identical checkpoints.
pub fn synthetic_family_solver(
    set_size: usize,
    per_cube_costs: Vec<f64>,
    sat_every: Option<usize>,
) -> impl FnMut(&WorkUnit) -> SolveReport {
    move |unit: &WorkUnit| {
        let slice = &per_cube_costs[unit.first_cube..unit.first_cube + unit.num_cubes];
        let mut report = SolveReport::empty(set_size);
        report.cubes_processed = unit.num_cubes;
        report.per_cube_costs = slice.to_vec();
        for (local, &cost) in slice.iter().enumerate() {
            report.total_cost += cost;
            let family_index = unit.first_cube + local;
            let is_sat = sat_every.is_some_and(|k| k > 0 && family_index % k == k - 1);
            if is_sat {
                report.sat_count += 1;
                if report.first_sat_index.is_none() {
                    report.first_sat_index = Some(local);
                    report.cost_to_first_sat = Some(report.total_cost);
                }
            }
        }
        report
    }
}
