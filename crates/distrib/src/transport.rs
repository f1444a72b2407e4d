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

use crate::client::{synthetic_host_population, ClientBehavior, ClientFate, Host, VolunteerClient};
use pdsat_core::{FaultState, RecvAction, SolveReport};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

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

/// Retry behaviour of a [`ChaosTransport`]: deterministic truncated
/// exponential backoff with seeded jitter, all in *simulated* seconds (the
/// transport layer shares the coordinator's virtual clock; no wall-clock
/// sleeping happens anywhere).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Per-message deadline, seconds of accumulated backoff after which the
    /// message is abandoned (lease expiry + re-issue recovers the work).
    pub deadline: f64,
    /// Seed of the jitter sequence; fixed seed → fully reproducible waits.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            deadline: 60.0,
            seed: 0,
        }
    }
}

/// Counters of a [`ChaosTransport`]'s recovery activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Total send attempts, including first tries.
    pub send_attempts: u64,
    /// Attempts beyond the first (i.e. actual retries).
    pub retries: u64,
    /// Messages given up on after the per-message deadline. Safe because
    /// every abandoned message is recovered by lease expiry and the
    /// [`crate::LeaseTable`]'s idempotent result accounting.
    pub abandoned: u64,
}

/// A faulty wire and the recovery from it, as one [`Transport`] over
/// another: seeded message-level faults from a [`FaultState`] plan are
/// injected around the inner transport, and failed sends are retried with
/// deterministic exponential backoff and jitter, bounded by a per-message
/// deadline ([`RetryPolicy`]).
///
/// *Send side.* An attempt the plan fails never reaches the inner transport
/// (the message is not partially delivered); the next attempt carries the
/// accumulated virtual backoff in its `now`. Abandoning a message after the
/// deadline is *correct*, not merely pragmatic: an undelivered `Assign`
/// makes the lease expire and the unit is re-issued; an undelivered `NoWork`
/// only delays one poll. No state is lost, which is why the coordinator can
/// keep an infallible interface above a faulty wire — and this loop is the
/// only place in the coordinator stack that swallows a transport failure.
///
/// *Receive side.* Drops, duplicates and delays are absorbed silently,
/// exactly like a flaky network. Delivery order stays non-decreasing in `at`
/// even under delays: delayed messages park in a local heap and are merged
/// back against a one-message lookahead of the inner transport. Duplicates
/// are re-delivered immediately after the original with an identical
/// timestamp and an identical (memoized) report, which [`crate::LeaseTable`]
/// is designed to absorb — the loopback analogue of a client double-uploading
/// a result.
pub struct ChaosTransport<T> {
    inner: T,
    faults: Arc<FaultState>,
    policy: RetryPolicy,
    stats: RetryStats,
    jitter_state: u64,
    /// Lookahead slot: next inner message already drawn but not delivered.
    pending: Option<Timed<ClientMsg>>,
    /// Messages whose delivery was artificially delayed, min-heap by time.
    delayed: BinaryHeap<QueuedMsg>,
    /// Copies of duplicated messages, delivered right after the original.
    duplicates: VecDeque<Timed<ClientMsg>>,
    seq: u64,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner`, drawing fault decisions from `faults` and recovering
    /// from the injected send failures under `policy`.
    pub fn new(inner: T, faults: Arc<FaultState>, policy: RetryPolicy) -> ChaosTransport<T> {
        ChaosTransport {
            inner,
            faults,
            policy,
            stats: RetryStats::default(),
            jitter_state: policy.seed,
            pending: None,
            delayed: BinaryHeap::new(),
            duplicates: VecDeque::new(),
            seq: 0,
        }
    }

    /// Recovery counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Read access to the wrapped transport (e.g. for its stats).
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Next jitter draw in `[0, 1)` (splitmix64 over the policy seed).
    fn jitter_draw(&mut self) -> f64 {
        self.jitter_state = self.jitter_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.jitter_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Pulls from the inner transport until a message survives its fault
    /// action, parking delayed ones and queueing duplicate copies.
    fn fill_pending(&mut self) {
        while self.pending.is_none() {
            let Some(msg) = self.inner.recv() else { return };
            match self.faults.recv_action() {
                RecvAction::Deliver => self.pending = Some(msg),
                RecvAction::Drop => {}
                RecvAction::Duplicate => {
                    self.duplicates.push_back(Timed {
                        at: msg.at,
                        payload: msg.payload.clone(),
                    });
                    self.pending = Some(msg);
                }
                RecvAction::Delay(by) => {
                    let seq = self.seq;
                    self.seq += 1;
                    self.delayed.push(QueuedMsg {
                        at: msg.at + by.max(0.0),
                        seq,
                        msg: msg.payload,
                    });
                }
            }
        }
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn send(&mut self, to: ClientId, msg: ServerMsg, now: f64) {
        /// Backoff before the first retry, seconds.
        const BASE_BACKOFF: f64 = 0.5;
        /// Multiplier applied to the backoff after each failed attempt.
        const MULTIPLIER: f64 = 2.0;
        /// Jitter fraction: each wait is scaled by `1 + JITTER * u` with
        /// `u ∈ [0, 1)` drawn from the seeded generator.
        const JITTER: f64 = 0.5;
        let mut waited = 0.0_f64;
        let mut backoff = BASE_BACKOFF;
        loop {
            self.stats.send_attempts += 1;
            if !self.faults.send_should_fail() {
                self.inner.send(to, msg, now + waited);
                return;
            }
            let wait = backoff * (1.0 + JITTER * self.jitter_draw());
            waited += wait;
            backoff *= MULTIPLIER;
            if waited > self.policy.deadline {
                self.stats.abandoned += 1;
                return;
            }
            self.stats.retries += 1;
        }
    }

    fn recv(&mut self) -> Option<Timed<ClientMsg>> {
        if let Some(dup) = self.duplicates.pop_front() {
            return Some(dup);
        }
        self.fill_pending();
        let deliver_delayed = match (&self.pending, self.delayed.peek()) {
            (Some(p), Some(d)) => d.at <= p.at,
            (None, Some(_)) => true,
            _ => false,
        };
        if deliver_delayed {
            let d = self.delayed.pop().expect("peeked above");
            return Some(Timed {
                at: d.at,
                payload: d.msg,
            });
        }
        self.pending.take()
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

#[cfg(test)]
mod tests {
    use super::*;
    use pdsat_core::FaultPlan;

    /// A scripted inner transport: records sends, replays a fixed inbox.
    struct ScriptedTransport {
        sent: Vec<(ClientId, f64)>,
        inbox: VecDeque<Timed<ClientMsg>>,
    }

    impl ScriptedTransport {
        fn with_requests(times: &[f64]) -> ScriptedTransport {
            ScriptedTransport {
                sent: Vec::new(),
                inbox: times
                    .iter()
                    .map(|&at| Timed {
                        at,
                        payload: ClientMsg::RequestWork { client: 0 },
                    })
                    .collect(),
            }
        }
    }

    impl Transport for ScriptedTransport {
        fn send(&mut self, to: ClientId, _msg: ServerMsg, now: f64) {
            self.sent.push((to, now));
        }
        fn recv(&mut self) -> Option<Timed<ClientMsg>> {
            self.inbox.pop_front()
        }
    }

    fn arrival_times<T: Transport>(chaos: &mut T) -> Vec<f64> {
        let mut times = Vec::new();
        while let Some(msg) = chaos.recv() {
            times.push(msg.at);
            if times.len() > 100 {
                break;
            }
        }
        times
    }

    #[test]
    fn chaos_drop_removes_messages() {
        let plan = FaultPlan {
            drop_messages: vec![1],
            ..FaultPlan::none()
        };
        let inner = ScriptedTransport::with_requests(&[1.0, 2.0, 3.0]);
        let mut chaos = ChaosTransport::new(inner, plan.arm(), RetryPolicy::default());
        assert_eq!(arrival_times(&mut chaos), vec![1.0, 3.0]);
    }

    #[test]
    fn chaos_duplicate_preserves_timestamp() {
        let plan = FaultPlan {
            duplicate_messages: vec![0],
            ..FaultPlan::none()
        };
        let inner = ScriptedTransport::with_requests(&[1.0, 2.0]);
        let mut chaos = ChaosTransport::new(inner, plan.arm(), RetryPolicy::default());
        assert_eq!(arrival_times(&mut chaos), vec![1.0, 1.0, 2.0]);
    }

    #[test]
    fn chaos_delay_keeps_arrival_order_non_decreasing() {
        let plan = FaultPlan {
            delay_messages: vec![(0, 1.5)],
            ..FaultPlan::none()
        };
        let inner = ScriptedTransport::with_requests(&[1.0, 2.0, 3.0]);
        let mut chaos = ChaosTransport::new(inner, plan.arm(), RetryPolicy::default());
        let times = arrival_times(&mut chaos);
        // Message 0 is delayed from 1.0 to 2.5, landing between 2.0 and 3.0.
        assert_eq!(times, vec![2.0, 2.5, 3.0]);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn retry_send_recovers_from_transient_failures() {
        let plan = FaultPlan {
            send_failures: vec![0, 1],
            ..FaultPlan::none()
        };
        let inner = ScriptedTransport::with_requests(&[]);
        let mut retry = ChaosTransport::new(inner, plan.arm(), RetryPolicy::default());
        retry.send(7, ServerMsg::NoWork, 10.0);
        let stats = retry.stats();
        assert_eq!(stats.send_attempts, 3);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.abandoned, 0);
        let sent = &retry.inner().sent;
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, 7);
        // Delivered after some accumulated virtual backoff.
        assert!(sent[0].1 > 10.0);
    }

    #[test]
    fn retry_send_abandons_after_deadline() {
        // Every send fails forever; the deadline must bound the retries.
        let plan = FaultPlan {
            send_failures: (0..1000).collect(),
            ..FaultPlan::none()
        };
        let inner = ScriptedTransport::with_requests(&[]);
        let policy = RetryPolicy {
            deadline: 5.0,
            ..RetryPolicy::default()
        };
        let mut retry = ChaosTransport::new(inner, plan.arm(), policy);
        retry.send(0, ServerMsg::NoWork, 0.0);
        let stats = retry.stats();
        assert_eq!(stats.abandoned, 1);
        assert!(stats.send_attempts < 16, "deadline must bound attempts");
        assert!(retry.inner().sent.is_empty());
    }

    #[test]
    fn retry_backoff_is_reproducible_per_seed() {
        let run = |seed: u64| {
            let plan = FaultPlan {
                send_failures: vec![0, 1, 2],
                ..FaultPlan::none()
            };
            let inner = ScriptedTransport::with_requests(&[]);
            let policy = RetryPolicy {
                seed,
                ..RetryPolicy::default()
            };
            let mut retry = ChaosTransport::new(inner, plan.arm(), policy);
            retry.send(0, ServerMsg::NoWork, 0.0);
            retry.inner().sent.clone()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
