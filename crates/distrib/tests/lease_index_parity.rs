//! Differential test of the indexed [`LeaseTable`] against the table it
//! replaced: [`ScanTable`] below is that table, kept verbatim as the
//! reference model — `expire` and `next_assignment` walk every unit, which
//! *is* the definition of "every lapsed lease of an incomplete unit" and of
//! "the lowest-index open unit this client neither holds nor contributed
//! to". Both tables are driven through the same random operation sequences
//! and must agree after every step on every return value and on what each
//! client would be assigned next.

use pdsat_distrib::{CheckFailure, ClientId, LeaseTable, ResultDisposition, WorkUnitId};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Clone, Default)]
struct ScanUnit {
    /// `(client, deadline)` of every live lease.
    leases: Vec<(ClientId, f64)>,
    valid_results: usize,
    contributors: BTreeSet<ClientId>,
    complete: bool,
}

/// The lease table as it was before the index: no cursor, no heap.
struct ScanTable {
    units: Vec<ScanUnit>,
    redundancy: usize,
    lease_timeout: f64,
    complete_units: usize,
}

impl ScanTable {
    fn new(num_units: usize, redundancy: usize, lease_timeout: f64) -> ScanTable {
        ScanTable {
            units: vec![ScanUnit::default(); num_units],
            redundancy,
            lease_timeout,
            complete_units: 0,
        }
    }

    fn mark_complete(&mut self, unit: WorkUnitId) {
        let state = &mut self.units[unit as usize];
        if !state.complete {
            state.complete = true;
            state.leases.clear();
            self.complete_units += 1;
        }
    }

    fn expire(&mut self, now: f64) -> usize {
        let mut expired = 0;
        for state in &mut self.units {
            if state.complete {
                continue;
            }
            let before = state.leases.len();
            state.leases.retain(|&(_, deadline)| deadline > now);
            expired += before - state.leases.len();
        }
        expired
    }

    fn next_assignment(&self, client: ClientId) -> Option<WorkUnitId> {
        self.units.iter().enumerate().find_map(|(id, state)| {
            let open = !state.complete
                && state.valid_results + state.leases.len() < self.redundancy
                && !state.contributors.contains(&client)
                && state.leases.iter().all(|&(holder, _)| holder != client);
            open.then_some(id as WorkUnitId)
        })
    }

    fn issue(&mut self, unit: WorkUnitId, client: ClientId, now: f64) {
        self.units[unit as usize]
            .leases
            .push((client, now + self.lease_timeout));
    }

    fn record_result(
        &mut self,
        unit: WorkUnitId,
        client: ClientId,
        valid: Result<(), CheckFailure>,
    ) -> ResultDisposition {
        let redundancy = self.redundancy;
        let state = &mut self.units[unit as usize];
        let had_lease = state.leases.iter().any(|&(holder, _)| holder == client);
        state.leases.retain(|&(holder, _)| holder != client);
        if state.complete {
            return ResultDisposition::AlreadyComplete;
        }
        if state.contributors.contains(&client) {
            return ResultDisposition::DuplicateClient;
        }
        if let Err(failure) = valid {
            return ResultDisposition::Rejected(failure);
        }
        state.contributors.insert(client);
        state.valid_results += 1;
        let quorum_reached = state.valid_results >= redundancy;
        if quorum_reached {
            state.complete = true;
            state.leases.clear();
            self.complete_units += 1;
        }
        ResultDisposition::Counted {
            quorum_reached,
            late: !had_lease,
        }
    }
}

/// Both tables side by side; every operation is applied to both and its
/// results compared on the spot.
struct Pair {
    indexed: LeaseTable,
    scan: ScanTable,
    clients: usize,
}

impl Pair {
    fn new(units: usize, redundancy: usize, lease_timeout: f64, clients: usize) -> Pair {
        Pair {
            indexed: LeaseTable::new(units, redundancy, lease_timeout),
            scan: ScanTable::new(units, redundancy, lease_timeout),
            clients,
        }
    }

    /// What no operation returns: the assignment every client would get,
    /// and the completion count.
    fn assert_same_view(&self, step: &str) {
        for client in 0..self.clients {
            assert_eq!(
                self.indexed.next_assignment(client),
                self.scan.next_assignment(client),
                "next_assignment({client}) after {step}"
            );
        }
        assert_eq!(
            self.indexed.complete_units(),
            self.scan.complete_units,
            "complete_units after {step}"
        );
        assert_eq!(
            self.indexed.all_complete(),
            self.scan.complete_units == self.scan.units.len(),
            "all_complete after {step}"
        );
    }

    fn issue(&mut self, unit: WorkUnitId, client: ClientId, now: f64) {
        self.indexed.issue(unit, client, now);
        self.scan.issue(unit, client, now);
        self.assert_same_view(&format!("issue({unit}, {client}, {now})"));
    }

    /// The coordinator's own path: lease the client whatever it is offered.
    fn request(&mut self, client: ClientId, now: f64) -> Option<WorkUnitId> {
        let offered = self.scan.next_assignment(client);
        assert_eq!(self.indexed.next_assignment(client), offered);
        if let Some(unit) = offered {
            self.issue(unit, client, now);
        }
        offered
    }

    fn expire(&mut self, now: f64) -> usize {
        let expired = self.scan.expire(now);
        assert_eq!(self.indexed.expire(now), expired, "expire({now})");
        self.assert_same_view(&format!("expire({now})"));
        expired
    }

    fn record_result(
        &mut self,
        unit: WorkUnitId,
        client: ClientId,
        valid: Result<(), CheckFailure>,
    ) -> ResultDisposition {
        let disposition = self.scan.record_result(unit, client, valid);
        assert_eq!(
            self.indexed.record_result(unit, client, valid),
            disposition,
            "record_result({unit}, {client}, {valid:?})"
        );
        self.assert_same_view(&format!("record_result({unit}, {client}, {valid:?})"));
        disposition
    }

    fn mark_complete(&mut self, unit: WorkUnitId) {
        self.indexed.mark_complete(unit);
        self.scan.mark_complete(unit);
        self.assert_same_view(&format!("mark_complete({unit})"));
    }
}

/// One client leased the same unit twice, so the expiry heap holds two
/// entries for the pair and at most one of them is live — once because the
/// first lease lapsed, once because a rejected upload consumed it.
#[test]
fn a_client_re_leased_the_same_unit_expires_once_per_live_lease() {
    let mut pair = Pair::new(3, 2, 100.0, 3);

    // Lapsed, then re-leased: deadlines 100 and 250.
    assert_eq!(pair.request(0, 0.0), Some(0));
    assert_eq!(pair.expire(100.0), 1);
    assert_eq!(pair.request(0, 150.0), Some(0));
    assert_eq!(pair.expire(200.0), 0);

    // Consumed by a rejected upload, then re-leased: client 1's entry with
    // deadline 300 is stale when it surfaces, the one with 320 is live.
    assert_eq!(pair.request(1, 200.0), Some(0));
    assert_eq!(pair.request(2, 200.0), Some(1), "unit 0 is fully leased");
    assert_eq!(
        pair.record_result(0, 1, Err(CheckFailure::Checksum)),
        ResultDisposition::Rejected(CheckFailure::Checksum)
    );
    assert_eq!(pair.request(1, 220.0), Some(0));
    assert_eq!(pair.expire(250.0), 1, "client 0's second lease");
    assert_eq!(
        pair.expire(310.0),
        1,
        "client 2 on unit 1; not the stale one"
    );
    assert_eq!(pair.expire(320.0), 1, "client 1's second lease");

    // The same deadline twice for one (unit, client): the stale entry and
    // the live one are indistinguishable, and exactly one lease lapses.
    assert_eq!(pair.request(0, 400.0), Some(0));
    assert_eq!(
        pair.record_result(0, 0, Err(CheckFailure::Shape)),
        ResultDisposition::Rejected(CheckFailure::Shape)
    );
    assert_eq!(pair.request(0, 400.0), Some(0));
    assert_eq!(pair.expire(500.0), 1);
    assert_eq!(pair.expire(500.0), 0);
}

/// A unit closing in the middle of the never-closed suffix (a late result
/// after a restart, a checkpointed unit) must leave the skipped units
/// assignable, in order.
#[test]
fn closing_a_unit_far_ahead_keeps_the_skipped_units_in_order() {
    let mut pair = Pair::new(40, 1, 50.0, 4);
    pair.mark_complete(17);
    pair.mark_complete(5);
    assert_eq!(
        pair.record_result(30, 2, Ok(())),
        ResultDisposition::Counted {
            quorum_reached: true,
            late: true
        }
    );
    for expected in (0..40).filter(|unit| ![5, 17, 30].contains(unit)) {
        assert_eq!(pair.request(expected as usize % 4, 0.0), Some(expected));
    }
    assert_eq!(pair.request(0, 0.0), None);
    assert_eq!(pair.expire(50.0), 37);
    assert_eq!(pair.request(3, 60.0), Some(0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_table_agrees_with_the_scan_after_every_operation(
        units in 1usize..=64,
        redundancy in 1usize..=3,
        clients in 1usize..=8,
        ops in prop::collection::vec(0u64..u64::MAX, 1..400),
    ) {
        let lease_timeout = 100.0;
        let mut pair = Pair::new(units, redundancy, lease_timeout, clients);
        pair.assert_same_view("construction");
        let mut now = 0.0f64;
        for word in ops {
            // Independent digits of the drawn word.
            let kind = word % 16;
            let client = (word >> 8) as usize % clients;
            let unit = ((word >> 16) as usize % units) as WorkUnitId;
            let step = ((word >> 32) % 64) as f64;
            let variant = (word >> 40) % 4;
            match kind {
                // The coordinator's loop: time moves on, leases lapse, the
                // client takes what it is offered.
                0..=5 => {
                    now += step;
                    pair.expire(now);
                    pair.request(client, now);
                }
                // An upload for any unit, leased to this client or not:
                // valid, or rejected for one of two reasons.
                6..=10 => {
                    now += step / 4.0;
                    pair.expire(now);
                    let valid = match variant {
                        0 => Err(CheckFailure::Checksum),
                        1 => Err(CheckFailure::ModelUnsat),
                        _ => Ok(()),
                    };
                    let first = pair.record_result(unit, client, valid);
                    if variant == 3 {
                        // The duplicate upload of a retrying client.
                        let second = pair.record_result(unit, client, valid);
                        prop_assert!(
                            !matches!(second, ResultDisposition::Counted { .. }) || first != second,
                            "one client never counts twice"
                        );
                    }
                }
                // Expiry alone, at an instant that may lie in the past or
                // far in the future.
                11 | 12 => {
                    let at = match variant {
                        0 => now - step * 3.0,
                        1 => now + lease_timeout + step,
                        _ => now + step,
                    };
                    pair.expire(at);
                    if variant >= 2 {
                        now = at;
                    }
                }
                // A lease the assignment rule would not have chosen (the
                // table's `issue` is public): any unit, open or not, held
                // by this client already or not.
                13 => pair.issue(unit, client, now),
                // A checkpointed unit, wherever it lies.
                14 => pair.mark_complete(unit),
                // A burst: every client polls at the same instant.
                _ => {
                    now += step;
                    pair.expire(now);
                    for polling in 0..clients {
                        pair.request(polling, now);
                    }
                }
            }
        }
    }
}
