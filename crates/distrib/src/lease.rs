//! Lease bookkeeping for the distributed coordinator: who holds which work
//! unit, when leases expire, and when a unit's quorum is reached.
//!
//! This is the BOINC scheduler's core state machine, reduced to what the
//! reproduction needs. Every unit moves through:
//!
//! ```text
//! Incomplete ──issue──▶ leased (≤ redundancy live leases + valid results)
//!     ▲                   │
//!     │    expire(now)    │ record_result
//!     └───────────────────┤
//!                         ▼
//!            valid_results == redundancy ⇒ Complete (terminal)
//! ```
//!
//! Quorum rules (mirroring BOINC redundancy validation):
//! * a unit needs `redundancy` *valid* results from *distinct* clients;
//! * at most `redundancy − valid_results` leases are live per unit, so the
//!   grid never over-replicates;
//! * a client is never leased a unit it currently holds or has already
//!   contributed a valid result to;
//! * late results (arriving after the lease expired) still count while the
//!   unit is incomplete — BOINC grants credit for late-but-valid work;
//! * results for complete units, repeat results from the same client, and
//!   results failing the integrity check are discarded.
//!
//! A unit is *open* while it is incomplete and its valid results plus live
//! leases stay below the redundancy. The table indexes the open units and
//! the lease deadlines, so an event costs O(log units) however large the
//! family is:
//! * every unit from `cursor` up is open and has never been closed; the open
//!   units below `cursor` are exactly the ordered set `reopened`. Walking
//!   `reopened` and then the suffix visits the open units in index order,
//!   which is the order the assignment rule is stated in;
//! * `expiries` holds one `(deadline, unit, client)` entry per lease ever
//!   issued, earliest first. Leases consumed by a result or cleared by a
//!   quorum leave their entry behind (lazy deletion): a popped entry counts
//!   only if its unit is incomplete and still holds that client's lease
//!   with that exact deadline, which is the set a scan of every unit drops.

use crate::transport::{ClientId, WorkUnitId};
use pdsat_checker::CheckFailure;
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

/// A live lease of one unit to one client.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Lease {
    client: ClientId,
    deadline: f64,
}

/// Per-unit replication state.
#[derive(Debug, Clone, Default)]
struct UnitState {
    leases: Vec<Lease>,
    valid_results: usize,
    /// Clients whose valid result was counted towards the quorum.
    contributors: BTreeSet<ClientId>,
    complete: bool,
}

/// A lease deadline waiting in the expiry heap.
#[derive(Debug, Clone, Copy)]
struct Expiry {
    deadline: f64,
    unit: WorkUnitId,
    client: ClientId,
}

impl Ord for Expiry {
    /// Reversed, so that `BinaryHeap` (a max-heap) surfaces the earliest
    /// deadline.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .deadline
            .total_cmp(&self.deadline)
            .then_with(|| other.unit.cmp(&self.unit))
            .then_with(|| other.client.cmp(&self.client))
    }
}

impl PartialOrd for Expiry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Expiry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Expiry {}

/// What the coordinator should do with a submitted result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultDisposition {
    /// The result counts towards the quorum.
    Counted {
        /// `true` when this result completed the unit's quorum.
        quorum_reached: bool,
        /// `true` when the result arrived after its lease had expired.
        late: bool,
    },
    /// The unit already reached its quorum; the result is redundant.
    AlreadyComplete,
    /// This client already contributed a valid result for this unit (a
    /// duplicate upload, or a retry after a reconnect).
    DuplicateClient,
    /// The result failed validation — integrity, shape, model or proof
    /// checking — and is discarded. The failure says which check rejected it.
    Rejected(CheckFailure),
}

/// Lease and quorum bookkeeping for every work unit of one family.
#[derive(Debug, Clone)]
pub struct LeaseTable {
    units: Vec<UnitState>,
    redundancy: usize,
    lease_timeout: f64,
    complete_units: usize,
    /// First unit of the never-closed suffix.
    cursor: usize,
    /// The open units below `cursor`.
    reopened: BTreeSet<WorkUnitId>,
    /// Deadline of every lease issued, live or not, earliest first.
    expiries: BinaryHeap<Expiry>,
}

impl LeaseTable {
    /// Creates the table with every unit incomplete and unleased.
    ///
    /// # Panics
    ///
    /// Panics if `redundancy` is zero or `lease_timeout` is not positive.
    #[must_use]
    pub fn new(num_units: usize, redundancy: usize, lease_timeout: f64) -> LeaseTable {
        assert!(redundancy > 0, "the quorum must be positive");
        assert!(lease_timeout > 0.0, "leases must have a positive lifetime");
        LeaseTable {
            units: vec![UnitState::default(); num_units],
            redundancy,
            lease_timeout,
            complete_units: 0,
            cursor: 0,
            reopened: BTreeSet::new(),
            expiries: BinaryHeap::new(),
        }
    }

    /// `true` while `unit` can take another lease from *some* client.
    fn is_open(&self, unit: usize) -> bool {
        let state = &self.units[unit];
        !state.complete && state.valid_results + state.leases.len() < self.redundancy
    }

    /// Brings the open-unit index up to date after `unit`, which was open or
    /// not before (`was_open`), changed.
    fn reindex(&mut self, unit: usize, was_open: bool) {
        let open = self.is_open(unit);
        if open == was_open {
            return;
        }
        if open {
            // Only a unit below the cursor can have been closed.
            self.reopened.insert(unit as WorkUnitId);
        } else if unit < self.cursor {
            self.reopened.remove(&(unit as WorkUnitId));
        } else {
            // The first close inside the suffix: the cursor moves past the
            // unit, and the open units it skips become re-opened ones.
            self.reopened
                .extend((self.cursor..unit).map(|skipped| skipped as WorkUnitId));
            self.cursor = unit + 1;
        }
    }

    /// Number of units whose quorum is reached.
    #[must_use]
    pub fn complete_units(&self) -> usize {
        self.complete_units
    }

    /// `true` once every unit reached its quorum.
    #[must_use]
    pub fn all_complete(&self) -> bool {
        self.complete_units == self.units.len()
    }

    /// Marks a unit complete without any result flow — used when resuming
    /// from a checkpoint that already contains the unit's report.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is out of range.
    pub fn mark_complete(&mut self, unit: WorkUnitId) {
        let unit = unit as usize;
        let was_open = self.is_open(unit);
        let state = &mut self.units[unit];
        if !state.complete {
            state.complete = true;
            state.leases.clear();
            self.complete_units += 1;
        }
        self.reindex(unit, was_open);
    }

    /// Drops every lease whose deadline has passed, making the units
    /// assignable again. Returns how many leases expired.
    pub fn expire(&mut self, now: f64) -> usize {
        let mut expired = 0;
        while let Some(&Expiry {
            deadline,
            unit,
            client,
        }) = self.expiries.peek()
        {
            if deadline > now {
                break;
            }
            self.expiries.pop();
            let unit = unit as usize;
            let state = &self.units[unit];
            if state.complete {
                continue;
            }
            let live = state
                .leases
                .iter()
                .position(|lease| lease.client == client && lease.deadline == deadline);
            if let Some(at) = live {
                let was_open = self.is_open(unit);
                self.units[unit].leases.remove(at);
                self.reindex(unit, was_open);
                expired += 1;
            }
        }
        expired
    }

    /// Picks the unit to lease to `client`: the lowest-index incomplete unit
    /// that still needs results beyond its live leases and that this client
    /// neither holds nor has contributed to. `None` when nothing is
    /// assignable for this client right now.
    #[must_use]
    pub fn next_assignment(&self, client: ClientId) -> Option<WorkUnitId> {
        let suffix = (self.cursor..self.units.len()).map(|unit| unit as WorkUnitId);
        self.reopened.iter().copied().chain(suffix).find(|&unit| {
            let state = &self.units[unit as usize];
            !state.contributors.contains(&client)
                && state.leases.iter().all(|lease| lease.client != client)
        })
    }

    /// Records a lease of `unit` to `client` issued at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is out of range.
    pub fn issue(&mut self, unit: WorkUnitId, client: ClientId, now: f64) {
        let deadline = now + self.lease_timeout;
        let was_open = self.is_open(unit as usize);
        self.units[unit as usize]
            .leases
            .push(Lease { client, deadline });
        self.expiries.push(Expiry {
            deadline,
            unit,
            client,
        });
        self.reindex(unit as usize, was_open);
    }

    /// Applies a submitted result to the state machine and says what the
    /// coordinator should do with it. `valid` is the verdict of the
    /// coordinator-side validation (integrity and shape checks, plus model
    /// and certificate checking when the report carries them).
    ///
    /// # Panics
    ///
    /// Panics if `unit` is out of range.
    pub fn record_result(
        &mut self,
        unit: WorkUnitId,
        client: ClientId,
        valid: Result<(), CheckFailure>,
    ) -> ResultDisposition {
        let unit = unit as usize;
        let was_open = self.is_open(unit);
        let disposition = self.apply_result(unit, client, valid);
        self.reindex(unit, was_open);
        disposition
    }

    /// The state machine step of [`record_result`](LeaseTable::record_result),
    /// index aside.
    fn apply_result(
        &mut self,
        unit: usize,
        client: ClientId,
        valid: Result<(), CheckFailure>,
    ) -> ResultDisposition {
        let redundancy = self.redundancy;
        let state = &mut self.units[unit];
        // The client's lease (if still live) is consumed by this submission.
        let had_lease = state.leases.iter().any(|lease| lease.client == client);
        state.leases.retain(|lease| lease.client != client);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_needs_distinct_clients_and_reissues_expired_leases() {
        let mut table = LeaseTable::new(2, 2, 100.0);
        // Unit 0 leased twice (quorum 2), unit 1 once.
        assert_eq!(table.next_assignment(0), Some(0));
        table.issue(0, 0, 0.0);
        assert_eq!(table.next_assignment(1), Some(0));
        table.issue(0, 1, 0.0);
        // Unit 0 fully replicated: the next client gets unit 1.
        assert_eq!(table.next_assignment(2), Some(1));
        table.issue(1, 2, 0.0);

        // Client 0 submits a valid result: quorum 1/2.
        assert_eq!(
            table.record_result(0, 0, Ok(())),
            ResultDisposition::Counted {
                quorum_reached: false,
                late: false
            }
        );
        // The same client cannot be leased unit 0 again, nor counted twice.
        assert_ne!(table.next_assignment(0), Some(0));
        assert_eq!(
            table.record_result(0, 0, Ok(())),
            ResultDisposition::DuplicateClient
        );

        // Client 1's lease expires; the slot reopens for client 3.
        assert_eq!(table.expire(200.0), 2); // client 1 on unit 0, client 2 on unit 1
        assert_eq!(table.next_assignment(3), Some(0));
        table.issue(0, 3, 200.0);
        // Client 1's late result still counts and completes the quorum.
        assert_eq!(
            table.record_result(0, 1, Ok(())),
            ResultDisposition::Counted {
                quorum_reached: true,
                late: true
            }
        );
        assert_eq!(table.complete_units(), 1);
        // Anything further for unit 0 is redundant.
        assert_eq!(
            table.record_result(0, 3, Ok(())),
            ResultDisposition::AlreadyComplete
        );

        // Rejected results never count, and the failure kind is surfaced.
        assert_eq!(
            table.record_result(1, 2, Err(CheckFailure::Checksum)),
            ResultDisposition::Rejected(CheckFailure::Checksum)
        );
        assert!(!table.all_complete());
        assert_eq!(
            table.record_result(1, 4, Ok(())),
            ResultDisposition::Counted {
                quorum_reached: false,
                late: true
            }
        );
        assert_eq!(
            table.record_result(1, 5, Ok(())),
            ResultDisposition::Counted {
                quorum_reached: true,
                late: true
            }
        );
        assert!(table.all_complete());
    }

    #[test]
    fn mark_complete_is_idempotent_and_skips_assignment() {
        let mut table = LeaseTable::new(3, 1, 10.0);
        table.mark_complete(1);
        table.mark_complete(1);
        assert_eq!(table.complete_units(), 1);
        assert_eq!(table.next_assignment(0), Some(0));
        table.mark_complete(0);
        table.mark_complete(2);
        assert!(table.all_complete());
        assert_eq!(table.next_assignment(0), None);
    }
}
