//! Multi-tenant admission control and weighted fair scheduling.
//!
//! The paper dedicates a whole MPI world to one Swift program; the
//! ROADMAP's "heavy traffic" north-star needs N programs sharing one
//! server/worker fleet. This module is the server-side policy layer for
//! that: per-tenant accounting, put-side admission quotas (backpressure
//! instead of unbounded queue growth), and a deficit-round-robin (DRR)
//! scheduler that divides *delivery* of untargeted work across tenants in
//! proportion to their configured weights while leaving the per-type
//! priority heaps — and so intra-tenant priority order — untouched.
//!
//! Scope rules, chosen so the single-tenant fast path is byte-identical
//! to the pre-tenant runtime:
//!
//! * Only **untargeted client puts** pass admission. Targeted tasks
//!   (data-close notifications, retries re-pinned by the server) are
//!   internal dataflow and must never be refused or reordered by policy.
//! * A tenant over its `max_queued` quota gets its puts NACKed
//!   ([`crate::msg::Response::Rejected`]); the client re-offers them,
//!   which blocks the submitting program — backpressure, not loss.
//! * A tenant at its `max_leases` cap is skipped by the DRR cursor until
//!   an acknowledgement frees a slot; its queued tasks stay put.
//! * With one tenant (or none declared) DRR always elects that tenant,
//!   so delivery order reduces to the plain (priority desc, arrival asc)
//!   heap order.

use std::collections::HashMap;

/// Per-tenant admission quotas. `None` = unlimited (the default, and the
/// behavior of every pre-tenant run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantQuota {
    /// Max untargeted tasks queued server-side (per server) before puts
    /// are NACKed back to the submitter.
    pub max_queued: Option<usize>,
    /// Max in-flight leases (delivered, unacknowledged tasks) before the
    /// fair scheduler stops electing this tenant.
    pub max_leases: Option<usize>,
}

/// Static description of one tenant, carried in
/// [`crate::ServerConfig::tenants`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Tenant id as carried on task wire messages.
    pub id: u32,
    /// Display name (reports).
    pub name: String,
    /// Fair-share weight (clamped to at least 1). A weight-4 tenant gets
    /// twice the deliveries of a weight-2 tenant under contention.
    pub weight: u32,
    /// Admission quotas.
    pub quota: TenantQuota,
}

impl TenantSpec {
    /// A tenant with the given id, weight 1 and no quotas.
    pub fn new(id: u32, name: &str) -> TenantSpec {
        TenantSpec {
            id,
            name: name.to_string(),
            weight: 1,
            quota: TenantQuota::default(),
        }
    }

    /// Set the fair-share weight (builder style).
    pub fn weight(mut self, w: u32) -> TenantSpec {
        self.weight = w.max(1);
        self
    }

    /// Set the admission quota (builder style).
    pub fn quota(mut self, q: TenantQuota) -> TenantSpec {
        self.quota = q;
        self
    }
}

/// Per-tenant counters one server accumulates. Unlike
/// [`crate::ServerStats`] these are keyed dynamically (one row per tenant
/// that showed up), so they live beside the compile-guarded stats struct
/// rather than inside it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Client puts admitted into the queue.
    pub admitted: u64,
    /// Client puts NACKed for quota (each re-offer counts again).
    pub rejected: u64,
    /// Tasks handed to clients (leases opened).
    pub delivered: u64,
    /// Deliveries made while at least one *other* tenant also had queued
    /// untargeted work — the denominator for fair-share measurement
    /// (uncontended deliveries say nothing about fairness).
    pub delivered_contended: u64,
    /// Peak untargeted queue depth observed.
    pub queue_peak: u64,
}

impl TenantStats {
    /// Merge another server's counters for the same tenant: counters add,
    /// the peak takes the max.
    pub fn merge(&mut self, other: &TenantStats) {
        let TenantStats {
            admitted,
            rejected,
            delivered,
            delivered_contended,
            queue_peak,
        } = other;
        self.admitted += admitted;
        self.rejected += rejected;
        self.delivered += delivered;
        self.delivered_contended += delivered_contended;
        self.queue_peak = self.queue_peak.max(*queue_peak);
    }
}

/// The admission controller + DRR scheduler state one server owns.
///
/// Scheduling state (deficits, cursor) is deliberately *not* replicated:
/// on failover a promoted server starts a fresh round, which costs at
/// most one quantum of short-term skew. Quota state derives from the
/// queue and lease multisets, which *are* replicated.
#[derive(Debug, Default)]
pub struct TenantSched {
    specs: HashMap<u32, TenantSpec>,
    /// Known tenants in deterministic round-robin order (sorted by id).
    order: Vec<u32>,
    /// DRR cursor into `order`.
    cursor: usize,
    /// Remaining deficit (deliveries owed) of the tenant under the
    /// cursor for the current visit.
    deficit: u64,
    /// In-flight leases per tenant.
    leases: HashMap<u32, usize>,
    /// Per-tenant counters.
    stats: HashMap<u32, TenantStats>,
}

impl TenantSched {
    /// Build from the configured specs. Tenants that later appear on the
    /// wire without a spec get weight 1 and no quotas.
    pub fn new(specs: &[TenantSpec]) -> TenantSched {
        let mut s = TenantSched::default();
        for spec in specs {
            s.specs.insert(spec.id, spec.clone());
            s.note_tenant(spec.id);
        }
        s
    }

    /// Ensure `tenant` participates in the round-robin order.
    pub fn note_tenant(&mut self, tenant: u32) {
        if let Err(at) = self.order.binary_search(&tenant) {
            self.order.insert(at, tenant);
            if at <= self.cursor && !self.order.is_empty() && self.cursor + 1 < self.order.len() {
                // Keep the cursor on the tenant it was visiting.
                self.cursor += 1;
            }
        }
    }

    fn weight(&self, tenant: u32) -> u64 {
        self.specs
            .get(&tenant)
            .map_or(1, |s| s.weight.max(1) as u64)
    }

    /// The quota for `tenant` (unlimited when unspecified).
    pub fn quota(&self, tenant: u32) -> TenantQuota {
        self.specs
            .get(&tenant)
            .map_or_else(TenantQuota::default, |s| s.quota)
    }

    /// Mutable stats row for `tenant` (created on first touch).
    pub fn stats_mut(&mut self, tenant: u32) -> &mut TenantStats {
        self.stats.entry(tenant).or_default()
    }

    /// Whether an untargeted client put of `tenant` passes admission,
    /// given the tenant's current untargeted queue depth.
    pub fn admits(&self, tenant: u32, queued: usize) -> bool {
        match self.quota(tenant).max_queued {
            Some(cap) => queued < cap,
            None => true,
        }
    }

    /// Whether the fair scheduler may elect `tenant` for another
    /// delivery (lease cap not yet reached).
    pub fn can_lease(&self, tenant: u32) -> bool {
        match self.quota(tenant).max_leases {
            Some(cap) => self.leases.get(&tenant).copied().unwrap_or(0) < cap,
            None => true,
        }
    }

    /// A lease opened for `tenant`.
    pub fn lease_opened(&mut self, tenant: u32) {
        *self.leases.entry(tenant).or_default() += 1;
    }

    /// A lease of `tenant` was released (ack, revocation, client death).
    pub fn lease_closed(&mut self, tenant: u32) {
        if let Some(n) = self.leases.get_mut(&tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.leases.remove(&tenant);
            }
        }
    }

    /// In-flight leases of `tenant`.
    pub fn leases_of(&self, tenant: u32) -> usize {
        self.leases.get(&tenant).copied().unwrap_or(0)
    }

    /// Elect the next tenant to deliver untargeted work for, by deficit
    /// round robin over `eligible` (the tenants that currently have
    /// matching queued work *and* are under their lease cap). Returns
    /// `None` when `eligible` is empty. Each call charges one delivery
    /// to the elected tenant's deficit; a tenant under the cursor is
    /// served `weight` consecutive deliveries before the cursor moves
    /// on, which makes long-run contended shares proportional to the
    /// weights while bounding any tenant's wait by one round.
    pub fn elect(&mut self, eligible: &[u32]) -> Option<u32> {
        if eligible.is_empty() {
            return None;
        }
        for t in eligible {
            self.note_tenant(*t);
        }
        // At most one full sweep: every tenant is visited once, and at
        // least one is eligible, so the sweep terminates with a winner.
        for _ in 0..=self.order.len() {
            if self.order.is_empty() {
                return None;
            }
            self.cursor %= self.order.len();
            let t = self.order[self.cursor];
            if eligible.contains(&t) {
                if self.deficit == 0 {
                    self.deficit = self.weight(t);
                }
                self.deficit -= 1;
                if self.deficit == 0 {
                    self.cursor += 1;
                }
                return Some(t);
            }
            // Ineligible tenants forfeit the rest of their visit: idle
            // queues bank no credit (the classic DRR rule that keeps
            // latecomers from bursting past everyone).
            self.deficit = 0;
            self.cursor += 1;
        }
        None
    }

    /// How many tasks one worker `get` may take, given the client's
    /// prefetch `cap` and the tenants that have queued untargeted work
    /// (`with_work`, only consulted in a multi-tenant world). While one
    /// tenant is alone, a delivery takes at most its DRR quantum (its
    /// weight): otherwise idle workers prefetch whole batches of
    /// whichever program submitted first, a head start the round robin
    /// never takes back once the others' work arrives.
    pub fn batch_cap(&self, cap: usize, with_work: impl FnOnce() -> Vec<u32>) -> usize {
        if self.order.len() < 2 {
            return cap;
        }
        match with_work()[..] {
            [t] => cap.min(self.weight(t) as usize),
            _ => cap,
        }
    }

    /// Snapshot the per-tenant stats, sorted by tenant id.
    pub fn stats_rows(&self) -> Vec<(u32, TenantStats)> {
        let mut rows: Vec<(u32, TenantStats)> = self.stats.iter().map(|(t, s)| (*t, *s)).collect();
        rows.sort_by_key(|(t, _)| *t);
        rows
    }

    /// Display name for `tenant` (falls back to `tenant-<id>`).
    pub fn name(&self, tenant: u32) -> String {
        self.specs
            .get(&tenant)
            .map_or_else(|| format!("tenant-{tenant}"), |s| s.name.clone())
    }
}

/// Merge per-tenant stats rows from many servers into one sorted table.
pub fn merge_tenant_rows(into: &mut Vec<(u32, TenantStats)>, rows: &[(u32, TenantStats)]) {
    for (tenant, stats) in rows {
        match into.binary_search_by_key(tenant, |(t, _)| *t) {
            Ok(at) => into[at].1.merge(stats),
            Err(at) => into.insert(at, (*tenant, *stats)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(weights: &[(u32, u32)]) -> TenantSched {
        let specs: Vec<TenantSpec> = weights
            .iter()
            .map(|(id, w)| TenantSpec::new(*id, &format!("t{id}")).weight(*w))
            .collect();
        TenantSched::new(&specs)
    }

    #[test]
    fn lone_tenant_batches_are_capped_at_its_weight() {
        let s = sched(&[(0, 3), (1, 1)]);
        assert_eq!(s.batch_cap(8, || vec![0]), 3);
        assert_eq!(s.batch_cap(8, || vec![1]), 1);
        assert_eq!(
            s.batch_cap(8, || vec![0, 1]),
            8,
            "contended: DRR elects each task"
        );
        assert_eq!(s.batch_cap(2, || vec![0]), 2);
        // A solo world keeps full prefetch batches.
        assert_eq!(sched(&[(0, 1)]).batch_cap(8, || vec![0]), 8);
        assert_eq!(TenantSched::new(&[]).batch_cap(8, || vec![0]), 8);
    }

    #[test]
    fn single_tenant_always_elected() {
        let mut s = sched(&[(0, 1)]);
        for _ in 0..10 {
            assert_eq!(s.elect(&[0]), Some(0));
        }
    }

    #[test]
    fn drr_shares_track_weights() {
        let mut s = sched(&[(0, 4), (1, 2), (2, 1), (3, 1)]);
        let all = [0u32, 1, 2, 3];
        let mut served = [0u64; 4];
        for _ in 0..800 {
            let t = s.elect(&all).unwrap();
            served[t as usize] += 1;
        }
        assert_eq!(served, [400, 200, 100, 100]);
    }

    #[test]
    fn ineligible_tenants_are_skipped_without_credit() {
        let mut s = sched(&[(0, 4), (1, 1)]);
        // Tenant 0 idle: tenant 1 gets everything.
        for _ in 0..5 {
            assert_eq!(s.elect(&[1]), Some(1));
        }
        // Tenant 0 returns: it gets its weight per round, not a burst
        // repaying its idle time.
        let mut zero = 0;
        for _ in 0..50 {
            if s.elect(&[0, 1]) == Some(0) {
                zero += 1;
            }
        }
        assert_eq!(zero, 40);
    }

    #[test]
    fn unknown_tenant_defaults_to_weight_one() {
        let mut s = sched(&[(0, 3)]);
        let mut counts = HashMap::new();
        for _ in 0..40 {
            *counts.entry(s.elect(&[0, 9]).unwrap()).or_insert(0u64) += 1;
        }
        assert_eq!(counts[&0], 30);
        assert_eq!(counts[&9], 10);
    }

    #[test]
    fn quotas_gate_admission_and_leasing() {
        let spec = TenantSpec::new(1, "capped").quota(TenantQuota {
            max_queued: Some(2),
            max_leases: Some(1),
        });
        let mut s = TenantSched::new(&[spec]);
        assert!(s.admits(1, 0));
        assert!(s.admits(1, 1));
        assert!(!s.admits(1, 2));
        assert!(s.admits(7, usize::MAX - 1), "unspecified tenant unlimited");
        assert!(s.can_lease(1));
        s.lease_opened(1);
        assert!(!s.can_lease(1));
        s.lease_closed(1);
        assert!(s.can_lease(1));
        s.lease_closed(1); // extra release must not underflow
        assert_eq!(s.leases_of(1), 0);
    }

    #[test]
    fn stats_merge_adds_counters_and_maxes_peak() {
        let a = TenantStats {
            admitted: 1,
            rejected: 2,
            delivered: 3,
            delivered_contended: 4,
            queue_peak: 9,
        };
        let b = TenantStats {
            admitted: 10,
            rejected: 20,
            delivered: 30,
            delivered_contended: 40,
            queue_peak: 5,
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(
            m,
            TenantStats {
                admitted: 11,
                rejected: 22,
                delivered: 33,
                delivered_contended: 44,
                queue_peak: 9,
            }
        );
        let mut rows = vec![(0, a)];
        merge_tenant_rows(&mut rows, &[(1, b), (0, b)]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1.admitted, 11);
        assert_eq!(rows[1].1, b);
    }
}
