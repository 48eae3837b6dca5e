//! The fast-tier arbiter: a pure, deterministic state machine that owns
//! one shared DRAM pool and moves capacity between colocated tenants on
//! demand (DESIGN.md §13).
//!
//! The arbiter never touches an engine itself — it consumes
//! [`TenantReport`]s (produced by reporter components from §4.3's
//! slowdown-estimation machinery) and emits [`Decision`]s that the
//! co-scheduled runner applies at each barrier. Keeping it pure makes
//! the whole grant/reclaim protocol property-testable without building
//! engines (`tests/prop_arbiter.rs` drives 256 randomized interleavings
//! straight against this type).
//!
//! Invariants (enforced here, asserted in the property tests):
//!
//! 1. **Conservation** — `Σ grants + unallocated == pool_bytes` after
//!    every call; a byte granted to one tenant was taken from exactly one
//!    source (the unallocated reserve or a single donor's reclaim).
//! 2. **No starvation** — tenants over their slowdown SLO with parked
//!    demand age by `wait_rounds`; the longest waiter is served first
//!    every rebalance, so any persistent violator is granted capacity
//!    within a bounded number of rounds whenever supply exists.
//! 3. **Reserved capacity is untouchable** — bytes a donor reports as
//!    held by in-flight migration-fabric transactions are never counted
//!    reclaimable, so a reclaim can never evict a page mid-transaction
//!    (the engine's `reclaim_fast_cold` additionally skips live
//!    transactions page-by-page as a second line of defence).
//! 4. **Congestion deference** — while any tenant reports a busy fabric,
//!    grants that would add migration traffic are deferred, but only up
//!    to `max_defer_rounds` times so congestion cannot starve a tenant
//!    forever.

use std::collections::BTreeMap;

/// Static arbiter knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArbiterConfig {
    /// Total fast-tier bytes the arbiter may hand out.
    pub pool_bytes: u64,
    /// Bytes moved per grant decision (one quantum per needy tenant per
    /// rebalance round keeps reallocation incremental and reversible).
    pub grant_quantum_bytes: u64,
    /// Rounds a grant may be deferred for fabric congestion before it is
    /// issued anyway.
    pub max_defer_rounds: u32,
}

impl Default for ArbiterConfig {
    fn default() -> Self {
        Self {
            pool_bytes: 0,
            grant_quantum_bytes: 8 << 20,
            max_defer_rounds: 3,
        }
    }
}

/// One tenant's periodic self-report: everything the arbiter needs to
/// judge need (slowdown vs SLO, parked demand) and supply (idle and cold
/// capacity, minus what the fabric holds in flight).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantReport {
    /// Estimated slowdown over the last report interval, percent — the
    /// paper's §4.3 estimate `Δ(slow faults) × fault_ns / Δ(app time)`.
    pub slowdown_pct: f64,
    /// Fast-tier bytes currently in use.
    pub used_fast_bytes: u64,
    /// Fast-tier bytes whose Accessed bit is clear — cold capacity a
    /// reclaim can steal first.
    pub cold_fast_bytes: u64,
    /// Bytes held by in-flight migration-fabric transactions; never
    /// reclaimable (invariant 3).
    pub reserved_bytes: u64,
    /// Bytes of demand parked in the slow tier (capacity-pressure
    /// fallbacks and prior reclaims the tenant wants back).
    pub displaced_bytes: u64,
    /// True when this tenant's migration fabric is actively copying.
    pub fabric_congested: bool,
}

/// What a [`Decision`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Capacity added to the tenant's grant (apply, then promote
    /// displaced pages).
    Grant,
    /// Capacity removed from the tenant's grant (demote cold pages, then
    /// lower the cap).
    Reclaim,
    /// A needy tenant's grant was postponed for fabric congestion.
    Defer,
}

/// One arbitration outcome for one tenant, emitted by
/// [`Arbiter::rebalance`] in application order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Tenant the decision applies to.
    pub tenant: u32,
    /// Grant, reclaim, or congestion deferral.
    pub kind: DecisionKind,
    /// Bytes moved (0 for [`DecisionKind::Defer`]).
    pub bytes: u64,
    /// The tenant's total grant after this decision is applied.
    pub grant_after: u64,
}

/// One applied arbitration event, timestamped on the virtual timeline —
/// the serialized trace embedded in `tenants_shared` artifact notes.
#[derive(Debug, Clone, PartialEq)]
pub struct ArbiterEvent {
    /// Virtual time of the rebalance that produced the event, ns.
    pub at_ns: u64,
    /// Tenant the event applies to.
    pub tenant: u64,
    /// `"grant"`, `"reclaim"`, or `"defer"`.
    pub action: String,
    /// Bytes moved.
    pub bytes: u64,
    /// The tenant's total grant after the event.
    pub grant_after_bytes: u64,
    /// The tenant's reported slowdown (percent, ×100 and truncated to an
    /// integer so golden comparison is exact).
    pub slowdown_centi_pct: u64,
}

thermo_util::json_struct!(ArbiterEvent {
    at_ns,
    tenant,
    action,
    bytes,
    grant_after_bytes,
    slowdown_centi_pct,
});

#[derive(Debug, Clone)]
struct TenantSlot {
    grant_bytes: u64,
    slo_pct: f64,
    report: TenantReport,
    reported: bool,
    wait_rounds: u32,
    defer_rounds: u32,
}

/// The pure arbitration state machine. See the module docs for the
/// protocol and invariants.
#[derive(Debug, Clone)]
pub struct Arbiter {
    cfg: ArbiterConfig,
    tenants: BTreeMap<u32, TenantSlot>,
}

impl Arbiter {
    /// Creates an arbiter owning `cfg.pool_bytes` of fast-tier capacity.
    pub fn new(cfg: ArbiterConfig) -> Self {
        Self {
            cfg,
            tenants: BTreeMap::new(),
        }
    }

    /// Registers a tenant with its starting grant and slowdown SLO.
    ///
    /// # Panics
    ///
    /// Panics if the initial grants oversubscribe the pool (a
    /// configuration bug, not a runtime condition).
    pub fn register(&mut self, tenant: u32, initial_grant_bytes: u64, slo_pct: f64) {
        self.tenants.insert(
            tenant,
            TenantSlot {
                grant_bytes: initial_grant_bytes,
                slo_pct,
                report: TenantReport::default(),
                reported: false,
                wait_rounds: 0,
                defer_rounds: 0,
            },
        );
        assert!(
            self.granted_bytes() <= self.cfg.pool_bytes,
            "initial grants oversubscribe the pool"
        );
    }

    /// Total bytes currently granted across all tenants.
    pub fn granted_bytes(&self) -> u64 {
        self.tenants.values().map(|t| t.grant_bytes).sum()
    }

    /// Pool bytes not granted to any tenant.
    pub fn unallocated_bytes(&self) -> u64 {
        self.cfg.pool_bytes - self.granted_bytes()
    }

    /// The tenant's current grant (0 for unknown tenants).
    pub fn grant_of(&self, tenant: u32) -> u64 {
        self.tenants.get(&tenant).map_or(0, |t| t.grant_bytes)
    }

    /// Rounds the tenant has waited while needy (0 when satisfied).
    pub fn wait_rounds_of(&self, tenant: u32) -> u32 {
        self.tenants.get(&tenant).map_or(0, |t| t.wait_rounds)
    }

    /// Records a tenant's latest report (overwrites the previous one; the
    /// arbiter always acts on the freshest state it has seen).
    pub fn report(&mut self, tenant: u32, report: TenantReport) {
        if let Some(slot) = self.tenants.get_mut(&tenant) {
            slot.report = report;
            slot.reported = true;
        }
    }

    /// Runs one rebalance round and returns the decisions **in
    /// application order** (each grant is immediately preceded by the
    /// reclaims that fund it).
    ///
    /// A tenant is *needy* when its reported slowdown exceeds its SLO and
    /// it has displaced demand to bring back. Needy tenants are served
    /// longest-waiter-first (ties by tenant id), one quantum each, funded
    /// from the unallocated reserve first and then from the donor with
    /// the most reclaimable capacity (idle + cold − reserved bytes,
    /// capped so a donor is never cut below its reported in-use hot
    /// footprint).
    pub fn rebalance(&mut self) -> Vec<Decision> {
        let congested = self
            .tenants
            .values()
            .any(|t| t.reported && t.report.fabric_congested);

        // Age the needy, reset the satisfied.
        let mut needy: Vec<u32> = Vec::new();
        for (&id, slot) in &mut self.tenants {
            let is_needy = slot.reported
                && slot.report.slowdown_pct > slot.slo_pct
                && slot.report.displaced_bytes > 0;
            if is_needy {
                slot.wait_rounds += 1;
                needy.push(id);
            } else {
                slot.wait_rounds = 0;
                slot.defer_rounds = 0;
            }
        }
        needy.sort_by_key(|&id| (std::cmp::Reverse(self.tenants[&id].wait_rounds), id));

        let mut decisions = Vec::new();
        for id in needy {
            let want = {
                let slot = &self.tenants[&id];
                slot.report
                    .displaced_bytes
                    .min(self.cfg.grant_quantum_bytes)
            };
            if want == 0 {
                continue;
            }
            if congested {
                let slot = self.tenants.get_mut(&id).expect("needy tenant registered");
                if slot.defer_rounds < self.cfg.max_defer_rounds {
                    slot.defer_rounds += 1;
                    decisions.push(Decision {
                        tenant: id,
                        kind: DecisionKind::Defer,
                        bytes: 0,
                        grant_after: slot.grant_bytes,
                    });
                    continue;
                }
            }

            let mut need = want;
            let mut funded = self.unallocated_bytes().min(need);
            need -= funded;

            // Fund the remainder from donors, richest-reclaimable first.
            while need > 0 {
                let donor = self
                    .tenants
                    .iter()
                    .filter(|&(&d, _)| d != id)
                    .map(|(&d, s)| (d, Self::reclaimable(s)))
                    .filter(|&(_, r)| r > 0)
                    .max_by_key(|&(d, r)| (r, std::cmp::Reverse(d)));
                let Some((donor, reclaimable)) = donor else {
                    break;
                };
                let take = reclaimable.min(need);
                let slot = self.tenants.get_mut(&donor).expect("donor registered");
                slot.grant_bytes -= take;
                // Shrink the donor's *reported* supply too, so one report
                // cannot fund two grants (no double-grant).
                let cold_cut = slot.report.cold_fast_bytes.min(take);
                slot.report.cold_fast_bytes -= cold_cut;
                slot.report.used_fast_bytes = slot.report.used_fast_bytes.saturating_sub(cold_cut);
                decisions.push(Decision {
                    tenant: donor,
                    kind: DecisionKind::Reclaim,
                    bytes: take,
                    grant_after: slot.grant_bytes,
                });
                need -= take;
                funded += take;
            }

            let slot = self.tenants.get_mut(&id).expect("needy tenant registered");
            if funded > 0 {
                slot.grant_bytes += funded;
                slot.wait_rounds = 0;
                slot.defer_rounds = 0;
                // The granted bytes answer (part of) the displaced demand.
                slot.report.displaced_bytes = slot.report.displaced_bytes.saturating_sub(funded);
                decisions.push(Decision {
                    tenant: id,
                    kind: DecisionKind::Grant,
                    bytes: funded,
                    grant_after: slot.grant_bytes,
                });
            }
        }

        debug_assert!(
            self.granted_bytes() <= self.cfg.pool_bytes,
            "arbiter oversubscribed the pool"
        );
        decisions
    }

    /// Bytes a donor can give up: idle headroom (grant − used) plus cold
    /// in-use bytes, minus what the fabric holds in flight — never
    /// cutting into the reported hot footprint, and never more than the
    /// grant itself (a report claiming more cold bytes than the tenant
    /// was ever granted must not drive the grant negative).
    fn reclaimable(slot: &TenantSlot) -> u64 {
        if !slot.reported {
            return 0;
        }
        let r = &slot.report;
        let idle = slot.grant_bytes.saturating_sub(r.used_fast_bytes);
        (idle + r.cold_fast_bytes)
            .saturating_sub(r.reserved_bytes)
            .min(slot.grant_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arb(pool: u64) -> Arbiter {
        Arbiter::new(ArbiterConfig {
            pool_bytes: pool,
            grant_quantum_bytes: 8 << 20,
            max_defer_rounds: 2,
        })
    }

    fn needy_report(displaced: u64) -> TenantReport {
        TenantReport {
            slowdown_pct: 50.0,
            displaced_bytes: displaced,
            ..TenantReport::default()
        }
    }

    #[test]
    fn grant_comes_from_unallocated_first() {
        let mut a = arb(64 << 20);
        a.register(0, 16 << 20, 3.0);
        a.register(1, 16 << 20, 3.0);
        a.report(0, needy_report(32 << 20));
        let d = a.rebalance();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].kind, DecisionKind::Grant);
        assert_eq!(d[0].bytes, 8 << 20);
        assert_eq!(a.grant_of(0), 24 << 20);
        assert_eq!(a.grant_of(1), 16 << 20);
        assert_eq!(a.granted_bytes() + a.unallocated_bytes(), 64 << 20);
    }

    #[test]
    fn reclaim_funds_grant_when_pool_exhausted_and_skips_reserved() {
        let mut a = arb(32 << 20);
        a.register(0, 8 << 20, 3.0);
        a.register(1, 24 << 20, 30.0);
        a.report(0, needy_report(32 << 20));
        a.report(
            1,
            TenantReport {
                used_fast_bytes: 24 << 20,
                cold_fast_bytes: 12 << 20,
                reserved_bytes: 6 << 20,
                ..TenantReport::default()
            },
        );
        let d = a.rebalance();
        // Reclaim precedes the grant it funds.
        assert_eq!(d[0].kind, DecisionKind::Reclaim);
        assert_eq!(d[0].tenant, 1);
        assert_eq!(d[0].bytes, 6 << 20, "cold(12M) − reserved(6M)");
        assert_eq!(d[1].kind, DecisionKind::Grant);
        assert_eq!(d[1].tenant, 0);
        assert_eq!(d[1].bytes, 6 << 20);
        assert_eq!(a.granted_bytes(), 32 << 20);
    }

    #[test]
    fn congestion_defers_then_forces_the_grant() {
        let mut a = arb(64 << 20);
        a.register(0, 8 << 20, 3.0);
        let congested = TenantReport {
            fabric_congested: true,
            ..needy_report(32 << 20)
        };
        a.report(0, congested);
        assert_eq!(a.rebalance()[0].kind, DecisionKind::Defer);
        a.report(0, congested);
        assert_eq!(a.rebalance()[0].kind, DecisionKind::Defer);
        // max_defer_rounds = 2: the third round grants despite congestion.
        a.report(0, congested);
        let d = a.rebalance();
        assert_eq!(d[0].kind, DecisionKind::Grant);
        assert_eq!(d[0].bytes, 8 << 20);
    }

    #[test]
    fn longest_waiter_is_served_first() {
        // A needy report that exposes no supply: the whole grant is hot
        // and in use, so other tenants cannot reclaim from it.
        let hot_needy = |used: u64| TenantReport {
            used_fast_bytes: used,
            ..needy_report(32 << 20)
        };
        let mut a = arb(8 << 20);
        a.register(0, 4 << 20, 3.0);
        a.register(1, 4 << 20, 3.0);
        // Nothing to give: both wait, aging each round.
        a.report(0, hot_needy(4 << 20));
        a.report(1, hot_needy(4 << 20));
        a.rebalance();
        assert_eq!(a.wait_rounds_of(0), 1);
        a.report(0, hot_needy(4 << 20));
        a.report(1, hot_needy(4 << 20));
        a.rebalance();
        assert!(a.wait_rounds_of(0) >= 2);
        let mut b = arb(16 << 20);
        b.register(0, 4 << 20, 3.0);
        b.register(1, 4 << 20, 3.0);
        b.report(1, needy_report(32 << 20));
        b.rebalance(); // tenant 1 waits... and is served from the reserve
        assert_eq!(b.grant_of(1), 12 << 20);
    }
}
