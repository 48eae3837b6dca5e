//! Finite-bandwidth migration fabric with transactional, non-exclusive
//! page moves.
//!
//! The paper treats migration as instantaneous and exclusive: `migrate_page`
//! copies a page in one kernel-time charge while the application is (by
//! construction) not touching it. That hides the regime where migration
//! traffic itself is the bottleneck. This module models the DRAM↔slow-tier
//! channel as two finite-bandwidth links (one per *destination* tier) and
//! makes migration a transaction in the style of Nomad:
//!
//! * [`Fabric::begin`] opens a transaction; the copy then proceeds
//!   asynchronously as virtual time advances ([`Fabric::tick`]) while the
//!   application keeps accessing the page;
//! * a write to a page mid-copy makes the copied bytes stale — the
//!   transaction aborts its copy and retries after a bounded exponential
//!   backoff ([`Fabric::note_write`]), failing permanently after
//!   `max_retries`;
//! * committing ([`Fabric::commit_status`] + [`Fabric::finish_commit`])
//!   only succeeds once the copy is complete; the page remains resident in
//!   its source tier until the engine remaps it at commit;
//! * a demoted page leaves a *shadow* entry behind
//!   ([`Fabric::record_shadow`]): until the first write invalidates it, a
//!   re-promotion can reuse the stale fast-tier copy and skip the bulk
//!   transfer entirely ([`Fabric::take_shadow`]).
//!
//! The fabric holds *metadata only*: no frames are reserved while a copy is
//! in flight, so the engine's residency invariant (each mapped page backed
//! by exactly one frame in exactly one tier) holds at every instant — the
//! property tests in `tests/prop_fabric.rs` pin this.
//!
//! Determinism: the fabric has no RNG and no ambient clock; all state lives
//! in `BTreeMap`s and is a pure function of the call sequence.

use std::collections::{BTreeMap, VecDeque};
use thermo_mem::{PageSize, Tier, Vpn};

/// Fabric configuration knobs.
///
/// `enabled` is the *policy-mode* switch: the daemons consult it to decide
/// whether to demote through transactions. The mechanism itself is always
/// available; with `enabled = false` (the default) no transactions are ever
/// opened and the engine behaves exactly as before — all pre-fabric goldens
/// are unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// Policy-mode switch: daemons demote via Begin/Commit transactions.
    pub enabled: bool,
    /// Per-link copy bandwidth, bytes per second of virtual time.
    pub link_bandwidth_bytes_per_sec: u64,
    /// Fixed per-page kernel overhead charged at commit (remap, shootdown).
    pub per_page_overhead_ns: u64,
    /// Write-aborts tolerated before a transaction fails permanently.
    pub max_retries: u32,
    /// Base of the exponential retry backoff, ns.
    pub backoff_base_ns: u64,
    /// Shadow directory capacity (pages); oldest entries are evicted FIFO.
    pub shadow_capacity: u64,
    /// Extra latency an LLC miss pays while any link is actively copying —
    /// the app-visible contention cost of migration traffic.
    pub contention_penalty_ns: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            link_bandwidth_bytes_per_sec: 2_000_000_000,
            per_page_overhead_ns: 5_000,
            max_retries: 3,
            backoff_base_ns: 200_000,
            shadow_capacity: 64,
            contention_penalty_ns: 60,
        }
    }
}

thermo_util::json_struct!(FabricConfig {
    enabled,
    link_bandwidth_bytes_per_sec,
    per_page_overhead_ns,
    max_retries,
    backoff_base_ns,
    shadow_capacity,
    contention_penalty_ns,
});

/// Where a transaction is in its life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Bytes still moving (or waiting out a retry backoff).
    Copying,
    /// Copy complete; ready to commit.
    Copied,
    /// Retries exhausted or page invalidated; only abort can resolve it.
    Failed,
}

/// One in-flight migration transaction.
#[derive(Debug, Clone, Copy)]
pub struct MigrateTxn {
    /// Transaction id (monotonic, unique per fabric).
    pub id: u64,
    /// Leaf page being moved (base VPN of its mapping).
    pub base_vpn: Vpn,
    /// Leaf size.
    pub size: PageSize,
    /// Destination tier.
    pub target: Tier,
    /// Current state.
    pub state: TxnState,
    /// Bytes copied so far in the current attempt.
    pub copied_bytes: u64,
    /// Write-aborts suffered so far.
    pub retries: u32,
    /// Virtual time before which the copy may not resume (retry backoff).
    pub resume_at_ns: u64,
}

/// What [`Fabric::commit_status`] reports for a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitStatus {
    /// Copy still in flight — ask again later.
    Pending,
    /// Transaction failed (retries exhausted or invalidated); abort it.
    Failed,
    /// Copy complete: the engine may remap and then finish the commit.
    Ready {
        /// Page to remap.
        vpn: Vpn,
        /// Leaf size.
        size: PageSize,
        /// Destination tier.
        target: Tier,
    },
}

/// Counters for the fabric's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Transactions opened.
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted (explicitly or after failure).
    pub aborted: u64,
    /// Copy restarts caused by writes to in-flight pages.
    pub write_aborts: u64,
    /// Transactions killed by a structural page operation (split, poison…).
    pub invalidated: u64,
    /// Promotions served instantly from a shadow copy.
    pub shadow_hits: u64,
    /// Ticks where a link's budget ran out with eligible copies waiting.
    pub congestion_events: u64,
    /// LLC misses that paid the contention penalty.
    pub contended_misses: u64,
    /// Total bytes moved over the links.
    pub bytes_copied: u64,
    /// Highest observed per-tick link throughput, bytes/sec.
    pub peak_bytes_per_sec: u64,
}

#[derive(Debug, Default)]
struct Link {
    queue: VecDeque<u64>,
}

/// The migration fabric: two finite-bandwidth links plus transaction and
/// shadow directories. Owned by the engine but fully public so benches and
/// property tests can drive it directly.
#[derive(Debug)]
pub struct Fabric {
    cfg: FabricConfig,
    txns: BTreeMap<u64, MigrateTxn>,
    /// Live (unresolved, non-failed) transaction per page.
    by_page: BTreeMap<Vpn, u64>,
    /// Per-destination-tier links: `links[0]` → Fast, `links[1]` → Slow.
    links: [Link; 2],
    shadows: BTreeMap<Vpn, PageSize>,
    shadow_fifo: VecDeque<Vpn>,
    last_tick_ns: u64,
    next_id: u64,
    stats: FabricStats,
}

fn link_index(target: Tier) -> usize {
    match target {
        Tier::Fast => 0,
        Tier::Slow => 1,
    }
}

impl Fabric {
    /// A fabric with the given knobs and no in-flight state.
    pub fn new(cfg: FabricConfig) -> Self {
        Self {
            cfg,
            txns: BTreeMap::new(),
            by_page: BTreeMap::new(),
            links: [Link::default(), Link::default()],
            shadows: BTreeMap::new(),
            shadow_fifo: VecDeque::new(),
            last_tick_ns: 0,
            next_id: 1,
            stats: FabricStats::default(),
        }
    }

    /// The configuration this fabric was built with.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Lifetime counters.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// True while any link has queued copies.
    pub fn busy(&self) -> bool {
        self.links.iter().any(|l| !l.queue.is_empty())
    }

    /// True if the fabric holds any state the engine must consult on the
    /// hot path (live transactions or shadows).
    pub fn has_state(&self) -> bool {
        !self.by_page.is_empty() || !self.shadows.is_empty()
    }

    /// Number of unresolved transactions (any state).
    pub fn in_flight(&self) -> usize {
        self.txns.len()
    }

    /// Bytes covered by unresolved transactions — capacity a reclaim
    /// must treat as pinned (the arbiter's `reserved_bytes` input).
    pub fn in_flight_bytes(&self) -> u64 {
        self.txns.values().map(|t| t.size.bytes() as u64).sum()
    }

    /// The live transaction covering `vpn`, if any.
    pub fn txn_for_page(&self, vpn: Vpn) -> Option<&MigrateTxn> {
        let (&base, &id) = self.by_page.range(..=vpn).next_back()?;
        let txn = &self.txns[&id];
        let n = txn.size.small_pages() as u64;
        (base.0 + n > vpn.0).then_some(txn)
    }

    /// Open a migration transaction for the leaf page at `base_vpn`.
    ///
    /// Panics if a live transaction already overlaps the page — callers
    /// (the plan layer) must not double-inject; the property tests and
    /// daemons both track pending pages.
    ///
    /// A promotion (`target == Fast`) that finds a valid shadow completes
    /// instantly: the stale fast-tier copy is still good, so the
    /// transaction is born `Copied` without touching a link.
    pub fn begin(&mut self, base_vpn: Vpn, size: PageSize, target: Tier, now: u64) -> u64 {
        let n = size.small_pages() as u64;
        if let Some((&b, &id)) = self.by_page.range(..=base_vpn).next_back() {
            let bn = self.txns[&id].size.small_pages() as u64;
            assert!(
                b.0 + bn <= base_vpn.0,
                "fabric: begin overlaps live txn {id} at vpn {}",
                b.0
            );
        }
        if let Some((&b, &id)) = self.by_page.range(Vpn(base_vpn.0 + 1)..).next() {
            assert!(
                base_vpn.0 + n <= b.0,
                "fabric: begin overlaps live txn {id} at vpn {}",
                b.0
            );
        }
        // An idle fabric must not bank the elapsed idle time as copy budget.
        if !self.busy() {
            self.last_tick_ns = now;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.stats.begun += 1;
        let shadowed = target == Tier::Fast && self.take_shadow(base_vpn, size);
        let bytes = size.bytes() as u64;
        let txn = MigrateTxn {
            id,
            base_vpn,
            size,
            target,
            state: if shadowed {
                TxnState::Copied
            } else {
                TxnState::Copying
            },
            copied_bytes: if shadowed { bytes } else { 0 },
            retries: 0,
            resume_at_ns: 0,
        };
        if !shadowed {
            self.links[link_index(target)].queue.push_back(id);
        }
        self.txns.insert(id, txn);
        self.by_page.insert(base_vpn, id);
        id
    }

    /// Advance the links to virtual time `now`, moving up to
    /// `bandwidth × Δt` bytes per link. The budget is a per-tick floor with
    /// no carry, so charged bandwidth provably never exceeds link capacity
    /// over any interval.
    pub fn tick(&mut self, now: u64) {
        let dt = now.saturating_sub(self.last_tick_ns);
        if dt == 0 {
            return;
        }
        self.last_tick_ns = now;
        for link in &mut self.links {
            if link.queue.is_empty() {
                continue;
            }
            let mut budget =
                (self.cfg.link_bandwidth_bytes_per_sec as u128 * dt as u128 / 1_000_000_000) as u64;
            let mut moved = 0u64;
            let mut starved = false;
            // Filter the queue in place and in order: no rebuild, even on
            // a starved tick.
            let txns = &mut self.txns;
            link.queue.retain_mut(|id| {
                let Some(txn) = txns.get_mut(id) else {
                    return false; // resolved; stale queue entry
                };
                if txn.state != TxnState::Copying {
                    return false; // failed or already copied; drop lazily
                }
                if txn.resume_at_ns > now {
                    return true; // still backing off
                }
                if budget == 0 {
                    starved = true;
                    return true;
                }
                let remaining = txn.size.bytes() as u64 - txn.copied_bytes;
                let chunk = remaining.min(budget);
                txn.copied_bytes += chunk;
                budget -= chunk;
                moved += chunk;
                if txn.copied_bytes == txn.size.bytes() as u64 {
                    txn.state = TxnState::Copied;
                    false
                } else {
                    starved = true; // budget exhausted mid-page
                    true
                }
            });
            if starved {
                self.stats.congestion_events += 1;
            }
            if moved > 0 {
                self.stats.bytes_copied += moved;
                let rate = (moved as u128 * 1_000_000_000 / dt as u128) as u64;
                self.stats.peak_bytes_per_sec = self.stats.peak_bytes_per_sec.max(rate);
            }
        }
    }

    /// The engine observed a write to `vpn`. Invalidate any shadow and
    /// write-abort any in-flight copy covering the page.
    pub fn note_write(&mut self, vpn: Vpn, now: u64) {
        // Shadows: a write makes the stale fast-tier copy unusable.
        if let Some((&base, &size)) = self.shadows.range(..=vpn).next_back() {
            if base.0 + size.small_pages() as u64 > vpn.0 {
                self.shadows.remove(&base);
            }
        }
        let Some((&base, &id)) = self.by_page.range(..=vpn).next_back() else {
            return;
        };
        let Some(txn) = self.txns.get_mut(&id) else {
            return;
        };
        if base.0 + txn.size.small_pages() as u64 <= vpn.0 {
            return;
        }
        if txn.state == TxnState::Failed {
            return;
        }
        if txn.state == TxnState::Copying && txn.copied_bytes == 0 {
            return; // nothing copied yet, nothing to go stale
        }
        self.stats.write_aborts += 1;
        txn.retries += 1;
        txn.copied_bytes = 0;
        if txn.retries > self.cfg.max_retries {
            txn.state = TxnState::Failed;
            self.by_page.remove(&base);
            return;
        }
        let was_copied = txn.state == TxnState::Copied;
        txn.state = TxnState::Copying;
        let shift = (txn.retries - 1).min(20);
        txn.resume_at_ns = now + (self.cfg.backoff_base_ns << shift);
        if was_copied {
            // It had left the queue on completion; re-enqueue the retry.
            let target = txn.target;
            if !self.busy() {
                self.last_tick_ns = now;
            }
            self.links[link_index(target)].queue.push_back(id);
        }
    }

    /// Where transaction `id` stands for commit purposes.
    ///
    /// Panics on an unknown id: commit/abort of a transaction that was never
    /// begun (or was already resolved) is a plan-layer bug.
    pub fn commit_status(&self, id: u64) -> CommitStatus {
        let txn = self
            .txns
            .get(&id)
            .unwrap_or_else(|| panic!("fabric: unknown txn {id}"));
        match txn.state {
            TxnState::Copying => CommitStatus::Pending,
            TxnState::Failed => CommitStatus::Failed,
            TxnState::Copied => CommitStatus::Ready {
                vpn: txn.base_vpn,
                size: txn.size,
                target: txn.target,
            },
        }
    }

    /// Resolve a `Ready` transaction after the engine has remapped the
    /// page. A demotion leaves a shadow behind for instant re-promotion.
    pub fn finish_commit(&mut self, id: u64) {
        let txn = self
            .txns
            .remove(&id)
            .unwrap_or_else(|| panic!("fabric: unknown txn {id}"));
        if self.by_page.get(&txn.base_vpn) == Some(&id) {
            self.by_page.remove(&txn.base_vpn);
        }
        self.stats.committed += 1;
        if txn.target == Tier::Slow {
            self.record_shadow(txn.base_vpn, txn.size);
        }
    }

    /// Abort and discard transaction `id` (any state). Panics on unknown id.
    pub fn abort(&mut self, id: u64) {
        let txn = self
            .txns
            .remove(&id)
            .unwrap_or_else(|| panic!("fabric: unknown txn {id}"));
        if self.by_page.get(&txn.base_vpn) == Some(&id) {
            self.by_page.remove(&txn.base_vpn);
        }
        self.stats.aborted += 1;
    }

    /// A structural page operation (split, collapse, poison, migrate…)
    /// touched `[base, base + n_pages)`: any overlapping live transaction
    /// is now meaningless. Mark it failed so its eventual commit resolves
    /// as a clean abort instead of remapping a page that changed shape.
    pub fn invalidate_overlapping(&mut self, base: Vpn, n_pages: u64) {
        if self.by_page.is_empty() {
            return;
        }
        let mut hit: Vec<(Vpn, u64)> = Vec::new();
        if let Some((&b, &id)) = self.by_page.range(..=base).next_back() {
            let bn = self.txns[&id].size.small_pages() as u64;
            if b.0 + bn > base.0 {
                hit.push((b, id));
            }
        }
        for (&b, &id) in self.by_page.range(Vpn(base.0 + 1)..) {
            if b.0 >= base.0 + n_pages {
                break;
            }
            hit.push((b, id));
        }
        for (b, id) in hit {
            let txn = self.txns.get_mut(&id).expect("by_page points at live txn");
            txn.state = TxnState::Failed;
            self.by_page.remove(&b);
            self.stats.invalidated += 1;
        }
    }

    /// Remember that the fast-tier copy of a just-demoted page is still
    /// intact (stale only after the next write).
    pub fn record_shadow(&mut self, vpn: Vpn, size: PageSize) {
        if self.cfg.shadow_capacity == 0 {
            return;
        }
        if self.shadows.insert(vpn, size).is_none() {
            self.shadow_fifo.push_back(vpn);
        }
        while self.shadows.len() as u64 > self.cfg.shadow_capacity {
            match self.shadow_fifo.pop_front() {
                Some(old) => {
                    self.shadows.remove(&old);
                }
                None => break,
            }
        }
    }

    /// Consume the shadow for `(vpn, size)` if present and exactly matching.
    pub fn take_shadow(&mut self, vpn: Vpn, size: PageSize) -> bool {
        if self.shadows.get(&vpn) == Some(&size) {
            self.shadows.remove(&vpn);
            self.stats.shadow_hits += 1;
            true
        } else {
            false
        }
    }

    /// Record an LLC miss that paid the contention penalty.
    pub fn note_contended_miss(&mut self) {
        self.stats.contended_misses += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HUGE: u64 = 2 << 20;

    fn fab(bw: u64) -> Fabric {
        Fabric::new(FabricConfig {
            enabled: true,
            link_bandwidth_bytes_per_sec: bw,
            ..FabricConfig::default()
        })
    }

    #[test]
    fn copy_is_paced_by_bandwidth() {
        // 2MB page over a 1GB/s link needs ~2ms of virtual time.
        let mut f = fab(1_000_000_000);
        let id = f.begin(Vpn(0), PageSize::Huge2M, Tier::Slow, 0);
        f.tick(1_000_000); // 1ms → 1MB copied
        assert_eq!(f.commit_status(id), CommitStatus::Pending);
        f.tick(2_200_000);
        assert!(matches!(f.commit_status(id), CommitStatus::Ready { .. }));
        assert_eq!(f.stats().bytes_copied, HUGE);
        assert!(f.stats().peak_bytes_per_sec <= 1_000_000_000);
        f.finish_commit(id);
        assert_eq!(f.in_flight(), 0);
        assert_eq!(f.stats().committed, 1);
    }

    #[test]
    fn idle_time_is_not_banked_as_budget() {
        let mut f = fab(1_000_000_000);
        // Fabric idles for a long time; a fresh txn must still take ~2ms.
        let id = f.begin(Vpn(0), PageSize::Huge2M, Tier::Slow, 10_000_000_000);
        f.tick(10_000_000_001); // 1ns later: at most ~1 byte moved
        assert_eq!(f.commit_status(id), CommitStatus::Pending);
        assert!(f.stats().bytes_copied <= 2);
        f.abort(id);
    }

    #[test]
    fn write_aborts_retry_then_fail() {
        let mut f = fab(1_000_000_000);
        let id = f.begin(Vpn(0), PageSize::Huge2M, Tier::Slow, 0);
        let mut now = 0;
        for attempt in 0..4u32 {
            // Let some bytes move, then dirty the page.
            now += 1_000_000;
            f.tick(now);
            f.note_write(Vpn(3), now);
            assert_eq!(f.stats().write_aborts, attempt as u64 + 1);
        }
        // max_retries = 3, fourth write-abort fails the transaction.
        assert_eq!(f.commit_status(id), CommitStatus::Failed);
        // A failed txn no longer blocks the page: a new begin succeeds
        // after the failed one is aborted.
        f.abort(id);
        assert_eq!(f.stats().aborted, 1);
        let id2 = f.begin(Vpn(0), PageSize::Huge2M, Tier::Slow, now);
        assert_ne!(id, id2);
    }

    #[test]
    fn write_before_any_copy_is_free() {
        let mut f = fab(1_000_000_000);
        let id = f.begin(Vpn(0), PageSize::Huge2M, Tier::Slow, 0);
        f.note_write(Vpn(0), 0); // nothing copied yet → no abort
        assert_eq!(f.stats().write_aborts, 0);
        f.abort(id);
    }

    #[test]
    fn shadow_promotion_is_instant() {
        let mut f = fab(1_000_000_000);
        let id = f.begin(Vpn(512), PageSize::Huge2M, Tier::Slow, 0);
        f.tick(3_000_000);
        f.finish_commit(id); // demotion records a shadow
        let id2 = f.begin(Vpn(512), PageSize::Huge2M, Tier::Fast, 3_000_000);
        assert!(matches!(f.commit_status(id2), CommitStatus::Ready { .. }));
        assert_eq!(f.stats().shadow_hits, 1);
        f.finish_commit(id2);
        // Shadow is consumed: the next promotion has to copy.
        let id3 = f.begin(Vpn(512), PageSize::Huge2M, Tier::Fast, 3_000_000);
        assert_eq!(f.commit_status(id3), CommitStatus::Pending);
        f.abort(id3);
    }

    #[test]
    fn writes_invalidate_shadows() {
        let mut f = fab(1_000_000_000);
        let id = f.begin(Vpn(0), PageSize::Huge2M, Tier::Slow, 0);
        f.tick(3_000_000);
        f.finish_commit(id);
        f.note_write(Vpn(17), 3_000_000); // inside the shadowed huge page
        let id2 = f.begin(Vpn(0), PageSize::Huge2M, Tier::Fast, 3_000_000);
        assert_eq!(f.commit_status(id2), CommitStatus::Pending);
        assert_eq!(f.stats().shadow_hits, 0);
        f.abort(id2);
    }

    #[test]
    #[should_panic(expected = "overlaps live txn")]
    fn overlapping_begin_panics() {
        let mut f = fab(1_000_000_000);
        f.begin(Vpn(0), PageSize::Huge2M, Tier::Slow, 0);
        f.begin(Vpn(100), PageSize::Small4K, Tier::Slow, 0);
    }

    #[test]
    fn invalidation_fails_txn_but_keeps_it_resolvable() {
        let mut f = fab(1_000_000_000);
        let id = f.begin(Vpn(0), PageSize::Huge2M, Tier::Slow, 0);
        f.tick(500_000);
        f.invalidate_overlapping(Vpn(0), 512);
        assert_eq!(f.stats().invalidated, 1);
        assert_eq!(f.commit_status(id), CommitStatus::Failed);
        f.abort(id);
        assert_eq!(f.in_flight(), 0);
    }

    #[test]
    fn congestion_is_counted_when_budget_starves() {
        let mut f = fab(1_000_000_000);
        for i in 0..4 {
            f.begin(Vpn(i * 512), PageSize::Huge2M, Tier::Slow, 0);
        }
        f.tick(1_000_000); // 1MB budget for 8MB of queued copies
        assert!(f.stats().congestion_events >= 1);
        assert_eq!(f.stats().bytes_copied, 1_000_000);
    }

    #[test]
    fn shadow_capacity_is_fifo_bounded() {
        let mut f = Fabric::new(FabricConfig {
            shadow_capacity: 2,
            ..FabricConfig::default()
        });
        f.record_shadow(Vpn(0), PageSize::Huge2M);
        f.record_shadow(Vpn(512), PageSize::Huge2M);
        f.record_shadow(Vpn(1024), PageSize::Huge2M);
        assert!(!f.take_shadow(Vpn(0), PageSize::Huge2M), "oldest evicted");
        assert!(f.take_shadow(Vpn(512), PageSize::Huge2M));
        assert!(f.take_shadow(Vpn(1024), PageSize::Huge2M));
    }

    #[test]
    fn config_roundtrips() {
        let c = FabricConfig {
            enabled: true,
            link_bandwidth_bytes_per_sec: 123,
            ..FabricConfig::default()
        };
        let j = thermo_util::json::encode(&c);
        let back: FabricConfig = thermo_util::json::decode(&j).expect("decode");
        assert_eq!(c, back);
    }
}
