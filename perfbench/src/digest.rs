//! Correctness of a run: a digest over every simulated output, plus the
//! engine's own conservation identities.
//!
//! The digest is FNV-1a over the ordered-JSON encoding
//! (`thermo_util::json`) of the run's outputs, so two runs agree on the
//! digest exactly when they agree on every counter byte for byte.

use thermo_sim::{CoSchedOutcome, Engine, EngineStats, RunOutcome};
use thermo_util::json::{self, ToJson, Value};
use thermostat::DaemonStats;

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn obj(fields: &[(&str, u64)]) -> Value {
    Value::Obj(
        fields
            .iter()
            .map(|&(k, v)| (k.to_string(), Value::U64(v)))
            .collect(),
    )
}

/// Engine counters that `EngineStats` does not carry and that have no
/// `ToJson` of their own (TLB, trap, migration, fabric), read through the
/// engine's public accessors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub tlb_lookups: u64,
    pub tlb_misses: u64,
    pub trap_faults: u64,
    pub to_slow_pages: u64,
    pub back_to_fast_pages: u64,
    pub fab_begun: u64,
    pub fab_committed: u64,
    pub fab_aborted: u64,
    pub fab_write_aborts: u64,
    pub fab_congestion: u64,
    pub fab_in_flight: u64,
}

impl Counters {
    pub fn read(engine: &Engine) -> Self {
        let tlb = engine.tlb_stats();
        let mig = engine.migration_stats();
        let fab = engine.fabric_stats();
        Self {
            tlb_lookups: tlb.lookups(),
            tlb_misses: tlb.misses,
            trap_faults: engine.trap_stats().faults,
            to_slow_pages: mig.to_slow_pages,
            back_to_fast_pages: mig.back_to_fast_pages,
            fab_begun: fab.begun,
            fab_committed: fab.committed,
            fab_aborted: fab.aborted,
            fab_write_aborts: fab.write_aborts,
            fab_congestion: fab.congestion_events,
            fab_in_flight: engine.fabric().in_flight() as u64,
        }
    }

    pub fn add(&mut self, o: &Counters) {
        self.tlb_lookups += o.tlb_lookups;
        self.tlb_misses += o.tlb_misses;
        self.trap_faults += o.trap_faults;
        self.to_slow_pages += o.to_slow_pages;
        self.back_to_fast_pages += o.back_to_fast_pages;
        self.fab_begun += o.fab_begun;
        self.fab_committed += o.fab_committed;
        self.fab_aborted += o.fab_aborted;
        self.fab_write_aborts += o.fab_write_aborts;
        self.fab_congestion += o.fab_congestion;
        self.fab_in_flight += o.fab_in_flight;
    }
}

/// The full fabric, TLB, trap and migration state of `engine`, for the
/// digest (every field, not only the ones [`Counters`] reports).
fn engine_extras_json(engine: &Engine) -> Value {
    let tlb = engine.tlb_stats();
    let trap = engine.trap_stats();
    let mig = engine.migration_stats();
    let fab = engine.fabric_stats();
    Value::Obj(vec![
        (
            "tlb".to_string(),
            obj(&[
                ("l1_hits", tlb.l1_hits),
                ("l2_hits", tlb.l2_hits),
                ("misses", tlb.misses),
                ("shootdowns", tlb.shootdowns),
            ]),
        ),
        (
            "trap".to_string(),
            obj(&[
                ("faults", trap.faults),
                ("fault_time_ns", trap.fault_time_ns),
                ("poisoned_pages", trap.poisoned_pages),
                ("poisons", trap.poisons),
                ("unpoisons", trap.unpoisons),
            ]),
        ),
        (
            "migration".to_string(),
            obj(&[
                ("to_slow_pages", mig.to_slow_pages),
                ("to_slow_bytes", mig.to_slow_bytes),
                ("back_to_fast_pages", mig.back_to_fast_pages),
                ("back_to_fast_bytes", mig.back_to_fast_bytes),
                ("copy_time_ns", mig.copy_time_ns),
            ]),
        ),
        (
            "fabric".to_string(),
            obj(&[
                ("begun", fab.begun),
                ("committed", fab.committed),
                ("aborted", fab.aborted),
                ("write_aborts", fab.write_aborts),
                ("invalidated", fab.invalidated),
                ("shadow_hits", fab.shadow_hits),
                ("congestion_events", fab.congestion_events),
                ("contended_misses", fab.contended_misses),
                ("bytes_copied", fab.bytes_copied),
                ("peak_bytes_per_sec", fab.peak_bytes_per_sec),
                ("in_flight", engine.fabric().in_flight() as u64),
            ]),
        ),
    ])
}

/// Digest of a single-tenant run.
pub fn single(outcome: &RunOutcome, engine: &Engine, daemon: &DaemonStats) -> u64 {
    let v = Value::Obj(vec![
        ("outcome".to_string(), outcome.to_json()),
        ("engine".to_string(), engine.stats().to_json()),
        ("pressure".to_string(), engine.pressure_stats().to_json()),
        (
            "breakdown".to_string(),
            engine.footprint_breakdown().to_json(),
        ),
        ("daemon".to_string(), daemon.to_json()),
        ("extras".to_string(), engine_extras_json(engine)),
    ]);
    fnv1a64(json::to_string(&v).as_bytes())
}

/// Digest of a co-scheduled run: every shard outcome, pressure counter
/// and applied arbiter event.
pub fn cosched(out: &CoSchedOutcome) -> u64 {
    let v = Value::Obj(vec![
        ("shards".to_string(), out.shards.to_json()),
        ("pressure".to_string(), out.pressure.to_json()),
        ("trace".to_string(), out.trace.to_json()),
    ]);
    fnv1a64(json::to_string(&v).as_bytes())
}

/// Conservation identities every engine must satisfy, for runs whose
/// seed has no recorded digest. Returns one message per violation.
pub fn engine_identities(who: &str, s: &EngineStats, c: Option<&Counters>) -> Vec<String> {
    let mut bad = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            bad.push(format!("{who}: {what}"));
        }
    };
    check(
        s.accesses == s.llc_hits + s.llc_misses,
        format!(
            "accesses {} != llc hits {} + misses {}",
            s.accesses, s.llc_hits, s.llc_misses
        ),
    );
    check(
        s.llc_misses == s.fast_tier_accesses + s.slow_tier_accesses,
        format!(
            "llc misses {} != fast {} + slow {}",
            s.llc_misses, s.fast_tier_accesses, s.slow_tier_accesses
        ),
    );
    if let Some(c) = c {
        check(
            c.fab_begun == c.fab_committed + c.fab_aborted + c.fab_in_flight,
            format!(
                "fabric begun {} != committed {} + aborted {} + in flight {}",
                c.fab_begun, c.fab_committed, c.fab_aborted, c.fab_in_flight
            ),
        );
        check(
            c.tlb_lookups == s.accesses,
            format!("tlb lookups {} != accesses {}", c.tlb_lookups, s.accesses),
        );
        check(
            c.tlb_misses == s.walks,
            format!("tlb misses {} != walks {}", c.tlb_misses, s.walks),
        );
        check(
            c.trap_faults == s.slow_trap_faults + s.fast_trap_faults,
            format!(
                "trap faults {} != slow {} + fast {}",
                c.trap_faults, s.slow_trap_faults, s.fast_trap_faults
            ),
        );
    }
    bad
}
