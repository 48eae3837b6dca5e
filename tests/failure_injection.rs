//! Failure-injection tests: the policy must degrade gracefully when the
//! machine is hostile — a slow tier too small for the cold data, a fast
//! tier too full to take promotions, THP disabled, and OS noise flushing
//! the TLB.

use thermostat_suite::core::{Daemon, ThermostatConfig};
use thermostat_suite::mem::{PageSize, Tier, VirtAddr};
use thermostat_suite::sim::{
    run_for, Access, Component, Control, Engine, FabricConfig, OpOutcome, PlanOp, PolicyPlan,
    SchedError, Scheduler, SimConfig, Workload,
};

/// 90% of traffic on the first page, the rest uniform over the first
/// quarter; the remaining three quarters are load-time-only data.
struct ColdHeavy {
    base: VirtAddr,
    n_huge: u64,
    rng: thermo_util::rng::SmallRng,
}

impl ColdHeavy {
    fn new(n_huge: u64) -> Self {
        use thermo_util::rng::SeedableRng;
        Self {
            base: VirtAddr(0),
            n_huge,
            rng: thermo_util::rng::SmallRng::seed_from_u64(9),
        }
    }
}

impl Workload for ColdHeavy {
    fn name(&self) -> &str {
        "coldheavy"
    }

    fn init(&mut self, engine: &mut Engine) {
        self.base = engine.mmap(self.n_huge * (2 << 20), true, true, false, "heap");
        for p in 0..self.n_huge {
            engine.access(self.base + p * (2 << 20), true);
        }
    }

    fn next_op(&mut self, _now: u64, acc: &mut Vec<Access>) -> Option<u64> {
        use thermo_util::rng::Rng;
        let hot = self.rng.gen::<f64>() < 0.9;
        let page = if hot {
            0
        } else {
            self.rng.gen_range(0..self.n_huge / 4)
        };
        let off: u64 = self.rng.gen_range(0..(2u64 << 20)) & !63;
        acc.push(Access::read(self.base + page * (2 << 20) + off));
        Some(1_000)
    }
}

fn daemon() -> Daemon {
    Daemon::new(ThermostatConfig {
        sampling_period_ns: 300_000_000,
        sample_fraction: 0.4,
        ..ThermostatConfig::paper_defaults()
    })
}

#[test]
fn slow_tier_exhaustion_is_survived_and_counted() {
    // 24 huge pages of workload (48MB) but only ~8MB of slow memory: the
    // daemon must hit OOM on demotions, count it, and keep running.
    let mut cfg = SimConfig::paper_defaults(128 << 20, 8 << 20);
    cfg.tlb.l1_huge = thermostat_suite::vm::TlbGeometry::new(4, 4);
    cfg.tlb.l2 = thermostat_suite::vm::TlbGeometry::new(16, 8);
    let mut engine = Engine::new(cfg);
    let mut w = ColdHeavy::new(24);
    w.init(&mut engine);
    let mut d = daemon();
    run_for(&mut engine, &mut w, &mut d, 4_000_000_000);
    // The slow tier (8MB = 4 huge pages, minus rounding) filled up…
    assert!(d.cold_pages() >= 2, "some pages must have been placed");
    assert!(
        engine.free_bytes(Tier::Slow) < 2 << 20,
        "slow tier should be full"
    );
    // …further demotions failed and were counted, not fatal.
    assert!(d.stats().demote_oom > 0, "OOM demotions must be recorded");
    // The engine stayed consistent throughout.
    assert_eq!(engine.footprint_breakdown().total(), engine.rss_bytes());
}

#[test]
fn thp_disabled_engine_runs_thermostat_with_nothing_to_do() {
    // With THP off there are no huge pages at all; Thermostat finds no
    // sampling candidates and must idle harmlessly.
    let mut cfg = SimConfig::paper_defaults(64 << 20, 64 << 20);
    cfg.thp_enabled = false;
    let mut engine = Engine::new(cfg);
    let mut w = ColdHeavy::new(8);
    w.init(&mut engine);
    assert_eq!(engine.page_table().mapped_huge_pages(), 0);
    let mut d = daemon();
    run_for(&mut engine, &mut w, &mut d, 2_000_000_000);
    assert!(d.stats().periods > 0, "daemon still ticks");
    assert_eq!(
        d.stats().pages_demoted,
        0,
        "no huge pages, nothing to place"
    );
    assert_eq!(engine.footprint_breakdown().cold(), 0);
}

#[test]
fn os_noise_tlb_flushes_do_not_break_monitoring() {
    let mut cfg = SimConfig::paper_defaults(128 << 20, 128 << 20);
    cfg.tlb_flush_period_ns = Some(500_000); // violent flushing
    let mut engine = Engine::new(cfg);
    let mut w = ColdHeavy::new(16);
    w.init(&mut engine);
    let mut d = daemon();
    run_for(&mut engine, &mut w, &mut d, 3_000_000_000);
    assert!(d.stats().periods >= 8);
    assert!(
        d.cold_pages() > 0,
        "flushing makes pages look colder, never breaks placement"
    );
    assert_eq!(engine.footprint_breakdown().total(), engine.rss_bytes());
}

#[test]
fn zero_length_run_is_a_noop() {
    let mut engine = Engine::new(SimConfig::paper_defaults(64 << 20, 64 << 20));
    let mut w = ColdHeavy::new(4);
    w.init(&mut engine);
    let rss = engine.rss_bytes();
    let mut d = daemon();
    let out = run_for(&mut engine, &mut w, &mut d, 0);
    assert_eq!(out.ops, 0);
    assert_eq!(engine.rss_bytes(), rss);
}

/// Builds a fabric-enabled engine with `n_huge` touched huge pages.
fn fabric_engine(fast: u64, slow: u64, bw: u64, n_huge: u64) -> (Engine, VirtAddr) {
    let mut cfg = SimConfig::paper_defaults(fast, slow);
    cfg.fabric = FabricConfig {
        enabled: true,
        link_bandwidth_bytes_per_sec: bw,
        ..FabricConfig::default()
    };
    let mut engine = Engine::new(cfg);
    let base = engine.mmap(n_huge * (2 << 20), true, true, false, "heap");
    for p in 0..n_huge {
        engine.access(base + p * (2 << 20), true);
    }
    (engine, base)
}

fn one_op(engine: &mut Engine, op: PlanOp) -> OpOutcome {
    let mut plan = PolicyPlan::new();
    plan.push(op);
    engine.apply_plan(&plan).outcomes()[0].clone()
}

#[test]
fn mid_transaction_poison_aborts_cleanly() {
    // Poisoning a page while its demotion copy is in flight structurally
    // invalidates the transaction; the later commit must resolve it as a
    // clean abort receipt, never a panic or a half-migrated page.
    let (mut engine, base) = fabric_engine(64 << 20, 64 << 20, 100_000_000, 4);
    let vpn = base.vpn();
    let OpOutcome::Begun(txn) = one_op(
        &mut engine,
        PlanOp::BeginMigrate {
            vpn,
            target: Tier::Slow,
        },
    ) else {
        panic!("BeginMigrate must return Begun");
    };
    // Let the copy make partial progress (2MB at 100MB/s needs 20ms).
    engine.advance_compute(1_000_000);
    assert_eq!(engine.fabric().in_flight(), 1);
    // A concurrent structural action lands on the page mid-copy.
    one_op(
        &mut engine,
        PlanOp::Poison {
            vpn,
            size: PageSize::Huge2M,
        },
    );
    engine.advance_compute(1_000_000);
    assert_eq!(
        one_op(&mut engine, PlanOp::CommitMigrate { txn }),
        OpOutcome::AbortedTxn,
        "invalidated transaction must resolve as an abort"
    );
    let stats = engine.fabric_stats();
    assert_eq!(stats.invalidated, 1);
    assert_eq!(stats.aborted, 1);
    assert_eq!(stats.committed, 0);
    assert_eq!(engine.fabric().in_flight(), 0);
    assert_eq!(
        engine.tier_of_vpn(vpn),
        Some(Tier::Fast),
        "page never moved"
    );
    assert_eq!(engine.footprint_breakdown().total(), engine.rss_bytes());
}

#[test]
fn oom_during_commit_migrate_is_a_clean_abort() {
    // The copy finishes, but by commit time the slow tier cannot hold the
    // page (1MB tier, 2MB page): the commit must surface the OOM as an
    // abort receipt and leave the page fast, with the books intact.
    let (mut engine, base) = fabric_engine(64 << 20, 1 << 20, 10_000_000_000, 2);
    let vpn = base.vpn();
    let free_slow_before = engine.free_bytes(Tier::Slow);
    let OpOutcome::Begun(txn) = one_op(
        &mut engine,
        PlanOp::BeginMigrate {
            vpn,
            target: Tier::Slow,
        },
    ) else {
        panic!("BeginMigrate must return Begun");
    };
    // 2MB at 10GB/s copies in ~200µs of virtual time.
    engine.advance_compute(1_000_000);
    assert_eq!(
        one_op(&mut engine, PlanOp::CommitMigrate { txn }),
        OpOutcome::DemoteOom,
        "commit into a full slow tier must report OOM, not panic"
    );
    let stats = engine.fabric_stats();
    assert_eq!(stats.aborted, 1);
    assert_eq!(stats.committed, 0);
    assert_eq!(engine.fabric().in_flight(), 0);
    assert_eq!(
        engine.tier_of_vpn(vpn),
        Some(Tier::Fast),
        "page stayed fast"
    );
    assert_eq!(engine.free_bytes(Tier::Slow), free_slow_before);
    assert_eq!(engine.footprint_breakdown().total(), engine.rss_bytes());
}

/// Ticks every `period_ns` until `deadline_ns`, counting ticks, then
/// parks its whole group — the shape of a tenant app component.
struct Pacer {
    now_ns: u64,
    period_ns: u64,
    deadline_ns: u64,
    ticks: std::rc::Rc<std::cell::Cell<u64>>,
}

impl Component for Pacer {
    fn next_tick_ns(&self) -> u64 {
        self.now_ns + self.period_ns
    }

    fn tick(&mut self, _horizon: u64) -> Control {
        self.now_ns += self.period_ns;
        self.ticks.set(self.ticks.get() + 1);
        if self.now_ns >= self.deadline_ns {
            Control::ParkGroup
        } else {
            Control::Continue
        }
    }

    fn label(&self) -> String {
        "pacer".into()
    }
}

/// Panics at `at_ns` — an injected component fault.
struct Poisoned {
    at_ns: u64,
    message: &'static str,
}

impl Component for Poisoned {
    fn next_tick_ns(&self) -> u64 {
        self.at_ns
    }

    fn tick(&mut self, _horizon: u64) -> Control {
        panic!("{}", self.message);
    }

    fn label(&self) -> String {
        "poisoned".into()
    }
}

#[test]
fn poisoned_component_parks_its_group_and_drains_the_rest() {
    // Mirrors thermo-exec's panic contract on the event loop: a panicking
    // component kills only its own group, every healthy group runs to its
    // deadline, and the error names the lowest panicking component id.
    use std::cell::Cell;
    use std::rc::Rc;

    let ms = 1_000_000u64;
    let mut sched = Scheduler::new();
    let healthy = Rc::new(Cell::new(0u64));
    let sibling = Rc::new(Cell::new(0u64));

    // id 0, group 0: a healthy tenant running to a 10ms deadline.
    sched.add(
        4,
        0,
        true,
        Box::new(Pacer {
            now_ns: 0,
            period_ns: ms,
            deadline_ns: 10 * ms,
            ticks: Rc::clone(&healthy),
        }),
    );
    // id 1, group 1: panics at 2ms…
    sched.add(
        4,
        1,
        true,
        Box::new(Poisoned {
            at_ns: 2 * ms,
            message: "injected fault in tenant 1",
        }),
    );
    // …id 2, group 1: its sibling daemon (class 2 runs before class 4 at
    // equal times, so it sees exactly the 1ms and 2ms ticks).
    sched.add(
        2,
        1,
        false,
        Box::new(Pacer {
            now_ns: 0,
            period_ns: ms,
            deadline_ns: 10 * ms,
            ticks: Rc::clone(&sibling),
        }),
    );
    // id 3, group 2: a second, later fault — the error must still report
    // the lowest id.
    sched.add(
        4,
        2,
        true,
        Box::new(Poisoned {
            at_ns: 5 * ms,
            message: "injected fault in tenant 2",
        }),
    );

    let err = sched.run().expect_err("injected faults must surface");
    let SchedError::ComponentPanicked {
        component_id,
        group,
        label,
        message,
    } = err;
    assert_eq!(component_id, 1, "lowest panicking id wins");
    assert_eq!(group, 1);
    assert_eq!(label, "poisoned");
    assert!(
        message.contains("injected fault in tenant 1"),
        "panic payload must be captured, got: {message}"
    );
    // The healthy group drained to its full deadline despite both faults.
    assert_eq!(healthy.get(), 10, "healthy tenant must run to completion");
    // The sibling died with its group: ticks at 1ms and 2ms, nothing after.
    assert_eq!(sibling.get(), 2, "poisoned group must park atomically");
}

/// [`ColdHeavy`] that panics in `next_op` once virtual time reaches
/// `panic_at_ns`, and records its start and last op time.
struct Faulty {
    inner: ColdHeavy,
    panic_at_ns: u64,
    start_ns: std::rc::Rc<std::cell::Cell<u64>>,
    last_ns: std::rc::Rc<std::cell::Cell<u64>>,
}

impl Workload for Faulty {
    fn name(&self) -> &str {
        "faulty"
    }

    fn init(&mut self, engine: &mut Engine) {
        self.inner.init(engine);
        self.start_ns.set(engine.now_ns());
    }

    fn next_op(&mut self, now: u64, acc: &mut Vec<Access>) -> Option<u64> {
        self.last_ns.set(now);
        assert!(now < self.panic_at_ns, "injected fault at {now} ns");
        self.inner.next_op(now, acc).map(|_| 20_000)
    }
}

#[test]
fn coscheduled_panics_report_the_lowest_global_id_and_drain_the_rest() {
    // Four tenants on one arbitrated pool. Each registers daemon,
    // reporter and app (ids 3t, 3t+1, 3t+2); the arbiter is id 12.
    // Tenant 3 faults first in virtual time, tenant 1 later: the error
    // must still name tenant 1's app, by its global id.
    use std::cell::Cell;
    use std::rc::Rc;

    let ms = 1_000_000u64;
    let duration_ns = 400 * ms;
    let panic_at = [u64::MAX, 250 * ms, u64::MAX, 120 * ms];
    let start: Vec<Rc<Cell<u64>>> = (0..4).map(|_| Rc::new(Cell::new(0))).collect();
    let last: Vec<Rc<Cell<u64>>> = (0..4).map(|_| Rc::new(Cell::new(0))).collect();

    let err = thermostat_suite::sim::run_tenants_coscheduled(4, duration_ns, 7, None, |t, _| {
        let t = t as usize;
        let mut cfg = SimConfig::paper_defaults(64 << 20, 64 << 20);
        cfg.sched.shared_pool_bytes = 64 << 20;
        cfg.sched.initial_grant_bytes = 16 << 20;
        let workload = Faulty {
            inner: ColdHeavy::new(8),
            panic_at_ns: panic_at[t],
            start_ns: Rc::clone(&start[t]),
            last_ns: Rc::clone(&last[t]),
        };
        (Engine::new(cfg), Box::new(workload), Box::new(daemon()))
    })
    .err()
    .expect("injected faults must surface");

    let SchedError::ComponentPanicked {
        component_id,
        group,
        label,
        message,
    } = err;
    assert_eq!(component_id, 5, "tenant 1's app: the lowest global id");
    assert_eq!(group, 1);
    assert_eq!(label, "app:faulty");
    assert!(
        message.contains("injected fault"),
        "panic payload must be captured, got: {message}"
    );
    for t in 0..4 {
        let (start, last) = (start[t].get(), last[t].get());
        if panic_at[t] == u64::MAX {
            // A healthy tenant's last op starts within one op of its deadline.
            assert!(
                last < start + duration_ns && last + ms >= start + duration_ns,
                "tenant {t} must drain to its deadline (start {start}, last op {last})"
            );
        } else {
            // A faulty tenant stops at its first op past the fault time.
            assert!(
                last >= panic_at[t] && last < panic_at[t] + ms,
                "tenant {t} must stop at its fault (last op {last})"
            );
        }
    }
}

#[test]
fn config_serde_roundtrips() {
    // The public configuration types are data (C-SERDE): they must survive
    // a JSON roundtrip unchanged.
    let sim = SimConfig::paper_defaults(1 << 30, 2 << 30);
    let j = thermo_util::json::encode(&sim);
    let back: SimConfig = thermo_util::json::decode(&j).expect("deserialize SimConfig");
    assert_eq!(sim, back);

    let th = ThermostatConfig::paper_defaults();
    let j = thermo_util::json::encode(&th);
    let back: ThermostatConfig =
        thermo_util::json::decode(&j).expect("deserialize ThermostatConfig");
    assert_eq!(th, back);
}
