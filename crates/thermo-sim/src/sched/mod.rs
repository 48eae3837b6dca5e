//! The co-scheduled multi-tenant engine (DESIGN.md §13).
//!
//! [`Scheduler`] is a discrete-event loop over heterogeneous
//! [`Component`]s — tenant applications, policy daemons,
//! migration-fabric pumps and slowdown reporters — popping a min-heap of
//! `(next_tick, class, component_id)` events. The `class` is a fixed
//! phase priority (reporter < daemon < fabric < app) and
//! `component_id` breaks the remaining ties, so runs are bit-for-bit
//! deterministic. [`Scheduler::run_until`] stops short of a time limit,
//! so a caller can interleave its own events at barriers.
//!
//! Each [`Component::tick`] gets a **horizon**: for an event popped alone,
//! the earlier of the limit and the next key left on the heap; for a
//! same-key batch, the batch's own time (one step each). The tenant app
//! runs ahead through every op that starts before its horizon, so one
//! event covers a run of ops instead of one. That is exact: an app op
//! cannot move another component's key, stale heap keys are only ever
//! earlier than fresh ones, and stopping at `now >= horizon` leaves a
//! daemon keyed exactly at the horizon to run first, as its class says.
//!
//! [`run_tenants_coscheduled`] runs **tenant-major**: each tenant's
//! components live in that tenant's own `Scheduler`, and the fast-tier
//! [`crate::arbiter::Arbiter`] is ticked by a barrier loop. Before the
//! arbiter's tick at `T`, every tenant is advanced through its events
//! with time `< T`; with arbitration off there are no barriers and each
//! tenant runs straight to its deadline. Every tenant sees exactly the
//! event sequence one global heap over all components would give it:
//! tenants share state only through the tenant-keyed [`Mailbox`] and the
//! arbiter's decisions, and the arbiter ran first at its instant (class
//! 0) on the global heap too. A tenant then runs hundreds of ops without a
//! switch, so its engine state stays in the host cache.
//!
//! Two properties are load-bearing and tested:
//!
//! * **Charge-neutrality** — with arbitration off, a co-scheduled
//!   multi-tenant run reproduces [`crate::runner::run_tenants_sharded`]
//!   byte-for-byte (`tests/sched_equivalence.rs`): the daemon-before-app
//!   ordering at equal times mirrors `run_for`'s
//!   `while policy.next_due_ns() <= engine.now_ns()` loop, and a daemon
//!   whose tenant is past its deadline parks without firing, exactly as
//!   `run_for` exits without a final policy tick.
//! * **Order-independence between barriers** — the order in which
//!   tenants are advanced through one barrier interval must be
//!   unobservable (tenants own disjoint engines; reports reach the
//!   arbiter only through the ordered [`Mailbox`] at the next barrier).
//!   The `THERMO_SCHED_FUZZ=<seed>` knob permutes that order in every
//!   interval under a seeded RNG; `tests/sched_fuzz.rs` asserts
//!   artifacts are invariant.

mod decide;

use crate::arbiter::{Arbiter, ArbiterConfig, ArbiterEvent, DecisionKind, TenantReport};
use crate::engine::{Engine, PressureStats};
use crate::runner::{PolicyHook, RunOutcome, ShardOutcome};
use crate::stats::EngineStats;
use crate::workload::{Access, Workload};
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use thermo_util::rng::{SeedableRng, SmallRng};

/// Phase priority of per-tenant slowdown reporters.
pub const CLASS_REPORTER: u8 = 1;
/// Phase priority of policy daemons (before the app at equal times, the
/// `run_for` interleaving).
pub const CLASS_DAEMON: u8 = 2;
/// Phase priority of migration-fabric pumps.
pub const CLASS_FABRIC: u8 = 3;
/// Phase priority of tenant applications (last at equal times).
pub const CLASS_APP: u8 = 4;

/// Group id used by components outside any tenant (the arbiter).
pub const GROUP_GLOBAL: u32 = u32::MAX;

/// One schedulable unit on a virtual timeline.
///
/// Implementations must be pure in their own state plus explicitly
/// shared simulation state (`Rc<RefCell<Engine>>`, mailboxes): no wall
/// clocks, no ambient ordering, no unseeded randomness — enforced by
/// thermo-lint's `sched_purity` check.
pub trait Component {
    /// Next virtual time this component wants to run (`u64::MAX` =
    /// never; the scheduler drops it until re-registered).
    fn next_tick_ns(&self) -> u64;

    /// Runs one step at its scheduled time and says what to do next.
    ///
    /// No other event of this scheduler is due before `horizon`, so a
    /// component whose steps cannot move another component's key may keep
    /// stepping while its own next time stays `< horizon` (the app's
    /// run-ahead, DESIGN.md §13). It must stop at the first step that
    /// reaches `horizon`; `horizon` equal to the scheduled time means
    /// exactly one step.
    fn tick(&mut self, horizon: u64) -> Control;

    /// Label used in error messages and traces.
    fn label(&self) -> String {
        "component".into()
    }
}

/// What a [`Component::tick`] wants the scheduler to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Reschedule at the component's new `next_tick_ns`.
    Continue,
    /// Stop scheduling this component.
    Park,
    /// Stop scheduling every component in this component's group (a
    /// tenant finished: its daemon/reporter/pump stop with it).
    ParkGroup,
}

/// Scheduler failure: a component panicked mid-tick.
///
/// Mirrors `thermo_exec::ExecError`'s contract: the event loop drains
/// cleanly (the poisoned group parks, every other group runs to
/// completion) and the **lowest** panicking component id is reported.
#[derive(Debug)]
pub enum SchedError {
    /// A component's `tick` panicked.
    ComponentPanicked {
        /// Id of the panicking component (lowest, if several panicked).
        component_id: u32,
        /// Group (tenant) the component belonged to.
        group: u32,
        /// The component's label.
        label: String,
        /// The captured panic message.
        message: String,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ComponentPanicked {
                component_id,
                group,
                label,
                message,
            } => write!(
                f,
                "component {component_id} ({label}, group {group}) panicked: {message}"
            ),
        }
    }
}

impl std::error::Error for SchedError {}

/// Reads the ordering-fuzz seed from `THERMO_SCHED_FUZZ` (unset or
/// unparsable = no fuzzing — the production configuration).
pub fn fuzz_seed_from_env() -> Option<u64> {
    std::env::var("THERMO_SCHED_FUZZ")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
}

struct Slot {
    comp: Box<dyn Component>,
    class: u8,
    group: u32,
    parked: bool,
    essential: bool,
}

/// The discrete-event loop: a min-heap of `(next_tick, class, id)` over
/// registered [`Component`]s. See the module docs for ordering and
/// determinism rules.
#[derive(Default)]
pub struct Scheduler {
    slots: Vec<Slot>,
    heap: BinaryHeap<Reverse<(u64, u8, u32)>>,
    panics: Vec<(u32, u32, String, String)>,
    /// Scratch for the same-(time, class) batch, reused across events so
    /// the event loop allocates nothing in steady state.
    batch: Vec<u32>,
    /// Count of essential, unparked components — maintained on every
    /// park transition so the loop condition is O(1) per event instead of
    /// a slot scan.
    live_essentials: usize,
}

impl Scheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a component and returns its id (registration order).
    /// `essential` components keep the loop alive: [`Scheduler::run`]
    /// returns once every essential component is parked. The first event
    /// is keyed here; like every later key, it may only move later.
    pub fn add(&mut self, class: u8, group: u32, essential: bool, comp: Box<dyn Component>) -> u32 {
        let id = u32::try_from(self.slots.len()).expect("component id overflow");
        let t = comp.next_tick_ns();
        if t != u64::MAX {
            self.heap.push(Reverse((t, class, id)));
        }
        self.slots.push(Slot {
            comp,
            class,
            group,
            parked: false,
            essential,
        });
        if essential {
            self.live_essentials += 1;
        }
        id
    }

    fn park_group(&mut self, group: u32) {
        for slot in &mut self.slots {
            if slot.group == group && !slot.parked {
                slot.parked = true;
                if slot.essential {
                    self.live_essentials -= 1;
                }
            }
        }
    }

    fn park_one(&mut self, id: u32) {
        let slot = &mut self.slots[id as usize];
        if !slot.parked {
            slot.parked = true;
            if slot.essential {
                self.live_essentials -= 1;
            }
        }
    }

    fn live_essential(&self) -> usize {
        debug_assert_eq!(
            self.live_essentials,
            self.slots
                .iter()
                .filter(|s| s.essential && !s.parked)
                .count()
        );
        self.live_essentials
    }

    /// Pops entries while the top key passes `accept`, until one is
    /// *current* (component unparked and its `next_tick_ns` still equals
    /// the popped key); stale entries are re-pushed with their fresh key.
    /// Returns `None` once the top key fails `accept` or the heap is empty.
    fn pop_current(&mut self, accept: impl Fn(u64, u8) -> bool) -> Option<(u64, u8, u32)> {
        while let Some(&Reverse((t, c, id))) = self.heap.peek() {
            if !accept(t, c) {
                return None;
            }
            self.heap.pop();
            let slot = &self.slots[id as usize];
            if slot.parked {
                continue;
            }
            let cur = slot.comp.next_tick_ns();
            if cur == t {
                return Some((t, c, id));
            }
            if cur != u64::MAX {
                self.heap.push(Reverse((cur, slot.class, id)));
            }
        }
        None
    }

    /// Runs every event with time `< limit`, then returns whether an
    /// essential component is still live. An event at or past `limit`
    /// stays queued for the next call.
    pub fn run_until(&mut self, limit: u64) -> bool {
        while self.live_essential() > 0 {
            let Some((t, c, first)) = self.pop_current(|t, _| t < limit) else {
                break;
            };
            // Collect the whole same-(time, class) batch and run it in id
            // order, so each member ticks once before any member re-runs
            // at the same key.
            let mut batch = std::mem::take(&mut self.batch);
            batch.clear();
            batch.push(first);
            while let Some((_, _, id)) = self.pop_current(|t2, c2| (t2, c2) == (t, c)) {
                batch.push(id);
            }
            batch.sort_unstable();
            batch.dedup();
            // A lone event may run ahead up to the next queued key (a
            // stale key is only ever earlier than the fresh one, so this
            // is conservative) or the limit; a same-key batch steps once.
            let horizon = if batch.len() == 1 {
                self.heap
                    .peek()
                    .map_or(limit, |&Reverse((next, _, _))| next.min(limit))
            } else {
                t
            };
            for &id in &batch {
                self.run_one(t, id, horizon);
            }
            self.batch = batch;
        }
        self.live_essential() > 0
    }

    /// Runs the event loop to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::ComponentPanicked`] for the lowest-id
    /// panicking component; the loop still drains every healthy group
    /// first, mirroring `thermo-exec`'s panic contract.
    pub fn run(&mut self) -> Result<(), SchedError> {
        self.run_until(u64::MAX);
        self.first_panic().map_or(Ok(()), Err)
    }

    /// The lowest-id panic caught so far, if any.
    fn first_panic(&self) -> Option<SchedError> {
        let (component_id, group, label, message) =
            self.panics.iter().min_by_key(|p| p.0).cloned()?;
        Some(SchedError::ComponentPanicked {
            component_id,
            group,
            label,
            message,
        })
    }

    fn run_one(&mut self, t: u64, id: u32, horizon: u64) {
        let slot = &mut self.slots[id as usize];
        // An earlier batch member may have parked this group or (in
        // principle) perturbed this component's schedule; re-validate.
        if slot.parked {
            return;
        }
        let cur = slot.comp.next_tick_ns();
        if cur != t {
            if cur != u64::MAX {
                self.heap.push(Reverse((cur, slot.class, id)));
            }
            return;
        }
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| slot.comp.tick(horizon)));
        match result {
            Ok(Control::Continue) => {
                let next = slot.comp.next_tick_ns();
                if next != u64::MAX {
                    self.heap.push(Reverse((next, slot.class, id)));
                }
            }
            Ok(Control::Park) => self.park_one(id),
            Ok(Control::ParkGroup) => {
                let group = slot.group;
                self.park_group(group);
            }
            Err(payload) => {
                let message = panic_message(payload);
                let group = slot.group;
                let label = slot.comp.label();
                self.panics.push((id, group, label, message));
                self.park_group(group);
            }
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

// ---------------------------------------------------------------------
// Co-scheduled multi-tenant configuration
// ---------------------------------------------------------------------

/// Per-tenant knobs for the co-scheduled path, carried in
/// [`crate::config::SimConfig::sched`]. Everything defaults off: the
/// sharded path runs and all pre-existing goldens are byte-identical.
///
/// Pool-global fields (`shared_pool_bytes`, `rebalance_period_ns`,
/// `grant_quantum_bytes`, `max_defer_rounds`) are read from **tenant
/// 0's** config; per-tenant fields (`initial_grant_bytes`, `slo_pct`,
/// `report_period_ns`) from each tenant's own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedConfig {
    /// Route `run_tenants_sharded` through the discrete-event scheduler.
    pub coscheduled: bool,
    /// Size of the shared fast-tier pool arbitrated across tenants;
    /// 0 = arbitration off (fixed budgets, the charge-neutral mode).
    pub shared_pool_bytes: u64,
    /// This tenant's starting capacity grant (shared mode only).
    pub initial_grant_bytes: u64,
    /// This tenant's tolerable-slowdown SLO, percent (§4.3).
    pub slo_pct: f64,
    /// Period between this tenant's slowdown reports, ns.
    pub report_period_ns: u64,
    /// Period between arbiter rebalances, ns.
    pub rebalance_period_ns: u64,
    /// Bytes moved per grant decision.
    pub grant_quantum_bytes: u64,
    /// Rebalance rounds a grant may be deferred for fabric congestion.
    pub max_defer_rounds: u32,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            coscheduled: false,
            shared_pool_bytes: 0,
            initial_grant_bytes: 0,
            slo_pct: 3.0,
            report_period_ns: 50_000_000,
            rebalance_period_ns: 100_000_000,
            grant_quantum_bytes: 8 << 20,
            max_defer_rounds: 3,
        }
    }
}

thermo_util::json_struct!(SchedConfig {
    coscheduled,
    shared_pool_bytes,
    initial_grant_bytes,
    slo_pct,
    report_period_ns,
    rebalance_period_ns,
    grant_quantum_bytes,
    max_defer_rounds,
});

// ---------------------------------------------------------------------
// Component adapters
// ---------------------------------------------------------------------

/// Cross-component post box: reporters insert, the arbiter consumes.
/// Keyed by tenant id so insertion *order* is unobservable — a fuzzed
/// tenant order leaves identical mailbox state.
#[derive(Default)]
struct Mailbox {
    reports: std::collections::BTreeMap<u32, TenantReport>,
}

/// A tenant application: replays `run_for`'s op loop, running ahead
/// through every op that starts before the scheduler's horizon.
struct AppComponent {
    engine: Rc<RefCell<Engine>>,
    workload: Box<dyn Workload>,
    deadline_ns: u64,
    ops: Rc<Cell<u64>>,
    accesses: Vec<Access>,
    done: bool,
}

impl Component for AppComponent {
    fn next_tick_ns(&self) -> u64 {
        if self.done {
            u64::MAX
        } else {
            self.engine.borrow().now_ns()
        }
    }

    fn tick(&mut self, horizon: u64) -> Control {
        let mut engine = self.engine.borrow_mut();
        let mut ops = 0u64;
        let control = loop {
            if engine.now_ns() >= self.deadline_ns {
                self.done = true;
                break Control::ParkGroup;
            }
            self.accesses.clear();
            let Some(compute_ns) = self.workload.next_op(engine.now_ns(), &mut self.accesses)
            else {
                self.done = true;
                break Control::ParkGroup;
            };
            for a in &self.accesses {
                engine.access(a.va, a.write);
            }
            engine.advance_compute(compute_ns);
            ops += 1;
            if engine.now_ns() >= horizon {
                break Control::Continue;
            }
        };
        self.ops.set(self.ops.get() + ops);
        control
    }

    fn label(&self) -> String {
        format!("app:{}", self.workload.name())
    }
}

/// A policy daemon as a component: fires at `next_due_ns`, exactly like
/// `run_for`'s inner `while` — including *not* firing once the tenant is
/// past its deadline (charge-neutrality).
struct DaemonComponent {
    engine: Rc<RefCell<Engine>>,
    policy: Box<dyn PolicyHook>,
    deadline_ns: u64,
}

impl Component for DaemonComponent {
    fn next_tick_ns(&self) -> u64 {
        self.policy.next_due_ns()
    }

    fn tick(&mut self, _horizon: u64) -> Control {
        let mut engine = self.engine.borrow_mut();
        if engine.now_ns() >= self.deadline_ns {
            // run_for exits its loop before firing a policy due at or
            // past the deadline; park instead of ticking.
            return Control::Park;
        }
        self.policy.tick(&mut engine);
        Control::Continue
    }

    fn label(&self) -> String {
        format!("daemon:{}", self.policy.policy_name())
    }
}

/// Pumps a tenant's migration fabric while the app is between ops, so
/// in-flight copies drain on the virtual clock even during long compute
/// gaps.
struct FabricPump {
    engine: Rc<RefCell<Engine>>,
    next_ns: u64,
    period_ns: u64,
}

impl Component for FabricPump {
    fn next_tick_ns(&self) -> u64 {
        self.next_ns
    }

    fn tick(&mut self, _horizon: u64) -> Control {
        self.engine.borrow_mut().pump_fabric();
        self.next_ns += self.period_ns;
        Control::Continue
    }

    fn label(&self) -> String {
        "fabric-pump".into()
    }
}

/// Periodically estimates a tenant's slowdown from engine-counter deltas
/// (the paper's §4.3 machinery) and posts a [`TenantReport`] to the
/// mailbox.
struct ReporterComponent {
    engine: Rc<RefCell<Engine>>,
    mailbox: Rc<RefCell<Mailbox>>,
    tenant: u32,
    next_ns: u64,
    period_ns: u64,
    prev: EngineStats,
}

impl Component for ReporterComponent {
    fn next_tick_ns(&self) -> u64 {
        self.next_ns
    }

    fn tick(&mut self, _horizon: u64) -> Control {
        let engine = self.engine.borrow();
        let stats = engine.stats();
        let fault_ns = engine.config().trap.fault_latency_ns;
        let report = TenantReport {
            slowdown_pct: stats.estimated_slowdown_pct(&self.prev, fault_ns),
            used_fast_bytes: engine.used_bytes(thermo_mem::Tier::Fast),
            cold_fast_bytes: engine.fast_idle_bytes(),
            reserved_bytes: engine.fabric().in_flight_bytes(),
            displaced_bytes: engine.displaced_bytes(),
            fabric_congested: engine.fabric().busy(),
        };
        self.prev = stats;
        drop(engine);
        self.mailbox
            .borrow_mut()
            .reports
            .insert(self.tenant, report);
        self.next_ns += self.period_ns;
        Control::Continue
    }

    fn label(&self) -> String {
        format!("reporter:{}", self.tenant)
    }
}

/// The arbiter on the barrier loop: consumes mailbox reports (all
/// strictly earlier on the timeline — every tenant was advanced to just
/// before `next_ns`), runs one rebalance, and applies the decisions to
/// the tenant engines.
struct PoolArbiter {
    arbiter: Arbiter,
    next_ns: u64,
    period_ns: u64,
    trace: Vec<ArbiterEvent>,
}

impl PoolArbiter {
    fn tick(&mut self, engines: &[Rc<RefCell<Engine>>], mailbox: &RefCell<Mailbox>) {
        let mut slowdowns: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
        {
            let mut mb = mailbox.borrow_mut();
            for (&tenant, report) in &mb.reports {
                self.arbiter.report(tenant, *report);
                slowdowns.insert(tenant, report.slowdown_pct);
            }
            mb.reports.clear();
        }
        let decisions = self.arbiter.rebalance();
        for d in decisions {
            let mut engine = engines[d.tenant as usize].borrow_mut();
            let action = match d.kind {
                DecisionKind::Reclaim => {
                    // Demote cold capacity first, then lower the cap; the
                    // engine skips pages a fabric transaction holds.
                    engine.reclaim_fast_cold(d.bytes);
                    engine.set_fast_cap_bytes(Some(d.grant_after));
                    "reclaim"
                }
                DecisionKind::Grant => {
                    engine.set_fast_cap_bytes(Some(d.grant_after));
                    engine.promote_displaced(d.bytes);
                    "grant"
                }
                DecisionKind::Defer => "defer",
            };
            let slowdown = slowdowns.get(&d.tenant).copied().unwrap_or(0.0);
            self.trace.push(ArbiterEvent {
                at_ns: self.next_ns,
                tenant: u64::from(d.tenant),
                action: action.to_string(),
                bytes: d.bytes,
                grant_after_bytes: d.grant_after,
                slowdown_centi_pct: (slowdown * 100.0) as u64,
            });
        }
        self.next_ns += self.period_ns;
    }
}

// ---------------------------------------------------------------------
// The co-scheduled multi-tenant runner
// ---------------------------------------------------------------------

/// Everything a co-scheduled multi-tenant run produced.
pub struct CoSchedOutcome {
    /// Per-tenant outcomes, identical in shape (and — with arbitration
    /// off — in bytes) to [`crate::runner::run_tenants_sharded`]'s.
    pub shards: Vec<ShardOutcome>,
    /// Per-tenant capacity-pressure counters (slow-tier demand-paging
    /// fallbacks, reclaimed/promoted bytes).
    pub pressure: Vec<PressureStats>,
    /// The applied arbitration events, in virtual-time order (empty with
    /// arbitration off).
    pub trace: Vec<ArbiterEvent>,
}

/// One tenant's private event loop plus what its outcome needs.
struct TenantRun {
    sched: Scheduler,
    /// Global id of this tenant's first component: tenants number their
    /// components consecutively in registration order, the arbiter last.
    first_id: u32,
    seed: u64,
    start_ns: u64,
    ops: Rc<Cell<u64>>,
}

/// Runs `n_tenants` on one virtual timeline (single-threaded;
/// determinism comes from the event order, not worker scheduling).
///
/// Tenant `t` is built from `(t, derive_stream_seed(base_seed, t))` —
/// the same derivation `thermo-exec` gives sharded jobs, so the two
/// paths see identical seeds. With `shared_pool_bytes == 0` in tenant
/// 0's [`SchedConfig`] the run is charge-neutral to the sharded path;
/// otherwise reporter components and the arbiter's barrier ticks
/// arbitrate the shared fast tier. `fuzz_seed` permutes the order
/// tenants are advanced within each barrier interval (see
/// [`fuzz_seed_from_env`]).
///
/// # Errors
///
/// Returns [`SchedError`] when any component panics (healthy tenants
/// drain first). The error names the lowest panicking component by its
/// global id: tenant components in registration order, the arbiter last.
pub fn run_tenants_coscheduled<F>(
    n_tenants: usize,
    duration_ns: u64,
    base_seed: u64,
    fuzz_seed: Option<u64>,
    build: F,
) -> Result<CoSchedOutcome, SchedError>
where
    F: Fn(u64, u64) -> (Engine, Box<dyn Workload>, Box<dyn PolicyHook>),
{
    let mailbox = Rc::new(RefCell::new(Mailbox::default()));
    let mut engines: Vec<Rc<RefCell<Engine>>> = Vec::with_capacity(n_tenants);
    let mut tenants: Vec<TenantRun> = Vec::with_capacity(n_tenants);
    let mut next_id = 0u32;
    let mut pool_cfg: Option<SchedConfig> = None;
    let mut arbiter: Option<Arbiter> = None;

    for t in 0..n_tenants {
        // thermo-lint: allow(rng_containment, reason = "co-scheduled tenants must receive the exact per-shard seeds the thermo-exec pool derives (sched_equivalence pins this)")
        let seed = thermo_util::rng::derive_stream_seed(base_seed, t as u64);
        let (mut engine, mut workload, policy) = build(t as u64, seed);
        let sched_cfg = engine.config().sched;
        let pool = *pool_cfg.get_or_insert(sched_cfg);
        let shared = pool.shared_pool_bytes > 0;
        if shared {
            engine.set_fast_cap_bytes(Some(sched_cfg.initial_grant_bytes));
            arbiter
                .get_or_insert_with(|| {
                    Arbiter::new(ArbiterConfig {
                        pool_bytes: pool.shared_pool_bytes,
                        grant_quantum_bytes: pool.grant_quantum_bytes,
                        max_defer_rounds: pool.max_defer_rounds,
                    })
                })
                .register(t as u32, sched_cfg.initial_grant_bytes, sched_cfg.slo_pct);
        }
        workload.init(&mut engine);
        let start_ns = engine.now_ns();
        let deadline_ns = start_ns.saturating_add(duration_ns);
        let fabric_enabled = engine.config().fabric.enabled;
        let prev = engine.stats();
        let engine = Rc::new(RefCell::new(engine));
        let ops = Rc::new(Cell::new(0u64));

        let mut sched = Scheduler::new();
        sched.add(
            CLASS_DAEMON,
            t as u32,
            false,
            Box::new(DaemonComponent {
                engine: Rc::clone(&engine),
                policy,
                deadline_ns,
            }),
        );
        if shared {
            sched.add(
                CLASS_REPORTER,
                t as u32,
                false,
                Box::new(ReporterComponent {
                    engine: Rc::clone(&engine),
                    mailbox: Rc::clone(&mailbox),
                    tenant: t as u32,
                    next_ns: start_ns + sched_cfg.report_period_ns,
                    period_ns: sched_cfg.report_period_ns,
                    prev,
                }),
            );
            if fabric_enabled {
                sched.add(
                    CLASS_FABRIC,
                    t as u32,
                    false,
                    Box::new(FabricPump {
                        engine: Rc::clone(&engine),
                        next_ns: start_ns + sched_cfg.report_period_ns,
                        period_ns: sched_cfg.report_period_ns,
                    }),
                );
            }
        }
        let last_id = sched.add(
            CLASS_APP,
            t as u32,
            true,
            Box::new(AppComponent {
                engine: Rc::clone(&engine),
                workload,
                deadline_ns,
                ops: Rc::clone(&ops),
                accesses: Vec::with_capacity(16),
                done: false,
            }),
        );
        engines.push(engine);
        tenants.push(TenantRun {
            sched,
            first_id: next_id,
            seed,
            start_ns,
            ops,
        });
        next_id += last_id + 1;
    }

    let mut pool = arbiter.map(|arbiter| {
        let period_ns = pool_cfg
            .expect("pool config set with arbiter")
            .rebalance_period_ns;
        PoolArbiter {
            arbiter,
            next_ns: period_ns,
            period_ns,
            trace: Vec::new(),
        }
    });
    let mut arbiter_panic = None;
    let mut fuzz = fuzz_seed.map(SmallRng::seed_from_u64);
    let mut live: Vec<usize> = (0..n_tenants).collect();

    // The barrier loop: advance every live tenant to just before the
    // arbiter's next tick, then tick it. A panicking arbiter stops
    // arbitrating; the tenants then run to their deadlines.
    loop {
        let barrier_ns = pool.as_ref().map_or(u64::MAX, |p| p.next_ns);
        if let Some(rng) = &mut fuzz {
            decide::permute_tenants(rng, &mut live);
        }
        live.retain(|&t| tenants[t].sched.run_until(barrier_ns));
        let Some(p) = pool.as_mut().filter(|_| !live.is_empty()) else {
            break;
        };
        let ticked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.tick(&engines, &mailbox);
        }));
        if let Err(payload) = ticked {
            arbiter_panic = Some(SchedError::ComponentPanicked {
                component_id: next_id,
                group: GROUP_GLOBAL,
                label: "arbiter".into(),
                message: panic_message(payload),
            });
            pool = None;
        }
    }

    // Tenants hold ids in ascending blocks, so the first tenant with a
    // panic holds the lowest panicking id; the arbiter's id is the highest.
    let first_panic = tenants.iter().find_map(|t| {
        let mut err = t.sched.first_panic()?;
        let SchedError::ComponentPanicked { component_id, .. } = &mut err;
        *component_id += t.first_id;
        Some(err)
    });
    if let Some(err) = first_panic.or(arbiter_panic) {
        return Err(err);
    }

    let mut shards = Vec::with_capacity(n_tenants);
    let mut pressure = Vec::with_capacity(n_tenants);
    for (t, tenant) in tenants.iter().enumerate() {
        let engine = engines[t].borrow();
        shards.push(ShardOutcome {
            shard_id: t as u64,
            seed: tenant.seed,
            outcome: RunOutcome {
                ops: tenant.ops.get(),
                start_ns: tenant.start_ns,
                end_ns: engine.now_ns(),
            },
            stats: engine.stats(),
            breakdown: engine.footprint_breakdown(),
        });
        pressure.push(engine.pressure_stats());
    }
    Ok(CoSchedOutcome {
        shards,
        pressure,
        trace: pool.map(|p| p.trace).unwrap_or_default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ticks at `times`, recording `(id, time)` into a shared log.
    struct Recorder {
        id: u32,
        times: Vec<u64>,
        at: usize,
        log: Rc<RefCell<Vec<(u32, u64)>>>,
    }

    impl Component for Recorder {
        fn next_tick_ns(&self) -> u64 {
            self.times.get(self.at).copied().unwrap_or(u64::MAX)
        }

        fn tick(&mut self, _horizon: u64) -> Control {
            let t = self.times[self.at];
            self.log.borrow_mut().push((self.id, t));
            self.at += 1;
            if self.at == self.times.len() {
                Control::Park
            } else {
                Control::Continue
            }
        }
    }

    /// Runs ahead like the app: one step every `step` ns from `now`,
    /// parking at `end`; logs each step as `(id, time)` and each tick's
    /// horizon.
    struct Stepper {
        id: u32,
        now: u64,
        step: u64,
        end: u64,
        log: Rc<RefCell<Vec<(u32, u64)>>>,
        horizons: Rc<RefCell<Vec<u64>>>,
    }

    impl Component for Stepper {
        fn next_tick_ns(&self) -> u64 {
            if self.now >= self.end {
                u64::MAX
            } else {
                self.now
            }
        }

        fn tick(&mut self, horizon: u64) -> Control {
            self.horizons.borrow_mut().push(horizon);
            loop {
                self.log.borrow_mut().push((self.id, self.now));
                self.now += self.step;
                if self.now >= self.end {
                    return Control::Park;
                }
                if self.now >= horizon {
                    return Control::Continue;
                }
            }
        }
    }

    type Log = Rc<RefCell<Vec<(u32, u64)>>>;

    /// Adds an app-class [`Stepper`] with id `id`, essential, in group `id`.
    fn stepper(
        s: &mut Scheduler,
        log: &Log,
        id: u32,
        now: u64,
        step: u64,
        end: u64,
    ) -> Rc<RefCell<Vec<u64>>> {
        let horizons = Rc::new(RefCell::new(Vec::new()));
        s.add(
            CLASS_APP,
            id,
            true,
            Box::new(Stepper {
                id,
                now,
                step,
                end,
                log: Rc::clone(log),
                horizons: Rc::clone(&horizons),
            }),
        );
        horizons
    }

    /// Adds a non-essential daemon-class [`Recorder`] with id `id`.
    fn daemon(s: &mut Scheduler, log: &Log, id: u32, times: &[u64]) {
        s.add(
            CLASS_DAEMON,
            id,
            false,
            Box::new(Recorder {
                id,
                times: times.to_vec(),
                at: 0,
                log: Rc::clone(log),
            }),
        );
    }

    #[test]
    fn run_ahead_stops_at_the_first_step_reaching_the_horizon() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut s = Scheduler::new();
        let horizons = stepper(&mut s, &log, 0, 0, 3, 15);
        daemon(&mut s, &log, 1, &[10]);
        s.run().unwrap();
        // Steps at 0, 3, 6 and 9 run in one tick; the step at 9 reaches
        // 12 >= 10, so the daemon fires before the app resumes at 12.
        assert_eq!(
            *log.borrow(),
            vec![(0, 0), (0, 3), (0, 6), (0, 9), (1, 10), (0, 12)]
        );
        assert_eq!(*horizons.borrow(), vec![10, u64::MAX]);
    }

    #[test]
    fn daemon_keyed_exactly_at_the_horizon_ticks_before_the_app_resumes() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut s = Scheduler::new();
        stepper(&mut s, &log, 0, 0, 5, 15);
        daemon(&mut s, &log, 1, &[10]);
        s.run().unwrap();
        // The app lands exactly on the daemon's key: at t=10 the daemon
        // (class 2) still goes first, as in a one-op-per-event loop.
        assert_eq!(*log.borrow(), vec![(0, 0), (0, 5), (1, 10), (0, 10)]);
    }

    #[test]
    fn same_key_batch_steps_once() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut s = Scheduler::new();
        let h0 = stepper(&mut s, &log, 0, 0, 2, 6);
        let h1 = stepper(&mut s, &log, 1, 0, 2, 6);
        s.run().unwrap();
        assert_eq!(
            *log.borrow(),
            vec![(0, 0), (1, 0), (0, 2), (1, 2), (0, 4), (1, 4)]
        );
        assert_eq!(*h0.borrow(), vec![0, 2, 4]);
        assert_eq!(*h1.borrow(), vec![0, 2, 4]);
    }

    #[test]
    fn barrier_limit_below_the_next_key_caps_the_run() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut s = Scheduler::new();
        let horizons = stepper(&mut s, &log, 0, 0, 3, 30);
        daemon(&mut s, &log, 1, &[100]);
        assert!(s.run_until(10));
        assert_eq!(*log.borrow(), vec![(0, 0), (0, 3), (0, 6), (0, 9)]);
        assert_eq!(*horizons.borrow(), vec![10]);
        assert!(!s.run_until(u64::MAX));
        assert_eq!(log.borrow().last(), Some(&(0, 27)));
        assert_eq!(*horizons.borrow(), vec![10, 100]);
    }

    fn recorders(
        sched: &mut Scheduler,
        log: &Rc<RefCell<Vec<(u32, u64)>>>,
        specs: &[(u8, &[u64])],
    ) {
        for (i, (class, times)) in specs.iter().enumerate() {
            sched.add(
                *class,
                i as u32,
                true,
                Box::new(Recorder {
                    id: i as u32,
                    times: times.to_vec(),
                    at: 0,
                    log: Rc::clone(log),
                }),
            );
        }
    }

    #[test]
    fn events_fire_in_time_class_id_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut s = Scheduler::new();
        recorders(
            &mut s,
            &log,
            &[
                (CLASS_APP, &[10, 30][..]),
                (CLASS_DAEMON, &[10, 20][..]),
                (CLASS_APP, &[5][..]),
            ],
        );
        s.run().unwrap();
        // t=5: comp 2; t=10: daemon (class 2) before app (class 4);
        // t=20 daemon; t=30 app.
        assert_eq!(
            *log.borrow(),
            vec![(2, 5), (1, 10), (0, 10), (1, 20), (0, 30)]
        );
    }

    #[test]
    fn same_key_ties_break_by_component_id() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut s = Scheduler::new();
        recorders(
            &mut s,
            &log,
            &[
                (CLASS_APP, &[7][..]),
                (CLASS_APP, &[7][..]),
                (CLASS_APP, &[7][..]),
            ],
        );
        s.run().unwrap();
        assert_eq!(*log.borrow(), vec![(0, 7), (1, 7), (2, 7)]);
    }

    #[test]
    fn run_until_leaves_an_event_at_the_limit_for_the_next_call() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut s = Scheduler::new();
        recorders(&mut s, &log, &[(CLASS_APP, &[5, 10, 15][..])]);
        assert!(s.run_until(10), "the event at 10 is still pending");
        assert_eq!(*log.borrow(), vec![(0, 5)]);
        assert!(!s.run_until(16), "the last tick parks the recorder");
        assert_eq!(*log.borrow(), vec![(0, 5), (0, 10), (0, 15)]);
    }

    #[test]
    fn stale_entry_whose_fresh_key_reaches_the_limit_stays_queued() {
        /// Ticks at a time another party can move between calls.
        struct Movable {
            at: Rc<Cell<u64>>,
            log: Rc<RefCell<Vec<(u32, u64)>>>,
        }
        impl Component for Movable {
            fn next_tick_ns(&self) -> u64 {
                self.at.get()
            }
            fn tick(&mut self, _horizon: u64) -> Control {
                self.log.borrow_mut().push((0, self.at.get()));
                Control::Park
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let at = Rc::new(Cell::new(5));
        let mut s = Scheduler::new();
        s.add(
            CLASS_APP,
            0,
            true,
            Box::new(Movable {
                at: Rc::clone(&at),
                log: Rc::clone(&log),
            }),
        );
        // Registration keyed the event at 5; move it past the limit.
        at.set(12);
        assert!(s.run_until(10), "key 5 is stale; its fresh key 12 waits");
        assert!(log.borrow().is_empty());
        assert!(!s.run_until(13));
        assert_eq!(*log.borrow(), vec![(0, 12)]);
    }

    #[test]
    fn same_key_batch_below_the_limit_runs_in_id_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut s = Scheduler::new();
        // Component 0 re-keys to the same instant: every batch member
        // ticks once before it runs again.
        recorders(
            &mut s,
            &log,
            &[
                (CLASS_APP, &[7, 7][..]),
                (CLASS_APP, &[7][..]),
                (CLASS_APP, &[7][..]),
            ],
        );
        assert!(!s.run_until(8));
        assert_eq!(*log.borrow(), vec![(0, 7), (1, 7), (2, 7), (0, 7)]);
    }

    #[test]
    fn run_until_reports_whether_an_essential_is_live() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut s = Scheduler::new();
        s.add(
            CLASS_APP,
            0,
            true,
            Box::new(Recorder {
                id: 0,
                times: vec![5, 15],
                at: 0,
                log: Rc::clone(&log),
            }),
        );
        s.add(
            CLASS_DAEMON,
            1,
            false,
            Box::new(Recorder {
                id: 1,
                times: vec![20, 30],
                at: 0,
                log: Rc::clone(&log),
            }),
        );
        assert!(s.run_until(10));
        // Only the non-essential daemon is left: the loop is done even
        // though it still has events queued.
        assert!(!s.run_until(25));
        assert!(!s.run_until(u64::MAX));
        assert_eq!(*log.borrow(), vec![(0, 5), (0, 15)]);
    }

    #[test]
    fn park_group_stops_the_whole_group() {
        struct Parker {
            log: Rc<RefCell<Vec<(u32, u64)>>>,
        }
        impl Component for Parker {
            fn next_tick_ns(&self) -> u64 {
                15
            }
            fn tick(&mut self, _horizon: u64) -> Control {
                self.log.borrow_mut().push((99, 15));
                Control::ParkGroup
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut s = Scheduler::new();
        // Group 0: a parker at t=15 and a recorder that would tick at 10,
        // 20, 30 — only the 10 fires before the group parks.
        s.add(
            CLASS_DAEMON,
            0,
            false,
            Box::new(Recorder {
                id: 0,
                times: vec![10, 20, 30],
                at: 0,
                log: Rc::clone(&log),
            }),
        );
        s.add(
            CLASS_APP,
            0,
            true,
            Box::new(Parker {
                log: Rc::clone(&log),
            }),
        );
        s.run().unwrap();
        assert_eq!(*log.borrow(), vec![(0, 10), (99, 15)]);
    }
}
