//! Outside-in host timing: spans recorded from the benchmark's own code
//! around calls into the simulator's public API. Nothing here reaches
//! into the program, so a traced run must reproduce the untraced digest
//! byte for byte.
//!
//! Per-op spans are sampled: only every `SAMPLE_EVERY`-th call is timed,
//! chosen by call index so the sample is the same on every run. Policy
//! ticks are few and long, so every tick is timed.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use thermo_sim::{Access, Engine, PolicyHook, RunOutcome, Workload};
use thermostat::{Daemon, DaemonStats};

use crate::digest::Counters;

/// One call in this many is timed on the per-op paths.
pub const SAMPLE_EVERY: u64 = 64;

/// Host ns elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Median cost of one `Instant::now()` read, subtracted from every
/// sampled span so short spans (one `next_op`) are not dominated by the
/// timer itself.
pub fn timer_floor_ns() -> u64 {
    let mut d: Vec<u64> = (0..2001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as u64
        })
        .collect();
    d.sort_unstable();
    d[d.len() / 2]
}

/// A sampled span accumulator: the total host time of the timed spans
/// and how many items (accesses, ops) they covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sampled {
    pub ns: u64,
    pub items: u64,
}

impl Sampled {
    fn add(&mut self, ns: u64, floor: u64, items: u64) {
        self.ns += ns.saturating_sub(floor);
        self.items += items;
    }

    /// Mean host ns per item (0 when nothing was sampled).
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.ns as f64 / self.items as f64
        }
    }
}

/// Host time of the layers one traced run passed through.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Sampled `Workload::next_op` calls (items = ops).
    pub next_op: Sampled,
    /// Sampled batches of `Engine::access` calls (items = accesses).
    /// Empty on the co-scheduled path, where the scheduler issues them.
    pub access: Sampled,
    /// Sampled `Engine::advance_compute` calls (items = ops).
    pub compute: Sampled,
    /// Host ns of every `PolicyHook::tick`.
    pub ticks_ns: Vec<u64>,
}

/// The single-tenant run loop with spans around each layer.
///
/// Mirrors `thermo_sim::run_for` call for call (same deadline rule, same
/// cached policy deadline, same access order), so it produces the same
/// `RunOutcome` and the same digest; the benchmark checks that on every
/// traced run.
pub fn traced_run_for(
    engine: &mut Engine,
    workload: &mut dyn Workload,
    policy: &mut dyn PolicyHook,
    duration_ns: u64,
    floor: u64,
) -> (RunOutcome, LayerTimes) {
    let mut t = LayerTimes::default();
    let start = engine.now_ns();
    let deadline = start.saturating_add(duration_ns);
    let mut ops = 0u64;
    let mut accesses: Vec<Access> = Vec::with_capacity(16);
    let mut due = policy.next_due_ns();
    while engine.now_ns() < deadline {
        while due <= engine.now_ns() {
            let t0 = Instant::now();
            policy.tick(engine);
            t.ticks_ns.push(ns_since(t0));
            due = policy.next_due_ns();
        }
        accesses.clear();
        if !ops.is_multiple_of(SAMPLE_EVERY) {
            let Some(compute_ns) = workload.next_op(engine.now_ns(), &mut accesses) else {
                break;
            };
            for a in &accesses {
                engine.access(a.va, a.write);
            }
            engine.advance_compute(compute_ns);
        } else {
            let t0 = Instant::now();
            let Some(compute_ns) = workload.next_op(engine.now_ns(), &mut accesses) else {
                break;
            };
            let t1 = Instant::now();
            for a in &accesses {
                engine.access(a.va, a.write);
            }
            let t2 = Instant::now();
            engine.advance_compute(compute_ns);
            let t3 = Instant::now();
            let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
            t.next_op.add(ns(t0, t1), floor, 1);
            t.access.add(ns(t1, t2), floor, accesses.len() as u64);
            t.compute.add(ns(t2, t3), floor, 1);
        }
        ops += 1;
    }
    let outcome = RunOutcome {
        ops,
        start_ns: start,
        end_ns: engine.now_ns(),
    };
    (outcome, t)
}

/// What the co-scheduled run's wrappers observed, shared by every tenant
/// (the scheduler is single-threaded).
#[derive(Debug, Default)]
pub struct CoSchedProbe {
    /// Host ns in `Workload::init`, summed over tenants.
    pub init_ns: u64,
    /// When the last tenant's `init` returned: the event loop starts here.
    pub last_init_end: Option<Instant>,
    /// Layer spans (traced runs only).
    pub times: LayerTimes,
    /// Per tenant: engine counters and Thermostat stats as of the
    /// tenant's last policy tick (traced runs only). The runner owns the
    /// engines, so a tick is the last point the benchmark can read them.
    pub at_last_tick: Vec<Option<(Counters, Option<DaemonStats>)>>,
}

pub type Probe = Rc<RefCell<CoSchedProbe>>;

/// A workload as the co-scheduler sees it: forwards every call, times
/// `init` always and every `SAMPLE_EVERY`-th `next_op` when traced.
pub struct ProbedWorkload {
    pub inner: Box<dyn Workload>,
    pub probe: Probe,
    pub traced: bool,
    pub floor: u64,
    pub calls: u64,
}

impl Workload for ProbedWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, engine: &mut Engine) {
        let t0 = Instant::now();
        self.inner.init(engine);
        let end = Instant::now();
        let mut p = self.probe.borrow_mut();
        p.init_ns += (end - t0).as_nanos() as u64;
        p.last_init_end = Some(end);
    }

    fn next_op(&mut self, now_ns: u64, accesses: &mut Vec<Access>) -> Option<u64> {
        if !self.traced {
            return self.inner.next_op(now_ns, accesses);
        }
        let sampled = self.calls.is_multiple_of(SAMPLE_EVERY);
        self.calls += 1;
        if !sampled {
            return self.inner.next_op(now_ns, accesses);
        }
        let t0 = Instant::now();
        let r = self.inner.next_op(now_ns, accesses);
        let ns = ns_since(t0);
        self.probe.borrow_mut().times.next_op.add(ns, self.floor, 1);
        r
    }

    fn footprint(&self) -> thermo_sim::FootprintInfo {
        self.inner.footprint()
    }
}

/// A tenant's policy. Thermostat stays a concrete type so a traced run
/// can read its `DaemonStats`; the rest are opaque hooks.
pub enum Policy {
    Thermostat(Box<Daemon>),
    Other(Box<dyn PolicyHook>),
}

impl Policy {
    fn hook(&mut self) -> &mut dyn PolicyHook {
        match self {
            Policy::Thermostat(d) => d.as_mut(),
            Policy::Other(h) => h.as_mut(),
        }
    }

    fn hook_ref(&self) -> &dyn PolicyHook {
        match self {
            Policy::Thermostat(d) => d.as_ref(),
            Policy::Other(h) => h.as_ref(),
        }
    }

    /// The plain hook, as an untraced run passes it to the scheduler.
    pub fn boxed(self) -> Box<dyn PolicyHook> {
        match self {
            Policy::Thermostat(d) => d,
            Policy::Other(h) => h,
        }
    }
}

/// A traced tenant's policy: times every tick and snapshots the engine
/// counters after it.
pub struct ProbedPolicy {
    pub inner: Policy,
    pub tenant: usize,
    pub probe: Probe,
}

impl PolicyHook for ProbedPolicy {
    fn next_due_ns(&self) -> u64 {
        self.inner.hook_ref().next_due_ns()
    }

    fn tick(&mut self, engine: &mut Engine) {
        let t0 = Instant::now();
        self.inner.hook().tick(engine);
        let ns = ns_since(t0);
        let daemon = match &self.inner {
            Policy::Thermostat(d) => Some(d.stats()),
            Policy::Other(_) => None,
        };
        let mut p = self.probe.borrow_mut();
        p.times.ticks_ns.push(ns);
        p.at_last_tick[self.tenant] = Some((Counters::read(engine), daemon));
    }

    fn policy_name(&self) -> &str {
        self.inner.hook_ref().policy_name()
    }
}
