//! The benchmark's workloads and one measured repetition of each.
//!
//! Every workload is built with the constructors the experiment registry
//! uses (`EvalParams::sim_config`, `Daemon::new`, `compile`), starts with
//! cold simulated caches right after `Workload::init`, and runs
//! single-threaded. Why each one is in the set is recorded in
//! `perfbench/README.md`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use thermo_bench::EvalParams;
use thermo_kstaled::{ClockConfig, ClockPolicy, Damon, DamonConfig, Kstaled, KstaledConfig};
use thermo_mem::TierParams;
use thermo_scenario::{compile, library, CompiledScenario};
use thermo_sim::{
    run_for, run_tenants_coscheduled, Engine, EngineStats, FabricConfig, PolicyHook, SimConfig,
    Workload,
};
use thermo_util::json::{ToJson, Value};
use thermo_workloads::AppId;
use thermostat::{Daemon, DaemonStats, ThermostatConfig};

use crate::digest::{self, Counters};
use crate::probe::{
    ns_since, traced_run_for, CoSchedProbe, LayerTimes, Policy, Probe, ProbedPolicy, ProbedWorkload,
};

/// The registry's simulator seed; the only seed with recorded digests.
pub const DEFAULT_SEED: u64 = 0xa5_2017;

/// A single-tenant workload: one registry application under the
/// Thermostat daemon, driven by `thermo_sim::run_for`.
pub struct Single {
    pub app: AppId,
    pub scale: u64,
    pub read_pct: u8,
    pub period_ns: u64,
    pub duration_ns: u64,
    /// Migration-fabric link bandwidth, MB/s (`None` = fabric off, the
    /// synchronous migration path).
    pub fabric_mbps: Option<u64>,
}

/// The `storm` scenario co-scheduled on one arbitrated fast pool, driven
/// by `thermo_sim::run_tenants_coscheduled`.
pub struct Storm {
    pub scale: u64,
    pub duration_ns: u64,
}

pub enum Kind {
    Single(Single),
    Storm(Storm),
}

pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Digest of a run at [`DEFAULT_SEED`].
    pub golden: u64,
}

const SEC: u64 = 1_000_000_000;

pub const ALL: [Spec; 4] = [
    Spec {
        name: "redis_hot",
        kind: Kind::Single(Single {
            app: AppId::Redis,
            scale: 64,
            read_pct: 90,
            period_ns: SEC,
            duration_ns: SEC,
            fabric_mbps: None,
        }),
        golden: 0x98aa_0bfe_2a59_8952,
    },
    Spec {
        name: "aerospike_scan",
        kind: Kind::Single(Single {
            app: AppId::Aerospike,
            scale: 8,
            read_pct: 95,
            period_ns: SEC / 10,
            duration_ns: 3 * SEC,
            fabric_mbps: None,
        }),
        golden: 0xc919_f3dd_4d5c_54bf,
    },
    Spec {
        name: "fabric_writes",
        kind: Kind::Single(Single {
            app: AppId::Cassandra,
            scale: 8,
            read_pct: 5,
            period_ns: SEC / 10,
            duration_ns: 2 * SEC,
            fabric_mbps: Some(128),
        }),
        golden: 0xf384_0dea_e2ee_dde1,
    },
    Spec {
        name: "storm_shared",
        kind: Kind::Storm(Storm {
            scale: 64,
            duration_ns: 16 * library::HOUR_NS,
        }),
        golden: 0x8e89_78c8_e8a4_6429,
    },
];

pub fn by_name(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

/// What a traced repetition adds to an untraced one.
pub struct Traced {
    pub times: LayerTimes,
    pub engine_new_ns: u64,
    pub init_ns: u64,
    /// Engine counters summed over tenants.
    pub stats: EngineStats,
    pub counters: Counters,
    /// Thermostat daemon stats summed over the tenants that run it.
    pub daemon: DaemonStats,
    pub arbiter_events: u64,
    pub reclaimed_bytes: u64,
    pub promoted_bytes: u64,
}

/// One measured repetition: set up, run, check.
pub struct Rep {
    pub setup_s: f64,
    /// Host seconds of the run itself (set-up excluded).
    pub window_s: f64,
    pub ops: u64,
    pub accesses: u64,
    pub digest: u64,
    /// Broken engine identities (empty when the run is consistent).
    pub violations: Vec<String>,
    pub traced: Option<Traced>,
}

/// Host time of one set-up.
struct SetupTimes {
    total_s: f64,
    engine_new_ns: u64,
    init_ns: u64,
}

impl Spec {
    /// Runs one repetition at `seed`; `traced` adds the per-layer spans.
    pub fn rep(&self, seed: u64, traced: bool, floor: u64) -> Rep {
        match &self.kind {
            Kind::Single(s) => s.rep(seed, traced, floor),
            Kind::Storm(s) => s.rep(seed, traced, floor),
        }
    }

    /// Sets the workload up exactly as [`Spec::rep`] does, without running
    /// it, and returns the host seconds the set-up took.
    pub fn setup_only(&self, seed: u64) -> f64 {
        match &self.kind {
            Kind::Single(s) => s.setup(&s.params(seed)).3.total_s,
            Kind::Storm(s) => {
                let b = StormBuilder::new(s.params(seed), false, 0);
                // Every tenant stays alive until the end, as in the runner.
                let tenants: Vec<_> = (0..b.c.n_tenants() as u64)
                    .map(|id| {
                        let (mut engine, mut workload, policy) = b.tenant(id);
                        // What `run_tenants_coscheduled` does before `init`.
                        engine.set_fast_cap_bytes(Some(engine.config().sched.initial_grant_bytes));
                        workload.init(&mut engine);
                        (engine, workload, policy)
                    })
                    .collect();
                let setup_s = b.setup_s();
                drop(tenants);
                setup_s
            }
        }
    }

    /// The effective configuration, for the run log.
    pub fn config_json(&self, seed: u64) -> Value {
        let mut fields = vec![("workload".to_string(), Value::Str(self.name.to_string()))];
        match &self.kind {
            Kind::Single(s) => {
                let p = s.params(seed);
                fields.push(("app".to_string(), Value::Str(s.app.to_string())));
                fields.push(("eval".to_string(), p.to_json()));
                fields.push(("sim".to_string(), s.sim_config(&p).to_json()));
                fields.push(("thermostat".to_string(), p.thermostat_config().to_json()));
            }
            Kind::Storm(s) => {
                let p = s.params(seed);
                let c = storm_scenario();
                fields.push(("eval".to_string(), p.to_json()));
                fields.push(("duration_ns".to_string(), Value::U64(s.duration_ns)));
                fields.push(("tenants".to_string(), Value::U64(c.n_tenants() as u64)));
                fields.push(("pool_bytes".to_string(), Value::U64(storm_pool(&c, &p))));
                fields.push((
                    "policies".to_string(),
                    Value::Arr(POLICIES.iter().map(|p| Value::Str(p.to_string())).collect()),
                ));
                fields.push(("sched_fuzz_seed".to_string(), Value::Null));
            }
        }
        Value::Obj(fields)
    }
}

impl Single {
    fn params(&self, seed: u64) -> EvalParams {
        EvalParams {
            scale: self.scale,
            duration_ns: self.duration_ns,
            sampling_period_ns: self.period_ns,
            read_pct: self.read_pct,
            seed,
            ..EvalParams::smoke()
        }
    }

    /// The registry's sizing, plus the fabric the way
    /// `thermostat_fabric_run` enables it.
    fn sim_config(&self, p: &EvalParams) -> SimConfig {
        let mut cfg = p.sim_config(self.app);
        if let Some(mbps) = self.fabric_mbps {
            cfg.fabric = FabricConfig {
                enabled: true,
                link_bandwidth_bytes_per_sec: mbps * 1_000_000,
                ..FabricConfig::default()
            };
        }
        cfg
    }

    /// Builds the engine, workload and daemon the way the registry's
    /// `thermostat_run` does, timing each step.
    fn setup(&self, p: &EvalParams) -> (Engine, Box<dyn Workload>, Daemon, SetupTimes) {
        let t0 = Instant::now();
        let mut engine = Engine::new(self.sim_config(p));
        let engine_new_ns = ns_since(t0);
        let mut workload = self.app.build(p.app_config());
        let t1 = Instant::now();
        workload.init(&mut engine);
        let init_ns = ns_since(t1);
        let daemon = Daemon::new(p.thermostat_config());
        let times = SetupTimes {
            total_s: t0.elapsed().as_secs_f64(),
            engine_new_ns,
            init_ns,
        };
        (engine, workload, daemon, times)
    }

    fn rep(&self, seed: u64, traced: bool, floor: u64) -> Rep {
        let p = self.params(seed);
        let (mut engine, mut workload, mut daemon, setup) = self.setup(&p);

        let t2 = Instant::now();
        let (outcome, times) = if traced {
            traced_run_for(
                &mut engine,
                workload.as_mut(),
                &mut daemon,
                p.duration_ns,
                floor,
            )
        } else {
            let o = run_for(&mut engine, workload.as_mut(), &mut daemon, p.duration_ns);
            (o, LayerTimes::default())
        };
        let window_s = t2.elapsed().as_secs_f64();

        let stats = engine.stats();
        let counters = Counters::read(&engine);
        let ds = daemon.stats();
        Rep {
            setup_s: setup.total_s,
            window_s,
            ops: outcome.ops,
            accesses: stats.accesses,
            digest: digest::single(&outcome, &engine, &ds),
            violations: digest::engine_identities(self.app.spec().name, &stats, Some(&counters)),
            traced: traced.then(|| Traced {
                times,
                engine_new_ns: setup.engine_new_ns,
                init_ns: setup.init_ns,
                stats,
                counters,
                daemon: ds,
                arbiter_events: 0,
                reclaimed_bytes: engine.pressure_stats().reclaimed_bytes,
                promoted_bytes: engine.pressure_stats().promoted_bytes,
            }),
        }
    }
}

// ---------------------------------------------------------------------
// storm_shared: built the way the registry's `scen_storm` builds it
// (`crates/thermo-bench/src/scen.rs`), whose helpers are private there.
// ---------------------------------------------------------------------

/// The colocated policy matrix: tenant `i` runs policy `i % 4`.
const POLICIES: [&str; 4] = ["thermostat", "kstaled", "clock", "damon"];

/// Policy period: half a scenario hour, as in `scen_storm`.
const SCEN_PERIOD_NS: u64 = library::HOUR_NS / 2;

fn storm_scenario() -> CompiledScenario {
    compile(&library::storm()).expect("the library storm spec compiles")
}

fn build_policy(which: usize, slo_pct: f64, seed: u64) -> Policy {
    match POLICIES[which] {
        "thermostat" => Policy::Thermostat(Box::new(Daemon::new(ThermostatConfig {
            tolerable_slowdown_pct: slo_pct,
            sampling_period_ns: SCEN_PERIOD_NS,
            seed: seed ^ 0xdaeb,
            ..ThermostatConfig::paper_defaults()
        }))),
        "kstaled" => Policy::Other(Box::new(Kstaled::new(KstaledConfig {
            scan_period_ns: SCEN_PERIOD_NS,
        }))),
        "clock" => Policy::Other(Box::new(ClockPolicy::new(ClockConfig {
            sweep_period_ns: SCEN_PERIOD_NS,
            fast_target_fraction: 0.6,
        }))),
        "damon" => Policy::Other(Box::new(Damon::new(DamonConfig {
            sample_interval_ns: SCEN_PERIOD_NS / 20,
            samples_per_aggregation: 10,
            ..DamonConfig::default()
        }))),
        other => unreachable!("unknown policy {other}"),
    }
}

fn tenant_bound(c: &CompiledScenario, tenant: u64, p: &EvalParams) -> u64 {
    let fp = c.declared_footprint(tenant, p.scale);
    fp.anon_bytes + fp.file_bytes
}

/// Antagonists start at twice their bound, everyone else at three
/// quarters, so the arbiter must reclaim to fund growth.
fn storm_grant(group: &str, bound: u64) -> u64 {
    if group == "antagonist" {
        bound * 2
    } else {
        bound * 3 / 4
    }
}

fn storm_pool(c: &CompiledScenario, p: &EvalParams) -> u64 {
    (0..c.n_tenants() as u64)
        .map(|t| storm_grant(&c.tenants()[t as usize].group, tenant_bound(c, t, p)))
        .sum()
}

impl Storm {
    fn params(&self, seed: u64) -> EvalParams {
        EvalParams {
            scale: self.scale,
            seed,
            ..EvalParams::smoke()
        }
    }

    fn rep(&self, seed: u64, traced: bool, floor: u64) -> Rep {
        let b = StormBuilder::new(self.params(seed), traced, floor);
        let n = b.c.n_tenants();
        let out =
            run_tenants_coscheduled(n, self.duration_ns, b.p.seed, None, |id, _| b.tenant(id))
                .unwrap_or_else(|e| panic!("storm_shared run failed: {e}"));
        let end = Instant::now();

        let (setup_s, engine_new_ns) = (b.setup_s(), b.engine_new_ns.get());
        let c = &b.c;
        let CoSchedProbe {
            init_ns,
            last_init_end,
            times,
            at_last_tick,
        } = Rc::try_unwrap(b.probe)
            .expect("the runner dropped every tenant")
            .into_inner();
        let loop_start = last_init_end.expect("the runner initialises every tenant");
        let mut stats = EngineStats::default();
        let mut ops = 0;
        let mut violations = Vec::new();
        for o in &out.shards {
            add_stats(&mut stats, &o.stats);
            ops += o.outcome.ops;
            let who = c.tenants()[o.shard_id as usize].label.clone();
            violations.extend(digest::engine_identities(&who, &o.stats, None));
        }
        let traced = traced.then(|| {
            let mut counters = Counters::default();
            let mut daemon = DaemonStats::default();
            for (cnt, ds) in at_last_tick.iter().flatten() {
                counters.add(cnt);
                if let Some(ds) = ds {
                    add_daemon(&mut daemon, ds);
                }
            }
            Traced {
                times,
                engine_new_ns,
                init_ns,
                stats,
                counters,
                daemon,
                arbiter_events: out.trace.len() as u64,
                reclaimed_bytes: out.pressure.iter().map(|p| p.reclaimed_bytes).sum(),
                promoted_bytes: out.pressure.iter().map(|p| p.promoted_bytes).sum(),
            }
        });
        Rep {
            setup_s,
            window_s: (end - loop_start).as_secs_f64(),
            ops,
            accesses: stats.accesses,
            digest: digest::cosched(&out),
            violations,
            traced,
        }
    }
}

/// Builds storm tenants exactly as `scen_storm`'s build closure does,
/// wrapping each workload (and, when traced, each policy) in a probe.
struct StormBuilder {
    p: EvalParams,
    c: CompiledScenario,
    pool: u64,
    probe: Probe,
    traced: bool,
    floor: u64,
    /// Host ns in `Engine::new`, summed over tenants.
    engine_new_ns: Cell<u64>,
    /// Host ns building tenants (engine, workload, policy), summed.
    build_ns: Cell<u64>,
}

impl StormBuilder {
    fn new(p: EvalParams, traced: bool, floor: u64) -> Self {
        let c = storm_scenario();
        let probe = Rc::new(RefCell::new(CoSchedProbe {
            at_last_tick: vec![None; c.n_tenants()],
            ..CoSchedProbe::default()
        }));
        Self {
            pool: storm_pool(&c, &p),
            p,
            c,
            probe,
            traced,
            floor,
            engine_new_ns: Cell::new(0),
            build_ns: Cell::new(0),
        }
    }

    fn tenant(&self, shard_id: u64) -> (Engine, Box<dyn Workload>, Box<dyn PolicyHook>) {
        let tb = Instant::now();
        let (c, p, pool) = (&self.c, &self.p, self.pool);
        let t = &c.tenants()[shard_id as usize];
        let seed = c.tenant_seed(p.seed, shard_id);
        let bound = tenant_bound(c, shard_id, p);
        let mut cfg = p.sim_config_sized(bound);
        cfg.fast = TierParams::dram(pool);
        cfg.slow = TierParams::slow_1us(bound + (32 << 20));
        cfg.fabric.enabled = true;
        cfg.sched.coscheduled = true;
        cfg.sched.shared_pool_bytes = pool;
        cfg.sched.initial_grant_bytes = storm_grant(&t.group, bound);
        cfg.sched.slo_pct = t.slo_pct;
        cfg.sched.report_period_ns = SCEN_PERIOD_NS / 2;
        cfg.sched.rebalance_period_ns = SCEN_PERIOD_NS;
        cfg.sched.grant_quantum_bytes = 512 << 10;
        let t0 = Instant::now();
        let engine = Engine::new(cfg);
        self.engine_new_ns
            .set(self.engine_new_ns.get() + ns_since(t0));
        let workload = Box::new(ProbedWorkload {
            inner: c.build_workload(shard_id, seed, p.scale),
            probe: Rc::clone(&self.probe),
            traced: self.traced,
            floor: self.floor,
            calls: 0,
        });
        let policy = build_policy(shard_id as usize % POLICIES.len(), t.slo_pct, seed);
        let policy: Box<dyn PolicyHook> = if self.traced {
            Box::new(ProbedPolicy {
                inner: policy,
                tenant: shard_id as usize,
                probe: Rc::clone(&self.probe),
            })
        } else {
            policy.boxed()
        };
        self.build_ns.set(self.build_ns.get() + ns_since(tb));
        (engine, workload, policy)
    }

    /// Host seconds spent setting tenants up so far (build + init).
    fn setup_s(&self) -> f64 {
        (self.build_ns.get() + self.probe.borrow().init_ns) as f64 / 1e9
    }
}

fn add_stats(a: &mut EngineStats, b: &EngineStats) {
    a.accesses += b.accesses;
    a.writes += b.writes;
    a.walks += b.walks;
    a.walk_time_ns += b.walk_time_ns;
    a.minor_faults_small += b.minor_faults_small;
    a.minor_faults_huge += b.minor_faults_huge;
    a.llc_hits += b.llc_hits;
    a.llc_misses += b.llc_misses;
    a.fast_tier_accesses += b.fast_tier_accesses;
    a.slow_tier_accesses += b.slow_tier_accesses;
    a.slow_trap_faults += b.slow_trap_faults;
    a.fast_trap_faults += b.fast_trap_faults;
    a.app_time_ns += b.app_time_ns;
    a.kernel_time_ns += b.kernel_time_ns;
}

fn add_daemon(a: &mut DaemonStats, b: &DaemonStats) {
    a.periods += b.periods;
    a.pages_sampled += b.pages_sampled;
    a.pages_demoted += b.pages_demoted;
    a.pages_promoted += b.pages_promoted;
    a.demote_oom += b.demote_oom;
    a.promote_oom += b.promote_oom;
    a.pages_split_placed += b.pages_split_placed;
    a.split_children_demoted += b.split_children_demoted;
}
