//! Host-speed benchmark of the Thermostat simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Repeats one workload (set up, run, check) until `--seconds` of host
//! time have passed. With `--trace 0` it prints the end-to-end metrics,
//! the slow tail over every repetition after a warm-up one. With `--trace 1`
//! it alternates untraced and traced repetitions and prints the median
//! of each per-layer metric. The last line of standard output is one
//! JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is
//! nonzero when any repetition fails. See `perfbench/README.md`.

mod digest;
mod probe;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use thermo_util::json::{self, Value};

use workloads::{Rep, Spec, Traced, DEFAULT_SEED};

/// Set-up-only repetitions before each measured repetition of an
/// untraced run; `setup_s` is read from them. A set-up takes milliseconds,
/// so spreading them over the run, as the measured repetitions are,
/// keeps one short slow spell of the host from setting the whole sample.
const SETUPS_PER_REP: usize = 2;

/// The end-to-end metrics are read at this percentile from the slow
/// end. A 60 s run holds over a hundred repetitions, so more than ten
/// samples lie beyond it.
const TAIL_PCT: f64 = 10.0;

/// Repetitions at the start of a run that are checked but not measured:
/// the first one grows the heap and warms the host's caches.
const WARMUP_REPS: u64 = 1;

/// A run stops before a repetition that would end past `--seconds`,
/// judged by the longest repetition so far, so a run lasts `--seconds`
/// give or take the host's drift, whatever the workload's repetition
/// length.
fn room_for(start: Instant, seconds: f64, longest_s: f64) -> bool {
    start.elapsed().as_secs_f64() + longest_s <= seconds
}

const USAGE: &str = "usage: thermo-perfbench --workload <redis_hot|aerospike_scan|\
fabric_writes|storm_shared> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut spec = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(
                    workloads::by_name(&val).ok_or_else(|| format!("unknown workload {val}"))?,
                )
            }
            "--seed" => {
                seed = match val.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => val.parse(),
                }
                .map_err(|e| format!("--seed {val}: {e}"))?
            }
            "--seconds" => {
                seconds = val
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {val}: want a positive number"))?
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Removes every `THERMO_*` variable so no ambient knob (scan workers,
/// scheduler fuzz, scale overrides) can change the measured program.
/// Returns the names removed.
fn pin_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("THERMO_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `v` (unsorted, no NaN), 0 when empty.
fn percentile<T: Copy + Default + PartialOrd>(v: &[T], pct: f64) -> T {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    if s.is_empty() {
        return T::default();
    }
    let rank = ((pct / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// One repetition, with a panic counted as a failure.
fn guarded_rep(a: &Args, traced: bool, floor: u64) -> Result<Rep, String> {
    catch_unwind(AssertUnwindSafe(|| a.spec.rep(a.seed, traced, floor))).map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string());
        format!("panicked: {msg}")
    })
}

/// Checks one repetition's outputs: the recorded digest at the default
/// seed, the engine identities at any seed, and agreement with the first
/// repetition of this process (every repetition simulates the same run).
fn check(a: &Args, rep: &Rep, first_digest: &mut Option<u64>) -> Result<(), String> {
    if !rep.violations.is_empty() {
        return Err(rep.violations.join("; "));
    }
    if rep.accesses == 0 || rep.ops == 0 {
        return Err("the run simulated nothing".to_string());
    }
    if a.seed == DEFAULT_SEED && rep.digest != a.spec.golden {
        return Err(format!(
            "digest {:016x} != recorded {:016x} for the default seed",
            rep.digest, a.spec.golden
        ));
    }
    match *first_digest {
        None => *first_digest = Some(rep.digest),
        Some(d) if d != rep.digest => {
            return Err(format!(
                "digest {:016x} differs from this process's first run {d:016x}",
                rep.digest
            ))
        }
        Some(_) => {}
    }
    Ok(())
}

/// Per-layer metrics of one traced repetition; `untraced_window_s` is
/// the paired untraced repetition's run time.
///
/// A per-call time is the latency of the timed call: the timer reads stop
/// the CPU from overlapping it with the calls around it, so per-call
/// times summed over a run overstate that layer's share of an untimed
/// run, and `sched.residual_s` (wall minus workload and policy time)
/// understates the rest.
fn layer_metrics(
    rep: &Rep,
    t: &Traced,
    untraced_window_s: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let w = rep.window_s;
    let ops = rep.ops as f64;
    let next_op_ns = t.times.next_op.ns_per_item();
    let policy_s = t.times.ticks_ns.iter().sum::<u64>() as f64 / 1e9;
    let s = &t.stats;
    let c = &t.counters;
    let d = &t.daemon;
    vec![
        ("workloads.next_op_ns", "ns", next_op_ns),
        ("engine.access_ns", "ns", t.times.access.ns_per_item()),
        (
            "engine.advance_compute_ns",
            "ns",
            t.times.compute.ns_per_item(),
        ),
        ("policy.ticks", "count", t.times.ticks_ns.len() as f64),
        (
            "policy.tick_ms_p50",
            "ms",
            percentile(&t.times.ticks_ns, 50.0) as f64 / 1e6,
        ),
        (
            "policy.tick_ms_p99",
            "ms",
            percentile(&t.times.ticks_ns, 99.0) as f64 / 1e6,
        ),
        ("policy.share", "ratio", policy_s / w),
        (
            "sched.residual_s",
            "s",
            w - next_op_ns * ops / 1e9 - policy_s,
        ),
        ("setup.engine_new_s", "s", t.engine_new_ns as f64 / 1e9),
        ("setup.init_s", "s", t.init_ns as f64 / 1e9),
        ("sim.ops", "count", ops),
        ("sim.accesses", "count", s.accesses as f64),
        ("vm.tlb_lookups", "count", c.tlb_lookups as f64),
        (
            "vm.tlb_miss_ratio",
            "ratio",
            ratio(c.tlb_misses, c.tlb_lookups),
        ),
        ("vm.walks", "count", s.walks as f64),
        ("vm.virt_walk_ns", "ns", s.walk_time_ns as f64),
        ("sim.llc_miss_ratio", "ratio", s.llc_miss_ratio()),
        ("mem.fast_accesses", "count", s.fast_tier_accesses as f64),
        ("mem.slow_accesses", "count", s.slow_tier_accesses as f64),
        ("trap.faults", "count", c.trap_faults as f64),
        ("mem.to_slow_pages", "count", c.to_slow_pages as f64),
        (
            "mem.back_to_fast_pages",
            "count",
            c.back_to_fast_pages as f64,
        ),
        ("policy.pages_sampled", "count", d.pages_sampled as f64),
        ("policy.pages_demoted", "count", d.pages_demoted as f64),
        ("policy.pages_promoted", "count", d.pages_promoted as f64),
        ("policy.demote_oom", "count", d.demote_oom as f64),
        ("fabric.begun", "count", c.fab_begun as f64),
        ("fabric.committed", "count", c.fab_committed as f64),
        ("fabric.aborted", "count", c.fab_aborted as f64),
        ("fabric.write_aborts", "count", c.fab_write_aborts as f64),
        ("fabric.congestion_events", "count", c.fab_congestion as f64),
        (
            "fabric.commit_ratio",
            "ratio",
            ratio(c.fab_committed, c.fab_begun),
        ),
        ("arbiter.events", "count", t.arbiter_events as f64),
        ("arbiter.reclaimed_mb", "MB", t.reclaimed_bytes as f64 / 1e6),
        ("arbiter.promoted_mb", "MB", t.promoted_bytes as f64 / 1e6),
        ("sim.virt_app_ns", "ns", s.app_time_ns as f64),
        ("sim.virt_kernel_ns", "ns", s.kernel_time_ns as f64),
        (
            "trace.overhead_pct",
            "%",
            (w / untraced_window_s - 1.0) * 100.0,
        ),
    ]
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Obj(vec![
        ("value".to_string(), Value::F64(value)),
        ("unit".to_string(), Value::Str(unit.to_string())),
    ])
}

fn main() -> ExitCode {
    let cleared = pin_env();
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let floor = probe::timer_floor_ns();
    println!(
        "config: {}",
        json::to_string(&Value::Obj(vec![
            ("seed".to_string(), Value::U64(a.seed)),
            ("seconds".to_string(), Value::F64(a.seconds)),
            ("trace".to_string(), Value::Bool(a.trace)),
            (
                "cleared_env".to_string(),
                Value::Arr(cleared.into_iter().map(Value::Str).collect()),
            ),
            ("sample_every".to_string(), Value::U64(probe::SAMPLE_EVERY)),
            ("timer_floor_ns".to_string(), Value::U64(floor)),
            ("spec".to_string(), a.spec.config_json(a.seed)),
        ]))
    );

    let start = Instant::now();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut first_digest = None;
    let mut run_checked = |traced: bool, attempted: &mut u64, failed: &mut u64| {
        *attempted += 1;
        let rep = guarded_rep(&a, traced, floor);
        match rep.and_then(|r| check(&a, &r, &mut first_digest).map(|()| r)) {
            Ok(r) => {
                println!(
                    "rep {attempted}{}: setup {:.4}s run {:.4}s ops {} accesses {} digest {:016x}",
                    if traced { " traced" } else { "" },
                    r.setup_s,
                    r.window_s,
                    r.ops,
                    r.accesses,
                    r.digest
                );
                Some(r)
            }
            Err(e) => {
                *failed += 1;
                println!("rep {attempted} FAILED: {e}");
                None
            }
        }
    };

    let mut metrics: Vec<(String, Value)> = Vec::new();
    if !a.trace {
        // Both metrics read the slow tail: the rate 90% of repetitions
        // reach and the set-up time 90% of set-ups beat. The
        // host swings between a slow and a fast state for seconds to
        // minutes; it is in the slow one for part of nearly every run, so
        // the tail reads that state, where the median reads whichever one
        // held most of the run.
        let (mut rate, mut setup) = (Vec::new(), Vec::new());
        let (mut reps, mut longest_s) = (0u64, 0.0f64);
        while reps <= WARMUP_REPS || room_for(start, a.seconds, longest_s) {
            let t = Instant::now();
            let warm = reps >= WARMUP_REPS;
            for _ in 0..SETUPS_PER_REP {
                match catch_unwind(AssertUnwindSafe(|| a.spec.setup_only(a.seed))) {
                    Ok(s) if warm => setup.push(s),
                    Ok(_) => {}
                    Err(_) => {
                        attempted += 1;
                        failed += 1;
                        println!("set-up FAILED: panicked");
                    }
                }
            }
            if let Some(r) = run_checked(false, &mut attempted, &mut failed) {
                if warm {
                    rate.push(r.accesses as f64 / r.window_s / 1e6);
                }
            }
            reps += 1;
            longest_s = longest_s.max(t.elapsed().as_secs_f64());
        }
        let rss = match peak_rss_mb() {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "{} measured repetitions: maccess_per_s median {:.4} p10 {:.4}; \
             {} set-ups: setup_s median {:.6} p90 {:.6}",
            rate.len(),
            median(&rate),
            percentile(&rate, TAIL_PCT),
            setup.len(),
            median(&setup),
            percentile(&setup, 100.0 - TAIL_PCT),
        );
        metrics.push((
            "maccess_per_s".to_string(),
            metric(percentile(&rate, TAIL_PCT), "M/s"),
        ));
        metrics.push((
            "setup_s".to_string(),
            metric(percentile(&setup, 100.0 - TAIL_PCT), "s"),
        ));
        metrics.push(("peak_rss_mb".to_string(), metric(rss, "MB")));
    } else {
        let mut per_layer: Vec<Vec<(&'static str, &'static str, f64)>> = Vec::new();
        let mut longest_s = 0.0f64;
        while attempted == 0 || room_for(start, a.seconds, longest_s) {
            let t0 = Instant::now();
            let Some(u) = run_checked(false, &mut attempted, &mut failed) else {
                continue;
            };
            // `check` holds the traced digest to the untraced one: both
            // must match this process's first repetition.
            if let Some(t) = run_checked(true, &mut attempted, &mut failed) {
                let tr = t.traced.as_ref().expect("traced repetition");
                per_layer.push(layer_metrics(&t, tr, u.window_s));
            }
            longest_s = longest_s.max(t0.elapsed().as_secs_f64());
        }
        if let Some(first) = per_layer.first() {
            for (i, &(name, unit, _)) in first.iter().enumerate() {
                let vals: Vec<f64> = per_layer.iter().map(|m| m[i].2).collect();
                metrics.push((name.to_string(), metric(median(&vals), unit)));
            }
        }
    }

    for (name, v) in &metrics {
        println!("{name:32} {}", json::to_string(v));
    }
    println!("failed {failed} of {attempted} attempted");
    let correct = failed == 0;
    println!(
        "{}",
        json::to_string(&Value::Obj(vec![
            ("correct".to_string(), Value::Bool(correct)),
            ("attempted".to_string(), Value::U64(attempted)),
            ("failed".to_string(), Value::U64(failed)),
            ("metrics".to_string(), Value::Obj(metrics)),
        ]))
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
