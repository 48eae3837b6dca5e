//! The compiled phased workload: one tenant's deterministic access
//! stream, driven by a [`PhasedSpec`].
//!
//! Mapping discipline: every declared region is mapped at its **declared**
//! size in `init`, so the engine-visible footprint never exceeds the
//! spec's bound (the property the shrinking proptest pins). Growth is
//! modelled through demand paging — a growing region only *warms* its
//! start window at init, and the access window widens over virtual time,
//! faulting fresh pages in exactly when a real Memtable or failover
//! spawn would.
//!
//! Determinism: one xoshiro stream per tenant, seeded from the tenant's
//! derived stream seed; every operation draws region pick → write draw →
//! line draw in that fixed order, so the stream is a pure function of
//! `(spec, seed)` regardless of worker counts or scheduling.

use crate::spec::{GrowthSpec, PatternSpec, PhasedSpec};
use thermo_sim::{Access, Engine, FootprintInfo, Workload};
use thermo_util::fastdiv::{wrap_add, FastMod};
use thermo_util::rng::{Rng, SeedableRng, SmallRng};
use thermo_workloads::common::Region;
use thermo_workloads::dist::{HotspotDist, KeyDist, ScrambledZipfian, UniformDist};

/// Per-region sampler, built once over the declared (full) line count.
enum LineDist {
    Uniform(UniformDist),
    Zipfian(ScrambledZipfian),
    Hotspot(HotspotDist),
    Sequential,
}

/// A phase with its mix resolved to region indices.
struct ResolvedPhase {
    /// Cumulative start within the schedule.
    start_ns: u64,
    /// `compute_ns * 100 / rate_pct`, clamped to >= 1.
    effective_compute_ns: u64,
    total_weight: u32,
    /// (region index, weight, write_pct, lines_per_op)
    mix: Vec<(usize, u32, u8, u32)>,
}

/// A region's access window in lines, with the growth schedule's
/// divisors precomputed so `next_op` needs no hardware divide.
struct Window {
    /// Declared size in lines.
    full: u64,
    grow: Option<Growth>,
}

/// [`GrowthSpec`] in lines, its periods as exact [`FastMod`] divisors.
struct Growth {
    start: u64,
    full_at: FastMod,
    /// `None` without a sawtooth reset.
    reset: Option<FastMod>,
    step: bool,
}

impl Window {
    fn new(decl_bytes: u64, grow: Option<GrowthSpec>) -> Self {
        Self {
            full: decl_bytes / 64,
            grow: grow.map(|g| Growth {
                start: g.start_bytes / 64,
                full_at: FastMod::new(g.full_at_ns),
                reset: (g.reset_period_ns > 0).then(|| FastMod::new(g.reset_period_ns)),
                step: g.step,
            }),
        }
    }

    /// Lines accessible `t` ns past arrival: the declared size, shrunk
    /// by the growth schedule.
    #[inline]
    fn lines_at(&self, t: u64) -> u64 {
        let Some(g) = &self.grow else {
            return self.full;
        };
        let te = g.reset.map_or(t, |r| r.rem(t));
        if te >= g.full_at.divisor() {
            self.full
        } else if g.step {
            g.start
        } else {
            // Linear fill. The u64 product is exact unless it overflows;
            // u128 keeps the rare overflowing ns * bytes products exact.
            let span = self.full - g.start;
            g.start
                + match span.checked_mul(te) {
                    Some(p) => g.full_at.div(p),
                    None => (span as u128 * te as u128 / g.full_at.divisor() as u128) as u64,
                }
        }
    }
}

/// A [`Workload`] compiled from a [`PhasedSpec`].
pub struct PhasedWorkload {
    name: String,
    spec: PhasedSpec,
    start_ns: u64,
    rng: SmallRng,
    regions: Vec<Region>,
    dists: Vec<LineDist>,
    cursors: Vec<u64>,
    windows: Vec<Window>,
    phases: Vec<ResolvedPhase>,
    schedule_ns: u64,
    schedule_mod: FastMod,
}

impl PhasedWorkload {
    /// Builds the workload for one tenant. `spec` must already be
    /// validated (the compiler does); `start_ns` is this tenant's
    /// arrival time and `seed` its derived stream seed.
    ///
    /// # Panics
    ///
    /// Panics on specs that `ScenarioSpec::validate` rejects (empty
    /// regions/phases, zero weights, durations or `full_at_ns`, dangling
    /// mix references).
    pub fn new(name: String, spec: PhasedSpec, start_ns: u64, seed: u64) -> Self {
        assert!(
            !spec.regions.is_empty() && !spec.phases.is_empty(),
            "compile validates specs before building workloads"
        );
        let mut phases = Vec::with_capacity(spec.phases.len());
        let mut cursor = 0u64;
        for ph in &spec.phases {
            let mix: Vec<(usize, u32, u8, u32)> = ph
                .mix
                .iter()
                .map(|m| {
                    let idx = spec
                        .regions
                        .iter()
                        .position(|r| r.name == m.region)
                        .expect("validated mix region");
                    (idx, m.weight, m.write_pct, m.lines_per_op)
                })
                .collect();
            let total_weight: u32 = mix.iter().map(|(_, w, _, _)| *w).sum();
            assert!(total_weight > 0, "validated positive phase weight");
            phases.push(ResolvedPhase {
                start_ns: cursor,
                effective_compute_ns: (spec.compute_ns * 100 / ph.rate_pct as u64).max(1),
                total_weight,
                mix,
            });
            cursor += ph.duration_ns;
        }
        Self {
            // Constant salt keeps the scenario stream distinct from the
            // `Synthetic` stream under an equal seed.
            rng: SmallRng::seed_from_u64(seed ^ 0x5ce9_a110),
            cursors: vec![0; spec.regions.len()],
            windows: spec
                .regions
                .iter()
                .map(|r| Window::new(r.bytes, r.grow))
                .collect(),
            regions: Vec::new(),
            dists: Vec::new(),
            schedule_ns: cursor,
            schedule_mod: FastMod::new(cursor),
            name,
            spec,
            start_ns,
            phases,
        }
    }

    /// The mapped region handles (available after `init`).
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Index of the phase active at `t` ns past this tenant's arrival.
    fn phase_index_at(&self, t: u64) -> usize {
        let tp = if self.spec.repeat {
            self.schedule_mod.rem(t)
        } else {
            t.min(self.schedule_ns - 1)
        };
        self.phases
            .iter()
            .rposition(|p| tp >= p.start_ns)
            .expect("phase 0 starts at 0")
    }
}

/// `x % window`, without the divide when `x` is already inside the
/// window — always, for a sampler over a region at full size.
#[inline]
fn reduce(x: u64, window: u64) -> u64 {
    if x < window {
        x
    } else {
        x % window
    }
}

impl Workload for PhasedWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&mut self, engine: &mut Engine) {
        for decl in &self.spec.regions {
            let region = Region::map(engine, decl.bytes, decl.thp, decl.file_backed, &decl.name);
            // Growing regions demand-page beyond their start window later;
            // everything else is fully resident before measurement, like
            // the paper's load phase.
            let warm_bytes = decl.grow.map_or(decl.bytes, |g| g.start_bytes);
            let mut off = 0;
            while off < warm_bytes {
                engine.access(region.base + off, true);
                off += 4096;
            }
            let lines = region.bytes / 64;
            self.dists.push(match decl.pattern {
                PatternSpec::Uniform => LineDist::Uniform(UniformDist::new(lines)),
                PatternSpec::Zipfian { theta } => {
                    LineDist::Zipfian(ScrambledZipfian::with_theta(lines, theta))
                }
                PatternSpec::Hotspot {
                    hot_key_fraction,
                    hot_traffic_fraction,
                } => LineDist::Hotspot(HotspotDist::new(
                    lines,
                    hot_key_fraction,
                    hot_traffic_fraction,
                )),
                PatternSpec::Sequential => LineDist::Sequential,
            });
            self.regions.push(region);
        }
    }

    fn next_op(&mut self, now_ns: u64, accesses: &mut Vec<Access>) -> Option<u64> {
        // Not arrived yet: idle (no accesses) until the start time.
        if now_ns < self.start_ns {
            return Some(self.start_ns - now_ns);
        }
        let t = now_ns - self.start_ns;
        let p = self.phase_index_at(t);

        // Draw order is part of the golden contract: region pick, write
        // draw, line draw. Field-projected borrows keep `rng` disjoint
        // from the phase table.
        let mut pick = self.rng.gen_range(0..self.phases[p].total_weight);
        let mut chosen = self.phases[p].mix[0];
        for m in &self.phases[p].mix {
            if pick < m.1 {
                chosen = *m;
                break;
            }
            pick -= m.1;
        }
        let (idx, _, write_pct, lines_per_op) = chosen;
        let write = self.rng.gen_range(0..100u8) < write_pct;
        let window = self.windows[idx].lines_at(t);
        let line = match &self.dists[idx] {
            LineDist::Uniform(d) => reduce(d.sample(&mut self.rng), window),
            LineDist::Zipfian(d) => reduce(d.sample(&mut self.rng), window),
            LineDist::Hotspot(d) => reduce(d.sample(&mut self.rng), window),
            LineDist::Sequential => {
                let c = reduce(self.cursors[idx], window);
                self.cursors[idx] = c + 1;
                c
            }
        };
        let region = self.regions[idx];
        let window_bytes = window * 64;
        // Wrap within the *window*, not the declared size, so growth alone
        // widens the touched set: `off` steps through `((line + l) * 64) %
        // window_bytes` one line at a time.
        let mut off = line * 64;
        for _ in 0..lines_per_op {
            let va = region.base + off;
            accesses.push(if write {
                Access::write(va)
            } else {
                Access::read(va)
            });
            off = wrap_add(off, 64, window_bytes);
        }
        Some(self.phases[p].effective_compute_ns)
    }

    fn footprint(&self) -> FootprintInfo {
        FootprintInfo {
            anon_bytes: self.spec.anon_bytes(),
            file_bytes: self.spec.file_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MixEntry, PhaseSpec, RegionDecl};
    use thermo_sim::{run_ops, NoPolicy, SimConfig};

    const PAGE: u64 = 4096;

    fn engine() -> Engine {
        Engine::new(SimConfig::paper_defaults(64 << 20, 64 << 20))
    }

    fn region(name: &str, pages: u64, pattern: PatternSpec) -> RegionDecl {
        RegionDecl {
            name: name.to_string(),
            bytes: pages * PAGE,
            pattern,
            thp: true,
            file_backed: false,
            grow: None,
        }
    }

    fn mix(region: &str, weight: u32) -> MixEntry {
        MixEntry {
            region: region.to_string(),
            weight,
            write_pct: 10,
            lines_per_op: 1,
        }
    }

    fn two_phase_spec() -> PhasedSpec {
        PhasedSpec {
            compute_ns: 500,
            repeat: true,
            regions: vec![
                region("hot", 128, PatternSpec::Uniform),
                region("archive", 256, PatternSpec::Zipfian { theta: 0.9 }),
            ],
            phases: vec![
                PhaseSpec {
                    name: "day".to_string(),
                    duration_ns: 1_000_000,
                    rate_pct: 100,
                    mix: vec![mix("hot", 1)],
                },
                PhaseSpec {
                    name: "night".to_string(),
                    duration_ns: 1_000_000,
                    rate_pct: 10,
                    mix: vec![mix("archive", 1)],
                },
            ],
        }
    }

    #[test]
    fn maps_all_regions_at_declared_size() {
        let mut e = engine();
        let mut w = PhasedWorkload::new("t".to_string(), two_phase_spec(), 0, 1);
        w.init(&mut e);
        assert_eq!(e.rss_bytes(), (128 + 256) * PAGE);
        assert_eq!(w.regions().len(), 2);
        let fp = w.footprint();
        assert_eq!(fp.anon_bytes, (128 + 256) * PAGE);
        assert_eq!(fp.file_bytes, 0);
    }

    #[test]
    fn phases_switch_mix_and_rate() {
        let mut w = PhasedWorkload::new("t".to_string(), two_phase_spec(), 0, 1);
        let mut e = engine();
        w.init(&mut e);
        let hot = w.regions()[0];
        let mut acc = Vec::new();
        // Day phase: traffic in `hot` at base rate.
        let cost_day = w.next_op(0, &mut acc).unwrap();
        assert_eq!(cost_day, 500);
        assert!(acc[0].va.0 >= hot.base.0 && acc[0].va.0 < hot.base.0 + hot.bytes);
        // Night phase: 10% rate => 10x the per-op compute, archive traffic.
        acc.clear();
        let cost_night = w.next_op(1_500_000, &mut acc).unwrap();
        assert_eq!(cost_night, 5_000);
        assert!(acc[0].va.0 >= hot.base.0 + hot.bytes);
        // Repeat wraps back into day.
        acc.clear();
        assert_eq!(w.next_op(2_000_001, &mut acc).unwrap(), 500);
    }

    #[test]
    fn clamps_into_last_phase_without_repeat() {
        let mut spec = two_phase_spec();
        spec.repeat = false;
        let mut w = PhasedWorkload::new("t".to_string(), spec, 0, 1);
        let mut e = engine();
        w.init(&mut e);
        let mut acc = Vec::new();
        assert_eq!(w.next_op(50_000_000, &mut acc).unwrap(), 5_000);
    }

    #[test]
    fn arrival_idles_without_accesses() {
        let mut w = PhasedWorkload::new("t".to_string(), two_phase_spec(), 10_000, 1);
        let mut e = engine();
        w.init(&mut e);
        let mut acc = Vec::new();
        let wait = w.next_op(0, &mut acc).unwrap();
        assert_eq!(wait, 10_000);
        assert!(acc.is_empty(), "no traffic before arrival");
        assert!(w.next_op(10_000, &mut acc).is_some());
        assert!(!acc.is_empty());
    }

    #[test]
    fn growth_widens_the_touched_window() {
        let mut spec = two_phase_spec();
        spec.repeat = false;
        spec.regions[0].grow = Some(GrowthSpec {
            start_bytes: 16 * PAGE,
            full_at_ns: 1_000_000,
            reset_period_ns: 0,
            step: false,
        });
        spec.phases[1].mix = vec![mix("hot", 1)]; // keep traffic in the grower
        let mut w = PhasedWorkload::new("t".to_string(), spec, 0, 1);
        let mut e = engine();
        w.init(&mut e);
        // Only the start window is resident at init.
        assert_eq!(e.rss_bytes(), (16 + 256) * PAGE);
        assert_eq!(w.windows[0].lines_at(0), 16 * PAGE / 64);
        assert_eq!(w.windows[0].lines_at(500_000), 72 * PAGE / 64);
        assert_eq!(w.windows[0].lines_at(2_000_000), 128 * PAGE / 64);
        // Window never exceeds the declared bound.
        for t in [0, 123_456, 999_999, 10_000_000] {
            assert!(w.windows[0].lines_at(t) <= 128 * PAGE / 64);
        }
    }

    #[test]
    fn sawtooth_growth_resets() {
        let g = GrowthSpec {
            start_bytes: 16 * PAGE,
            full_at_ns: 800_000,
            reset_period_ns: 1_000_000,
            step: false,
        };
        let mut spec = two_phase_spec();
        spec.regions[0].grow = Some(g);
        let w = PhasedWorkload::new("t".to_string(), spec, 0, 1);
        let full = 128 * PAGE / 64;
        let start = 16 * PAGE / 64;
        assert_eq!(w.windows[0].lines_at(900_000), full); // past full_at within period
        assert_eq!(w.windows[0].lines_at(1_000_000), start); // compaction reset
    }

    #[test]
    fn step_growth_jumps_at_failover() {
        let mut spec = two_phase_spec();
        spec.regions[0].grow = Some(GrowthSpec {
            start_bytes: 64 * PAGE,
            full_at_ns: 500_000,
            reset_period_ns: 0,
            step: true,
        });
        let w = PhasedWorkload::new("t".to_string(), spec, 0, 1);
        assert_eq!(w.windows[0].lines_at(499_999), 64 * PAGE / 64);
        assert_eq!(w.windows[0].lines_at(500_000), 128 * PAGE / 64);
    }

    #[test]
    fn stream_is_deterministic_in_seed() {
        let mk = || PhasedWorkload::new("t".to_string(), two_phase_spec(), 0, 42);
        let (mut a, mut b) = (mk(), mk());
        let (mut ea, mut eb) = (engine(), engine());
        a.init(&mut ea);
        b.init(&mut eb);
        let (mut va, mut vb) = (Vec::new(), Vec::new());
        for i in 0..5_000u64 {
            va.clear();
            vb.clear();
            let ca = a.next_op(i * 500, &mut va);
            let cb = b.next_op(i * 500, &mut vb);
            assert_eq!(ca, cb);
            assert_eq!(va, vb);
        }
        let mut c = PhasedWorkload::new("t".to_string(), two_phase_spec(), 0, 43);
        let mut ec = engine();
        c.init(&mut ec);
        let mut vc = Vec::new();
        let mut diverged = false;
        for i in 0..100u64 {
            va.clear();
            vc.clear();
            a.next_op(i * 500, &mut va);
            c.next_op(i * 500, &mut vc);
            if va != vc {
                diverged = true;
            }
        }
        assert!(diverged, "different seeds must give different streams");
    }

    #[test]
    fn runs_under_the_engine() {
        let mut e = engine();
        let mut w = PhasedWorkload::new("t".to_string(), two_phase_spec(), 0, 9);
        w.init(&mut e);
        let out = run_ops(&mut e, &mut w, &mut NoPolicy, 10_000);
        assert_eq!(out.ops, 10_000);
        assert!(e.rss_bytes() <= (128 + 256) * PAGE);
    }
}
