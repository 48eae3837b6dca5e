//! Reference equivalence: `PhasedWorkload::next_op` runs no hardware
//! divide on its hot path (strength-reduced periods, compare-and-wrap
//! line offsets, a `u64` linear-growth product), and must still produce
//! exactly the stream of the plain-arithmetic generator. The reference
//! below is that generator written out with `%`, `/` and `u128`
//! products; random specs are compared against it op by op over linear,
//! step and sawtooth growth, every access pattern, `lines_per_op` wider
//! than the window, `repeat` on and off, and arrival offsets.

use thermo_mem::VirtAddr;
use thermo_scenario::{
    GrowthSpec, MixEntry, PatternSpec, PhaseSpec, PhasedSpec, PhasedWorkload, RegionDecl,
};
use thermo_sim::{Access, Engine, SimConfig, Workload};
use thermo_util::forall;
use thermo_util::proptest_lite::{any, range, vec_of};
use thermo_util::rng::{Rng, SeedableRng, SmallRng};
use thermo_workloads::dist::{fnv_mix, HotspotDist, KeyDist, UniformDist, ZipfianDist};

const PAGE: u64 = 4096;

/// The line samplers, with the scrambled Zipfian spelled out as
/// `fnv_mix(rank) % n`.
enum RefDist {
    Uniform(UniformDist),
    Zipfian(ZipfianDist),
    Hotspot(HotspotDist),
    Sequential,
}

/// A phase with its mix resolved to `(region, weight, write_pct,
/// lines_per_op)`.
struct RefPhase {
    start_ns: u64,
    compute_ns: u64,
    total_weight: u32,
    mix: Vec<(usize, u32, u8, u32)>,
}

/// The generator with plain `%` and `u128` arithmetic.
struct Reference {
    spec: PhasedSpec,
    start_ns: u64,
    rng: SmallRng,
    bases: Vec<VirtAddr>,
    dists: Vec<RefDist>,
    cursors: Vec<u64>,
    phases: Vec<RefPhase>,
    schedule_ns: u64,
}

impl Reference {
    fn new(spec: PhasedSpec, start_ns: u64, seed: u64, bases: Vec<VirtAddr>) -> Self {
        let mut phases = Vec::new();
        let mut cursor = 0;
        for ph in &spec.phases {
            let mix: Vec<(usize, u32, u8, u32)> = ph
                .mix
                .iter()
                .map(|m| {
                    let idx = spec
                        .regions
                        .iter()
                        .position(|r| r.name == m.region)
                        .unwrap();
                    (idx, m.weight, m.write_pct, m.lines_per_op)
                })
                .collect();
            phases.push(RefPhase {
                start_ns: cursor,
                compute_ns: (spec.compute_ns * 100 / ph.rate_pct as u64).max(1),
                total_weight: mix.iter().map(|m| m.1).sum(),
                mix,
            });
            cursor += ph.duration_ns;
        }
        let dists = spec
            .regions
            .iter()
            .map(|r| {
                let lines = r.bytes / 64;
                match r.pattern {
                    PatternSpec::Uniform => RefDist::Uniform(UniformDist::new(lines)),
                    PatternSpec::Zipfian { theta } => {
                        RefDist::Zipfian(ZipfianDist::new(lines, theta))
                    }
                    PatternSpec::Hotspot {
                        hot_key_fraction,
                        hot_traffic_fraction,
                    } => RefDist::Hotspot(HotspotDist::new(
                        lines,
                        hot_key_fraction,
                        hot_traffic_fraction,
                    )),
                    PatternSpec::Sequential => RefDist::Sequential,
                }
            })
            .collect();
        Self {
            rng: SmallRng::seed_from_u64(seed ^ 0x5ce9_a110),
            cursors: vec![0; spec.regions.len()],
            schedule_ns: cursor,
            spec,
            start_ns,
            bases,
            dists,
            phases,
        }
    }

    fn window(&self, idx: usize, t: u64) -> u64 {
        let decl = &self.spec.regions[idx];
        let full = decl.bytes / 64;
        let Some(g) = decl.grow else {
            return full;
        };
        let start = g.start_bytes / 64;
        let te = if g.reset_period_ns > 0 {
            t % g.reset_period_ns
        } else {
            t
        };
        if te >= g.full_at_ns {
            full
        } else if g.step {
            start
        } else {
            start + ((full - start) as u128 * te as u128 / g.full_at_ns as u128) as u64
        }
    }

    fn next_op(&mut self, now_ns: u64, out: &mut Vec<Access>) -> u64 {
        if now_ns < self.start_ns {
            return self.start_ns - now_ns;
        }
        let t = now_ns - self.start_ns;
        let tp = if self.spec.repeat {
            t % self.schedule_ns
        } else {
            t.min(self.schedule_ns - 1)
        };
        let phase = &self.phases[self
            .phases
            .iter()
            .rposition(|ph| tp >= ph.start_ns)
            .unwrap()];
        let mut pick = self.rng.gen_range(0..phase.total_weight);
        let mut chosen = phase.mix[0];
        for m in &phase.mix {
            if pick < m.1 {
                chosen = *m;
                break;
            }
            pick -= m.1;
        }
        let (idx, _, write_pct, lines_per_op) = chosen;
        let write = self.rng.gen_range(0..100u8) < write_pct;
        let window = self.window(idx, t);
        let line = match &self.dists[idx] {
            RefDist::Uniform(d) => d.sample(&mut self.rng) % window,
            RefDist::Zipfian(d) => fnv_mix(d.sample(&mut self.rng)) % d.n() % window,
            RefDist::Hotspot(d) => d.sample(&mut self.rng) % window,
            RefDist::Sequential => {
                let c = self.cursors[idx] % window;
                self.cursors[idx] = c + 1;
                c
            }
        };
        for l in 0..lines_per_op as u64 {
            let va = self.bases[idx] + ((line + l) * 64) % (window * 64);
            out.push(Access { va, write });
        }
        phase.compute_ns
    }
}

fn pattern(sel: u64) -> PatternSpec {
    match sel % 4 {
        0 => PatternSpec::Uniform,
        1 => PatternSpec::Zipfian { theta: 0.9 },
        2 => PatternSpec::Hotspot {
            hot_key_fraction: 0.125,
            hot_traffic_fraction: 0.875,
        },
        _ => PatternSpec::Sequential,
    }
}

/// Growth periods, from small to ones whose linear product overflows
/// `u64` (exercising the `u128` fallback).
const FULL_AT_NS: [u64; 5] = [1, 3_000, 200_000, 1 << 40, 1 << 62];
const RESET_NS: [u64; 4] = [0, 500_000, 7 << 40, u64::MAX / 3];

/// One region: `pages` declared, `start_lines` growth start in lines (0 =
/// no growth; sub-page starts give windows narrower than `lines_per_op`),
/// and a packed `misc` selecting step (`misc % 2`), the full-at period
/// (`misc / 2 % 5`) and the sawtooth reset (`misc / 10 % 4`).
fn region(i: usize, &(pages, start_lines, pattern_sel, misc): &(u64, u64, u64, u64)) -> RegionDecl {
    let grow = (start_lines > 0).then(|| GrowthSpec {
        start_bytes: (start_lines * 64).min(pages * PAGE),
        full_at_ns: FULL_AT_NS[(misc / 2 % 5) as usize],
        reset_period_ns: RESET_NS[(misc / 10 % 4) as usize],
        step: misc % 2 == 1,
    });
    RegionDecl {
        name: format!("r{i}"),
        bytes: pages * PAGE,
        pattern: pattern(pattern_sel),
        thp: pattern_sel % 2 == 0,
        file_backed: false,
        grow,
    }
}

#[test]
fn phased_stream_matches_the_plain_arithmetic_reference() {
    forall!(
        cases = 40,
        (region_draws in vec_of(
            (
                range(1u64..24), // pages
                range(0u64..80), // growth start lines (0 = no growth)
                range(0u64..8),  // pattern selector
                range(0u64..40), // packed step/full-at/reset selector
            ),
            1..4,
        )),
        (phase_draws in vec_of(
            (
                range(1u64..2_000_000), // duration_ns
                range(1u32..400),       // rate_pct
                range(1u32..65),        // lines_per_op
                range(0u8..101),        // write_pct
            ),
            1..4,
        )),
        (repeat in any::<bool>()),
        (seed in range(0u64..1_000_000))
    => {
        let regions: Vec<RegionDecl> =
            region_draws.iter().enumerate().map(|(i, d)| region(i, d)).collect();
        let phases: Vec<PhaseSpec> = phase_draws
            .iter()
            .enumerate()
            .map(|(p, &(duration_ns, rate_pct, lines_per_op, write_pct))| PhaseSpec {
                name: format!("p{p}"),
                duration_ns,
                rate_pct,
                mix: regions
                    .iter()
                    .enumerate()
                    .map(|(i, r)| MixEntry {
                        region: r.name.clone(),
                        weight: 1 + ((i + p) % 3) as u32,
                        write_pct,
                        lines_per_op,
                    })
                    .collect(),
            })
            .collect();
        let spec = PhasedSpec {
            compute_ns: 700,
            repeat,
            regions,
            phases,
        };
        let start_ns = [0, 1_000, 1 << 30][(seed % 3) as usize];
        let mut engine = Engine::new(SimConfig::paper_defaults(64 << 20, 64 << 20));
        let mut w = PhasedWorkload::new("t".to_string(), spec.clone(), start_ns, seed);
        w.init(&mut engine);
        let bases = w.regions().iter().map(|r| r.base).collect();
        let mut reference = Reference::new(spec, start_ns, seed, bases);

        // Mostly the run's own advancing clock, with jumps to arbitrary
        // times that reach deep into every growth and schedule period.
        let mut clock = SmallRng::seed_from_u64(seed);
        let mut now = 0u64;
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for op in 0..1_500 {
            got.clear();
            want.clear();
            let cost = w.next_op(now, &mut got).expect("phased streams never end");
            assert_eq!(cost, reference.next_op(now, &mut want), "compute, op {op} at {now}");
            assert_eq!(got, want, "accesses, op {op} at {now}");
            now = if clock.gen_range(0..16u32) == 0 {
                clock.next_u64()
            } else {
                now.saturating_add(cost)
            };
        }
    });
}
