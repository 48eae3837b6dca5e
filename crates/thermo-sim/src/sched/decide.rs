//! The scheduler's only randomized choice — the ordering-fuzz
//! permutation — isolated in `decide.rs` per the repo's RNG-containment
//! rule (thermo-lint D3): every draw site lives here, is pure in
//! `(rng state, inputs)`, and is unit-testable without a scheduler.

use thermo_util::rng::{SliceRandom, SmallRng};

/// Fisher–Yates–shuffles the order in which live tenants are advanced
/// through the next barrier interval.
///
/// Tenants between two arbiter barriers share no state, so the contract
/// says this order must not be observable; `tests/sched_fuzz.rs` asserts
/// artifacts are byte-identical under four seeds of this permutation.
pub(crate) fn permute_tenants(rng: &mut SmallRng, order: &mut [usize]) {
    order.shuffle(rng);
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermo_util::rng::SeedableRng;

    #[test]
    fn permutation_is_seed_deterministic_and_a_bijection() {
        let mut a: Vec<usize> = (0..16).collect();
        let mut b = a.clone();
        permute_tenants(&mut SmallRng::seed_from_u64(7), &mut a);
        permute_tenants(&mut SmallRng::seed_from_u64(7), &mut b);
        assert_eq!(a, b, "same seed, same permutation");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>(), "a permutation");
        let mut c: Vec<usize> = (0..16).collect();
        permute_tenants(&mut SmallRng::seed_from_u64(8), &mut c);
        assert_ne!(a, c, "different seeds diverge (16! ≫ collisions)");
    }
}
