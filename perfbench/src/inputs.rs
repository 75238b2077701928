//! Seeded inputs: every proof gets its own instance, derived from the run
//! seed, and the program under test only ever sees the generated values.

use batchzk::field::{Field, Fr, SplitMix64};
use batchzk::gpu_sim::ArrivalPlan;
use batchzk::zkp::{MixedInstance, R1cs};

/// Derives an independent 64-bit seed for item `index` of input stream
/// `stream` (SplitMix64 finaliser over the three words).
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Input streams, so no two kinds of input share seeds.
pub mod stream {
    pub const SPARTAN: u64 = 1;
    pub const ORION: u64 = 2;
    pub const GROTH: u64 = 3;
    pub const ARRIVALS: u64 = 4;
    pub const SELF_TEST: u64 = 5;
}

/// A fresh satisfying `(inputs, witness)` for the multiplication chain of
/// `synthetic_r1cs`: `w0` is drawn from `seed`, and every later `w_{r+1}`
/// is the product the constraint in row `r` fixes, `w_r · w_j`, with `j`
/// read from the circuit's `B` matrix. The public input is the last
/// value. Returns `None` if the result does not satisfy the circuit.
pub fn spartan_instance(r1cs: &R1cs<Fr>, seed: u64) -> Option<(Vec<Fr>, Vec<Fr>)> {
    let s = r1cs.num_witness();
    let half = r1cs.half_len();
    let mut factor = vec![None; s];
    for &(row, col, _) in r1cs.b.entries() {
        if row < s && col >= half {
            factor[row] = Some(col - half);
        }
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut w = Vec::with_capacity(s);
    w.push(Fr::random(&mut rng));
    for r in 0..s - 1 {
        let j = factor[r]?;
        if j > r {
            return None;
        }
        let next = w[r] * w[j];
        w.push(next);
    }
    let inputs = vec![w[s - 1]];
    r1cs.is_satisfied(&r1cs.assemble_z(&inputs, &w))
        .then_some((inputs, w))
}

/// The statement a mixed proof must attest to, fixed from its instance
/// before proving. Groth16-style statements are the witness prefix the
/// circuit exposes, so only a non-empty prefix of the witness is known.
pub enum Expected {
    Sumcheck(Vec<Fr>),
    Groth(Vec<Fr>),
    Orion(Vec<Fr>),
}

impl Expected {
    pub fn of(instance: &MixedInstance) -> Self {
        match instance {
            MixedInstance::Sumcheck((inputs, _)) => Expected::Sumcheck(inputs.clone()),
            MixedInstance::Groth(witness) => Expected::Groth(witness.clone()),
            MixedInstance::Orion((_, point)) => Expected::Orion(point.clone()),
        }
    }

    pub fn matches(&self, statement: &batchzk::zkp::MixedStatement) -> bool {
        use batchzk::zkp::MixedStatement as S;
        match (self, statement) {
            (Expected::Sumcheck(e), S::Sumcheck(s)) | (Expected::Orion(e), S::Orion(s)) => e == s,
            (Expected::Groth(w), S::Groth(s)) => !s.is_empty() && w.starts_with(s),
            _ => false,
        }
    }
}

/// Segments of the mixed-service arrival plan, in trace time units
/// (100 units = one sumcheck proof interval on one device): start,
/// generator, mean gap, count. 310 arrivals over three classes and all
/// three protocols (180 sumcheck, 120 Orion, 10 Groth16-style, which
/// alone is a third of the host stage time); on/off bulk bursts on top
/// of steady Poisson streams, so the four-device pool builds queues
/// without turning any request away.
const MIXED_SEGMENTS: [(&str, u64, &str, u64, u32); 7] = [
    ("interactive", 0, "poisson", 60, 60),
    ("interactive/groth16", 0, "poisson", 600, 6),
    ("standard", 300, "poisson", 60, 70),
    ("standard/orion", 0, "poisson", 60, 60),
    ("standard/groth16", 1000, "poisson", 800, 4),
    ("bulk/sumcheck", 0, "onoff:300:600", 12, 50),
    ("bulk/orion", 200, "onoff:300:600", 12, 60),
];

/// Mixed-service arrival plan number `plan`: the segment shape above with
/// per-segment Poisson seeds fixed by the plan number. The traffic is part
/// of the workload's definition and the same for every run seed, so the
/// simulated metrics are exact and host metrics vary only with the host.
pub fn mixed_plan(plan: u64) -> ArrivalPlan {
    let spec: Vec<String> = MIXED_SEGMENTS
        .iter()
        .enumerate()
        .map(|(i, (label, start, kind, gap, count))| {
            let s = sub_seed(plan, stream::ARRIVALS, i as u64) % 1_000_000_007;
            match kind.split_once(':') {
                Some((k, onoff)) => format!("{label}@{start}:{k}:{gap}:{count}:{s}:{onoff}"),
                None => format!("{label}@{start}:{kind}:{gap}:{count}:{s}"),
            }
        })
        .collect();
    ArrivalPlan::parse(&spec.join(",")).expect("the mixed plan is well formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchzk::zkp::r1cs::synthetic_r1cs;

    #[test]
    fn chain_witnesses_satisfy_and_differ() {
        let (r1cs, _, _) = synthetic_r1cs::<Fr>(64, 7);
        let a = spartan_instance(&r1cs, 1).expect("satisfies");
        let b = spartan_instance(&r1cs, 2).expect("satisfies");
        assert_ne!(a.1, b.1);
        assert_eq!(spartan_instance(&r1cs, 1).unwrap().1, a.1);
    }

    #[test]
    fn mixed_plan_is_seeded_and_sized() {
        let a = mixed_plan(1).expand();
        assert_eq!(a.len(), 310);
        assert_eq!(a, mixed_plan(1).expand());
        assert_ne!(a, mixed_plan(2).expand());
    }
}
