//! Fiat–Shamir sum-check provers for the polynomial shapes the SNARK needs:
//! plain multilinear (degree 1), products of two multilinears (degree 2),
//! and the Spartan core `eq·(a·b - c)` (degree 3).

use batchzk_field::{batch_invert, Field};
use batchzk_hash::Transcript;

use crate::poly::{eq_table, MultilinearPoly};
use crate::rounds::{prover_round_challenge, LagrangeDenoms, SumcheckProof};

/// Output of a prover run: the proof, the challenge vector in round order,
/// and the final evaluations of each input polynomial at the bound point.
#[derive(Debug, Clone)]
pub struct ProverOutput<F> {
    /// The round polynomials.
    pub proof: SumcheckProof<F>,
    /// Challenges `r_1, ..., r_n` in the order they were drawn (round `i`
    /// fixed variable `x_{n+1-i}`); the evaluation point in `(x_1, ..., x_n)`
    /// order is [`Self::point`].
    pub rs: Vec<F>,
    /// Final evaluation of each input polynomial at the bound point.
    pub final_evals: Vec<F>,
}

impl<F: Field> ProverOutput<F> {
    /// The evaluation point `(x_1, ..., x_n)` the final claims refer to.
    pub fn point(&self) -> Vec<F> {
        self.rs.iter().rev().copied().collect()
    }
}

/// Proves `H = Σ_b p(b)` for a single multilinear polynomial (degree-1
/// rounds). Equivalent to Algorithm 1 with transcript-derived randomness.
pub fn prove_linear<F: Field>(
    poly: MultilinearPoly<F>,
    transcript: &mut Transcript,
) -> ProverOutput<F> {
    let mut p = poly;
    let n = p.num_vars();
    let mut rounds = Vec::with_capacity(n);
    let mut rs = Vec::with_capacity(n);
    for _ in 0..n {
        let half = p.evals().len() / 2;
        let g0: F = p.evals()[..half].iter().copied().sum();
        let g1: F = p.evals()[half..].iter().copied().sum();
        let round = vec![g0, g1];
        let r = prover_round_challenge(&round, transcript);
        rounds.push(round);
        p.fix_top_variable(r);
        rs.push(r);
    }
    ProverOutput {
        proof: SumcheckProof { rounds },
        rs,
        final_evals: vec![p.evals()[0]],
    }
}

/// Proves `claim = Σ_b f(b)·g(b)` (degree-2 rounds, evaluations at
/// X ∈ {0,1,2}).
///
/// Each round computes `s(0)` and `s(2)` (two multiplies per pair) and
/// takes `s(1) = claim − s(0)` from the running claim. With the true
/// claim the rounds are exactly those of the direct three-point loop; a
/// false claim yields a proof the verifier's final check rejects.
///
/// # Panics
///
/// Panics if the polynomials have different variable counts.
pub fn prove_quadratic<F: Field>(
    f: MultilinearPoly<F>,
    g: MultilinearPoly<F>,
    claim: F,
    transcript: &mut Transcript,
) -> ProverOutput<F> {
    assert_eq!(f.num_vars(), g.num_vars(), "variable count mismatch");
    let (mut f, mut g, mut claim) = (f, g, claim);
    let n = f.num_vars();
    let denoms = LagrangeDenoms::new(2);
    let mut rounds = Vec::with_capacity(n);
    let mut rs = Vec::with_capacity(n);
    for _ in 0..n {
        let half = f.evals().len() / 2;
        let (f_lo, f_hi) = f.evals().split_at(half);
        let (g_lo, g_hi) = g.evals().split_at(half);
        let e0 = F::dot(f_lo, g_lo);
        // X = 2 on the line through t0, t1: t1 + (t1 − t0).
        let e2 = F::dot_pairs(
            f_lo.iter()
                .zip(f_hi)
                .zip(g_lo.iter().zip(g_hi))
                .map(|((&f0, &f1), (&g0, &g1))| (f1 + f1 - f0, g1 + g1 - g0)),
        );
        let round = vec![e0, claim - e0, e2];
        let r = prover_round_challenge(&round, transcript);
        claim = denoms.interpolate_at(&round, r);
        rounds.push(round);
        f.fix_top_variable(r);
        g.fix_top_variable(r);
        rs.push(r);
    }
    ProverOutput {
        proof: SumcheckProof { rounds },
        rs,
        final_evals: vec![f.evals()[0], g.evals()[0]],
    }
}

/// Proves `claim = Σ_b eq(τ, b)·(a(b)·c(b) − d(b))` — the Spartan outer
/// sum-check (degree-3 rounds, evaluations at X ∈ {0,1,2,3}).
///
/// The full eq table is never built or folded. The round binding
/// variable `x_k` factors as `s(X) = P·l(X)·q(X)` (Gruen's eq-factoring):
/// `P` is the product of `eq(τ_j, r_j)` over the variables already bound,
/// `l(X) = eq(τ_k, X)` is linear, and `q(X) = Σ_b E[b]·(a·c − d)(b, X)` is
/// quadratic with `E = eq(τ_1..τ_{k−1}, ·)`. The prover sums `q(0)` and
/// `q(2)` (four multiplies per pair), takes `s(1) = claim − s(0)` from the
/// running claim, recovers `P·q(1) = s(1)/τ_k` from it and extrapolates
/// `q(3)`. `E` starts at half the eq table's size and shrinks by additions
/// only, since `E[b] + E[b + half]` drops its top factor. The a/c/d tables
/// fold in place.
///
/// With the true claim every round is the same polynomial as the direct
/// four-point loop, so proofs are unchanged; a false claim yields a proof
/// the verifier's final check rejects.
///
/// The `final_evals` are `[eq, a, c, d]` at the bound point.
///
/// # Panics
///
/// Panics if a table does not have `τ.len()` variables.
pub fn prove_cubic_eq<F: Field>(
    tau: &[F],
    claim: F,
    a: MultilinearPoly<F>,
    c: MultilinearPoly<F>,
    d: MultilinearPoly<F>,
    transcript: &mut Transcript,
) -> ProverOutput<F> {
    let n = tau.len();
    assert!(
        a.num_vars() == n && c.num_vars() == n && d.num_vars() == n,
        "variable count mismatch"
    );
    let (mut a, mut c, mut d, mut claim) = (a, c, d, claim);
    let mut e = eq_table(&tau[..n.saturating_sub(1)]);
    // One inversion for the whole run; a zero τ_k stays zero and takes the
    // direct q(1) path below.
    let mut tau_inv = tau.to_vec();
    batch_invert(&mut tau_inv);
    let denoms = LagrangeDenoms::new(3);
    let (one, two, three, five) = (F::ONE, F::from(2u64), F::from(3u64), F::from(5u64));
    // P, the eq factor of the variables bound so far.
    let mut bound_eq = F::ONE;
    let mut rounds = Vec::with_capacity(n);
    let mut rs = Vec::with_capacity(n);
    for k in (0..n).rev() {
        let t = tau[k];
        let half = a.evals().len() / 2;
        let (a_lo, a_hi) = a.evals().split_at(half);
        let (c_lo, c_hi) = c.evals().split_at(half);
        let (d_lo, d_hi) = d.evals().split_at(half);
        let lo = a_lo.iter().zip(c_lo).zip(d_lo);
        let hi = a_hi.iter().zip(c_hi).zip(d_hi);
        let q0 = F::dot_pairs(
            e.iter()
                .zip(lo.clone())
                .map(|(&w, ((&a0, &c0), &d0))| (w, a0 * c0 - d0)),
        );
        // X = 2 on each table's line: t1 + (t1 − t0).
        let q2 = F::dot_pairs(e.iter().zip(lo.zip(hi.clone())).map(
            |(&w, (((&a0, &c0), &d0), ((&a1, &c1), &d1)))| {
                (w, (a1 + a1 - a0) * (c1 + c1 - c0) - (d1 + d1 - d0))
            },
        ));
        // Scaled by P: Q(X) = P·q(X), so s(X) = l(X)·Q(X).
        let (q0, q2) = (bound_eq * q0, bound_eq * q2);
        // l(X) = (1 − τ_k) + X·(2τ_k − 1) at X = 0, 2, 3.
        let s0 = (one - t) * q0;
        let s1 = claim - s0;
        // s(1) = τ_k·Q(1); when τ_k = 0 that carries no information.
        let q1 = if t.is_zero() {
            bound_eq
                * F::dot_pairs(
                    e.iter()
                        .zip(hi)
                        .map(|(&w, ((&a1, &c1), &d1))| (w, a1 * c1 - d1)),
                )
        } else {
            s1 * tau_inv[k]
        };
        // Quadratic through X = 0, 1, 2 extrapolated to 3.
        let q3 = q0 + three * (q2 - q1);
        let s2 = (three * t - one) * q2;
        let s3 = (five * t - two) * q3;
        let round = vec![s0, s1, s2, s3];
        let r = prover_round_challenge(&round, transcript);
        claim = denoms.interpolate_at(&round, r);
        bound_eq *= (one - t) + r * (t + t - one);
        rounds.push(round);
        a.fix_top_variable(r);
        c.fix_top_variable(r);
        d.fix_top_variable(r);
        // Sum out the top variable of E: eq(τ_top, 0) + eq(τ_top, 1) = 1.
        if e.len() > 1 {
            let e_half = e.len() / 2;
            let (e_lo, e_hi) = e.split_at_mut(e_half);
            for (lo, hi) in e_lo.iter_mut().zip(e_hi.iter()) {
                *lo += *hi;
            }
            e.truncate(e_half);
        }
        rs.push(r);
    }
    ProverOutput {
        proof: SumcheckProof { rounds },
        rs,
        final_evals: vec![bound_eq, a.evals()[0], c.evals()[0], d.evals()[0]],
    }
}

#[cfg(test)]
mod reference {
    //! The direct round loops the production provers replaced, kept as
    //! test oracles: every table is interpolated at each evaluation point
    //! and the eq table is materialised and folded like the others.

    use super::*;

    pub fn prove_quadratic<F: Field>(
        f: &MultilinearPoly<F>,
        g: &MultilinearPoly<F>,
        transcript: &mut Transcript,
    ) -> ProverOutput<F> {
        let mut f = f.clone();
        let mut g = g.clone();
        let n = f.num_vars();
        let mut rounds = Vec::with_capacity(n);
        let mut rs = Vec::with_capacity(n);
        let two = F::from(2u64);
        for _ in 0..n {
            let half = f.evals().len() / 2;
            let mut e0 = F::ZERO;
            let mut e1 = F::ZERO;
            let mut e2 = F::ZERO;
            for b in 0..half {
                let (f0, f1) = (f.evals()[b], f.evals()[b + half]);
                let (g0, g1) = (g.evals()[b], g.evals()[b + half]);
                e0 += f0 * g0;
                e1 += f1 * g1;
                e2 += (two * f1 - f0) * (two * g1 - g0);
            }
            let round = vec![e0, e1, e2];
            let r = prover_round_challenge(&round, transcript);
            rounds.push(round);
            f.fix_top_variable(r);
            g.fix_top_variable(r);
            rs.push(r);
        }
        ProverOutput {
            proof: SumcheckProof { rounds },
            rs,
            final_evals: vec![f.evals()[0], g.evals()[0]],
        }
    }

    pub fn prove_cubic_eq<F: Field>(
        eq: &MultilinearPoly<F>,
        a: &MultilinearPoly<F>,
        c: &MultilinearPoly<F>,
        d: &MultilinearPoly<F>,
        transcript: &mut Transcript,
    ) -> ProverOutput<F> {
        let n = eq.num_vars();
        let mut eq = eq.clone();
        let mut a = a.clone();
        let mut c = c.clone();
        let mut d = d.clone();
        let mut rounds = Vec::with_capacity(n);
        let mut rs = Vec::with_capacity(n);
        for _ in 0..n {
            let half = a.evals().len() / 2;
            let mut evals = [F::ZERO; 4];
            for b in 0..half {
                let pairs = [
                    (eq.evals()[b], eq.evals()[b + half]),
                    (a.evals()[b], a.evals()[b + half]),
                    (c.evals()[b], c.evals()[b + half]),
                    (d.evals()[b], d.evals()[b + half]),
                ];
                for (x, slot) in evals.iter_mut().enumerate() {
                    let xf = F::from(x as u64);
                    let at = |&(t0, t1): &(F, F)| t0 + xf * (t1 - t0);
                    let (eqv, av, cv, dv) =
                        (at(&pairs[0]), at(&pairs[1]), at(&pairs[2]), at(&pairs[3]));
                    *slot += eqv * (av * cv - dv);
                }
            }
            let round = evals.to_vec();
            let r = prover_round_challenge(&round, transcript);
            rounds.push(round);
            eq.fix_top_variable(r);
            a.fix_top_variable(r);
            c.fix_top_variable(r);
            d.fix_top_variable(r);
            rs.push(r);
        }
        ProverOutput {
            proof: SumcheckProof { rounds },
            rs,
            final_evals: vec![eq.evals()[0], a.evals()[0], c.evals()[0], d.evals()[0]],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::eq_eval;
    use crate::rounds::verify_rounds;
    use batchzk_field::Fr;
    use batchzk_hash::Prg;

    fn rand_poly(n: usize, rng: &mut Prg) -> MultilinearPoly<Fr> {
        MultilinearPoly::new((0..1usize << n).map(|_| Fr::random(rng)).collect())
    }

    fn inner(f: &MultilinearPoly<Fr>, g: &MultilinearPoly<Fr>) -> Fr {
        f.evals().iter().zip(g.evals()).map(|(a, b)| *a * *b).sum()
    }

    /// `Σ_b eq(τ, b)·(a·c − d)(b)` — the true claim of the cubic prover.
    fn cubic_claim(
        tau: &[Fr],
        a: &MultilinearPoly<Fr>,
        c: &MultilinearPoly<Fr>,
        d: &MultilinearPoly<Fr>,
    ) -> Fr {
        eq_table(tau)
            .iter()
            .enumerate()
            .map(|(b, w)| *w * (a.evals()[b] * c.evals()[b] - d.evals()[b]))
            .sum()
    }

    fn assert_same(got: &ProverOutput<Fr>, want: &ProverOutput<Fr>, what: &str) {
        assert_eq!(got.proof, want.proof, "{what}: rounds differ");
        assert_eq!(got.rs, want.rs, "{what}: challenges differ");
        assert_eq!(
            got.final_evals, want.final_evals,
            "{what}: final evals differ"
        );
    }

    /// Runs the eq-factored and the reference cubic provers on the same
    /// input with the true claim and asserts identical outputs.
    fn cubic_matches_reference(
        tau: &[Fr],
        a: MultilinearPoly<Fr>,
        c: MultilinearPoly<Fr>,
        d: MultilinearPoly<Fr>,
        what: &str,
    ) -> ProverOutput<Fr> {
        let claim = cubic_claim(tau, &a, &c, &d);
        let eq = MultilinearPoly::new(eq_table(tau));
        let want = reference::prove_cubic_eq(&eq, &a, &c, &d, &mut Transcript::new(b"diff"));
        let got = prove_cubic_eq(tau, claim, a, c, d, &mut Transcript::new(b"diff"));
        assert_same(&got, &want, what);
        got
    }

    #[test]
    fn linear_roundtrip() {
        let mut rng = Prg::seed_from_u64(1);
        for n in 1..=8 {
            let p = rand_poly(n, &mut rng);
            let h = p.hypercube_sum();
            let mut pt = Transcript::new(b"lin");
            let out = prove_linear(p.clone(), &mut pt);
            let mut vt = Transcript::new(b"lin");
            let (fc, rs) = verify_rounds(h, &out.proof, 1, &mut vt).expect("verifies");
            assert_eq!(rs, out.rs);
            assert_eq!(fc, out.final_evals[0]);
            assert_eq!(p.evaluate(&out.point()), fc, "n={n}");
        }
    }

    #[test]
    fn quadratic_roundtrip() {
        let mut rng = Prg::seed_from_u64(2);
        for n in 1..=7 {
            let f = rand_poly(n, &mut rng);
            let g = rand_poly(n, &mut rng);
            let h = inner(&f, &g);
            let mut pt = Transcript::new(b"quad");
            let out = prove_quadratic(f.clone(), g.clone(), h, &mut pt);
            let mut vt = Transcript::new(b"quad");
            let (fc, _) = verify_rounds(h, &out.proof, 2, &mut vt).expect("verifies");
            assert_eq!(fc, out.final_evals[0] * out.final_evals[1]);
            let point = out.point();
            assert_eq!(f.evaluate(&point), out.final_evals[0]);
            assert_eq!(g.evaluate(&point), out.final_evals[1]);
        }
    }

    #[test]
    fn cubic_eq_roundtrip() {
        let mut rng = Prg::seed_from_u64(3);
        let n = 5;
        let tau: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let a = rand_poly(n, &mut rng);
        let c = rand_poly(n, &mut rng);
        let d = rand_poly(n, &mut rng);
        let h = cubic_claim(&tau, &a, &c, &d);
        let mut pt = Transcript::new(b"cubic");
        let out = prove_cubic_eq(&tau, h, a.clone(), c, d, &mut pt);
        let mut vt = Transcript::new(b"cubic");
        let (fc, _) = verify_rounds(h, &out.proof, 3, &mut vt).expect("verifies");
        let [eqv, av, cv, dv]: [Fr; 4] = out.final_evals.clone().try_into().unwrap();
        assert_eq!(fc, eqv * (av * cv - dv));
        let point = out.point();
        assert_eq!(eq_eval(&tau, &point), eqv);
        assert_eq!(a.evaluate(&point), av);
    }

    #[test]
    fn cubic_eq_zero_claim_when_satisfied() {
        // If d == a∘c pointwise, the claim is zero regardless of eq.
        let mut rng = Prg::seed_from_u64(4);
        let n = 4;
        let tau: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let a = rand_poly(n, &mut rng);
        let c = rand_poly(n, &mut rng);
        let d = MultilinearPoly::new(
            a.evals()
                .iter()
                .zip(c.evals())
                .map(|(x, y)| *x * *y)
                .collect(),
        );
        let mut pt = Transcript::new(b"sat");
        let out = prove_cubic_eq(&tau, Fr::ZERO, a, c, d, &mut pt);
        let mut vt = Transcript::new(b"sat");
        assert!(verify_rounds(Fr::ZERO, &out.proof, 3, &mut vt).is_some());
    }

    #[test]
    fn quadratic_matches_reference_prover() {
        let mut rng = Prg::seed_from_u64(7);
        for n in 1..=10 {
            let f = rand_poly(n, &mut rng);
            let g = rand_poly(n, &mut rng);
            let want = reference::prove_quadratic(&f, &g, &mut Transcript::new(b"diff"));
            let h = inner(&f, &g);
            let got = prove_quadratic(f, g, h, &mut Transcript::new(b"diff"));
            assert_same(&got, &want, &format!("quadratic n={n}"));
        }
    }

    #[test]
    fn cubic_matches_reference_prover() {
        let mut rng = Prg::seed_from_u64(8);
        for n in 1..=10 {
            let tau: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            let (a, c, d) = (
                rand_poly(n, &mut rng),
                rand_poly(n, &mut rng),
                rand_poly(n, &mut rng),
            );
            cubic_matches_reference(&tau, a, c, d, &format!("random n={n}"));
        }
    }

    #[test]
    fn cubic_matches_reference_on_spartan_zero_claim_shape() {
        // The Spartan outer sum-check of a satisfying assignment: d = a∘c,
        // so every hypercube term and the claim vanish.
        let mut rng = Prg::seed_from_u64(9);
        for n in 1..=10 {
            let tau: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            let a = rand_poly(n, &mut rng);
            let c = rand_poly(n, &mut rng);
            let d = MultilinearPoly::new(
                a.evals()
                    .iter()
                    .zip(c.evals())
                    .map(|(x, y)| *x * *y)
                    .collect(),
            );
            assert_eq!(cubic_claim(&tau, &a, &c, &d), Fr::ZERO);
            cubic_matches_reference(&tau, a, c, d, &format!("zero claim n={n}"));
        }
    }

    #[test]
    fn cubic_matches_reference_with_boolean_tau() {
        // τ_k = 0 makes s(1) = τ_k·Q(1) carry nothing, so Q(1) must be
        // summed directly; τ_k = 1 zeroes s(0). Mix both with random
        // coordinates, at every position.
        let mut rng = Prg::seed_from_u64(10);
        for n in 1..=10 {
            for pattern in 0..3u64 {
                let tau: Vec<Fr> = (0..n)
                    .map(|i| match (i as u64 + pattern) % 3 {
                        0 => Fr::ZERO,
                        1 => Fr::ONE,
                        _ => Fr::random(&mut rng),
                    })
                    .collect();
                let (a, c, d) = (
                    rand_poly(n, &mut rng),
                    rand_poly(n, &mut rng),
                    rand_poly(n, &mut rng),
                );
                cubic_matches_reference(&tau, a, c, d, &format!("n={n} pattern={pattern}"));
            }
            let all_zero = vec![Fr::ZERO; n];
            let (a, c, d) = (
                rand_poly(n, &mut rng),
                rand_poly(n, &mut rng),
                rand_poly(n, &mut rng),
            );
            cubic_matches_reference(&all_zero, a, c, d, &format!("n={n} all-zero τ"));
        }
    }

    #[test]
    fn cubic_wrong_claim_is_caught() {
        // s(1) comes from the claim, so a false claim passes the verifier's
        // per-round sums when it verifies against that same claim — only
        // the final oracle check can catch it, and it must.
        let mut rng = Prg::seed_from_u64(11);
        for n in 1..=6 {
            let tau: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            let a = rand_poly(n, &mut rng);
            let c = rand_poly(n, &mut rng);
            let d = rand_poly(n, &mut rng);
            let h = cubic_claim(&tau, &a, &c, &d);
            let lie = h + Fr::ONE;
            let out = prove_cubic_eq(
                &tau,
                lie,
                a.clone(),
                c.clone(),
                d.clone(),
                &mut Transcript::new(b"lie"),
            );
            let oracle = |fc: Fr, rs: &[Fr]| {
                let point: Vec<Fr> = rs.iter().rev().copied().collect();
                let (av, cv, dv) = (a.evaluate(&point), c.evaluate(&point), d.evaluate(&point));
                fc == eq_eval(&tau, &point) * (av * cv - dv)
            };
            // Against the true claim the round sums already fail.
            let honest = verify_rounds(h, &out.proof, 3, &mut Transcript::new(b"lie"));
            assert!(honest.is_none_or(|(fc, rs)| !oracle(fc, &rs)), "n={n}");
            // Against the false claim the rounds pass; the oracle must not.
            let (fc, rs) = verify_rounds(lie, &out.proof, 3, &mut Transcript::new(b"lie"))
                .expect("round sums follow the claim");
            assert!(!oracle(fc, &rs), "n={n}: false claim accepted");
        }
    }

    #[test]
    fn quadratic_wrong_claim_is_caught() {
        let mut rng = Prg::seed_from_u64(12);
        for n in 1..=6 {
            let f = rand_poly(n, &mut rng);
            let g = rand_poly(n, &mut rng);
            let h = inner(&f, &g);
            let lie = h + Fr::ONE;
            let out = prove_quadratic(f.clone(), g.clone(), lie, &mut Transcript::new(b"lie"));
            let oracle = |fc: Fr, rs: &[Fr]| {
                let point: Vec<Fr> = rs.iter().rev().copied().collect();
                fc == f.evaluate(&point) * g.evaluate(&point)
            };
            let honest = verify_rounds(h, &out.proof, 2, &mut Transcript::new(b"lie"));
            assert!(honest.is_none_or(|(fc, rs)| !oracle(fc, &rs)), "n={n}");
            let (fc, rs) = verify_rounds(lie, &out.proof, 2, &mut Transcript::new(b"lie"))
                .expect("round sums follow the claim");
            assert!(!oracle(fc, &rs), "n={n}: false claim accepted");
        }
    }

    #[test]
    fn wrong_claim_rejected() {
        let mut rng = Prg::seed_from_u64(5);
        let f = rand_poly(4, &mut rng);
        let g = rand_poly(4, &mut rng);
        let h = inner(&f, &g);
        let mut pt = Transcript::new(b"neg");
        let out = prove_quadratic(f, g, h, &mut pt);
        let mut vt = Transcript::new(b"neg");
        assert!(verify_rounds(h + Fr::ONE, &out.proof, 2, &mut vt).is_none());
    }

    #[test]
    fn transcript_domain_binds_proof() {
        // Verifying under a different domain must fail the final oracle
        // check (challenges diverge).
        let mut rng = Prg::seed_from_u64(6);
        let p = rand_poly(5, &mut rng);
        let h = p.hypercube_sum();
        let mut pt = Transcript::new(b"domain-a");
        let out = prove_linear(p.clone(), &mut pt);
        let mut vt = Transcript::new(b"domain-b");
        if let Some((fc, rs)) = verify_rounds(h, &out.proof, 1, &mut vt) {
            let point: Vec<Fr> = rs.iter().rev().copied().collect();
            assert_ne!(p.evaluate(&point), fc);
        }
    }
}
