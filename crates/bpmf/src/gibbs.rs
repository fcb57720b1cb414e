//! The BPMF Gibbs sampler math (Salakhutdinov & Mnih, ICML'08).
//!
//! Latent matrices are stored flat, column-per-entity: entity `e`'s
//! K-vector occupies `[e*K, (e+1)*K)`. This layout makes each rank's
//! block of entities a contiguous slice — exactly what the allgather
//! exchanges.

use linalg::rng::SmallRng;
use linalg::sample::{mvn_with_chol, standard_normal, wishart};
use linalg::{Cholesky, Csr, Mat};

/// Observation precision (the BPMF reference code fixes α = 2).
pub const ALPHA: f64 = 2.0;

/// Normal–Wishart hyperparameters for one side (users or items).
#[derive(Debug, Clone)]
pub struct HyperParams {
    /// Precision matrix Λ (K×K).
    pub lambda: Mat,
    /// Mean vector μ (K).
    pub mu: Vec<f64>,
}

impl HyperParams {
    /// The initial hyperparameters: μ = 0, Λ = I.
    pub fn initial(k: usize) -> Self {
        Self {
            lambda: Mat::eye(k),
            mu: vec![0.0; k],
        }
    }
}

/// Deterministic per-(seed, iteration, entity-class, rank) RNG stream.
pub fn stream_rng(seed: u64, iter: usize, class: u64, rank: usize) -> SmallRng {
    let s = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(iter as u64)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        .wrapping_add(class)
        .wrapping_mul(0x94d0_49bb_1331_11eb)
        .wrapping_add(rank as u64);
    SmallRng::seed_from_u64(s)
}

/// Sample hyperparameters from the Normal–Wishart posterior given the
/// `n` latent vectors in `latent` (flat, K per entity).
///
/// Every rank calls this with the same full matrix and the same RNG
/// stream, so the draw is replicated instead of broadcast (the standard
/// trick in distributed BPMF implementations).
pub fn sample_hyper(rng: &mut SmallRng, k: usize, latent: &[f64], n: usize) -> HyperParams {
    assert_eq!(latent.len(), k * n, "latent matrix shape mismatch");
    let (beta0, nu0) = (2.0, k as f64);
    let mu0 = vec![0.0; k];

    if n == 0 {
        return HyperParams::initial(k);
    }
    let nf = n as f64;

    // Sample mean and scatter.
    let mut mean = vec![0.0; k];
    for e in 0..n {
        for d in 0..k {
            mean[d] += latent[e * k + d];
        }
    }
    for m in &mut mean {
        *m /= nf;
    }
    let mut scatter = Mat::zeros(k, k);
    let mut diff = vec![0.0; k];
    for e in 0..n {
        for d in 0..k {
            diff[d] = latent[e * k + d] - mean[d];
        }
        scatter.add_outer(&diff, 1.0);
    }

    // Posterior Normal–Wishart parameters.
    let beta_star = beta0 + nf;
    let nu_star = nu0 + nf;
    let mu_star: Vec<f64> = (0..k)
        .map(|d| (beta0 * mu0[d] + nf * mean[d]) / beta_star)
        .collect();
    let mut w_inv = Mat::eye(k); // W0^-1 = I
    w_inv = &w_inv + &scatter;
    let mut md = vec![0.0; k];
    for d in 0..k {
        md[d] = mean[d] - mu0[d];
    }
    w_inv.add_outer(&md, beta0 * nf / beta_star);
    let w_star = Cholesky::new(&w_inv)
        .expect("posterior scale must be SPD")
        .inverse();

    let lambda = wishart(rng, nu_star, &w_star);
    // μ ~ N(μ*, (β*·Λ)^-1).
    let cov = Cholesky::new(&lambda.scale(beta_star))
        .expect("posterior precision must be SPD")
        .inverse();
    let chol = Cholesky::new(&cov).expect("covariance must be SPD");
    let mu = mvn_with_chol(rng, &mu_star, &chol);
    HyperParams { lambda, mu }
}

/// Sample one entity's latent vector given its ratings and the other
/// side's full latent matrix. `ratings` iterates (other-entity, value).
pub fn sample_latent(
    rng: &mut SmallRng,
    k: usize,
    hp: &HyperParams,
    ratings: impl Iterator<Item = (usize, f64)>,
    other: &dyn Fn(usize) -> Vec<f64>,
    mean_shift: f64,
) -> Vec<f64> {
    let mut precision = hp.lambda.clone();
    let mut rhs = hp.lambda.matvec(&hp.mu);
    for (j, value) in ratings {
        let vj = other(j);
        precision.add_outer(&vj, ALPHA);
        let centered = value - mean_shift;
        for d in 0..k {
            rhs[d] += ALPHA * centered * vj[d];
        }
    }
    let chol_prec = Cholesky::new(&precision).expect("posterior precision must be SPD");
    let mean = chol_prec.solve(&rhs);
    let cov = chol_prec.inverse();
    let chol_cov = Cholesky::new(&cov).expect("posterior covariance must be SPD");
    mvn_with_chol(rng, &mean, &chol_cov)
}

/// Flop estimate for sampling one entity with `nnz` ratings at latent
/// dimension `k`: the Σ v·vᵀ accumulation (2·nnz·k²) plus the K³-order
/// factorization/inversion work.
pub fn latent_flops(k: usize, nnz: usize) -> f64 {
    2.0 * nnz as f64 * (k * k) as f64 + 2.0 * (k * k * k) as f64
}

/// Flop estimate for one hyperparameter draw over `n` entities.
pub fn hyper_flops(k: usize, n: usize) -> f64 {
    2.0 * n as f64 * (k * k) as f64 + 4.0 * (k * k * k) as f64
}

/// Root-mean-square error of predictions `⟨u, v⟩ + mean` over triplets.
pub fn rmse(
    k: usize,
    u: &dyn Fn(usize) -> Vec<f64>,
    v: &dyn Fn(usize) -> Vec<f64>,
    test: &[(usize, usize, f64)],
    mean_shift: f64,
) -> f64 {
    assert!(!test.is_empty(), "empty test set");
    let mut se = 0.0;
    for &(ui, vi, r) in test {
        let uu = u(ui);
        let vv = v(vi);
        let pred: f64 = (0..k).map(|d| uu[d] * vv[d]).sum::<f64>() + mean_shift;
        se += (pred - r) * (pred - r);
    }
    (se / test.len() as f64).sqrt()
}

/// A full serial Gibbs run (the oracle the distributed versions are
/// tested against, and a usable single-process solver in its own right).
pub fn serial_gibbs(
    train: &Csr,
    train_t: &Csr,
    k: usize,
    iters: usize,
    seed: u64,
    mean_shift: f64,
) -> (Vec<f64>, Vec<f64>) {
    let (nu, ni) = (train.rows(), train.cols());
    let mut u = init_latent(k, nu, seed, 0);
    let mut v = init_latent(k, ni, seed, 1);
    for it in 0..iters {
        let mut hyper_rng = stream_rng(seed, it, 100, 0);
        let hp_u = sample_hyper(&mut hyper_rng, k, &u, nu);
        let hp_v = sample_hyper(&mut hyper_rng, k, &v, ni);

        // Per-entity RNG streams: the draw for an entity is independent
        // of which rank samples it, so the distributed versions produce
        // bit-identical factorizations for any partitioning.
        let v_snapshot = v.clone();
        for e in 0..nu {
            let mut rng = stream_rng(seed, it, 0, e);
            let out = sample_latent(
                &mut rng,
                k,
                &hp_u,
                train.row(e),
                &|j| v_snapshot[j * k..(j + 1) * k].to_vec(),
                mean_shift,
            );
            u[e * k..(e + 1) * k].copy_from_slice(&out);
        }
        let u_snapshot = u.clone();
        for e in 0..ni {
            let mut rng = stream_rng(seed, it, 1, e);
            let out = sample_latent(
                &mut rng,
                k,
                &hp_v,
                train_t.row(e),
                &|j| u_snapshot[j * k..(j + 1) * k].to_vec(),
                mean_shift,
            );
            v[e * k..(e + 1) * k].copy_from_slice(&out);
        }
    }
    (u, v)
}

/// Deterministic latent initialization: small noise around zero.
pub fn init_latent(k: usize, n: usize, seed: u64, class: u64) -> Vec<f64> {
    let mut rng = stream_rng(seed, usize::MAX, class, 0);
    (0..k * n)
        .map(|_| standard_normal(&mut rng) * 0.1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, SyntheticSpec};

    #[test]
    fn hyper_sampling_tracks_the_data() {
        // Latents clustered around (3, -1): posterior mean must be near.
        let k = 2;
        let n = 500;
        let mut gen = stream_rng(1, 0, 9, 0);
        let latent: Vec<f64> = (0..n)
            .flat_map(|_| {
                let a = 3.0 + standard_normal(&mut gen) * 0.2;
                let b = -1.0 + standard_normal(&mut gen) * 0.2;
                [a, b]
            })
            .collect();
        let mut rng = stream_rng(1, 0, 10, 0);
        let hp = sample_hyper(&mut rng, k, &latent, n);
        assert!((hp.mu[0] - 3.0).abs() < 0.3, "mu0 {}", hp.mu[0]);
        assert!((hp.mu[1] + 1.0).abs() < 0.3, "mu1 {}", hp.mu[1]);
        // Precision must be SPD.
        assert!(Cholesky::new(&hp.lambda).is_some());
    }

    #[test]
    fn empty_matrix_gives_prior() {
        let mut rng = stream_rng(0, 0, 0, 0);
        let hp = sample_hyper(&mut rng, 3, &[], 0);
        assert_eq!(hp.mu, vec![0.0; 3]);
    }

    #[test]
    fn latent_posterior_contracts_onto_ratings() {
        // One user rating many items whose vectors are e1: posterior u[0]
        // should approach value/|v|² -scale, definitely positive & large.
        let k = 2;
        let hp = HyperParams::initial(k);
        let mut rng = stream_rng(3, 0, 0, 0);
        let ratings: Vec<(usize, f64)> = (0..50).map(|j| (j, 4.0)).collect();
        let u = sample_latent(
            &mut rng,
            k,
            &hp,
            ratings.into_iter(),
            &|_| vec![1.0, 0.0],
            0.0,
        );
        assert!(u[0] > 3.0, "u0 {} should be pulled toward 4", u[0]);
        assert!(
            u[1].abs() < 3.5,
            "u1 {} should stay near the N(0,1) prior",
            u[1]
        );
    }

    #[test]
    fn serial_gibbs_reduces_rmse() {
        // Evaluate the *posterior-mean* predictor (predictions averaged
        // over several Gibbs samples — what BPMF actually reports), not a
        // single sample: one draw from the posterior of a tiny dataset is
        // too noisy a statistic to assert on. Because every iteration's
        // RNG stream depends only on (seed, iteration), running the chain
        // to successive lengths replays the same samples, so the average
        // can be collected from repeated deterministic runs.
        let d = Dataset::synthesize(&SyntheticSpec::tiny(7));
        let k = 6;
        let seed = 5;
        let u0 = init_latent(k, d.users(), seed, 0);
        let v0 = init_latent(k, d.items(), seed, 1);
        let before = rmse(
            k,
            &|e| u0[e * k..(e + 1) * k].to_vec(),
            &|e| v0[e * k..(e + 1) * k].to_vec(),
            &d.test,
            d.mean,
        );
        let (burn_in, last) = (5usize, 12usize);
        let mut preds = vec![0.0f64; d.test.len()];
        for iters in burn_in..=last {
            let (u, v) = serial_gibbs(&d.train, &d.train_t, k, iters, seed, d.mean);
            for (t, &(i, j, _)) in d.test.iter().enumerate() {
                let dot: f64 = (0..k).map(|x| u[i * k + x] * v[j * k + x]).sum();
                preds[t] += dot + d.mean;
            }
        }
        let nsamples = (last - burn_in + 1) as f64;
        let se: f64 = d
            .test
            .iter()
            .zip(&preds)
            .map(|(&(_, _, r), &p)| (p / nsamples - r) * (p / nsamples - r))
            .sum();
        let after = (se / d.test.len() as f64).sqrt();
        assert!(
            after < before * 0.9,
            "Gibbs must improve RMSE: before {before}, after {after}"
        );
        assert!(after < 1.0, "planted model should be learnable: {after}");
    }

    /// FNV-1a (64-bit) over the little-endian bytes of each value's bits.
    fn fnv1a_bits<'a>(values: impl Iterator<Item = &'a f64>) -> u64 {
        values
            .flat_map(|x| x.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
                (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn serial_gibbs_rounding_golden() {
        // Pins the rounding of every linalg kernel on the Gibbs path
        // (gemm via the Wishart draw, Cholesky factor/solve/inverse,
        // add_outer): a kernel change that alters even one bit of U or V
        // fails here, instead of hiding inside an RMSE tolerance.
        let d = Dataset::synthesize(&SyntheticSpec::tiny(7));
        let (u, v) = serial_gibbs(&d.train, &d.train_t, 6, 3, 5, d.mean);
        assert_eq!(fnv1a_bits(u.iter().chain(&v)), 0xb55c_6bf7_418d_470b);
    }

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<f64> = {
            let mut r = stream_rng(1, 2, 3, 4);
            (0..5).map(|_| standard_normal(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = stream_rng(1, 2, 3, 4);
            (0..5).map(|_| standard_normal(&mut r)).collect()
        };
        assert_eq!(a, b);
        let c: Vec<f64> = {
            let mut r = stream_rng(1, 2, 3, 5);
            (0..5).map(|_| standard_normal(&mut r)).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn flop_estimates_scale() {
        assert!(latent_flops(16, 100) > latent_flops(16, 10));
        assert!(hyper_flops(16, 1000) > hyper_flops(16, 100));
    }
}
