//! Optimizers: Adam (default for every network in the reproduction) and
//! plain SGD.

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    pub lr: f64,
    pub beta1: f64,
    pub beta2: f64,
    pub eps: f64,
    pub weight_decay: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-2,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

impl AdamConfig {
    /// Adam with the given learning rate and default moments.
    pub fn with_lr(lr: f64) -> Self {
        AdamConfig {
            lr,
            ..Default::default()
        }
    }
}

/// Per-parameter-group Adam state (first/second moment estimates).
#[derive(Debug, Clone)]
pub struct AdamState {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl AdamState {
    /// Fresh state for `n` parameters.
    pub fn new(n: usize) -> Self {
        AdamState {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    /// Applies one Adam update with bias correction.
    ///
    /// The update runs in an AVX2 instance when the CPU has it. Each
    /// parameter's update is the same sequence of IEEE additions,
    /// multiplications, divisions and one square root (all correctly
    /// rounded, none fused), so the vector width changes no bit.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64], cfg: &AdamConfig) {
        assert_eq!(params.len(), self.m.len(), "adam state size mismatch");
        assert_eq!(params.len(), grads.len(), "gradient size mismatch");
        self.t += 1;
        let bc1 = 1.0 - cfg.beta1.powi(self.t as i32);
        let bc2 = 1.0 - cfg.beta2.powi(self.t as i32);
        let (m, v) = (&mut self.m[..], &mut self.v[..]);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `adam_avx2` only requires the `avx2` target feature,
            // which the CPU was just detected to support.
            unsafe { adam_avx2(params, grads, m, v, cfg, bc1, bc2) };
            return;
        }
        adam_body(params, grads, m, v, cfg, bc1, bc2);
    }

    /// Number of optimizer steps taken.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

/// The AVX2 instance of [`adam_body`]: 4-wide vectors, no FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn adam_avx2(
    params: &mut [f64],
    grads: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    cfg: &AdamConfig,
    bc1: f64,
    bc2: f64,
) {
    adam_body(params, grads, m, v, cfg, bc1, bc2);
}

/// The Adam update of every parameter, written once for both instances.
#[inline(always)]
fn adam_body(
    params: &mut [f64],
    grads: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    cfg: &AdamConfig,
    bc1: f64,
    bc2: f64,
) {
    for ((p, g), (m, v)) in params
        .iter_mut()
        .zip(grads)
        .zip(m.iter_mut().zip(v.iter_mut()))
    {
        let g = g + cfg.weight_decay * *p;
        *m = cfg.beta1 * *m + (1.0 - cfg.beta1) * g;
        *v = cfg.beta2 * *v + (1.0 - cfg.beta2) * g * g;
        let m_hat = *m / bc1;
        let v_hat = *v / bc2;
        *p -= cfg.lr * m_hat / (v_hat.sqrt() + cfg.eps);
    }
}

/// One vanilla SGD update (kept for ablations and tests).
pub fn sgd_step(params: &mut [f64], grads: &[f64], lr: f64) {
    assert_eq!(params.len(), grads.len(), "gradient size mismatch");
    for (p, g) in params.iter_mut().zip(grads) {
        *p -= lr * g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_descends_a_quadratic() {
        // Minimize f(x) = (x - 3)^2 starting from 0.
        let mut x = [0.0f64];
        let mut state = AdamState::new(1);
        let cfg = AdamConfig::with_lr(0.1);
        for _ in 0..500 {
            let g = [2.0 * (x[0] - 3.0)];
            state.step(&mut x, &g, &cfg);
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "x = {}", x[0]);
        assert_eq!(state.steps(), 500);
    }

    #[test]
    fn every_instance_steps_the_same_bits() {
        // Odd length (a vector remainder), mixed signs, zero and tiny
        // gradients, and weight decay, over several steps.
        let cfg = AdamConfig {
            lr: 3e-3,
            weight_decay: 1e-2,
            ..Default::default()
        };
        let n = 37;
        let start: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin()).collect();
        let grads = |t: usize| -> Vec<f64> {
            (0..n)
                .map(|i| match (i + t) % 5 {
                    0 => 0.0,
                    1 => 1e-300,
                    _ => ((i * 7 + t) as f64 * 0.37).cos() * 10f64.powi(i as i32 % 9 - 4),
                })
                .collect()
        };
        let mut dispatched = (start.clone(), AdamState::new(n));
        let mut generic = (start, AdamState::new(n));
        for t in 0..6 {
            let g = grads(t);
            dispatched.1.step(&mut dispatched.0, &g, &cfg);
            let state = &mut generic.1;
            state.t += 1;
            let bc1 = 1.0 - cfg.beta1.powi(state.t as i32);
            let bc2 = 1.0 - cfg.beta2.powi(state.t as i32);
            adam_body(
                &mut generic.0,
                &g,
                &mut state.m,
                &mut state.v,
                &cfg,
                bc1,
                bc2,
            );
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&dispatched.0), bits(&generic.0));
        assert_eq!(bits(&dispatched.1.m), bits(&generic.1.m));
        assert_eq!(bits(&dispatched.1.v), bits(&generic.1.v));
    }

    #[test]
    fn sgd_descends_a_quadratic() {
        let mut x = [10.0f64];
        for _ in 0..200 {
            let g = [2.0 * (x[0] - 3.0)];
            sgd_step(&mut x, &g, 0.1);
        }
        assert!((x[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_pulls_toward_zero() {
        let mut x = [1.0f64];
        let mut state = AdamState::new(1);
        let cfg = AdamConfig {
            lr: 0.05,
            weight_decay: 1.0,
            ..Default::default()
        };
        for _ in 0..300 {
            state.step(&mut x, &[0.0], &cfg); // only decay acts
        }
        assert!(x[0].abs() < 0.05, "x = {}", x[0]);
    }

    #[test]
    #[should_panic(expected = "adam state size mismatch")]
    fn adam_size_mismatch_panics() {
        let mut state = AdamState::new(2);
        state.step(&mut [0.0], &[0.0], &AdamConfig::default());
    }
}
