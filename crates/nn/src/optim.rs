//! Optimizers: AdamW (the optimizer used by the paper) and plain SGD.
//!
//! Optimizers consume the parameter bindings recorded on a [`Tape`] together with the
//! [`Gradients`] produced by `Tape::backward`. A parameter bound multiple times in the same
//! tape (e.g. a shared embedding table used for both views of a contrastive batch) has its
//! gradients summed before the update.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::matrix::Matrix;
use crate::param::Param;
use crate::tape::{Gradients, Tape};

/// Collects gradients per distinct parameter, summing over repeated bindings. Parameters
/// come back in the order of their first gradient-carrying binding on the tape, so the
/// clipping norm sums in the same order on every step and in every process.
fn collect_param_grads(tape: &Tape, grads: &Gradients) -> Vec<(Param, Matrix)> {
    let mut collected: Vec<(Param, Matrix)> = Vec::new();
    let mut slot_of: HashMap<usize, usize> = HashMap::new();
    for (node, param) in tape.bindings() {
        let Some(g) = grads.get(*node) else {
            continue;
        };
        match slot_of.entry(param.id()) {
            Entry::Occupied(slot) => collected[*slot.get()].1.add_assign(g),
            Entry::Vacant(slot) => {
                slot.insert(collected.len());
                collected.push((param.clone(), g.clone()));
            }
        }
    }
    collected
}

/// Computes the global L2 norm over a set of gradients.
fn global_norm(grads: &[(Param, Matrix)]) -> f32 {
    grads
        .iter()
        .map(|(_, g)| g.data().iter().map(|x| x * x).sum::<f32>())
        .sum::<f32>()
        .sqrt()
}

/// The AdamW optimizer (decoupled weight decay).
#[derive(Clone, Debug)]
pub struct AdamW {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight-decay coefficient.
    pub weight_decay: f32,
    /// Optional global-norm gradient clipping threshold.
    pub max_grad_norm: Option<f32>,
    /// Step counter (used for bias correction).
    t: u64,
}

impl AdamW {
    /// Creates an AdamW optimizer with the common defaults
    /// (`beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`, `weight_decay = 0.01`).
    pub fn new(lr: f32) -> Self {
        AdamW {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
            max_grad_norm: Some(5.0),
            t: 0,
        }
    }

    /// Sets the weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Sets (or disables) gradient clipping.
    pub fn with_max_grad_norm(mut self, norm: Option<f32>) -> Self {
        self.max_grad_norm = norm;
        self
    }

    /// Number of optimizer steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update to every parameter bound on `tape` that received a gradient.
    pub fn step(&mut self, tape: &Tape, grads: &Gradients) {
        let mut collected = collect_param_grads(tape, grads);
        if collected.is_empty() {
            return;
        }
        if let Some(max_norm) = self.max_grad_norm {
            let norm = global_norm(&collected);
            if norm > max_norm && norm > 0.0 {
                let scale = max_norm / norm;
                for (_, g) in collected.iter_mut() {
                    *g = g.scale(scale);
                }
            }
        }
        self.t += 1;
        let t = self.t as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        for (param, grad) in collected {
            param.with_inner_mut(|inner| {
                let n = inner.value.len();
                debug_assert_eq!(grad.len(), n, "gradient shape mismatch for {}", inner.name);
                for i in 0..n {
                    let g = grad.data()[i];
                    let m = self.beta1 * inner.m.data()[i] + (1.0 - self.beta1) * g;
                    let v = self.beta2 * inner.v.data()[i] + (1.0 - self.beta2) * g * g;
                    inner.m.data_mut()[i] = m;
                    inner.v.data_mut()[i] = v;
                    let m_hat = m / bias1;
                    let v_hat = v / bias2;
                    let w = inner.value.data()[i];
                    let update =
                        self.lr * (m_hat / (v_hat.sqrt() + self.eps) + self.weight_decay * w);
                    inner.value.data_mut()[i] = w - update;
                }
            });
        }
    }
}

/// Plain stochastic gradient descent, mostly used in tests and the simplest baselines.
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }

    /// Applies one update.
    pub fn step(&mut self, tape: &Tape, grads: &Gradients) {
        for (param, grad) in collect_param_grads(tape, grads) {
            param.with_inner_mut(|inner| {
                for i in 0..inner.value.len() {
                    inner.value.data_mut()[i] -= self.lr * grad.data()[i];
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::tape::Tape;

    /// Minimizes `sum((w - target)^2)` and checks that the optimizer converges.
    fn optimize(
        mut step: impl FnMut(&Tape, &Gradients),
        param: &Param,
        target: &Matrix,
        iters: usize,
    ) -> f32 {
        let mut last = f32::MAX;
        for _ in 0..iters {
            let mut tape = Tape::new();
            let w = tape.param(param);
            let t = tape.constant(target.clone());
            let diff = tape.sub(w, t);
            let sq = tape.pow2(diff);
            let loss = tape.sum_all(sq);
            let grads = tape.backward(loss);
            step(&tape, &grads);
            last = tape.scalar(loss);
        }
        last
    }

    #[test]
    fn adamw_converges_on_quadratic() {
        let param = Param::new("w", Matrix::zeros(2, 2));
        let target = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 3.0]]);
        let mut opt = AdamW::new(0.05).with_weight_decay(0.0);
        let loss = optimize(|t, g| opt.step(t, g), &param, &target, 400);
        assert!(loss < 1e-3, "loss did not converge: {loss}");
        assert!(param.value().approx_eq(&target, 0.05));
        assert_eq!(opt.steps(), 400);
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let param = Param::new("w", Matrix::zeros(1, 3));
        let target = Matrix::row_vector(&[0.25, -0.75, 1.5]);
        let mut opt = Sgd::new(0.1);
        let loss = optimize(|t, g| opt.step(t, g), &param, &target, 200);
        assert!(loss < 1e-4);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient_signal() {
        let param = Param::new("w", Matrix::full(1, 1, 4.0));
        let mut opt = AdamW::new(0.1).with_weight_decay(0.1);
        for _ in 0..50 {
            let mut tape = Tape::new();
            let w = tape.param(&param);
            // Loss that ignores the parameter value: constant gradient of zero.
            let z = tape.scale(w, 0.0);
            let loss = tape.sum_all(z);
            let grads = tape.backward(loss);
            opt.step(&tape, &grads);
        }
        assert!(param.value().get(0, 0) < 4.0);
    }

    #[test]
    fn shared_parameter_gradients_are_summed() {
        // Binding the same parameter twice must double the gradient.
        let param = Param::new("w", Matrix::full(1, 1, 1.0));
        let mut tape = Tape::new();
        let a = tape.param(&param);
        let b = tape.param(&param);
        let s = tape.add(a, b);
        let loss = tape.sum_all(s);
        let grads = tape.backward(loss);
        let collected = collect_param_grads(&tape, &grads);
        assert_eq!(collected.len(), 1);
        assert_eq!(collected[0].1.get(0, 0), 2.0);
    }

    #[test]
    fn collected_parameters_follow_first_binding_order() {
        // Eight distinct parameters bound in a scrambled order, some of them twice: the
        // collected list must list each once, in the order it was first bound.
        let params: Vec<Param> = (0..8)
            .map(|i| Param::new(format!("p{i}"), Matrix::full(1, 2, i as f32 + 1.0)))
            .collect();
        let order = [5usize, 2, 7, 2, 0, 4, 5, 1, 6, 3, 7];
        let mut tape = Tape::new();
        let mut total = None;
        for &i in &order {
            let w = tape.param(&params[i]);
            let s = tape.sum_all(w);
            total = Some(match total {
                Some(t) => tape.add(t, s),
                None => s,
            });
        }
        let grads = tape.backward(total.unwrap());
        let collected = collect_param_grads(&tape, &grads);
        let names: Vec<String> = collected.iter().map(|(p, _)| p.name()).collect();
        assert_eq!(names, ["p5", "p2", "p7", "p0", "p4", "p1", "p6", "p3"]);
        // Repeated bindings summed their gradients.
        assert_eq!(collected[0].1.get(0, 0), 2.0);
        assert_eq!(collected[3].1.get(0, 0), 1.0);
    }

    #[test]
    fn clipped_adamw_steps_are_bit_reproducible() {
        use crate::layers::{Layer, TransformerBlock};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let train = || {
            let mut rng = StdRng::seed_from_u64(41);
            let block = TransformerBlock::new("b", 8, 2, 16, &mut rng);
            let x = Matrix::random_normal(5, 8, 1.0, &mut rng);
            // A tight clipping threshold so every step rescales by the global norm.
            let mut opt = AdamW::new(0.01).with_max_grad_norm(Some(1e-3));
            for _ in 0..6 {
                let mut tape = Tape::new();
                let xv = tape.constant(x.clone());
                let y = block.forward(&mut tape, xv);
                let sq = tape.pow2(y);
                let loss = tape.mean_all(sq);
                let grads = tape.backward(loss);
                opt.step(&tape, &grads);
            }
            block
                .params()
                .iter()
                .map(|p| p.value().data().iter().map(|v| v.to_bits()).collect())
                .collect::<Vec<Vec<u32>>>()
        };
        assert_eq!(train(), train());
    }

    #[test]
    fn gradient_clipping_limits_update_magnitude() {
        let param = Param::new("w", Matrix::full(1, 1, 0.0));
        let mut opt = AdamW::new(1.0)
            .with_weight_decay(0.0)
            .with_max_grad_norm(Some(0.001));
        let mut tape = Tape::new();
        let w = tape.param(&param);
        let huge = tape.scale(w, 1e6);
        let shifted = tape.add_scalar(huge, 1e6);
        let loss = tape.sum_all(shifted);
        let grads = tape.backward(loss);
        opt.step(&tape, &grads);
        // With clipping, a single Adam step is bounded by roughly lr regardless of raw grad,
        // and must be finite.
        assert!(param.value().get(0, 0).is_finite());
    }
}
