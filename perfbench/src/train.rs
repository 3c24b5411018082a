//! A closed training loop through the public entry points: forward →
//! softmax-CE → backward → SGD step.

use crate::stats::ms;
use mirage_nn::loss::softmax_cross_entropy;
use mirage_nn::optim::{Optimizer, Sgd};
use mirage_nn::{Engines, Sequential};
use mirage_tensor::Tensor;
use std::time::{Duration, Instant};

/// Learning rate of every training loop.
pub const LR: f32 = 0.01;

/// A model, its engines and its optimizer, stepped over a minibatch
/// pool in order.
pub struct Trainer {
    pub net: Sequential,
    engines: Engines,
    opt: Sgd,
    /// Steps run so far.
    pub step: usize,
    /// The loss of every successful step.
    pub losses: Vec<f32>,
    /// Steps that returned an error.
    pub failed: u64,
}

impl Trainer {
    pub fn new(net: Sequential, engines: Engines) -> Self {
        Trainer {
            net,
            engines,
            opt: Sgd::new(LR),
            step: 0,
            losses: Vec::new(),
            failed: 0,
        }
    }

    /// Runs steps until `min_steps` have run and `duration` has passed;
    /// returns each step's time in ms.
    pub fn run(
        &mut self,
        batches: &[(Tensor, Vec<usize>)],
        min_steps: usize,
        duration: Duration,
    ) -> Vec<f64> {
        self.run_for(batches, min_steps, duration, false)
            .into_iter()
            .map(|t| t[0])
            .collect()
    }

    /// [`Trainer::run`] with the clock also read between phases;
    /// returns each step's forward, loss, backward and optimizer times
    /// in ms.
    pub fn run_traced(
        &mut self,
        batches: &[(Tensor, Vec<usize>)],
        min_steps: usize,
        duration: Duration,
    ) -> Vec<[f64; 4]> {
        self.run_for(batches, min_steps, duration, true)
    }

    fn run_for(
        &mut self,
        batches: &[(Tensor, Vec<usize>)],
        min_steps: usize,
        duration: Duration,
        traced: bool,
    ) -> Vec<[f64; 4]> {
        let start = Instant::now();
        let mut times = Vec::new();
        while times.len() < min_steps || start.elapsed() < duration {
            times.push(self.step(&batches[self.step % batches.len()], traced));
        }
        times
    }

    /// One step. Untraced, returns `[total, 0, 0, 0]`; traced, the four
    /// phase times.
    fn step(&mut self, (x, labels): &(Tensor, Vec<usize>), traced: bool) -> [f64; 4] {
        let mut marks = [None; 3];
        let t0 = Instant::now();
        let result = (|| {
            self.net.zero_grads();
            let logits = self.net.forward(x, &self.engines)?;
            marks[0] = traced.then(Instant::now);
            let (loss, grad) = softmax_cross_entropy(&logits, labels)?;
            marks[1] = traced.then(Instant::now);
            self.net.backward(&grad, &self.engines)?;
            marks[2] = traced.then(Instant::now);
            self.opt.step(&mut self.net);
            Ok::<f32, mirage_nn::NnError>(loss)
        })();
        let end = Instant::now();
        match result {
            Ok(loss) => self.losses.push(loss),
            Err(e) => {
                eprintln!("training step {} failed: {e}", self.step);
                self.failed += 1;
            }
        }
        self.step += 1;
        match marks {
            [Some(a), Some(b), Some(c)] => [ms(a - t0), ms(b - a), ms(c - b), ms(end - c)],
            _ => [ms(end - t0), 0.0, 0.0, 0.0],
        }
    }
}
