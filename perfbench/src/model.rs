//! The workloads' models, engines and seeded inputs, plus the modeled
//! photonic column from `mirage_arch`.

use mirage_arch::energy::{mac_energy_pj, DigitalEnergy};
use mirage_arch::latency::{mirage_gemm_latency_s, mirage_layer_latencies};
use mirage_arch::{Dataflow, DataflowPolicy, Workload, WorkloadLayer};
use mirage_bfp::BfpConfig;
use mirage_core::Mirage;
use mirage_models::serving::transformer_ff_proxy;
use mirage_nn::layers::{Dense, Relu};
use mirage_nn::norm::LayerNorm;
use mirage_nn::{Engines, Sequential};
use mirage_rns::Modulus;
use mirage_tensor::engines::BfpEngine;
use mirage_tensor::{GemmEngine, Tensor};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Feed-forward blocks in every workload's `transformer_ff_proxy`.
pub const BLOCKS: usize = 2;
/// Classifier width of every workload's model.
pub const CLASSES: usize = 10;
/// Training minibatch rows.
pub const MINIBATCH: usize = 32;
/// The redundant RRNS moduli of the protected engine.
pub const REDUNDANT: [u64; 2] = [37, 41];

/// Which GEMM arithmetic a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arith {
    /// `Mirage::rns_gemm_engine()`: BFP through 3 residue channels.
    Rns,
    /// `Mirage::protected_rns_gemm_engine(&REDUNDANT)`: 5 channels with
    /// the RRNS consistency check on every group.
    Rrns,
    /// `Mirage::serial_training_engines()`: BFP, one thread.
    TrainingBfp,
}

/// Independent random streams derived from the workload seed, so that
/// changing one input (say, the arrival rate) never shifts another.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Model = 1,
    Requests = 2,
    Arrivals = 3,
    Batches = 4,
    Operands = 5,
}

/// The seeded generator for one input stream.
pub fn rng(seed: u64, stream: Stream) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream as u64)
}

/// The workload's model: `transformer_ff_proxy(hidden, BLOCKS, CLASSES)`
/// drawn from the model stream.
pub fn build_model(seed: u64, hidden: usize) -> Sequential {
    transformer_ff_proxy(hidden, BLOCKS, CLASSES, &mut rng(seed, Stream::Model))
}

/// The same model as [`build_model`], one `Sequential` per compiled plan
/// step (`dense+relu`, `dense`, `layernorm` per block, then the head),
/// built from the same draws in the same order. Chaining their compiled
/// plans must reproduce the whole plan bit for bit; the ledger asserts
/// that before it times anything.
pub fn build_step_models(seed: u64, hidden: usize) -> Vec<Sequential> {
    let mut rng = rng(seed, Stream::Model);
    let mut steps = Vec::new();
    for _ in 0..BLOCKS {
        let mut ff1 = Sequential::new();
        ff1.push(Dense::new(hidden, 4 * hidden, &mut rng));
        ff1.push(Relu::new());
        let mut ff2 = Sequential::new();
        ff2.push(Dense::new(4 * hidden, hidden, &mut rng));
        let mut norm = Sequential::new();
        norm.push(LayerNorm::new(hidden));
        steps.extend([ff1, ff2, norm]);
    }
    let mut head = Sequential::new();
    head.push(Dense::new(hidden, CLASSES, &mut rng));
    steps.push(head);
    steps
}

/// The model's distinct forward GEMMs as `(role, k, n)`: `ff1` is
/// `hidden → 4·hidden`, `ff2` is `4·hidden → hidden`, `head` is
/// `hidden → CLASSES`.
pub fn gemm_roles(hidden: usize) -> [(&'static str, usize, usize); 3] {
    [
        ("ff1", hidden, 4 * hidden),
        ("ff2", 4 * hidden, hidden),
        ("head", hidden, CLASSES),
    ]
}

/// The model's dense layers in execution order as `(k, n)`.
pub fn dense_layers(hidden: usize) -> Vec<(usize, usize)> {
    let mut layers = Vec::new();
    for _ in 0..BLOCKS {
        layers.push((hidden, 4 * hidden));
        layers.push((4 * hidden, hidden));
    }
    layers.push((hidden, CLASSES));
    layers
}

/// `count` single-row requests from the request stream.
pub fn request_pool(count: usize, seed: u64, hidden: usize) -> Vec<Tensor> {
    let mut rng = rng(seed, Stream::Requests);
    (0..count)
        .map(|_| Tensor::randn(&[1, hidden], 1.0, &mut rng))
        .collect()
}

/// `count` labelled minibatches of [`MINIBATCH`] rows from the batch
/// stream.
pub fn minibatch_pool(count: usize, seed: u64, hidden: usize) -> Vec<(Tensor, Vec<usize>)> {
    let mut rng = rng(seed, Stream::Batches);
    (0..count)
        .map(|_| {
            let x = Tensor::randn(&[MINIBATCH, hidden], 1.0, &mut rng);
            let labels = (0..MINIBATCH)
                .map(|_| (rng.random::<u64>() % CLASSES as u64) as usize)
                .collect();
            (x, labels)
        })
        .collect()
}

/// Stacks rows into one `[rows, width]` activation.
pub fn stack(rows: &[&Tensor]) -> Tensor {
    let width = rows[0].len();
    let data: Vec<f32> = rows.iter().flat_map(|r| r.data().iter().copied()).collect();
    Tensor::from_vec(data, &[rows.len(), width]).expect("rows share one width")
}

/// One workload's arithmetic: the engine the workload runs, plus what
/// the ledger needs to split its GEMM into phases from outside.
pub struct EngineSet {
    /// The `Engines` the workload compiles or trains on.
    pub engines: Engines,
    /// The single-threaded engine underneath (`gemm_engine()` for the
    /// training workload).
    pub serial: Arc<dyn GemmEngine>,
    /// The BFP operating point.
    pub bfp: BfpConfig,
    /// Residue channels the A side is forward-converted into (none for
    /// plain BFP).
    pub moduli: Vec<Modulus>,
}

impl EngineSet {
    /// Builds the engines for one arithmetic.
    pub fn new(mirage: &Mirage, arith: Arith) -> Self {
        let bfp = mirage.bfp_config();
        match arith {
            Arith::TrainingBfp => EngineSet {
                engines: mirage.serial_training_engines(),
                serial: Arc::new(mirage.gemm_engine()),
                bfp,
                moduli: Vec::new(),
            },
            Arith::Rns => {
                let engine = mirage
                    .rns_gemm_engine()
                    .expect("paper moduli satisfy Eq. 13");
                let moduli = engine.moduli().moduli().to_vec();
                EngineSet {
                    engines: Engines::uniform(engine.clone()),
                    serial: Arc::new(engine),
                    bfp,
                    moduli,
                }
            }
            Arith::Rrns => {
                let engine = mirage
                    .protected_rns_gemm_engine(&REDUNDANT)
                    .expect("redundant moduli are co-prime with the paper set");
                let moduli = engine.rrns().full_set().moduli().to_vec();
                EngineSet {
                    engines: Engines::uniform(engine.clone()),
                    serial: Arc::new(engine),
                    bfp,
                    moduli,
                }
            }
        }
    }

    /// The A-side quantize/pack the engine's kernel performs: the
    /// `i16`-shadowed pack for BFP, the wide pack the residue engines
    /// forward-convert.
    pub fn pack_a(&self, a: &Tensor) -> mirage_bfp::PackedBfpMatrix {
        if self.moduli.is_empty() {
            BfpEngine::pack_rows(a, self.bfp)
        } else {
            BfpEngine::pack_rows_wide(a, self.bfp)
        }
    }

    /// Prepared-B bytes one GEMM call reads, computed from tensor
    /// sizes: `i16` mantissas (BFP) or one `u16` lane per residue
    /// channel, plus one `i32` scale exponent per group.
    pub fn b_bytes(&self, k: usize, n: usize) -> usize {
        let lanes = self.moduli.len().max(1);
        let groups = k.div_ceil(self.bfp.group_size());
        k * n * 2 * lanes + groups * n * 4
    }
}

/// `mirage_arch`'s modeled photonic time and energy for one workload:
/// batch-1 inference for serving, one training step for training.
/// Simulated numbers, unvalidated against hardware (the repository
/// holds no hardware reference results).
pub struct Modeled {
    pub latency_us: f64,
    pub energy_uj: f64,
    pub layer_us: Vec<f64>,
}

/// Evaluates the modeled column for the model's dense layers: one
/// batch-1 forward pass, or (`training`) the 3-GEMM step at
/// [`MINIBATCH`] rows.
pub fn modeled(mirage: &Mirage, training: bool, hidden: usize) -> Modeled {
    let cfg = mirage.config();
    let batch = if training { MINIBATCH } else { 1 };
    // mirage_arch's forward GEMM is O(m×n) = W(m×k)·X(k×n): m is the
    // layer's output width, k its input width, n the batch.
    let layers = dense_layers(hidden)
        .iter()
        .enumerate()
        .map(|(i, &(k, n))| WorkloadLayer::new(format!("dense{i}"), n, k, batch))
        .collect();
    let workload = Workload::new("transformer-ff-proxy", batch, layers);
    let pj = mac_energy_pj(cfg, &DigitalEnergy::default());
    let (layer_s, macs): (Vec<f64>, u64) = if training {
        (
            mirage_layer_latencies(cfg, &workload, DataflowPolicy::Opt2)
                .iter()
                .map(|l| l.total_s())
                .collect(),
            workload.training_macs(),
        )
    } else {
        (
            workload
                .layers
                .iter()
                .map(|l| {
                    Dataflow::MIRAGE
                        .iter()
                        .map(|&df| mirage_gemm_latency_s(cfg, l.forward, df))
                        .fold(f64::INFINITY, f64::min)
                })
                .collect(),
            workload.inference_macs(),
        )
    };
    Modeled {
        latency_us: layer_s.iter().sum::<f64>() * 1e6,
        energy_uj: macs as f64 * pj * 1e-6,
        layer_us: layer_s.iter().map(|s| s * 1e6).collect(),
    }
}
