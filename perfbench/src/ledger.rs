//! The per-layer ledger of a traced run, timed from outside the
//! program around calls into each layer's public functions.

use crate::model::{
    build_model, build_step_models, gemm_roles, rng, stack, Arith, EngineSet, Stream, MINIBATCH,
};
use crate::stats::{median, ms, time_median_ms, Metrics};
use mirage_core::Mirage;
use mirage_nn::CompiledNetwork;
use mirage_rns::ResiduePlane;
use mirage_tensor::{ActivationScratch, GemmEngine, ParallelGemm, Tensor};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `plan.reconcile` should lie within `1 ± RECONCILE_TOL`: the chained
/// per-step times should add up to the whole plan's time. Identical
/// runs of the protected engine on a shared 2-vCPU host read 0.98–1.11,
/// the other engines 0.99–1.01.
pub const RECONCILE_TOL: f64 = 0.15;

/// Whole-plan and per-step times of the compiled model. The step plans
/// are compiled from per-step `Sequential`s drawn like the whole model,
/// and their chained output must equal the whole plan's bit for bit on
/// every input before anything is timed; returns whether it did. A
/// `plan.reconcile` outside tolerance is reported, not failed: it is a
/// property of the measurement, not of the program's output.
pub fn plan(
    m: &mut Metrics,
    seed: u64,
    hidden: usize,
    es: &EngineSet,
    pool: &[Tensor],
    budget: Duration,
) -> bool {
    let whole = build_model(seed, hidden)
        .compile(&es.engines)
        .expect("model compiles");
    let steps: Vec<CompiledNetwork> = build_step_models(seed, hidden)
        .iter()
        .map(|s| s.compile(&es.engines).expect("step compiles"))
        .collect();
    let names: Vec<&str> = steps.iter().flat_map(|s| s.step_names()).collect();
    if names != whole.step_names() {
        eprintln!(
            "ledger: step plans {names:?} != whole plan {:?}",
            whole.step_names()
        );
        return false;
    }
    let mut scratch = ActivationScratch::new();
    let mut step_ms = vec![Vec::new(); steps.len()];
    let chain = |x: &Tensor, scratch: &mut ActivationScratch, step_ms: &mut Vec<Vec<f64>>| {
        let mut cur: Option<Tensor> = None;
        for (i, s) in steps.iter().enumerate() {
            let t = Instant::now();
            let next = s
                .run_with(cur.as_ref().unwrap_or(x), scratch)
                .expect("step runs");
            step_ms[i].push(ms(t.elapsed()));
            if let Some(dead) = cur.take() {
                scratch.recycle(dead.into_data());
            }
            cur = Some(next);
        }
        cur.expect("plan has steps")
    };
    let b8: Vec<Tensor> = pool
        .chunks_exact(8)
        .map(|rows| stack(&rows.iter().collect::<Vec<_>>()))
        .collect();
    let mut ignored = vec![Vec::new(); steps.len()];
    for x in pool.iter().chain(&b8) {
        let want = whole.run(x).expect("plan runs");
        if !crate::serve::bit_identical(&chain(x, &mut scratch, &mut ignored), &want) {
            eprintln!("ledger: chained step plans diverge from the whole plan");
            return false;
        }
    }
    // Blocks of back-to-back calls, so the whole plan and the step
    // plans (which hold their own copy of the prepared weights) are each
    // timed with their own weights warm in cache; the two alternate
    // which goes first, so a drift in host speed biases neither.
    const BLOCK: usize = 8;
    let (mut whole_b1, mut whole_b8) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut block = 0;
    while block < 4 || start.elapsed() < budget {
        let inputs = (0..BLOCK).map(|i| (block * BLOCK + i) % pool.len());
        for whole_first in [block % 2 == 0, block % 2 == 1] {
            if whole_first {
                for i in inputs.clone() {
                    let t = Instant::now();
                    let y = whole.run_with(&pool[i], &mut scratch).expect("plan runs");
                    whole_b1.push(ms(t.elapsed()));
                    scratch.recycle(y.into_data());
                }
            } else {
                for i in inputs.clone() {
                    let y = chain(&pool[i], &mut scratch, &mut step_ms);
                    scratch.recycle(y.into_data());
                }
            }
        }
        for i in inputs {
            let t = Instant::now();
            let y = whole
                .run_with(&b8[i % b8.len()], &mut scratch)
                .expect("plan runs");
            whole_b8.push(ms(t.elapsed()));
            scratch.recycle(y.into_data());
        }
        block += 1;
    }
    let b1 = median(&whole_b1);
    m.put("plan.run_ms.b1", b1, "ms");
    m.put("plan.run_ms.b8", median(&whole_b8), "ms");
    let mut sum = 0.0;
    for (i, (name, samples)) in names.iter().zip(&step_ms).enumerate() {
        let t = median(samples);
        sum += t;
        m.put(
            format!("plan.step.{i}-{}_ms", name.replace('+', "_")),
            t,
            "ms",
        );
    }
    let reconcile = sum / b1;
    m.put("plan.reconcile", reconcile, "ratio");
    println!(
        "ledger: plan.reconcile {reconcile} is {} 1 ± {RECONCILE_TOL}",
        if (reconcile - 1.0).abs() <= RECONCILE_TOL {
            "within"
        } else {
            "OUTSIDE"
        }
    );
    true
}

/// Prepared-GEMM times and their phase split for every distinct plan
/// shape at m = 1 and m = 8 on the workload's forward engine.
pub fn gemm(m: &mut Metrics, seed: u64, hidden: usize, es: &EngineSet, budget: Duration) {
    let mut rng = rng(seed, Stream::Operands);
    let engine = es.engines.forward();
    let g = es.bfp.group_size();
    let mut out = Vec::new();
    for (role, k, n) in gemm_roles(hidden) {
        let b = Tensor::randn(&[k, n], (2.0 / k as f32).sqrt(), &mut rng);
        let t = time_median_ms(3, 50, budget, || {
            black_box(engine.prepare(&b).expect("prepare"));
        });
        m.put(format!("gemm.{role}.prepare_ms"), t, "ms");
        let prepared = engine.prepare(&b).expect("prepare");
        for rows in [1, 8] {
            let a = Tensor::randn(&[rows, k], 1.0, &mut rng);
            let total = time_median_ms(5, 5000, budget, || {
                engine
                    .gemm_prepared_into(&a, &prepared, &mut out)
                    .expect("gemm");
                black_box(&out);
            });
            let pack = time_median_ms(5, 5000, budget / 2, || {
                black_box(es.pack_a(&a));
            });
            let convert = if es.moduli.is_empty() {
                0.0
            } else {
                let packed = es.pack_a(&a);
                time_median_ms(5, 5000, budget / 2, || {
                    for &md in &es.moduli {
                        black_box(ResiduePlane::convert_i32(packed.mantissas(), md, g));
                    }
                })
            };
            let p = format!("gemm.{role}.m{rows}");
            m.put(format!("{p}_ms"), total, "ms");
            m.put(format!("{p}.a_pack_ms"), pack, "ms");
            m.put(format!("{p}.forward_convert_ms"), convert, "ms");
            m.put(
                format!("{p}.dot_crt_ms"),
                (total - pack - convert).max(0.0),
                "ms",
            );
            let macs = (rows * k * n) as f64;
            m.put(
                format!("{p}.gmacs_per_s"),
                macs / (total * 1e-3) / 1e9,
                "GMAC/s",
            );
            let bytes = 4 * rows * k + 4 * rows * n + es.b_bytes(k, n);
            m.put(format!("{p}.bytes_per_call"), bytes as f64, "bytes");
        }
    }
}

/// Protected over unprotected residue GEMM time on the model's plan
/// shapes (prepared, m = 1 and m = 8, summed).
pub fn rrns_overhead(m: &mut Metrics, mirage: &Mirage, seed: u64, hidden: usize, budget: Duration) {
    let mut rng = rng(seed, Stream::Operands);
    let rns = EngineSet::new(mirage, Arith::Rns);
    let rrns = EngineSet::new(mirage, Arith::Rrns);
    let (mut plain, mut protected) = (0.0, 0.0);
    let mut out = Vec::new();
    for (_, k, n) in gemm_roles(hidden) {
        let b = Tensor::randn(&[k, n], (2.0 / k as f32).sqrt(), &mut rng);
        for rows in [1, 8] {
            let a = Tensor::randn(&[rows, k], 1.0, &mut rng);
            for (es, total) in [(&rns, &mut plain), (&rrns, &mut protected)] {
                let prepared = es.serial.prepare(&b).expect("prepare");
                *total += time_median_ms(3, 5000, budget, || {
                    es.serial
                        .gemm_prepared_into(&a, &prepared, &mut out)
                        .expect("gemm");
                    black_box(&out);
                });
            }
        }
    }
    m.put("rrns.gemm_overhead", protected / plain, "ratio");
}

/// Unprepared training-shape GEMMs (forward, dX, dW at the minibatch)
/// on the tiled `ParallelGemm` layer and on the serial engine underneath,
/// plus its planned worker count for each shape.
pub fn training_gemms(m: &mut Metrics, seed: u64, hidden: usize, es: &EngineSet, budget: Duration) {
    let mut rng = rng(seed, Stream::Operands);
    let parallel = ParallelGemm::auto(es.serial.clone());
    for (role, k, n) in gemm_roles(hidden) {
        // Dense: Y = X·Wᵀ, ∆X = ∆Y·W, ∆W = ∆Yᵀ·X.
        for (kind, (rows, inner, cols)) in [
            ("fwd", (MINIBATCH, k, n)),
            ("dx", (MINIBATCH, n, k)),
            ("dw", (n, MINIBATCH, k)),
        ] {
            let a = Tensor::randn(&[rows, inner], 1.0, &mut rng);
            let b = Tensor::randn(&[inner, cols], 1.0, &mut rng);
            let p = format!("{kind}.{role}");
            let t = time_median_ms(3, 1000, budget, || {
                black_box(parallel.gemm(&a, &b).expect("gemm"));
            });
            m.put(format!("gemm.unprepared.{p}.parallel_ms"), t, "ms");
            let t = time_median_ms(3, 1000, budget, || {
                black_box(es.serial.gemm(&a, &b).expect("gemm"));
            });
            m.put(format!("gemm.unprepared.{p}.serial_ms"), t, "ms");
            let workers = parallel.planned_workers(rows, inner, cols);
            m.put(
                format!("parallel.planned_workers.{p}"),
                workers as f64,
                "count",
            );
        }
    }
}
