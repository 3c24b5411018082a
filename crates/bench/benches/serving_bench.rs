//! Eager vs compiled whole-model inference — the perf-trajectory bench
//! for the compiled serving layer.
//!
//! Two model families, single-threaded, all through the Mirage BFP
//! arithmetic:
//!
//! - the **Transformer feed-forward proxy** (`hidden = 768`, two
//!   blocks plus a classifier head: the paper's `l*.ff1`/`l*.ff2`
//!   serving shapes) carries the eager-vs-compiled comparison — every
//!   eager request
//!   re-transposes and re-quantizes every GEMM weight, while the
//!   compiled plan serves zero weight-side quantization;
//! - two **recommender MLP towers** (`mlp_tower_proxy`: every dense
//!   feeds a ReLU, so the plan peephole fuses *every* step) carry the
//!   fused-vs-unfused comparison. On GEMM-dominated shapes the fused
//!   epilogue margin is a fraction of a percent — real but beneath
//!   this container's measurement noise — so the comparison is made
//!   where fusion structurally matters: narrow activations, where the
//!   unfused plan's separate bias sweep and ReLU step (fresh output
//!   allocation included) are a visible slice of each request.
//!
//! The fused/unfused margin is measured with
//! [`mirage_bench::paired_speedup`]: order-balanced back-to-back pairs,
//! rounds discarded when the scheduler preempted the pair, per-order
//! medians combined by geometric mean — the only estimator that
//! resolves low-single-digit-percent margins on this 1-CPU VM (see the
//! module docs in `mirage_bench::paired`).
//!
//! Before timing anything the bench asserts eager, fused-compiled, and
//! unfused-compiled are **bit-identical** for every model and batch,
//! and proves the zero-requantization claim by call-count: a
//! `CountingEngine` wraps the BFP engine, a model is compiled and
//! served repeatedly, and the `prepare` counter must not move from its
//! post-compile value. Running in `--test` (smoke)
//! mode executes all of these checks; full runs additionally assert
//! the ≥2x eager/compiled floor on the transformer and that the fused
//! plan beats the unfused plan on the towers at batch 1 and 32, then
//! write `BENCH_serving.json`. The `simd` column records the kernel
//! tier the run resolved to (`MIRAGE_SIMD` caps it, which CI uses to
//! smoke the scalar fallback).

use mirage_bench::{
    paired_speedup, print_table, write_summary, CountingEngine, JsonField, PairedSpeedup,
};
use mirage_bfp::{simd, SimdPolicy};
use mirage_core::Mirage;
use mirage_models::serving::{mlp_tower_proxy, transformer_ff_proxy};
use mirage_nn::{CompiledNetwork, Engines, Sequential};
use mirage_tensor::{ActivationScratch, Tensor};
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The zoo serving shape: Transformer hidden width and FF blocks.
const HIDDEN: usize = 768;
const BLOCKS: usize = 2;
const CLASSES: usize = 10;

/// The recommender tower shapes (DLRM-style bottom/top MLPs): layer
/// widths end to end, ReLU after every layer.
const TOWERS: [(&str, &[usize]); 2] = [
    ("mlp-tower-64-512-256-64", &[64, 512, 256, 64]),
    ("mlp-tower-32-256-256-128", &[32, 256, 256, 128]),
];

/// Best-of-`reps` wall clock for one invocation of `f`.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ms_f(seconds: f64) -> f64 {
    seconds * 1e3
}

/// Asserts eager, fused, and unfused agree element-exact on `x`, then
/// returns the fused/unfused paired-speedup measurement.
#[allow(clippy::too_many_arguments)]
fn bit_identity_then_margin(
    net: &mut Sequential,
    engines: &Engines,
    fused: &CompiledNetwork,
    unfused: &CompiledNetwork,
    x: &Tensor,
    rounds: usize,
    reps: usize,
    label: &str,
) -> PairedSpeedup {
    let eager = net.forward(x, engines).expect("eager forward");
    let served = fused.run(x).expect("compiled run");
    assert_eq!(
        served.data(),
        eager.data(),
        "compiled serving diverged from the eager forward ({label})"
    );
    let separate = unfused.run(x).expect("unfused run");
    assert_eq!(
        served.data(),
        separate.data(),
        "fused dense+relu diverged from the unfused plan ({label})"
    );
    // Steady-state serving: responses are recycled so plan buffers
    // cycle through the arena instead of leaving with every reply.
    // Each side owns its own warmed arena, like a serving thread
    // would: sharing one pool would let each plan's buffers migrate to
    // the other side between rounds, adding allocator-layout noise to
    // exactly the margin under test.
    let mut scratch_f = ActivationScratch::new();
    let mut scratch_u = ActivationScratch::new();
    for _ in 0..3 {
        let y = fused.run_with(x, &mut scratch_f).unwrap();
        scratch_f.recycle(y.into_data());
        let y = unfused.run_with(x, &mut scratch_u).unwrap();
        scratch_u.recycle(y.into_data());
    }
    paired_speedup(
        rounds,
        reps,
        || {
            let y = fused.run_with(black_box(x), &mut scratch_f).unwrap();
            scratch_f.recycle(black_box(y).into_data());
        },
        || {
            let y = unfused.run_with(black_box(x), &mut scratch_u).unwrap();
            scratch_u.recycle(black_box(y).into_data());
        },
    )
}

/// Pools per-instantiation paired measurements: geometric mean of the
/// per-instantiation speedups (layout luck is multiplicative and
/// zero-mean in the log domain), medians of the per-side times, sums
/// of the pair counts.
fn combine_margins(margins: &[PairedSpeedup]) -> PairedSpeedup {
    let log_mean = margins.iter().map(|m| m.speedup.ln()).sum::<f64>() / margins.len() as f64;
    let mut cand: Vec<f64> = margins.iter().map(|m| m.candidate_s).collect();
    let mut base: Vec<f64> = margins.iter().map(|m| m.baseline_s).collect();
    let med = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v[v.len() / 2]
    };
    PairedSpeedup {
        speedup: log_mean.exp(),
        candidate_s: med(&mut cand),
        baseline_s: med(&mut base),
        kept: margins.iter().map(|m| m.kept).sum(),
        discarded: margins.iter().map(|m| m.discarded).sum(),
    }
}

/// Compile once, serve forever: the `prepare` count must be frozen at
/// its post-compile value while `run_into` against the prepared
/// weights does all the serving.
fn assert_zero_requantization(mirage: &Mirage, net: &Sequential, x: &Tensor, requests: usize) {
    let (engine, counters) = CountingEngine::new(mirage.gemm_engine());
    let engines = Engines::uniform(engine);
    let compiled = net.compile(&engines).expect("proxy model compiles");
    let after_compile = counters.prepares();
    assert!(after_compile > 0, "compile should prepare every weight");
    let mut scratch = ActivationScratch::new();
    for _ in 0..requests {
        black_box(compiled.run_with(x, &mut scratch).expect("serves"));
    }
    assert_eq!(
        counters.prepares(),
        after_compile,
        "compiled serving ran weight-side quantization after compile"
    );
    assert_eq!(
        counters.runs(),
        requests * (2 * BLOCKS + 1),
        "every layer GEMM should go through the prepared path"
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let reps = |n: usize| if smoke { 1 } else { n };
    let mirage = Mirage::paper_default();
    // Single-thread serial engines: the acceptance numbers isolate the
    // requantization savings from threading (this container has 1 CPU).
    let engines = Engines::uniform(mirage.gemm_engine());
    let mut rng = rand::rngs::StdRng::seed_from_u64(8192);
    let tier = simd::resolve_tier(SimdPolicy::Auto).label();

    let mut rows = Vec::new();
    let mut json = Vec::new();

    // ── Transformer FF proxy: eager vs compiled ────────────────────────
    let mut net = transformer_ff_proxy(HIDDEN, BLOCKS, CLASSES, &mut rng);
    let unfused = net.compile_unfused(&engines).expect("unfused compiles");
    let compiled = net.compile(&engines).expect("proxy model compiles");
    // The peephole must actually have fired: the fused plan serves each
    // FF block's first GEMM and its ReLU as one `dense+relu` step.
    assert_eq!(
        compiled
            .step_names()
            .iter()
            .filter(|n| **n == "dense+relu")
            .count(),
        BLOCKS,
        "fusion peephole missed a dense+relu pair"
    );
    assert!(compiled.step_names().len() < unfused.step_names().len());

    let batches: &[usize] = if smoke { &[1, 8] } else { &[1, 8, 32] };
    for &batch in batches {
        let x = Tensor::randn(&[batch, HIDDEN], 1.0, &mut rng);
        let margin = bit_identity_then_margin(
            &mut net,
            &engines,
            &compiled,
            &unfused,
            &x,
            reps(40),
            1,
            &format!("transformer batch {batch}"),
        );
        let t_eager = best_of(reps(10), || {
            black_box(net.forward(black_box(&x), &engines).unwrap());
        });
        let speedup = t_eager.as_secs_f64() / margin.candidate_s;
        if !smoke {
            assert!(
                speedup >= 2.0,
                "eager/compiled = {speedup:.2}x at batch {batch}: below the 2x floor"
            );
        }
        rows.push(vec![
            format!("transformer-ff {HIDDEN}x{BLOCKS}"),
            format!("{batch}"),
            format!("{:.3}", ms(t_eager)),
            format!("{:.3}", ms_f(margin.baseline_s)),
            format!("{:.3}", ms_f(margin.candidate_s)),
            format!("{speedup:.2}x"),
            format!("{:.3}x", margin.speedup),
            tier.to_string(),
            "yes".into(),
        ]);
        json.push(vec![
            JsonField::Str("model", format!("transformer-ff-proxy-{HIDDEN}x{BLOCKS}")),
            JsonField::Num("batch", batch as f64),
            JsonField::Num("eager_ms", ms(t_eager)),
            JsonField::Num("unfused_ms", ms_f(margin.baseline_s)),
            JsonField::Num("compiled_ms", ms_f(margin.candidate_s)),
            JsonField::Num("speedup", speedup),
            JsonField::Num("fused_speedup", margin.speedup),
            JsonField::Str("simd", tier.to_string()),
            JsonField::Num("threads", 1.0),
        ]);
    }

    // ── Recommender towers: fused vs unfused ───────────────────────────
    for (name, dims) in TOWERS {
        let mut tower = mlp_tower_proxy(dims, &mut rng);
        for &batch in &[1usize, 32] {
            let x = Tensor::randn(&[batch, dims[0]], 1.0, &mut rng);
            // Where each plan's buffers happen to land in the heap
            // perturbs its speed by a few percent on this host — the
            // same order as the fusion margin. So the margin is
            // measured across several *plan instantiations*, each with
            // a heap-shifting ballast allocation and an alternating
            // compile order, and combined by geometric mean: per-
            // instantiation layout luck averages out, the structural
            // margin stays (cf. Mytkowicz et al., "Producing wrong
            // data without doing anything obviously wrong").
            // Batch-1 requests are tens of microseconds, so layout
            // luck is noisier per pair — buy it back with more
            // instantiations, rounds, and reps (still ~a second).
            let instantiations = reps(if batch == 1 { 13 } else { 9 });
            let mut ballast: Vec<Vec<u8>> = Vec::new();
            let mut margins: Vec<PairedSpeedup> = Vec::new();
            for inst in 0..instantiations {
                ballast.push(vec![0u8; 1 + inst * 4711]);
                let (t_fused, t_unfused) = if inst % 2 == 0 {
                    let f = tower.compile(&engines).expect("tower compiles");
                    let u = tower.compile_unfused(&engines).expect("tower unfused");
                    (f, u)
                } else {
                    let u = tower.compile_unfused(&engines).expect("tower unfused");
                    let f = tower.compile(&engines).expect("tower compiles");
                    (f, u)
                };
                // Every dense feeds a ReLU: the whole plan must fuse.
                assert!(
                    t_fused.step_names().iter().all(|n| *n == "dense+relu"),
                    "tower peephole missed a dense+relu pair"
                );
                assert_eq!(t_fused.step_names().len() * 2, t_unfused.step_names().len());
                margins.push(bit_identity_then_margin(
                    &mut tower,
                    &engines,
                    &t_fused,
                    &t_unfused,
                    &x,
                    reps(if batch == 1 { 100 } else { 80 }),
                    if batch == 1 { 12 } else { 2 },
                    &format!("{name} batch {batch} instantiation {inst}"),
                ));
            }
            drop(ballast);
            let margin = combine_margins(&margins);
            if !smoke {
                assert!(
                    margin.speedup > 1.0,
                    "fused plan ({:.4} ms) did not beat the unfused plan \
                     ({:.4} ms) on {name} at batch {batch} \
                     ({} clean pairs over {instantiations} plan instantiations, \
                     {} discarded)",
                    ms_f(margin.candidate_s),
                    ms_f(margin.baseline_s),
                    margin.kept,
                    margin.discarded,
                );
            }
            rows.push(vec![
                name.to_string(),
                format!("{batch}"),
                "-".into(),
                format!("{:.4}", ms_f(margin.baseline_s)),
                format!("{:.4}", ms_f(margin.candidate_s)),
                "-".into(),
                format!("{:.3}x", margin.speedup),
                tier.to_string(),
                "yes".into(),
            ]);
            json.push(vec![
                JsonField::Str("model", name.to_string()),
                JsonField::Num("batch", batch as f64),
                JsonField::Num("unfused_ms", ms_f(margin.baseline_s)),
                JsonField::Num("compiled_ms", ms_f(margin.candidate_s)),
                JsonField::Num("fused_speedup", margin.speedup),
                JsonField::Num("clean_pairs", margin.kept as f64),
                JsonField::Str("simd", tier.to_string()),
                JsonField::Num("threads", 1.0),
            ]);
        }
    }

    // Zero weight-side quantization after compile, by call count.
    let probe = Tensor::randn(&[4, HIDDEN], 1.0, &mut rng);
    assert_zero_requantization(&mirage, &net, &probe, if smoke { 3 } else { 50 });

    print_table(
        "Eager vs compiled whole-model serving — single thread",
        &[
            "model",
            "batch",
            "eager (ms)",
            "unfused (ms)",
            "fused (ms)",
            "speedup",
            "fusion",
            "simd",
            "bit-identical",
        ],
        &rows,
    );
    println!("\nCompiled plans (fused and unfused) are asserted bit-identical to");
    println!("the eager forward pass before timing, and a call-counting engine");
    println!("proves zero weight-side quantization after compile. Acceptance");
    println!("floors (single thread): >= 2x eager/fused on the transformer, and");
    println!("the fused dense+relu plan beats the unfused plan on the MLP towers");
    println!("at batch 1 and 32 (order-balanced paired-ratio estimator).");

    if smoke {
        println!("\n--test smoke mode: timings above are single-shot; JSON skipped.");
        return;
    }
    write_summary(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json"),
        "serving_bench",
        &json,
    );
}
