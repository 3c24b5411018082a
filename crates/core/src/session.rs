//! Serving-oriented inference sessions: cached prepared weights
//! ([`InferenceSession`]) and cached compiled whole models
//! ([`ModelSession`]).

use crate::accelerator::Mirage;
use mirage_nn::shard::{ShardPlan, ShardSpec};
use mirage_nn::{CompiledNetwork, Engines, Sequential};
use mirage_tensor::engines::BfpEngine;
use mirage_tensor::parallel::{ParallelGemm, TileConfig};
use mirage_tensor::scratch::ActivationScratch;
use mirage_tensor::{GemmEngine, PreparedRhs, Result, Tensor, TensorError};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks a session cache map, recovering it from a poisoned mutex.
///
/// The guarded maps are only ever mutated through single `HashMap`
/// operations that keep them structurally valid, so a panic on another
/// request thread cannot leave partial state behind — serving continues
/// on the intact map instead of cascading the panic (the serving path
/// is panic-free by contract; see `mirage-lint`'s `panic-in-serving`
/// rule).
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An inference session over the Mirage arithmetic that quantizes each
/// weight matrix **once** and reuses the preparation for every
/// subsequent request — the serving model behind the paper's Table III
/// workloads (batch 1–128 inference against static weights), where
/// weight preparation must be a one-time cost, not a per-call one.
///
/// Weights are keyed per layer: [`InferenceSession::load`] runs the
/// quantizer, and [`InferenceSession::infer`] /
/// [`InferenceSession::infer_batch`] only touch the activation side.
/// Results are bit-identical to the unprepared
/// [`Mirage::gemm_engine`] path — the preparation is a caching
/// transformation, never a numerical one.
///
/// The session is `Sync`: the cache sits behind a mutex that is held
/// only for lookups/insertions (never during a GEMM), so concurrent
/// request threads can serve from one session.
///
/// ```
/// use mirage_core::Mirage;
/// use mirage_tensor::{Tensor, GemmEngine};
///
/// let mirage = Mirage::paper_default();
/// let session = mirage.inference_session();
/// let weight = Tensor::full(&[32, 8], 0.5);
/// session.load("fc1", &weight)?; // quantize once…
/// for _ in 0..3 {
///     let x = Tensor::full(&[4, 32], 0.25);
///     let y = session.infer("fc1", &x)?; // …serve many times
///     assert_eq!(y.data(), mirage.gemm_engine().gemm(&x, &weight)?.data());
/// }
/// # Ok::<(), mirage_tensor::TensorError>(())
/// ```
#[derive(Debug)]
pub struct InferenceSession {
    engine: ParallelGemm<BfpEngine>,
    cache: Mutex<HashMap<String, Arc<PreparedRhs>>>,
}

impl InferenceSession {
    /// Builds a session over the accelerator's parallel BFP engine with
    /// the automatic tile/thread heuristic.
    pub fn new(mirage: &Mirage) -> Self {
        InferenceSession {
            engine: mirage.parallel_gemm_engine(),
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Builds a session with an explicit [`TileConfig`] (pin thread
    /// counts in benchmarks, force serial execution in baselines).
    pub fn with_tile_config(mirage: &Mirage, config: TileConfig) -> Self {
        InferenceSession {
            engine: mirage.parallel_gemm_engine_with(config),
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Prepares (quantizes) a weight matrix and caches it under `layer`,
    /// replacing any previous weight for that key. This is the only
    /// session operation that runs the quantizer on the weight side.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the weight is a
    /// rank-2 matrix.
    pub fn load(&self, layer: impl Into<String>, weight: &Tensor) -> Result<()> {
        let prepared = Arc::new(self.engine.prepare(weight)?);
        lock_recover(&self.cache).insert(layer.into(), prepared);
        Ok(())
    }

    /// The cached preparation for `layer`, if loaded.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownLayer`] naming the missing key when
    /// nothing is loaded under it.
    fn cached(&self, layer: &str) -> Result<Arc<PreparedRhs>> {
        lock_recover(&self.cache)
            .get(layer)
            .cloned()
            .ok_or_else(|| TensorError::UnknownLayer {
                name: layer.to_string(),
            })
    }

    /// One inference GEMM `x · W` against the cached weight for `layer`.
    /// Only the activation side touches the quantizer; bit-identical to
    /// `Mirage::gemm_engine().gemm(x, weight)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownLayer`] when `layer` has no loaded
    /// weight, and the usual shape-validation errors.
    pub fn infer(&self, layer: &str, x: &Tensor) -> Result<Tensor> {
        let prepared = self.cached(layer)?;
        self.engine.gemm_prepared(x, &prepared)
    }

    /// Batched inference against the cached weight for `layer`: the
    /// whole batch runs inside one thread scope (see
    /// [`ParallelGemm::gemm_batch_prepared`]), and — unlike
    /// [`Mirage::infer_batch`] — repeated batches never re-prepare the
    /// weight.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownLayer`] when `layer` has no loaded
    /// weight; propagates per-item shape errors (the whole batch fails
    /// if any item does).
    pub fn infer_batch(&self, layer: &str, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        let prepared = self.cached(layer)?;
        self.engine.gemm_batch_prepared(inputs, &prepared)
    }

    /// Convenience for serving loops that carry the weight alongside the
    /// activations: uses the cached preparation when `layer` is already
    /// loaded, preparing and caching it on first use. The session models
    /// **static** weights — passing a weight whose shape differs from
    /// the cached one is an error (reload explicitly via
    /// [`InferenceSession::load`] to update a weight).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `weight`'s shape
    /// disagrees with the cached preparation for `layer`, plus the usual
    /// shape-validation errors.
    pub fn infer_with(&self, layer: &str, x: &Tensor, weight: &Tensor) -> Result<Tensor> {
        if let Ok(prepared) = self.cached(layer) {
            if prepared.raw().shape() != weight.shape() {
                return Err(TensorError::ShapeMismatch {
                    left: prepared.raw().shape().to_vec(),
                    right: weight.shape().to_vec(),
                });
            }
            return self.engine.gemm_prepared(x, &prepared);
        }
        self.load(layer, weight)?;
        self.infer(layer, x)
    }

    /// Whether a weight is loaded under `layer`.
    pub fn contains(&self, layer: &str) -> bool {
        lock_recover(&self.cache).contains_key(layer)
    }

    /// Number of cached layer weights.
    pub fn len(&self) -> usize {
        lock_recover(&self.cache).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops the cached weight for `layer`, returning whether one was
    /// present.
    pub fn evict(&self, layer: &str) -> bool {
        lock_recover(&self.cache).remove(layer).is_some()
    }

    /// Drops every cached weight.
    pub fn clear(&self) {
        lock_recover(&self.cache).clear();
    }
}

/// A serving session for **whole models** over the Mirage arithmetic:
/// [`ModelSession::load`] compiles a [`Sequential`] network once — every
/// GEMM weight transposed and quantized exactly once, via
/// [`Sequential::compile`] — and [`ModelSession::run`] /
/// [`ModelSession::run_batch`] serve it forever after with zero
/// weight-side quantization. This is [`InferenceSession`] lifted from
/// single GEMMs to networks: the serving model behind the paper's
/// Table III workloads, end to end.
///
/// Results are **bit-identical** to the eager
/// `Sequential::forward` on [`ModelSession::engines`] — compilation is
/// a caching transformation, never a numerical one.
///
/// The session is `Sync`; the mutex guards only the name → model map
/// (never held during inference), and the compiled models themselves
/// are immutable and lock-free, so any number of request threads can
/// serve one session — or clone an [`Arc<CompiledNetwork>`] out via
/// [`ModelSession::model`] and bypass the map entirely.
///
/// ```
/// use mirage_core::Mirage;
/// use mirage_nn::{layers::{Dense, Relu}, Sequential};
/// use mirage_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let mut net = Sequential::new();
/// net.push(Dense::new(32, 16, &mut rng));
/// net.push(Relu::new());
/// net.push(Dense::new(16, 4, &mut rng));
///
/// let mirage = Mirage::paper_default();
/// let session = mirage.model_session();
/// session.load("mlp", &net)?; // quantize every weight once…
/// let eager = net.forward(&Tensor::ones(&[2, 32]), session.engines())?;
/// for _ in 0..3 {
///     let y = session.run("mlp", &Tensor::ones(&[2, 32]))?; // …serve many times
///     assert_eq!(y.data(), eager.data()); // bit-identical to eager
/// }
/// # Ok::<(), mirage_nn::NnError>(())
/// ```
#[derive(Debug)]
pub struct ModelSession {
    engines: Engines,
    models: Mutex<HashMap<String, Arc<CompiledNetwork>>>,
}

impl ModelSession {
    /// Builds a session over the accelerator's parallel BFP engine with
    /// the automatic tile/thread heuristic.
    pub fn new(mirage: &Mirage) -> Self {
        ModelSession {
            engines: Engines::uniform(mirage.parallel_gemm_engine()),
            models: Mutex::new(HashMap::new()),
        }
    }

    /// Builds a session with an explicit [`TileConfig`] (pin thread
    /// counts in benchmarks, force serial execution in baselines).
    pub fn with_tile_config(mirage: &Mirage, config: TileConfig) -> Self {
        ModelSession {
            engines: Engines::uniform(mirage.parallel_gemm_engine_with(config)),
            models: Mutex::new(HashMap::new()),
        }
    }

    /// The engines compiled models run on — the eager reference path
    /// for bit-identity checks.
    pub fn engines(&self) -> &Engines {
        &self.engines
    }

    /// Compiles `net` and caches it under `name`, replacing any
    /// previous model for that key. This is the only session operation
    /// that runs the quantizer on weights; it returns the compiled
    /// model so callers can also serve it directly.
    ///
    /// # Errors
    ///
    /// Returns [`mirage_nn::NnError::NotCompilable`] when a layer has no
    /// inference form (the network is rejected, not served through a
    /// degraded path); propagates weight-preparation errors.
    pub fn load(
        &self,
        name: impl Into<String>,
        net: &Sequential,
    ) -> mirage_nn::Result<Arc<CompiledNetwork>> {
        let compiled = Arc::new(net.compile(&self.engines)?);
        lock_recover(&self.models).insert(name.into(), Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Compiles `net`, re-places it across simulated accelerator
    /// instances per `spec` (tensor-parallel shards sliced from the
    /// shared weight preparations, plus an optional pipeline split —
    /// see [`mirage_nn::shard`]), and caches the sharded plan under
    /// `name`. The cached model is a plain [`CompiledNetwork`]:
    /// [`ModelSession::run`] / [`ModelSession::run_batch`] and the
    /// online [`ModelSession::server`] route through sharded plans
    /// unchanged, and responses stay bit-identical to the unsharded
    /// (and eager) paths.
    ///
    /// # Errors
    ///
    /// Same as [`ModelSession::load`], plus
    /// [`mirage_nn::NnError::ShardConfig`] for an invalid placement
    /// spec.
    pub fn load_sharded(
        &self,
        name: impl Into<String>,
        net: &Sequential,
        spec: &ShardSpec,
    ) -> mirage_nn::Result<Arc<CompiledNetwork>> {
        let compiled = net.compile(&self.engines)?;
        let sharded = Arc::new(ShardPlan::new(&compiled, spec)?.into_network());
        lock_recover(&self.models).insert(name.into(), Arc::clone(&sharded));
        Ok(sharded)
    }

    /// The compiled model cached under `name`. Serving loops can hold
    /// the returned `Arc` and skip the map lookup per request.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownLayer`] naming the missing key.
    pub fn model(&self, name: &str) -> Result<Arc<CompiledNetwork>> {
        lock_recover(&self.models)
            .get(name)
            .cloned()
            .ok_or_else(|| TensorError::UnknownLayer {
                name: name.to_string(),
            })
    }

    /// One whole-model inference against the compiled model for `name`;
    /// bit-identical to the eager `Sequential::forward` on
    /// [`ModelSession::engines`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownLayer`] (wrapped in
    /// [`mirage_nn::NnError::Tensor`]) when `name` has no loaded model;
    /// propagates step errors.
    pub fn run(&self, name: &str, x: &Tensor) -> mirage_nn::Result<Tensor> {
        self.model(name)?.run(x)
    }

    /// [`ModelSession::run`] with a caller-owned scratch arena, so a
    /// serving thread recycles its activation buffers across requests.
    ///
    /// # Errors
    ///
    /// Same as [`ModelSession::run`].
    pub fn run_with(
        &self,
        name: &str,
        x: &Tensor,
        scratch: &mut ActivationScratch,
    ) -> mirage_nn::Result<Tensor> {
        self.model(name)?.run_with(x, scratch)
    }

    /// Batched whole-model inference, bit-identical to mapping
    /// [`ModelSession::run`] over the items.
    ///
    /// # Errors
    ///
    /// Same as [`ModelSession::run`]; the whole batch fails if any item
    /// does.
    pub fn run_batch(&self, name: &str, inputs: &[Tensor]) -> mirage_nn::Result<Vec<Tensor>> {
        self.model(name)?.run_batch(inputs)
    }

    /// Starts an online serving front end ([`crate::serve::ModelServer`])
    /// over the compiled model cached under `name`: a bounded submission
    /// queue plus a coalescing dynamic batcher, with responses
    /// bit-identical to per-request eager forwards (see
    /// [`crate::serve`]). The server holds its own `Arc` to the model,
    /// so evicting or replacing `name` afterwards does not disturb it.
    ///
    /// # Errors
    ///
    /// Returns [`crate::serve::ServeError::UnknownModel`] when nothing is
    /// loaded under `name`, and the usual configuration/spawn errors
    /// from [`crate::serve::ModelServer::new`].
    pub fn server(
        &self,
        name: &str,
        config: crate::serve::ServerConfig,
    ) -> std::result::Result<crate::serve::ModelServer, crate::serve::ServeError> {
        let model = self
            .model(name)
            .map_err(|_| crate::serve::ServeError::UnknownModel {
                name: name.to_string(),
            })?;
        crate::serve::ModelServer::new(model, config)
    }

    /// Whether a model is loaded under `name`.
    pub fn contains(&self, name: &str) -> bool {
        lock_recover(&self.models).contains_key(name)
    }

    /// Number of cached models.
    pub fn len(&self) -> usize {
        lock_recover(&self.models).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops the model cached under `name`, returning whether one was
    /// present (in-flight requests holding the `Arc` finish unharmed).
    pub fn evict(&self, name: &str) -> bool {
        lock_recover(&self.models).remove(name).is_some()
    }

    /// Drops every cached model.
    pub fn clear(&self) {
        lock_recover(&self.models).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn session() -> (Mirage, InferenceSession) {
        let mirage = Mirage::paper_default();
        let session = mirage.inference_session();
        (mirage, session)
    }

    #[test]
    fn infer_is_bit_identical_to_unprepared_engine() {
        let (mirage, session) = session();
        let mut rng = rand::rngs::StdRng::seed_from_u64(200);
        let weight = Tensor::randn(&[48, 12], 1.0, &mut rng);
        session.load("fc", &weight).unwrap();
        let serial = mirage.gemm_engine();
        for _ in 0..3 {
            let x = Tensor::randn(&[9, 48], 1.0, &mut rng);
            assert_eq!(
                session.infer("fc", &x).unwrap().data(),
                serial.gemm(&x, &weight).unwrap().data()
            );
        }
    }

    #[test]
    fn infer_batch_matches_mirage_infer_batch() {
        let (mirage, session) = session();
        let mut rng = rand::rngs::StdRng::seed_from_u64(201);
        let weight = Tensor::randn(&[32, 8], 1.0, &mut rng);
        session.load("fc", &weight).unwrap();
        let inputs: Vec<Tensor> = (0..5)
            .map(|_| Tensor::randn(&[6, 32], 1.0, &mut rng))
            .collect();
        let cached = session.infer_batch("fc", &inputs).unwrap();
        let direct = mirage.infer_batch(&inputs, &weight).unwrap();
        for (c, d) in cached.iter().zip(&direct) {
            assert_eq!(c.data(), d.data());
        }
        // Empty batches are well-formed.
        assert!(session.infer_batch("fc", &[]).unwrap().is_empty());
    }

    #[test]
    fn missing_layer_is_a_dedicated_error_naming_the_key() {
        let (_mirage, session) = session();
        let err = session
            .infer("absent", &Tensor::zeros(&[2, 2]))
            .unwrap_err();
        assert!(
            matches!(&err, TensorError::UnknownLayer { name } if name == "absent"),
            "{err:?}"
        );
        assert!(err.to_string().contains("absent"), "{err}");
        assert!(matches!(
            session.infer_batch("gone", &[]).unwrap_err(),
            TensorError::UnknownLayer { .. }
        ));
    }

    #[test]
    fn infer_with_caches_on_first_use_and_pins_shape() {
        let (mirage, session) = session();
        let mut rng = rand::rngs::StdRng::seed_from_u64(202);
        let weight = Tensor::randn(&[24, 6], 1.0, &mut rng);
        let x = Tensor::randn(&[4, 24], 1.0, &mut rng);
        assert!(session.is_empty());
        let y = session.infer_with("fc", &x, &weight).unwrap();
        assert_eq!(session.len(), 1);
        assert_eq!(
            y.data(),
            mirage.gemm_engine().gemm(&x, &weight).unwrap().data()
        );
        // Same key, same shape: served from cache.
        session.infer_with("fc", &x, &weight).unwrap();
        // Same key, different shape: refused, not silently requantized.
        assert!(matches!(
            session.infer_with("fc", &x, &Tensor::zeros(&[24, 7])),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn load_replaces_and_evict_removes() {
        let (mirage, session) = session();
        let mut rng = rand::rngs::StdRng::seed_from_u64(203);
        let w1 = Tensor::randn(&[16, 4], 1.0, &mut rng);
        let w2 = Tensor::randn(&[16, 4], 1.0, &mut rng);
        let x = Tensor::randn(&[3, 16], 1.0, &mut rng);
        session.load("fc", &w1).unwrap();
        session.load("fc", &w2).unwrap(); // weight update
        assert_eq!(
            session.infer("fc", &x).unwrap().data(),
            mirage.gemm_engine().gemm(&x, &w2).unwrap().data()
        );
        assert!(session.evict("fc"));
        assert!(!session.evict("fc"));
        assert!(!session.contains("fc"));
        session.load("a", &w1).unwrap();
        session.load("b", &w2).unwrap();
        session.clear();
        assert!(session.is_empty());
    }

    #[test]
    fn explicit_tile_config_serves() {
        let mirage = Mirage::paper_default();
        let session = InferenceSession::with_tile_config(&mirage, TileConfig::serial());
        let weight = Tensor::full(&[16, 4], 0.5);
        session.load("fc", &weight).unwrap();
        assert_eq!(
            session
                .infer("fc", &Tensor::ones(&[2, 16]))
                .unwrap()
                .shape(),
            &[2, 4]
        );
    }
}

#[cfg(test)]
mod model_session_tests {
    use super::*;
    use mirage_nn::layers::{Dense, Dropout, Relu};
    use rand::SeedableRng;

    fn mlp(seed: u64) -> Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(32, 24, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(24, 5, &mut rng));
        net
    }

    #[test]
    fn run_is_bit_identical_to_eager_forward() {
        let mirage = Mirage::paper_default();
        let session = mirage.model_session();
        let mut net = mlp(300);
        session.load("mlp", &net).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(301);
        for rows in [1, 6] {
            let x = Tensor::randn(&[rows, 32], 1.0, &mut rng);
            let eager = net.forward(&x, session.engines()).unwrap();
            assert_eq!(session.run("mlp", &x).unwrap().data(), eager.data());
        }
    }

    #[test]
    fn run_batch_and_scratch_paths_match_run() {
        let mirage = Mirage::paper_default();
        let session = mirage.model_session();
        session.load("mlp", &mlp(302)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(303);
        let inputs: Vec<Tensor> = (0..4)
            .map(|_| Tensor::randn(&[3, 32], 1.0, &mut rng))
            .collect();
        let batch = session.run_batch("mlp", &inputs).unwrap();
        let mut scratch = ActivationScratch::new();
        for (x, y) in inputs.iter().zip(&batch) {
            assert_eq!(y.data(), session.run("mlp", x).unwrap().data());
            assert_eq!(
                y.data(),
                session.run_with("mlp", x, &mut scratch).unwrap().data()
            );
        }
        assert!(session.run_batch("mlp", &[]).unwrap().is_empty());
    }

    #[test]
    fn missing_model_is_the_dedicated_unknown_key_error() {
        let mirage = Mirage::paper_default();
        let session = mirage.model_session();
        let err = session.run("ghost", &Tensor::zeros(&[1, 4])).unwrap_err();
        assert!(
            matches!(
                &err,
                mirage_nn::NnError::Tensor(TensorError::UnknownLayer { name }) if name == "ghost"
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("ghost"), "{err}");
    }

    #[test]
    fn uncompilable_networks_are_rejected_at_load() {
        let mirage = Mirage::paper_default();
        let session = mirage.model_session();
        let mut rng = rand::rngs::StdRng::seed_from_u64(304);
        let mut net = Sequential::new();
        net.push(Dense::new(8, 8, &mut rng));
        net.push(Dropout::new(0.5, 1));
        let err = session.load("bad", &net).unwrap_err();
        assert!(
            matches!(err, mirage_nn::NnError::NotCompilable { .. }),
            "{err:?}"
        );
        assert!(!session.contains("bad"));
    }

    #[test]
    fn load_replaces_evict_removes_and_model_hands_out_arcs() {
        let mirage = Mirage::paper_default();
        let session = mirage.model_session();
        assert!(session.is_empty());
        session.load("a", &mlp(305)).unwrap();
        let first = session.model("a").unwrap();
        // Reload under the same key: new weights serve, old Arc lives on.
        let mut replacement = mlp(306);
        session.load("a", &replacement).unwrap();
        assert_eq!(session.len(), 1);
        let x = Tensor::ones(&[2, 32]);
        let eager = replacement.forward(&x, session.engines()).unwrap();
        assert_eq!(session.run("a", &x).unwrap().data(), eager.data());
        assert_eq!(first.run(&x).unwrap().shape(), &[2, 5]); // still serviceable
        assert!(session.evict("a"));
        assert!(!session.evict("a"));
        session.load("b", &mlp(307)).unwrap();
        session.clear();
        assert!(session.is_empty());
    }

    #[test]
    fn explicit_serial_tile_config_matches_parallel() {
        let mirage = Mirage::paper_default();
        let serial = mirage.model_session_with(TileConfig::serial());
        let parallel = mirage.model_session();
        let net = mlp(308);
        serial.load("m", &net).unwrap();
        parallel.load("m", &net).unwrap();
        let x = Tensor::full(&[4, 32], 0.25);
        assert_eq!(
            serial.run("m", &x).unwrap().data(),
            parallel.run("m", &x).unwrap().data()
        );
    }

    #[test]
    fn session_server_serves_the_cached_model_bit_identically() {
        let mirage = Mirage::paper_default();
        let session = mirage.model_session();
        let mut net = mlp(310);
        session.load("mlp", &net).unwrap();
        let server = session
            .server("mlp", crate::serve::ServerConfig::default())
            .unwrap();
        let x = Tensor::full(&[1, 32], 0.125);
        let eager = net.forward(&x, session.engines()).unwrap();
        let response = server.infer(x).unwrap();
        assert_eq!(response.output.data(), eager.data());
        // Evicting the session entry does not disturb the live server.
        assert!(session.evict("mlp"));
        assert!(server.infer(Tensor::full(&[1, 32], 0.125)).is_ok());
        server.join();
        // An unknown name is the typed serve error.
        let err = session
            .server("ghost", crate::serve::ServerConfig::default())
            .unwrap_err();
        assert!(
            matches!(&err, crate::serve::ServeError::UnknownModel { name } if name == "ghost"),
            "{err:?}"
        );
    }

    #[test]
    fn load_sharded_serves_bit_identically_through_session_and_server() {
        let mirage = Mirage::paper_default();
        let session = mirage.model_session();
        let mut net = mlp(311);
        session.load("flat", &net).unwrap();
        let spec = ShardSpec::tensor(3).with_pipeline(2, 2);
        let sharded = session.load_sharded("sharded", &net, &spec).unwrap();
        assert_eq!(sharded.pipeline_stages(), 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(312);
        let inputs: Vec<Tensor> = (0..5)
            .map(|_| Tensor::randn(&[2, 32], 1.0, &mut rng))
            .collect();
        let flat = session.run_batch("flat", &inputs).unwrap();
        let shard = session.run_batch("sharded", &inputs).unwrap();
        for ((x, a), b) in inputs.iter().zip(&flat).zip(&shard) {
            let eager = net.forward(x, session.engines()).unwrap();
            assert_eq!(a.data(), eager.data());
            assert_eq!(b.data(), eager.data());
        }
        // The online front end routes through the sharded plan unchanged.
        let server = session
            .server("sharded", crate::serve::ServerConfig::default())
            .unwrap();
        let x = Tensor::full(&[1, 32], 0.25);
        let eager = net.forward(&x, session.engines()).unwrap();
        assert_eq!(server.infer(x).unwrap().output.data(), eager.data());
        server.join();
        // Invalid placements are rejected, not cached.
        assert!(matches!(
            session.load_sharded("bad", &net, &ShardSpec::tensor(0)),
            Err(mirage_nn::NnError::ShardConfig { .. })
        ));
        assert!(!session.contains("bad"));
    }

    #[test]
    fn mirage_compile_and_compile_with_match_eager() {
        let mirage = Mirage::paper_default();
        let mut net = mlp(309);
        let compiled = mirage.compile(&net).unwrap();
        let x = Tensor::full(&[3, 32], -0.5);
        let eager = net.forward(&x, &mirage.training_engines()).unwrap();
        assert_eq!(compiled.run(&x).unwrap().data(), eager.data());
        let pinned = mirage
            .compile_with(&net, TileConfig::auto().with_threads(2))
            .unwrap();
        assert_eq!(pinned.run(&x).unwrap().data(), eager.data());
    }
}
