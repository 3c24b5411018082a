//! Driving one `ModelServer` through its public entry points:
//! open-loop Poisson arrivals timed from their due times, and a closed
//! phase that keeps the server saturated with cycles of `MAX_BATCH`
//! requests.

use crate::stats::ms;
use mirage_core::serve::{BatchMode, ModelServer, PendingResponse, RequestStats, ServerConfig};
use mirage_tensor::Tensor;
use rand::rngs::StdRng;
use rand::RngExt;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Flush size (and the closed phase's outstanding-request count).
pub const MAX_BATCH: usize = 32;

/// The serving configuration every workload uses: one worker, stacked
/// batches of up to [`MAX_BATCH`], 1 ms coalescing deadline.
pub fn server_config() -> ServerConfig {
    ServerConfig::default()
        .with_max_batch(MAX_BATCH)
        .with_max_delay(Duration::from_millis(1))
        .with_batch_mode(BatchMode::Stack)
        .with_workers(1)
}

/// Whether a served output equals its reference bit for bit.
pub fn bit_identical(got: &Tensor, want: &Tensor) -> bool {
    got.shape() == want.shape()
        && got
            .data()
            .iter()
            .zip(want.data())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Request accounting shared by both phases.
#[derive(Debug, Default)]
pub struct Counts {
    /// Requests offered to `submit`.
    pub sent: u64,
    /// Refused by `submit`.
    pub rejected: u64,
    /// Answered with an error.
    pub failed: u64,
    /// Answered with bits that differ from the reference.
    pub wrong: u64,
}

impl Counts {
    /// Refused, failed and wrong requests together.
    pub fn errors(&self) -> u64 {
        self.rejected + self.failed + self.wrong
    }

    pub fn add(&mut self, other: &Counts) {
        self.sent += other.sent;
        self.rejected += other.rejected;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// What the open-loop phase measured.
#[derive(Debug, Default)]
pub struct OpenLoop {
    pub counts: Counts,
    /// Due time → delivery, per correctly answered request.
    pub latency_ms: Vec<f64>,
    /// Correct answers delivered within the latency limit.
    pub attained: u64,
    /// Send time − due time, per request sent.
    pub lateness_ms: Vec<f64>,
    /// Time spent inside `submit()` (traced runs only).
    pub submit_us: Vec<f64>,
    /// Per-response server accounting in delivery order (traced runs
    /// only).
    pub stats: Vec<RequestStats>,
}

impl OpenLoop {
    /// Appends another phase's measurements to this one.
    pub fn absorb(&mut self, other: OpenLoop) {
        self.counts.add(&other.counts);
        self.latency_ms.extend(other.latency_ms);
        self.attained += other.attained;
        self.lateness_ms.extend(other.lateness_ms);
        self.submit_us.extend(other.submit_us);
        self.stats.extend(other.stats);
    }
}

/// Sends Poisson arrivals at `rate_rps` for `duration` from one
/// generator thread that sleeps until each request is due, while a
/// collector thread blocks on the responses in order (one server worker
/// answers in FIFO order). Each latency runs from the request's due
/// time, so a stall is charged to every request queued behind it.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    server: &ModelServer,
    pool: &[Tensor],
    refs: &[Tensor],
    rate_rps: f64,
    duration: Duration,
    slo_ms: f64,
    trace: bool,
    rng: &mut StdRng,
) -> OpenLoop {
    // The whole schedule is drawn before the first send.
    let mut schedule = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.random::<f64>()).ln() / rate_rps;
        if t >= duration.as_secs_f64() {
            break;
        }
        let idx = (rng.random::<u64>() % pool.len() as u64) as usize;
        schedule.push((Duration::from_secs_f64(t), idx));
    }
    let mut out = OpenLoop::default();
    let (tx, rx) = mpsc::channel::<(usize, Instant, PendingResponse)>();
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut got = OpenLoop::default();
            for (idx, due, pending) in rx {
                let answer = pending.wait();
                let delivered = Instant::now();
                match answer {
                    Ok(response) if bit_identical(&response.output, &refs[idx]) => {
                        let latency = ms(delivered.saturating_duration_since(due));
                        got.latency_ms.push(latency);
                        if latency <= slo_ms {
                            got.attained += 1;
                        }
                        if trace {
                            got.stats.push(response.stats);
                        }
                    }
                    Ok(_) => got.counts.wrong += 1,
                    Err(_) => got.counts.failed += 1,
                }
            }
            got
        });
        let start = Instant::now();
        for &(offset, idx) in &schedule {
            let due = start + offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let input = pool[idx].clone();
            let sent = Instant::now();
            out.lateness_ms
                .push(ms(sent.saturating_duration_since(due)));
            out.counts.sent += 1;
            let submitted = server.submit(input);
            if trace {
                out.submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
            }
            match submitted {
                Ok(pending) => tx
                    .send((idx, due, pending))
                    .expect("collector outlives the generator"),
                Err(_) => out.counts.rejected += 1,
            }
        }
        drop(tx);
        let got = collector.join().expect("collector thread panicked");
        out.counts.add(&got.counts);
        out.latency_ms = got.latency_ms;
        out.attained = got.attained;
        out.stats = got.stats;
    });
    out
}

/// What the closed phase measured.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    pub counts: Counts,
    /// Correct answers.
    pub completed: u64,
    /// Wall time of the phase.
    pub elapsed: Duration,
}

impl ClosedLoop {
    /// Correct answers per second.
    pub fn rps(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64()
    }
}

/// Runs the server saturated from one thread for `duration`, in cycles
/// that submit `outstanding` requests back to back and then wait for
/// and check every answer. Refilling one request per answer instead
/// lets the outstanding requests split into cohorts that the batcher
/// flushes separately; how they split is settled by chance early in a
/// phase and then persists, so the rate of a phase came out at one of
/// two levels far apart (≈ 650 and ≈ 1050 req/s for the RNS engine at
/// width 256).
/// Cycles give every phase full batches.
pub fn closed_loop(
    server: &ModelServer,
    pool: &[Tensor],
    refs: &[Tensor],
    outstanding: usize,
    duration: Duration,
    rng: &mut StdRng,
) -> ClosedLoop {
    let mut out = ClosedLoop::default();
    let mut inflight = Vec::with_capacity(outstanding);
    let start = Instant::now();
    while start.elapsed() < duration {
        for _ in 0..outstanding {
            let idx = (rng.random::<u64>() % pool.len() as u64) as usize;
            out.counts.sent += 1;
            match server.submit(pool[idx].clone()) {
                Ok(pending) => inflight.push((idx, pending)),
                Err(_) => out.counts.rejected += 1,
            }
        }
        for (idx, pending) in inflight.drain(..) {
            match pending.wait() {
                Ok(response) if bit_identical(&response.output, &refs[idx]) => out.completed += 1,
                Ok(_) => out.counts.wrong += 1,
                Err(_) => out.counts.failed += 1,
            }
        }
    }
    out.elapsed = start.elapsed();
    out
}
