//! `async`: 2¹⁶ logical participants on an `AsyncBarrier` with 16
//! shards, multiplexed by an `Executor` with one driver per core. Each
//! participant does σ = 1 imbalanced busy work (`work_iters` /
//! `busy_work`, mean 4 iterations) before every `wait_async`. The only
//! workload where participants far outnumber threads: shard combining,
//! waker drain and polling dominate.
//!
//! The barrier's own wake histogram is coarse (power-of-two buckets),
//! so the benchmark stamps each epoch's release itself: the first
//! participant to return from an epoch's wait records the time.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use combar_async::{busy_work, work_iters, AsyncBarrier, Deadline, Executor};

use crate::report::{Ctx, Report};
use crate::span::Tracer;
use crate::stats::{block_tail, median, quantile};

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Logical participants, one task each.
    pub participants: u32,
    /// Arrival shards.
    pub shards: u32,
    /// Epochs per trial; epoch 0 overlaps spawning and is not timed.
    pub trial_epochs: u32,
    /// Mean busy-work iterations per participant-epoch.
    pub work_mean: u32,
    /// Relative spread of the work draws.
    pub sigma: f64,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Self {
        Self {
            participants: 1 << 16,
            shards: 16,
            trial_epochs: 40,
            work_mean: 4,
            sigma: 1.0,
        }
    }

    /// Seconds-scale size for the smoke test.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            participants: 256,
            shards: 4,
            trial_epochs: 6,
            ..Self::full()
        }
    }
}

/// Per-epoch stamps (ns since the trial's base) written by the tasks.
struct Stamps {
    base: Instant,
    trace: bool,
    participants: u32,
    released: Vec<AtomicBool>,
    release: Vec<AtomicU64>,
    arrived: Vec<AtomicU32>,
    first_arrival: Vec<AtomicU64>,
    last_arrival: Vec<AtomicU64>,
    departed: Vec<AtomicU32>,
    last_departure: Vec<AtomicU64>,
    busy_ns: AtomicU64,
}

fn atomics<T, F: Fn() -> T>(n: u32, f: F) -> Vec<T> {
    (0..n).map(|_| f()).collect()
}

impl Stamps {
    fn new(size: &Size, trace: bool) -> Self {
        let n = size.trial_epochs;
        Self {
            base: Instant::now(),
            trace,
            participants: size.participants,
            released: atomics(n, || AtomicBool::new(false)),
            release: atomics(n, || AtomicU64::new(0)),
            arrived: atomics(n, || AtomicU32::new(0)),
            first_arrival: atomics(n, || AtomicU64::new(0)),
            last_arrival: atomics(n, || AtomicU64::new(0)),
            departed: atomics(n, || AtomicU32::new(0)),
            last_departure: atomics(n, || AtomicU64::new(0)),
            busy_ns: AtomicU64::new(0),
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn arrive(&self, e: usize) {
        let k = self.arrived[e].fetch_add(1, Ordering::Relaxed);
        if k == 0 {
            self.first_arrival[e].store(self.now(), Ordering::Relaxed);
        }
        if k + 1 == self.participants {
            self.last_arrival[e].store(self.now(), Ordering::Relaxed);
        }
    }

    fn depart(&self, e: usize) {
        if !self.released[e].load(Ordering::Relaxed)
            && !self.released[e].swap(true, Ordering::AcqRel)
        {
            self.release[e].store(self.now(), Ordering::Relaxed);
        }
        if self.trace {
            let k = self.departed[e].fetch_add(1, Ordering::Relaxed);
            if k + 1 == self.participants {
                self.last_departure[e].store(self.now(), Ordering::Relaxed);
            }
        }
    }

    fn get(v: &[AtomicU64], e: usize) -> f64 {
        v[e].load(Ordering::Relaxed) as f64
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, size: &Size) -> Report {
    let mut report = Report::new(Tracer::new(ctx.trace, Instant::now()));
    let drivers = ctx.threads.min(2);
    report.info("participants", size.participants);
    report.info("shards", size.shards);
    report.info("drivers", drivers);
    report.info("trial_epochs", size.trial_epochs);
    report.info(
        "work",
        format!("mean {} iterations, sigma {}", size.work_mean, size.sigma),
    );

    let (mut setup_s, mut trial_s, mut epoch_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut window_us, mut fanout_us) = (Vec::new(), Vec::new());
    let mut epochs_per_s = Vec::new();
    let (mut epochs, mut busy_ns, mut capacity_ns) = (0u64, 0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    // Trial 0 warms the allocator and the drivers and is not reported.
    let mut trial = 0u64;
    while trial <= 1 || Instant::now() < deadline {
        let root = report.tracer.begin("asyncb.trial", None, trial);
        let stamps = Arc::new(Stamps::new(size, ctx.trace));
        let seed = ctx.seed ^ trial;
        let spawn = report.tracer.begin("asyncb.spawn", root, trial);
        let t0 = Instant::now();
        let barrier = AsyncBarrier::new(size.participants, size.shards);
        let exec = Executor::new(drivers);
        for tid in 0..size.participants {
            let b = barrier.clone();
            let st = Arc::clone(&stamps);
            let (epochs, mean, sigma) = (size.trial_epochs, size.work_mean, size.sigma);
            exec.spawn(async move {
                let mut w = b.waiter_for(tid);
                for e in 0..epochs {
                    let iters = work_iters(seed, tid, e, mean, sigma);
                    if st.trace {
                        let w0 = Instant::now();
                        busy_work(iters);
                        st.busy_ns
                            .fetch_add(w0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        st.arrive(e as usize);
                    } else {
                        busy_work(iters);
                    }
                    w.wait_async().await.expect("clean async epoch");
                    st.depart(e as usize);
                }
            });
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        report.tracer.end(spawn);
        let drained = exec.wait_idle(Deadline::after(Duration::from_secs(120)));
        let wall = t0.elapsed();
        report.tracer.end(root);

        report.attempted += u64::from(size.trial_epochs);
        if !drained {
            report.fail(1, format!("trial {trial}: executor did not drain"));
        }
        if exec.panics() > 0 {
            report.fail(
                exec.panics(),
                format!("trial {trial}: {} tasks panicked", exec.panics()),
            );
        }
        if barrier.is_poisoned() {
            report.fail(1, format!("trial {trial}: barrier poisoned"));
        }
        if barrier.epoch() != size.trial_epochs {
            report.fail(
                1,
                format!(
                    "trial {trial}: final epoch {} ≠ {}",
                    barrier.epoch(),
                    size.trial_epochs
                ),
            );
        }
        drop(exec);
        if trial == 0 {
            setup_s.clear();
            trial += 1;
            continue;
        }

        let st = &stamps;
        let last = size.trial_epochs as usize - 1;
        let mut trial_epochs = Vec::with_capacity(last);
        for e in 1..=last {
            let took = Stamps::get(&st.release, e) - Stamps::get(&st.release, e - 1);
            trial_epochs.push(took * 1e-3);
            if ctx.trace {
                window_us.push(
                    (Stamps::get(&st.last_arrival, e) - Stamps::get(&st.first_arrival, e)) * 1e-3,
                );
                fanout_us.push(
                    (Stamps::get(&st.last_departure, e) - Stamps::get(&st.release, e)) * 1e-3,
                );
                report.tracer.record(
                    "asyncb.epoch",
                    root,
                    e as u64,
                    st.release[e - 1].load(Ordering::Relaxed),
                    st.release[e].load(Ordering::Relaxed),
                );
            }
        }
        epoch_us.push(block_tail(&mut trial_epochs));
        epochs += last as u64;
        let timed_s = (Stamps::get(&st.release, last) - Stamps::get(&st.release, 0)) * 1e-9;
        epochs_per_s.push(last as f64 / timed_s);
        trial_s.push(wall.as_secs_f64() - setup_s.last().expect("this trial's set-up"));
        busy_ns += st.busy_ns.load(Ordering::Relaxed);
        capacity_ns += wall.as_nanos() as u64 * drivers as u64;
        trial += 1;
    }
    report.info("trials", trial - 1);
    report.info("timed_epochs", epochs);

    report.e2e("setup_s", median(&mut setup_s.clone()), "s");
    report.e2e("episodes_per_s", median(&mut epochs_per_s), "1/s");
    report.latencies(&epoch_us, 1.0);
    report.e2e("solve_s", median(&mut trial_s), "s");
    if ctx.trace {
        report.layer("asyncb.spawn_ms", median(&mut setup_s) * 1e3, "ms");
        report.layer("asyncb.arrival_window_us_p50", median(&mut window_us), "us");
        fanout_us.sort_by(f64::total_cmp);
        report.layer(
            "asyncb.release_fanout_us_p50",
            quantile(&fanout_us, 0.5),
            "us",
        );
        report.layer(
            "asyncb.release_fanout_us_p90",
            quantile(&fanout_us, 0.9),
            "us",
        );
        report.layer(
            "asyncb.work_share",
            busy_ns as f64 / capacity_ns as f64,
            "ratio",
        );
    }
    report
}
