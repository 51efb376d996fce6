//! `crossing`: two persistent threads cross six threaded barrier kinds
//! through `AnyWaiter`, in interleaved rounds, with zero work between
//! crossings — the host's real per-crossing cost `t_c`.
//!
//! Each round crosses every kind `round_eps` times, in an order drawn
//! from the seed. Both threads stamp each episode (before `wait`, after
//! it returns); between rounds the worker hands its stamps to the lead,
//! which folds them into histograms and checks the barrier order.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use combar_rng::{Rng, SeedableRng, Xoshiro256pp};
use combar_rt::conformance::BarrierKind;
use combar_rt::{AnyBarrier, AnyWaiter, BarrierBuilder};
use combar_trace::TraceBook;

use crate::report::{Ctx, Report};
use crate::span::{SpanId, Tracer};
use crate::stats::{block_tail, median, Hist};

/// The six kinds, by metric name. `blocking` and `async` serve
/// oversubscribed hosts and would drown the spinning kinds' cost.
pub const KINDS: [(&str, BarrierKind); 6] = [
    ("central", BarrierKind::Central),
    ("tree_d2", BarrierKind::CombiningTree { degree: 2 }),
    ("dynamic_d2", BarrierKind::Dynamic { degree: 2 }),
    ("dissemination", BarrierKind::Dissemination),
    ("tournament", BarrierKind::Tournament),
    ("adaptive", BarrierKind::Adaptive),
];

const WAIT_SPANS: [&str; 6] = [
    "rt.central.wait",
    "rt.tree_d2.wait",
    "rt.dynamic_d2.wait",
    "rt.dissemination.wait",
    "rt.tournament.wait",
    "rt.adaptive.wait",
];

const BLOCK_SPANS: [&str; 6] = [
    "rt.central.block",
    "rt.tree_d2.block",
    "rt.dynamic_d2.block",
    "rt.dissemination.block",
    "rt.tournament.block",
    "rt.adaptive.block",
];

/// Participants: one thread each, the host's two cores.
const P: u32 = 2;

/// Barrier set-ups timed together in one `setup_s` sample.
const SETUP_BATCH: usize = 20;

/// Builds the six barriers.
fn build() -> Vec<AnyBarrier> {
    KINDS
        .iter()
        .map(|&(_, kind)| BarrierBuilder::new(kind, P).build())
        .collect()
}

/// One `setup_s` sample: the mean time of [`SETUP_BATCH`] builds of the
/// six barriers and both participants' waiters.
fn setup_sample() -> f64 {
    let t0 = Instant::now();
    for _ in 0..SETUP_BATCH {
        let barriers = build();
        for b in &barriers {
            drop((b.waiter(0), b.waiter(1)));
        }
    }
    t0.elapsed().as_secs_f64() / SETUP_BATCH as f64
}

/// Traced rounds keep a span for the first few crossings of each block.
const SPANS_PER_BLOCK: usize = 64;

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Episodes per kind per round.
    pub round_eps: usize,
    /// Untimed rounds before measuring.
    pub warmup_rounds: usize,
    /// Timed rounds per `setup_s` sample. The samples are spread over
    /// the whole run, so a few seconds of a busy host move one share of
    /// them, not all.
    pub setup_every: u64,
    /// Episodes of the traced central barrier (traced runs only).
    pub sink_eps: usize,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Self {
        Self {
            round_eps: 500,
            warmup_rounds: 80,
            setup_every: 32,
            sink_eps: 20_000,
        }
    }

    /// Seconds-scale size for the smoke test.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            round_eps: 50,
            warmup_rounds: 1,
            setup_every: 1,
            sink_eps: 200,
        }
    }
}

/// One thread's arrival/departure stamps for one round, per kind.
#[derive(Clone)]
struct Stamps {
    arrive: Vec<Vec<u64>>,
    depart: Vec<Vec<u64>>,
}

impl Stamps {
    fn new(n: usize) -> Self {
        Self {
            arrive: vec![vec![0; n]; KINDS.len()],
            depart: vec![vec![0; n]; KINDS.len()],
        }
    }
}

/// Kind order of round `round`: a seeded shuffle both threads agree on.
fn order(seed: u64, round: u64) -> [usize; 6] {
    let mut o = [0, 1, 2, 3, 4, 5];
    let mut rng = Xoshiro256pp::split(seed, round);
    for i in (1..o.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        o.swap(i, j);
    }
    o
}

/// Checks the barrier order of one episode from both threads' stamps:
/// nobody departs before the last arrival. Returns
/// `(sync delay, arrival skew)` in ns, or `None` on a violation.
pub fn episode_delays(arrive: [u64; 2], depart: [u64; 2]) -> Option<(u64, u64)> {
    let last_arrival = arrive[0].max(arrive[1]);
    let first_departure = depart[0].min(depart[1]);
    if first_departure < last_arrival {
        return None;
    }
    let last_departure = depart[0].max(depart[1]);
    Some((
        last_departure - last_arrival,
        last_arrival - arrive[0].min(arrive[1]),
    ))
}

/// A round's time as `round_eps` crossings of each kind at that kind's
/// median cycle (departure to departure on one thread). A stalled
/// crossing — the hypervisor taking a core for a few milliseconds, as
/// it does on a shared VM — moves the median of ~500 cycles by at most
/// one sample, where it would stretch the round's wall time.
fn round_time_s(depart: &[Vec<u64>]) -> f64 {
    depart
        .iter()
        .map(|d| {
            let mut cycles: Vec<f64> = d.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
            median(&mut cycles) * d.len() as f64 * 1e-9
        })
        .sum()
}

/// Everything the lead folds from the rounds.
struct Folded {
    per_kind: Vec<Hist>,
    /// `[p50, p90]` sync delay of each timed round, ns.
    rounds: Vec<[f64; 2]>,
    skew: Hist,
    episodes: u64,
    violations: u64,
    crossing_mismatch: u64,
    /// Time of each timed round, from its per-kind median cycle.
    round_s: Vec<f64>,
    setup_s: Vec<f64>,
    sink: Option<(f64, f64)>,
}

struct Shared<'a> {
    base: Instant,
    seed: u64,
    seconds: f64,
    size: Size,
    barriers: &'a [AnyBarrier],
    sink: Option<&'a AnyBarrier>,
    /// Worker → lead hand-off of one round's stamps.
    slot: Mutex<Option<(Stamps, u64)>>,
    sync: Barrier,
    stop: AtomicBool,
}

fn now(base: Instant) -> u64 {
    base.elapsed().as_nanos() as u64
}

/// One participant's whole run; `tid` 0 is the lead and returns the
/// folded results.
fn participant(sh: &Shared<'_>, tid: u32, tracer: &mut Tracer) -> Option<Folded> {
    let mut waiters: Vec<AnyWaiter<'_>> = sh.barriers.iter().map(|b| b.waiter(tid)).collect();
    let n = sh.size.round_eps;
    let mut stamps = Stamps::new(n);
    let mut crossings = 0u64;
    let mut folded = (tid == 0).then(|| Folded {
        per_kind: vec![Hist::new(); KINDS.len()],
        rounds: Vec::new(),
        skew: Hist::new(),
        episodes: 0,
        violations: 0,
        crossing_mismatch: 0,
        round_s: Vec::new(),
        setup_s: Vec::new(),
        sink: None,
    });
    let mut measure_start = None;
    let mut round = 0u64;
    loop {
        let timed = round >= sh.size.warmup_rounds as u64;
        let round_span = if timed {
            tracer.begin("rt.round", None, round)
        } else {
            None
        };
        let t0 = now(sh.base);
        for k in order(sh.seed, round) {
            let w = &mut waiters[k];
            let (arr, dep) = (&mut stamps.arrive[k], &mut stamps.depart[k]);
            let block: SpanId = if timed {
                tracer.begin(BLOCK_SPANS[k], round_span, round)
            } else {
                None
            };
            for i in 0..n {
                let a = now(sh.base);
                w.wait();
                let d = now(sh.base);
                arr[i] = a;
                dep[i] = d;
                if block.is_some() && i < SPANS_PER_BLOCK {
                    tracer.record(WAIT_SPANS[k], block, crossings + i as u64, a, d);
                }
            }
            tracer.end(block);
            crossings += n as u64;
        }
        tracer.end(round_span);

        if tid != 0 {
            *sh.slot.lock().expect("stamp slot poisoned") = Some((stamps.clone(), crossings));
            sh.sync.wait();
            sh.sync.wait();
        } else {
            sh.sync.wait();
            let (theirs, their_crossings) = sh
                .slot
                .lock()
                .expect("stamp slot poisoned")
                .take()
                .expect("worker stamps present");
            let f = folded.as_mut().expect("lead folds");
            if timed {
                let start = *measure_start.get_or_insert(t0);
                f.round_s.push(round_time_s(&stamps.depart));
                if their_crossings != crossings {
                    f.crossing_mismatch += 1;
                }
                let mut round_sync = Vec::with_capacity(n * KINDS.len());
                for k in 0..KINDS.len() {
                    for i in 0..n {
                        let arrive = [stamps.arrive[k][i], theirs.arrive[k][i]];
                        let depart = [stamps.depart[k][i], theirs.depart[k][i]];
                        match episode_delays(arrive, depart) {
                            Some((sync, skew)) => {
                                f.per_kind[k].record(sync);
                                round_sync.push(sync as f64);
                                f.skew.record(skew);
                            }
                            None => f.violations += 1,
                        }
                    }
                }
                f.rounds.push(block_tail(&mut round_sync));
                f.episodes += (n * KINDS.len()) as u64;
                // Set-up, while the worker waits: its build span is
                // the set-up sample's.
                if (round - sh.size.warmup_rounds as u64).is_multiple_of(sh.size.setup_every) {
                    let span = tracer.begin("rt.build", None, round);
                    f.setup_s.push(setup_sample());
                    tracer.end(span);
                }
                if (now(sh.base) - start) as f64 * 1e-9 >= sh.seconds {
                    sh.stop.store(true, Ordering::SeqCst);
                }
            }
            sh.sync.wait();
        }
        round += 1;
        if sh.stop.load(Ordering::SeqCst) {
            break;
        }
    }

    // Traced runs: the central barrier again with a trace sink attached,
    // pricing observability when it is switched on.
    let sink_result = sh.sink.map(|b| {
        let mut w = b.waiter(tid);
        let guard = b.attach(tid);
        let mut sync = Vec::with_capacity(sh.size.sink_eps);
        for _ in 0..sh.size.sink_eps {
            let a = now(sh.base);
            w.wait();
            let d = now(sh.base);
            sync.push((a, d));
        }
        drop(guard);
        sync
    });
    if tid != 0 {
        if let Some(s) = sink_result {
            let flat: Vec<u64> = s.iter().flat_map(|&(a, d)| [a, d]).collect();
            let mut st = Stamps::new(0);
            st.arrive[0] = flat;
            *sh.slot.lock().expect("stamp slot poisoned") = Some((st, 0));
        }
        sh.sync.wait();
        return None;
    }
    sh.sync.wait();
    let mut f = folded.expect("lead folds");
    if let (Some(mine), Some(book)) = (sink_result, sh.sink.and_then(|b| b.trace_book())) {
        let (theirs, _) = sh
            .slot
            .lock()
            .expect("stamp slot poisoned")
            .take()
            .expect("worker sink stamps present");
        let mut h = Hist::new();
        for (i, &(a0, d0)) in mine.iter().enumerate() {
            let (a1, d1) = (theirs.arrive[0][2 * i], theirs.arrive[0][2 * i + 1]);
            match episode_delays([a0, a1], [d0, d1]) {
                Some((sync, _)) => h.record(sync),
                None => f.violations += 1,
            }
        }
        let events = book.drain().len() as u64 + book.dropped();
        f.sink = Some((h.quantile(0.5), events as f64 / mine.len() as f64));
    }
    Some(f)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, size: &Size) -> Report {
    let base = Instant::now();
    let mut report = Report::new(Tracer::new(ctx.trace, base));
    report.info("participants", P);
    report.info("threads", P);
    report.info("kinds", KINDS.map(|(n, _)| n).join(","));
    report.info("episodes_per_kind_per_round", size.round_eps);

    // Set-up (building the six barriers and both participants' waiters)
    // is sampled between rounds; one build takes microseconds, so each
    // sample times a batch.
    let barriers = build();
    let sink = ctx.trace.then(|| {
        BarrierBuilder::new(BarrierKind::Central, P)
            .trace(TraceBook::with_capacity(4 * size.sink_eps + 64))
            .build()
    });
    let shared = Shared {
        base,
        seed: ctx.seed,
        seconds: ctx.seconds,
        size: *size,
        barriers: &barriers,
        sink: sink.as_ref(),
        slot: Mutex::new(None),
        sync: Barrier::new(2),
        stop: AtomicBool::new(false),
    };
    let mut worker_tracer = Tracer::new(ctx.trace, base);
    let folded = std::thread::scope(|s| {
        let sh = &shared;
        let wt = &mut worker_tracer;
        let worker = s.spawn(move || participant(sh, 1, wt));
        let mut lead_tracer = Tracer::new(ctx.trace, base);
        let folded = participant(sh, 0, &mut lead_tracer);
        report.tracer.absorb(lead_tracer, None);
        worker.join().expect("crossing worker panicked");
        folded
    });
    report.tracer.absorb(worker_tracer, None);
    let mut f = folded.expect("lead result");

    report.attempted = f.episodes;
    if f.violations > 0 {
        report.fail(
            f.violations,
            format!(
                "{} episodes departed before their last arrival",
                f.violations
            ),
        );
    }
    if f.crossing_mismatch > 0 {
        report.fail(
            f.crossing_mismatch,
            format!(
                "threads crossed unequally in {} rounds",
                f.crossing_mismatch
            ),
        );
    }
    report.info("rounds", f.round_s.len());
    report.info("episodes", f.episodes);

    let n_round = size.round_eps * KINDS.len();
    report.e2e("setup_s", median(&mut f.setup_s), "s");
    let round_s = median(&mut f.round_s);
    report.e2e("episodes_per_s", (n_round as f64) / round_s, "1/s");
    report.latencies(&f.rounds, 1e-3);
    report.e2e("solve_s", round_s, "s");

    if ctx.trace {
        for (k, (name, _)) in KINDS.iter().enumerate() {
            let h = &f.per_kind[k];
            report.layer(&format!("rt.{name}.crossing_p50_ns"), h.quantile(0.5), "ns");
            report.layer(
                &format!("rt.{name}.crossing_p99_ns"),
                h.quantile(0.99),
                "ns",
            );
        }
        report.layer("rt.arrival_skew_p50_ns", f.skew.quantile(0.5), "ns");
        if let Some((p50, events)) = f.sink {
            report.layer("trace.sink_crossing_p50_ns", p50, "ns");
            report.layer("trace.events_per_episode", events, "count");
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_oracle_rejects_a_departure_before_the_last_arrival() {
        // Thread 1 arrives at 100; thread 0 claims to have left at 90.
        assert_eq!(episode_delays([10, 100], [90, 130]), None);
        // Departing exactly at the last arrival is allowed.
        assert_eq!(episode_delays([10, 100], [100, 130]), Some((30, 90)));
        assert_eq!(episode_delays([50, 40], [70, 60]), Some((20, 10)));
    }

    #[test]
    fn round_order_is_a_seeded_permutation() {
        let a = order(7, 3);
        assert_eq!(a, order(7, 3));
        let mut sorted = a;
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2, 3, 4, 5]);
        assert!((0..20).any(|r| order(7, r) != order(8, r)));
    }
}
