//! `server`: the journaled epoch server on a clean loopback wire. One
//! driver thread runs every session through `BarrierClient`'s split
//! `send_arrive` / `await_release` API, two-phase as in
//! `combar_net::traffic::drive`: send every arrival, then await every
//! release. The only workload on `net`'s recv → ledger → WAL append →
//! broadcast path. A lossy wire is left out: its throughput is set by
//! the client's 25 ms retry timeout, not by the code.
//!
//! The run is a sequence of trials, each a fresh server, journal and
//! session set, so set-up is timed many times and the in-memory journal
//! stays bounded.

use std::time::{Duration, Instant};

use combar_net::{BarrierClient, ClientConfig, EpochServer, Journal, ServerConfig, SessionStats};
use combar_rng::SeedableRng;
use combar_rng::{Rng, Xoshiro256pp};

use crate::report::{Ctx, Report};
use crate::span::Tracer;
use crate::stats::{block_tail, median, Hist};

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Sessions, all on the one driver thread.
    pub sessions: u64,
    /// Timed epochs per trial.
    pub trial_epochs: u64,
    /// Untimed epochs at the start of each trial.
    pub warmup_epochs: u64,
    /// `solve_s` times blocks of this many epochs.
    pub block_epochs: u64,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Self {
        Self {
            sessions: 64,
            trial_epochs: 500,
            warmup_epochs: 50,
            block_epochs: 20,
        }
    }

    /// Seconds-scale size for the smoke test.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            sessions: 8,
            trial_epochs: 40,
            warmup_epochs: 5,
            block_epochs: 10,
        }
    }
}

/// Traced runs keep spans for the first few rounds of each trial.
const SPAN_ROUNDS: u64 = 20;

/// Everything the trials accumulate.
#[derive(Default)]
struct Totals {
    setup_s: Vec<f64>,
    join_ms: Vec<f64>,
    /// Time of each block: `block_epochs` epochs at the block's median
    /// epoch time, so an epoch stalled by the host moves it by at most
    /// one sample where it would stretch the block's wall time.
    block_s: Vec<f64>,
    /// Epoch times (s) of the current block.
    epoch_s: Vec<f64>,
    /// Arrive → release samples (ns) of each block of epochs.
    blocks: Vec<[f64; 2]>,
    block: Vec<f64>,
    send: Hist,
    release_wait: Hist,
    timed_ns: u64,
    session_episodes: u64,
    epochs: u64,
    retries: u64,
    journal_bytes: u64,
    mismatches: u64,
}

fn ns(t: Instant, base: Instant) -> u64 {
    t.duration_since(base).as_nanos() as u64
}

/// One trial: start, join, drive, leave, reconcile, shut down.
fn trial(
    ctx: &Ctx,
    size: &Size,
    index: u64,
    deadline: Instant,
    report: &mut Report,
    t: &mut Totals,
) {
    let base = report.tracer.base();
    let root = report.tracer.begin("net.trial", None, index);
    let t0 = Instant::now();
    let journal = Journal::memory();
    let server = EpochServer::start_journaled(
        ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        },
        journal.clone(),
    );
    let first = (ctx.seed % 1_000_000) * size.sessions;
    let mut clients: Vec<_> = (0..size.sessions)
        .map(|i| BarrierClient::new(server.connect(), first + i, ClientConfig::default()))
        .collect();
    let join0 = Instant::now();
    for c in &mut clients {
        let span = report.tracer.begin("net.join", root, c.session());
        c.join().expect("clean-wire join");
        report.tracer.end(span);
    }
    // A session that joined alone completed its join epoch by proxy and
    // sits one episode behind the rest: walk the laggards through the
    // already-released epochs (immediate re-acks) so every round starts
    // with all sessions on the same episode.
    loop {
        let lo = clients.iter().map(|c| c.episode()).min().expect("sessions");
        if clients.iter().all(|c| c.episode() == lo) {
            break;
        }
        for c in clients.iter_mut().filter(|c| c.episode() == lo) {
            c.send_arrive().expect("clean-wire arrive");
            c.await_release().expect("released epoch re-acks");
        }
    }
    t.join_ms.push(join0.elapsed().as_secs_f64() * 1e3);
    t.setup_s.push(t0.elapsed().as_secs_f64());

    let n = clients.len();
    let mut rng = Xoshiro256pp::split(ctx.seed, index);
    let mut order: Vec<usize> = (0..n).collect();
    let mut sent = vec![0u64; n];
    let mut done = vec![0u64; n];
    let mut journal_at = 0;
    let mut timed_start = None;
    let mut round = 0u64;
    while round < size.warmup_epochs + size.trial_epochs {
        let timed = round >= size.warmup_epochs;
        if timed && timed_start.is_none() {
            timed_start = Some(Instant::now());
            journal_at = journal.len().expect("memory journal");
        }
        let epoch_start = Instant::now();
        for i in (1..n).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let spans = report.tracer.on() && round < size.warmup_epochs + SPAN_ROUNDS;
        let round_span = if spans {
            report.tracer.begin("net.round", root, round)
        } else {
            None
        };
        for &s in &order {
            let a = Instant::now();
            match clients[s].send_arrive() {
                Ok(()) => {}
                Err(e) => report.fail(
                    1,
                    format!("session {}: send_arrive {e:?}", clients[s].session()),
                ),
            }
            let b = Instant::now();
            sent[s] = ns(b, base);
            if timed {
                t.send.record(ns(b, base) - ns(a, base));
            }
            if spans {
                report.tracer.record(
                    "net.send_arrive",
                    round_span,
                    round,
                    ns(a, base),
                    ns(b, base),
                );
            }
        }
        let last_send = ns(Instant::now(), base);
        for &s in &order {
            let a = ns(Instant::now(), base);
            let got = clients[s].await_release();
            let now = ns(Instant::now(), base);
            if spans {
                report
                    .tracer
                    .record("net.await_release", round_span, round, a, now);
            }
            match got {
                Ok(_) => {
                    done[s] += 1;
                    if timed {
                        t.block.push((now - sent[s]) as f64);
                        t.release_wait.record(now - last_send);
                    }
                }
                Err(e) => report.fail(
                    1,
                    format!("session {}: await_release {e:?}", clients[s].session()),
                ),
            }
        }
        report.tracer.end(round_span);
        round += 1;
        if timed {
            t.epoch_s.push(epoch_start.elapsed().as_secs_f64());
            t.session_episodes += n as u64;
            t.epochs += 1;
            report.attempted += n as u64;
            if (round - size.warmup_epochs).is_multiple_of(size.block_epochs) {
                t.block_s
                    .push(median(&mut t.epoch_s) * size.block_epochs as f64);
                t.epoch_s.clear();
                t.blocks.push(block_tail(&mut t.block));
            }
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    let took = timed_start.expect("at least one timed round").elapsed();
    t.timed_ns += took.as_nanos() as u64;
    t.journal_bytes += journal.len().expect("memory journal") - journal_at;

    // Every session reaches its quota, and the server's ledger agrees
    // with what each client saw released: never more, and behind by at
    // most the one join-epoch proxy arrival the server does not credit.
    // The shard credits a release just after sending it, so a client can
    // see its last release first: give the ledger up to a second to
    // catch up before comparing.
    let behind = |st: SessionStats, d: u64| st.completed + 1 + st.evictions + st.rejoins < d;
    let settle = Instant::now() + Duration::from_secs(1);
    let mut stats = server.session_stats();
    while Instant::now() < settle
        && clients
            .iter()
            .zip(&done)
            .any(|(c, &d)| behind(stats.get(&c.session()).copied().unwrap_or_default(), d))
    {
        std::thread::sleep(Duration::from_millis(1));
        stats = server.session_stats();
    }
    for (c, &d) in clients.iter().zip(&done) {
        t.retries += c.stats().retries;
        if d != round {
            report.fail(
                1,
                format!("session {}: {d} of {round} episodes", c.session()),
            );
        }
        let st = stats.get(&c.session()).copied().unwrap_or_default();
        if st.completed > d || behind(st, d) {
            t.mismatches += 1;
            report.fail(
                1,
                format!(
                    "session {}: server ledger {st:?}, client saw {d}",
                    c.session()
                ),
            );
        }
    }
    for c in &mut clients {
        let _ = c.leave();
    }
    server.shutdown();
    report.tracer.end(root);
}

/// Runs the workload.
pub fn run(ctx: &Ctx, size: &Size) -> Report {
    let mut report = Report::new(Tracer::new(ctx.trace, Instant::now()));
    report.info("sessions", size.sessions);
    report.info("shards", 1);
    report.info("driver_threads", 1);
    report.info("trial_epochs", size.trial_epochs);
    let mut t = Totals::default();
    let started = Instant::now();
    let deadline = started + std::time::Duration::from_secs_f64(ctx.seconds);
    let mut index = 0;
    while index == 0 || Instant::now() < deadline {
        trial(ctx, size, index, deadline, &mut report, &mut t);
        index += 1;
    }
    report.info("trials", index);
    report.info("session_episodes", t.session_episodes);

    report.e2e("setup_s", median(&mut t.setup_s), "s");
    let block_s = median(&mut t.block_s);
    report.e2e(
        "episodes_per_s",
        (size.sessions * size.block_epochs) as f64 / block_s,
        "1/s",
    );
    report.latencies(&t.blocks, 1e-3);
    report.e2e("solve_s", block_s, "s");
    if ctx.trace {
        report.layer("net.join_ms", median(&mut t.join_ms), "ms");
        report.layer("net.send_arrive_us_p50", t.send.quantile(0.5) * 1e-3, "us");
        report.layer(
            "net.release_wait_us_p50",
            t.release_wait.quantile(0.5) * 1e-3,
            "us",
        );
        report.layer(
            "net.release_wait_us_p99",
            t.release_wait.quantile(0.99) * 1e-3,
            "us",
        );
        report.layer(
            "net.resends_per_episode",
            t.retries as f64 / t.session_episodes as f64,
            "ratio",
        );
        report.layer(
            "net.journal_bytes_per_epoch",
            t.journal_bytes as f64 / t.epochs as f64,
            "B",
        );
        report.layer("net.ledger_mismatches", t.mismatches as f64, "count");
    }
    report
}
