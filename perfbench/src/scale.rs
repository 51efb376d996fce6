//! `scale`: the paper's two questions at p = 2¹⁶ — which degree, and
//! what dynamic placement buys — under redundant heavy-tailed work
//! (`Redundant<WorkModel>`, Walker & Fidler's straggler regime), on the
//! timing-wheel engine through `run_episode_cfg`, as the `scale`
//! experiment runs them. Few huge episodes: a large pending-event set
//! and `work` draws at 2¹⁶. Together with `sweep` (p ≤ 4096, heap) it
//! puts a workload on each side of any heap-vs-wheel choice.
//!
//! p is 2¹⁶ rather than the experiment's 2¹⁸: at 2¹⁸ the ~210 MB
//! working set outgrows a shared last-level cache, and on a 2-core VM
//! solves of one run ranged 1.6–2.5 s as other guests' memory traffic
//! came and went. At 2¹⁶ (~55 MB) the solves of one run hold within
//! a few per cent, but from run to run they still follow the host, so
//! `BENCHMARK.json` leaves `scale` out (see `LAYERS.md`).

use std::time::Instant;

use combar::presets::TC_US;
use combar_des::{Duration, EngineConfig, QueueKind};
use combar_exec::{par_map_indexed, thread_count, with_thread_count};
use combar_rng::split_seed;
use combar_sim::{
    apply_dynamic_swaps, build_tree, run_episode_cfg, Placement, Redundant, Topology, TreeStyle,
    WorkModel, WorkSource,
};

use crate::cpu;
use crate::report::{Ctx, Report};
use crate::span::{SpanId, Tracer};
use crate::stats::{block_tail, median};
use crate::sweep::heap_vs_wheel;

/// Input sizes.
#[derive(Debug, Clone)]
pub struct Size {
    /// Processor count.
    pub p: u32,
    /// Redundancy degrees k, one cell each.
    pub redundancy: Vec<u32>,
    /// Candidate degrees of the optimal-degree question.
    pub degrees: Vec<u32>,
    /// Replications of the degree question per cell.
    pub reps: u32,
    /// Measured episodes of the placement loop per cell.
    pub placement_episodes: u32,
    /// Warm-up episodes of the placement loop per cell.
    pub warmup: u32,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Self {
        Self {
            p: 1 << 16,
            redundancy: vec![1, 2],
            degrees: vec![4, 16, 64, 256],
            reps: 1,
            placement_episodes: 2,
            warmup: 1,
        }
    }

    /// Seconds-scale size for the smoke test.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            p: 1 << 10,
            ..Self::full()
        }
    }
}

/// Work model of the `scale` experiment's full preset.
const MEAN_US: f64 = 10_000.0;
const PARETO_SCALE_US: f64 = 500.0;
const PARETO_SHAPE: f64 = 1.6;
const BIAS_SIGMA_US: f64 = 1_000.0;
const NOISE_SIGMA_US: f64 = 250.0;
const SLACK_US: f64 = 2_000.0;

fn wheel() -> EngineConfig {
    EngineConfig::new().queue(QueueKind::Wheel)
}

/// Redundant Pareto work of cell `k`: replica `r` is its own stream.
fn pareto(seed: u64, p: u32, k: u32) -> Redundant<WorkModel> {
    Redundant::new(
        (0..u64::from(k))
            .map(|r| {
                WorkModel::iid_pareto(
                    p,
                    split_seed(seed, 2 * u64::from(k) + r * 1000),
                    MEAN_US,
                    PARETO_SCALE_US,
                    PARETO_SHAPE,
                )
            })
            .collect(),
    )
}

/// Trees built once per set-up.
struct Trees {
    combining: Vec<Topology>,
    mcs4: Topology,
}

fn build(size: &Size, tracer: &mut Tracer) -> Trees {
    let span = tracer.begin("topo.build_tree", None, u64::from(size.p));
    let combining = size
        .degrees
        .iter()
        .map(|&d| build_tree(TreeStyle::Combining, size.p, d))
        .collect();
    let mcs4 = Topology::mcs(size.p, 4);
    tracer.end(span);
    Trees { combining, mcs4 }
}

/// [`build`], appending its time to `setup_s`.
fn timed_build(size: &Size, tracer: &mut Tracer, setup_s: &mut Vec<f64>) -> Trees {
    let t0 = Instant::now();
    let trees = build(size, tracer);
    setup_s.push(t0.elapsed().as_secs_f64());
    trees
}

/// What one (k) cell computes and how long its calls took.
struct CellOut {
    /// Bits of every sync delay and release computed, in order.
    answer: Vec<u64>,
    /// Whether the placement loop (rather than the degree question) runs.
    placement: bool,
    swaps: u64,
    updates: u64,
    /// Degree-question episodes: the latency samples.
    episode_s: Vec<f64>,
    /// Placement-loop episodes, timed for the layer metric only.
    placement_s: Vec<f64>,
    sample_s: Vec<f64>,
    swap_s: Vec<f64>,
    busy_ns: u64,
    tracer: Tracer,
}

fn run_cell(seed: u64, size: &Size, trees: &Trees, k: u32, tracer: Tracer) -> CellOut {
    let t0 = Instant::now();
    let mut out = CellOut {
        answer: Vec::new(),
        placement: false,
        swaps: 0,
        updates: 0,
        episode_s: Vec::new(),
        placement_s: Vec::new(),
        sample_s: Vec::new(),
        swap_s: Vec::new(),
        busy_ns: 0,
        tracer,
    };
    let tc = Duration::from_us(TC_US);
    let cfg = wheel();
    let p = size.p as usize;
    let mut works = vec![0.0f64; p];
    let timed_episode =
        |out: &mut CellOut, parent: SpanId, topo: &Topology, homes: &[u32], arr: &[f64]| {
            let span = out
                .tracer
                .begin("sim.run_episode_cfg", parent, u64::from(k));
            let c0 = cpu::thread_s();
            let r = run_episode_cfg(topo, homes, arr, tc, &cfg);
            let took = cpu::thread_s() - c0;
            out.tracer.end(span);
            if out.placement {
                out.placement_s.push(took);
            } else {
                out.episode_s.push(took);
            }
            out.updates += r.total_updates;
            out.answer.push(r.sync_delay_us.to_bits());
            out.answer.push(r.release_us.to_bits());
            r
        };

    // Which degree: common random numbers across the candidates.
    let cell = out.tracer.begin("scale.degrees", None, u64::from(k));
    let mut src = pareto(seed, size.p, k);
    for rep in 0..size.reps {
        let span = out
            .tracer
            .begin("work.sample_episode", cell, u64::from(rep));
        let s0 = Instant::now();
        src.sample_episode(rep, &mut works);
        out.sample_s.push(s0.elapsed().as_secs_f64());
        out.tracer.end(span);
        for topo in &trees.combining {
            timed_episode(&mut out, cell, topo, topo.homes(), &works);
        }
    }
    out.tracer.end(cell);
    out.placement = true;

    // What placement buys: the systemic regime (fixed per-processor
    // bias plus redundant normal noise), static vs dynamic, chained by
    // fuzzy-barrier timing.
    let cell = out.tracer.begin("scale.placement", None, u64::from(k));
    let pseed = split_seed(seed ^ 0xb1a5, u64::from(k));
    let bias_model = WorkModel::systemic(size.p, pseed, MEAN_US, BIAS_SIGMA_US, 0.0);
    let bias: Vec<f64> = (0..size.p).map(|i| bias_model.bias_us(0, i)).collect();
    let mut noise = Redundant::new(
        (0..u64::from(k))
            .map(|r| {
                WorkModel::iid_normal(size.p, split_seed(pseed, r + 1), MEAN_US, NOISE_SIGMA_US)
            })
            .collect(),
    );
    let topo = &trees.mcs4;
    let static_homes = topo.homes().to_vec();
    let mut place = Placement::initial(topo);
    let mut begin_s = vec![0.0f64; p];
    let mut begin_d = vec![0.0f64; p];
    let mut arr = vec![0.0f64; p];
    for ep in 0..size.warmup + size.placement_episodes {
        let span = out.tracer.begin("work.sample_episode", cell, u64::from(ep));
        let s0 = Instant::now();
        noise.sample_episode(ep, &mut works);
        out.sample_s.push(s0.elapsed().as_secs_f64());
        out.tracer.end(span);
        for i in 0..p {
            works[i] = (works[i] + bias[i]).max(0.0);
            arr[i] = begin_s[i] + works[i];
        }
        let rs = timed_episode(&mut out, cell, topo, &static_homes, &arr);
        for i in 0..p {
            begin_s[i] = (rs.signal_done_us[i] + SLACK_US).max(rs.release_us);
            arr[i] = begin_d[i] + works[i];
        }
        let rd = timed_episode(&mut out, cell, topo, place.homes(), &arr);
        let span = out
            .tracer
            .begin("sim.apply_dynamic_swaps", cell, u64::from(ep));
        let w0 = Instant::now();
        out.swaps += apply_dynamic_swaps(topo, &mut place, &rd.winners);
        out.swap_s.push(w0.elapsed().as_secs_f64());
        out.tracer.end(span);
        for (b, &done) in begin_d.iter_mut().zip(&rd.signal_done_us) {
            *b = (done + SLACK_US).max(rd.release_us);
        }
    }
    out.tracer.end(cell);
    out.busy_ns = t0.elapsed().as_nanos() as u64;
    out
}

/// One answer to every cell, in parallel over the exec pool.
fn solve(seed: u64, size: &Size, trees: &Trees, tracer: &Tracer) -> (Vec<CellOut>, u64) {
    let (on, base) = (tracer.on(), tracer.base());
    let t0 = Instant::now();
    let cells = par_map_indexed(size.redundancy.len(), |i| {
        run_cell(seed, size, trees, size.redundancy[i], Tracer::new(on, base))
    });
    let capacity = t0.elapsed().as_nanos() as u64 * thread_count().min(cells.len()) as u64;
    (cells, capacity)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, size: &Size) -> Report {
    let base = Instant::now();
    let mut report = Report::new(Tracer::new(ctx.trace, base));
    report.info("p", size.p);
    report.info("redundancy", format!("{:?}", size.redundancy));
    report.info("degrees", format!("{:?}", size.degrees));
    report.info("pool_threads", ctx.threads);
    let episodes_per_solve = size.redundancy.len() as u64
        * u64::from(
            size.reps * size.degrees.len() as u32 + 2 * (size.warmup + size.placement_episodes),
        );

    with_thread_count(ctx.threads, || {
        let mut setup_s = Vec::new();
        let trees = timed_build(size, &mut report.tracer, &mut setup_s);

        // Warm-up solve, untimed: the reference later solves must equal.
        let (first, _) = solve(ctx.seed, size, &trees, &Tracer::off());
        let mut solve_s = Vec::new();
        let (mut episode_s, mut sample_s, mut swap_s) = (Vec::new(), Vec::new(), Vec::new());
        let mut all_episodes = Vec::new();
        let (mut busy, mut capacity, mut swaps, mut updates) = (0u64, 0u64, 0u64, 0u64);
        let started = Instant::now();
        while solve_s.is_empty() || started.elapsed().as_secs_f64() < ctx.seconds {
            // One `setup_s` sample before each solve: spread over the
            // run, a few busy seconds on the host move a share of them.
            timed_build(size, &mut report.tracer, &mut setup_s);
            let root = report
                .tracer
                .begin("scale.solve", None, solve_s.len() as u64);
            let c0 = cpu::process_s();
            let (cells, cap) = solve(ctx.seed, size, &trees, &report.tracer);
            solve_s.push(cpu::process_s() - c0);
            report.tracer.end(root);
            capacity += cap;
            (swaps, updates) = (0, 0);
            let mut solve_episodes = Vec::new();
            for (i, c) in cells.into_iter().enumerate() {
                report.attempted += 1;
                if c.answer != first[i].answer || c.swaps != first[i].swaps {
                    report.fail(
                        1,
                        format!("k={}: solve differs from the first", size.redundancy[i]),
                    );
                }
                solve_episodes.extend(c.episode_s);
                all_episodes.extend(c.placement_s);
                sample_s.extend(c.sample_s);
                swap_s.extend(c.swap_s);
                busy += c.busy_ns;
                swaps += c.swaps;
                updates += c.updates;
                report.tracer.absorb(c.tracer, root);
            }
            all_episodes.extend(&solve_episodes);
            episode_s.push(block_tail(&mut solve_episodes));
        }
        report.info("solves", solve_s.len());

        // Oracle, untimed: the first degree cell re-run on the heap
        // engine is bit-equal to the wheel run.
        let mut works = vec![0.0f64; size.p as usize];
        pareto(ctx.seed, size.p, size.redundancy[0]).sample_episode(0, &mut works);
        let reps = if ctx.trace { 2 } else { 1 };
        let (ratio, agree) = heap_vs_wheel(&trees.combining[0], &works, reps);
        report.attempted += 1;
        if !agree {
            report.fail(
                1,
                "heap and wheel engines disagree on the same episode".into(),
            );
        }

        report.e2e("setup_s", median(&mut setup_s.clone()), "s");
        let solve = median(&mut solve_s);
        report.e2e("episodes_per_s", episodes_per_solve as f64 / solve, "1/s");
        report.latencies(&episode_s, 1e6);
        report.e2e("solve_s", solve, "s");

        if ctx.trace {
            let p = size.p;
            report.layer("work.sample_ms", median(&mut sample_s) * 1e3, "ms");
            report.layer(
                &format!("sim.p{p}.episode_ms_p50"),
                median(&mut all_episodes) * 1e3,
                "ms",
            );
            report.layer("sim.apply_swaps_ms", median(&mut swap_s) * 1e3, "ms");
            report.layer(
                &format!("topo.p{p}.build_ms"),
                median(&mut setup_s) * 1e3,
                "ms",
            );
            report.layer(&format!("des.heap_vs_wheel_p{p}"), ratio, "ratio");
            report.layer("exec.busy_ratio", busy as f64 / capacity as f64, "ratio");
            report.layer("sim.counter_updates", updates as f64, "count");
            report.layer("topo.swaps", swaps as f64, "count");
        }
    });
    report
}
