//! `sweep`: the paper's own question. The Figures 3/4 optimal-degree
//! grid through `sweep_degrees`, each cell answered with the analytic
//! model's estimate too, then the Figure 8 static-vs-dynamic loop
//! through `run_iterations`. Many small episodes on the default heap
//! engine, so `topo` builds, `rng` draws, the heap queue and the `exec`
//! pool dominate.
//!
//! The traced run answers the same grid by decomposing `sweep_degrees`
//! into the public calls it makes — `build_tree`, `normal_arrivals` on
//! the same `split(seed, rep)` streams, `run_episode` — and checks the
//! result is bit-identical to `sweep_degrees`.

use std::collections::BTreeMap;
use std::time::Instant;

use combar::model::BarrierModel;
use combar::paper::ESTIMATION_GAP;
use combar::presets::TC_US;
use combar_des::{Duration, EngineConfig, QueueKind};
use combar_exec::{par_map_indexed, thread_count, with_thread_count};
use combar_rng::{split_seed, OnlineStats, SeedableRng, Xoshiro256pp};
use combar_sim::{
    build_tree, default_degree_sweep, full_tree_degrees, normal_arrivals, optimal_degree,
    run_episode, run_episode_cfg, run_iterations, sweep_degrees, DegreeResult, IterateConfig,
    PlacementMode, SweepConfig, Topology, TreeStyle, WorkModel,
};

use crate::cpu;
use crate::report::{Ctx, Report};
use crate::span::{SpanId, Tracer};
use crate::stats::{block_tail, median};

/// Input sizes.
#[derive(Debug, Clone)]
pub struct Size {
    /// Processor counts of the Figures 3/4 grid.
    pub procs: Vec<u32>,
    /// Arrival spreads σ/t_c of the grid.
    pub sigma_tc: Vec<f64>,
    /// Common-random-number replications per σ > 0 cell.
    pub reps: usize,
    /// Figure 8 processor count.
    pub fig8_p: u32,
    /// Figure 8 degrees.
    pub fig8_degrees: Vec<u32>,
    /// Figure 8 fuzzy slacks (µs).
    pub fig8_slacks_us: Vec<f64>,
    /// Figure 8 measured iterations per run.
    pub fig8_iterations: usize,
    /// Figure 8 warm-up iterations per run.
    pub fig8_warmup: usize,
    /// Set-ups timed for `setup_s` before each solve, after the first.
    /// Spread over the run, a few seconds of a busy host move one share
    /// of the samples, not all.
    pub setups_per_solve: usize,
    /// Heap-vs-wheel timing repetitions (traced runs).
    pub queue_reps: usize,
}

impl Size {
    /// The benchmark's size: the paper's grids.
    pub fn full() -> Self {
        Self {
            procs: vec![64, 256, 4096],
            sigma_tc: vec![0.0, 1.6, 6.2, 12.5, 25.0, 50.0, 100.0],
            reps: 30,
            fig8_p: 4096,
            fig8_degrees: vec![4, 16],
            fig8_slacks_us: vec![0.0, 1_000.0, 2_000.0, 4_000.0, 16_000.0],
            fig8_iterations: 12,
            fig8_warmup: 4,
            setups_per_solve: 3,
            queue_reps: 5,
        }
    }

    /// Seconds-scale size for the smoke test.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            procs: vec![64, 256],
            sigma_tc: vec![0.0, 1.6, 12.5, 50.0],
            reps: 8,
            fig8_p: 64,
            fig8_degrees: vec![4],
            fig8_slacks_us: vec![0.0, 2_000.0],
            fig8_iterations: 3,
            fig8_warmup: 1,
            setups_per_solve: 1,
            queue_reps: 1,
        }
    }
}

/// Figure 8 work model: the paper's ~9.5 ms SOR iterations with
/// σ = 0.25 ms.
const FIG8_WORK_US: f64 = 9_500.0;
const FIG8_SIGMA_US: f64 = 250.0;

fn tc() -> Duration {
    Duration::from_us(TC_US)
}

fn sweep_cfg(seed: u64, p: u32, sigma_tc: f64, reps: usize) -> SweepConfig {
    SweepConfig {
        tc: tc(),
        sigma_us: sigma_tc * TC_US,
        reps,
        seed: split_seed(seed, u64::from(p)),
        style: TreeStyle::Combining,
    }
}

/// One answered grid cell.
#[derive(Debug, Clone)]
struct Cell {
    p: u32,
    sigma_tc: f64,
    results: Vec<DegreeResult>,
}

/// Per-solve layer measurements (traced solves only).
#[derive(Default)]
struct Layers {
    arrivals_ns: u64,
    episode_ns: BTreeMap<u32, Vec<f64>>,
    counter_updates: u64,
    iterate_ns: u64,
    swaps: u64,
    busy_ns: u64,
    capacity_ns: u64,
}

/// One answer to the whole workload.
struct Solution {
    cells: Vec<Cell>,
    /// Figure 8 (degree, slack, mode) → mean sync delay (µs).
    fig8: Vec<f64>,
    question_s: Vec<f64>,
    episodes: u64,
    layers: Layers,
}

/// The topologies every solve reuses, built in set-up.
struct Trees {
    grid: BTreeMap<u32, Vec<Topology>>,
    fig8: Vec<Topology>,
}

fn build(size: &Size, tracer: &mut Tracer) -> Trees {
    let mut grid = BTreeMap::new();
    for &p in &size.procs {
        let span = tracer.begin("topo.build_tree", None, u64::from(p));
        let trees = default_degree_sweep(p)
            .into_iter()
            .map(|d| build_tree(TreeStyle::Combining, p, d))
            .collect();
        tracer.end(span);
        grid.insert(p, trees);
    }
    let span = tracer.begin("topo.mcs", None, u64::from(size.fig8_p));
    let fig8 = size
        .fig8_degrees
        .iter()
        .map(|&d| Topology::mcs(size.fig8_p, d))
        .collect();
    tracer.end(span);
    Trees { grid, fig8 }
}

/// [`build`], appending its time to `setup_s`.
fn timed_build(size: &Size, tracer: &mut Tracer, setup_s: &mut Vec<f64>) -> Trees {
    let t0 = Instant::now();
    let trees = build(size, tracer);
    setup_s.push(t0.elapsed().as_secs_f64());
    trees
}

/// `sweep_degrees` re-stated through the public calls it makes, timing
/// each; bit-identical by construction (same streams, same fold order).
fn decomposed(
    p: u32,
    topos: &[Topology],
    cfg: &SweepConfig,
    tracer: &mut Tracer,
    parent: SpanId,
    layers: &mut Layers,
) -> Vec<DegreeResult> {
    let reps = if cfg.sigma_us == 0.0 { 1 } else { cfg.reps };
    let base = tracer.base();
    let wall = Instant::now();
    let per_rep = par_map_indexed(reps, |rep| {
        let t0 = Instant::now();
        let mut local = Tracer::new(true, base);
        let span = local.begin("rng.normal_arrivals", None, rep as u64);
        let mut rng = Xoshiro256pp::split(cfg.seed, rep as u64);
        let arrivals = normal_arrivals(p as usize, cfg.sigma_us, &mut rng);
        local.end(span);
        let arrivals_ns = local.spans()[0].end_ns - local.spans()[0].start_ns;
        let mut episode_ns = Vec::with_capacity(topos.len());
        let mut updates = 0u64;
        let delays: Vec<(f64, f64, f64)> = topos
            .iter()
            .map(|topo| {
                let span = local.begin("sim.run_episode", None, rep as u64);
                let e0 = Instant::now();
                let r = run_episode(topo, topo.homes(), &arrivals, cfg.tc);
                episode_ns.push(e0.elapsed().as_nanos() as f64);
                local.end(span);
                updates += r.total_updates;
                (r.sync_delay_us, r.update_delay_us, r.contention_delay_us)
            })
            .collect();
        let busy = t0.elapsed().as_nanos() as u64;
        (delays, local, arrivals_ns, episode_ns, updates, busy)
    });
    let wall_ns = wall.elapsed().as_nanos() as u64;
    layers.capacity_ns += wall_ns * thread_count().min(reps) as u64;
    let mut out: Vec<DegreeResult> = default_degree_sweep(p)
        .into_iter()
        .zip(topos)
        .map(|(degree, t)| DegreeResult {
            degree,
            depth: t.depth(),
            sync_delay: OnlineStats::new(),
            update_delay: OnlineStats::new(),
            contention_delay: OnlineStats::new(),
        })
        .collect();
    for (delays, local, arrivals_ns, episode_ns, updates, busy) in per_rep {
        tracer.absorb(local, parent);
        layers.arrivals_ns += arrivals_ns;
        layers.episode_ns.entry(p).or_default().extend(episode_ns);
        layers.counter_updates += updates;
        layers.busy_ns += busy;
        for (res, (sync, update, contention)) in out.iter_mut().zip(delays) {
            res.sync_delay.push(sync);
            res.update_delay.push(update);
            res.contention_delay.push(contention);
        }
    }
    out
}

fn solve(seed: u64, size: &Size, trees: &Trees, tracer: &mut Tracer, solve_id: u64) -> Solution {
    let mut layers = Layers::default();
    let mut question_s = Vec::new();
    let mut cells = Vec::new();
    let mut episodes = 0u64;
    let root = tracer.begin("sweep.solve", None, solve_id);
    for &p in &size.procs {
        let degrees = default_degree_sweep(p);
        for &sigma_tc in &size.sigma_tc {
            let cfg = sweep_cfg(seed, p, sigma_tc, size.reps);
            let c0 = cpu::process_s();
            let span = tracer.begin("sim.sweep_degrees", root, u64::from(p));
            let results = if tracer.on() {
                decomposed(p, &trees.grid[&p], &cfg, tracer, span, &mut layers)
            } else {
                sweep_degrees(p, &degrees, &cfg)
            };
            tracer.end(span);
            question_s.push(cpu::process_s() - c0);
            let reps = if sigma_tc == 0.0 { 1 } else { size.reps };
            episodes += (reps * degrees.len()) as u64;
            cells.push(Cell {
                p,
                sigma_tc,
                results,
            });
        }
    }

    // Figure 8: every (degree, slack, mode) run is independent; spread
    // them over the exec pool as the experiment does.
    let runs: Vec<(usize, f64, PlacementMode)> = (0..size.fig8_degrees.len())
        .flat_map(|di| {
            size.fig8_slacks_us.iter().flat_map(move |&s| {
                [PlacementMode::Static, PlacementMode::Dynamic].map(|m| (di, s, m))
            })
        })
        .collect();
    let iter_span = tracer.begin("sim.fig8", root, solve_id);
    let traced = tracer.on();
    let base = tracer.base();
    let t0 = Instant::now();
    let outs = par_map_indexed(runs.len(), |i| {
        let (di, slack, mode) = runs[i];
        let cfg = IterateConfig {
            tc: tc(),
            slack: Duration::from_us(slack),
            iterations: size.fig8_iterations,
            warmup: size.fig8_warmup,
            mode,
            ..IterateConfig::default()
        };
        // Static and dynamic runs of one cell share the work stream.
        let cell = i as u64 / 2;
        let mut work = WorkModel::iid_normal(
            size.fig8_p,
            split_seed(seed ^ 0xf18, cell),
            FIG8_WORK_US,
            FIG8_SIGMA_US,
        );
        let mut local = Tracer::new(traced, base);
        let (q0, c0) = (Instant::now(), cpu::thread_s());
        let span = local.begin("sim.run_iterations", None, i as u64);
        let rep = run_iterations(&trees.fig8[di], &cfg, &mut work);
        local.end(span);
        let cpu_s = cpu::thread_s() - c0;
        (rep.sync_delay.mean(), rep.swaps, q0.elapsed(), cpu_s, local)
    });
    let fig8_wall = t0.elapsed();
    let mut fig8 = Vec::new();
    for (mean, swaps, took, cpu_s, local) in outs {
        tracer.absorb(local, iter_span);
        fig8.push(mean);
        layers.swaps += swaps;
        layers.busy_ns += took.as_nanos() as u64;
        question_s.push(cpu_s);
    }
    layers.capacity_ns += fig8_wall.as_nanos() as u64 * thread_count().min(runs.len()) as u64;
    layers.iterate_ns = fig8_wall.as_nanos() as u64;
    tracer.end(iter_span);
    tracer.end(root);
    episodes += (runs.len() * (size.fig8_iterations + size.fig8_warmup)) as u64;
    Solution {
        cells,
        fig8,
        question_s,
        episodes,
        layers,
    }
}

/// Bitwise equality of two answers to the same cell.
fn same(a: &[DegreeResult], b: &[DegreeResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.degree == y.degree
                && x.sync_delay.mean().to_bits() == y.sync_delay.mean().to_bits()
                && x.update_delay.mean().to_bits() == y.update_delay.mean().to_bits()
                && x.contention_delay.mean().to_bits() == y.contention_delay.mean().to_bits()
        })
}

/// The workload's output oracles on one solution. Returns failure
/// messages.
fn check(sol: &Solution) -> Vec<String> {
    let mut bad = Vec::new();
    let mut gaps = Vec::new();
    for c in &sol.cells {
        if c.sigma_tc == 0.0 {
            // Eq. 1: simultaneous arrivals cost L·d·t_c on a full tree.
            let full = full_tree_degrees(c.p);
            for r in c.results.iter().filter(|r| full.contains(&r.degree)) {
                let eq1 = f64::from(r.depth * r.degree) * TC_US;
                if (r.sync_delay.mean() - eq1).abs() > 1e-9 * eq1 {
                    bad.push(format!(
                        "p={} d={}: σ=0 delay {} ≠ L·d·t_c = {eq1}",
                        c.p,
                        r.degree,
                        r.sync_delay.mean()
                    ));
                }
            }
            let best = optimal_degree(&c.results).degree;
            if best != 4 {
                bad.push(format!("p={}: σ=0 optimum {best}, Eq. 1 says 4", c.p));
            }
        }
        let best = optimal_degree(&c.results).sync_delay.mean();
        let est = BarrierModel::new(c.p, c.sigma_tc * TC_US, TC_US)
            .expect("grid parameters are valid")
            .estimate_optimal_degree()
            .degree;
        match c.results.iter().find(|r| r.degree == est) {
            Some(r) => gaps.push(r.sync_delay.mean() / best - 1.0),
            None => bad.push(format!("p={}: estimated degree {est} not simulated", c.p)),
        }
    }
    let mean_gap = gaps.iter().sum::<f64>() / gaps.len().max(1) as f64;
    if mean_gap >= 3.0 * ESTIMATION_GAP {
        bad.push(format!(
            "mean cost of trusting the model {:.1}% ≥ 3 × the paper's {:.0}%",
            mean_gap * 100.0,
            ESTIMATION_GAP * 100.0
        ));
    }
    if sol.fig8.iter().any(|m| !m.is_finite() || *m <= 0.0) {
        bad.push("Figure 8 run with a non-positive mean sync delay".into());
    }
    bad
}

/// Median time of one `run_episode_cfg` call on each queue, same
/// inputs; returns heap ÷ wheel, and fails if the results differ.
pub fn heap_vs_wheel(topo: &Topology, arrivals: &[f64], reps: usize) -> (f64, bool) {
    let time = |kind: QueueKind| {
        let cfg = EngineConfig::new().queue(kind);
        let mut took = Vec::new();
        let mut last = None;
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            let r = run_episode_cfg(topo, topo.homes(), arrivals, tc(), &cfg);
            took.push(t0.elapsed().as_secs_f64());
            last = Some((
                r.release_us.to_bits(),
                r.sync_delay_us.to_bits(),
                r.total_updates,
            ));
        }
        (median(&mut took), last)
    };
    let (heap, a) = time(QueueKind::Heap);
    let (wheel, b) = time(QueueKind::Wheel);
    (heap / wheel, a == b)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, size: &Size) -> Report {
    let base = Instant::now();
    let mut report = Report::new(Tracer::new(ctx.trace, base));
    report.info("procs", format!("{:?}", size.procs));
    report.info("sigma_tc", format!("{:?}", size.sigma_tc));
    report.info("reps", size.reps);
    report.info(
        "fig8",
        format!(
            "p={} degrees={:?} slacks_us={:?} iterations={}+{}",
            size.fig8_p,
            size.fig8_degrees,
            size.fig8_slacks_us,
            size.fig8_warmup,
            size.fig8_iterations
        ),
    );
    report.info("pool_threads", ctx.threads);

    with_thread_count(ctx.threads, || {
        let mut setup_s = Vec::new();
        let trees = timed_build(size, &mut report.tracer, &mut setup_s);

        // Warm-up solve, untimed, on one pool thread: it is the
        // reference every timed solve at the full pool must equal.
        let first = with_thread_count(1, || solve(ctx.seed, size, &trees, &mut Tracer::off(), 0));
        let mut solve_s = Vec::new();
        let mut questions = Vec::new();
        let mut episodes = 0u64;
        let mut busy = (0u64, 0u64);
        let mut arrivals_ms = Vec::new();
        let mut iterate_ms = Vec::new();
        let mut episode_us: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        let mut counts = (0u64, 0u64);
        let started = Instant::now();
        let mut id = 1;
        while solve_s.is_empty() || started.elapsed().as_secs_f64() < ctx.seconds {
            for _ in 0..size.setups_per_solve {
                timed_build(size, &mut report.tracer, &mut setup_s);
            }
            let c0 = cpu::process_s();
            let mut sol = solve(ctx.seed, size, &trees, &mut report.tracer, id);
            solve_s.push(cpu::process_s() - c0);
            episodes += sol.episodes;
            report.attempted += sol.question_s.len() as u64;
            questions.push(block_tail(&mut sol.question_s));
            for (i, (a, b)) in sol.cells.iter().zip(&first.cells).enumerate() {
                if !same(&a.results, &b.results) {
                    report.fail(
                        1,
                        format!("solve {id}: cell {i} differs from the 1-thread solve"),
                    );
                }
            }
            if sol.fig8 != first.fig8 {
                report.fail(
                    1,
                    format!("solve {id}: Figure 8 differs from the 1-thread solve"),
                );
            }
            if ctx.trace {
                let l = &sol.layers;
                arrivals_ms.push(l.arrivals_ns as f64 * 1e-6);
                iterate_ms.push(l.iterate_ns as f64 * 1e-6);
                busy.0 += l.busy_ns;
                busy.1 += l.capacity_ns;
                counts = (l.counter_updates, l.swaps);
                for (p, v) in &l.episode_ns {
                    episode_us
                        .entry(*p)
                        .or_default()
                        .extend(v.iter().map(|ns| ns * 1e-3));
                }
            }
            id += 1;
        }
        report.info("solves", solve_s.len());
        report.info("episodes", episodes);

        // Oracles, untimed.
        for msg in check(&first) {
            report.fail(1, msg);
        }
        report.attempted += first.cells.len() as u64;
        report.e2e("setup_s", median(&mut setup_s.clone()), "s");
        let solve = median(&mut solve_s);
        report.e2e("episodes_per_s", first.episodes as f64 / solve, "1/s");
        report.latencies(&questions, 1e6);
        report.e2e("solve_s", solve, "s");

        if ctx.trace {
            // The decomposition must equal `sweep_degrees` bit for bit.
            for c in &first.cells {
                let cfg = sweep_cfg(ctx.seed, c.p, c.sigma_tc, size.reps);
                let mut layers = Layers::default();
                let mine = decomposed(
                    c.p,
                    &trees.grid[&c.p],
                    &cfg,
                    &mut Tracer::off(),
                    None,
                    &mut layers,
                );
                report.attempted += 1;
                if !same(&mine, &c.results) {
                    report.fail(
                        1,
                        format!("p={} σ={}: decomposition ≠ sweep_degrees", c.p, c.sigma_tc),
                    );
                }
            }
            let build_ms: Vec<f64> = report
                .tracer
                .spans()
                .iter()
                .filter(|s| s.name.starts_with("topo."))
                .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-6)
                .collect();
            report.layer(
                "topo.build_ms",
                build_ms.iter().sum::<f64>() / setup_s.len() as f64,
                "ms",
            );
            report.layer("rng.arrivals_ms", median(&mut arrivals_ms), "ms");
            for (p, mut v) in episode_us {
                report.layer(&format!("sim.p{p}.episode_us_p50"), median(&mut v), "us");
            }
            report.layer("sim.iterate_ms", median(&mut iterate_ms), "ms");
            report.layer("sim.counter_updates", counts.0 as f64, "count");
            report.layer("topo.swaps", counts.1 as f64, "count");
            report.layer("exec.busy_ratio", busy.0 as f64 / busy.1 as f64, "ratio");
            let p = *size.procs.last().expect("non-empty procs");
            let topo = build_tree(TreeStyle::Combining, p, 4);
            let mut rng = Xoshiro256pp::seed_from_u64(ctx.seed);
            let arrivals = normal_arrivals(p as usize, 50.0 * TC_US, &mut rng);
            let (ratio, agree) = heap_vs_wheel(&topo, &arrivals, size.queue_reps);
            report.attempted += 1;
            if !agree {
                report.fail(1, format!("p={p}: heap and wheel episodes differ"));
            }
            report.layer(&format!("des.heap_vs_wheel_p{p}"), ratio, "ratio");
        }
    });
    report
}
