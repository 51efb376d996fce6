//! combar's benchmark: one command, five closed-loop workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <crossing|sweep|scale|server|async> --seed <n> \
//!     [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! The untraced run (`--trace 0`) prints every end-to-end metric; the
//! traced run (`--trace 1`) measures half its time untraced and half
//! traced, then makes a short traced pass of each other workload, and
//! prints every per-layer metric, the span self times and the tracing
//! overhead. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. The process
//! exits 1 when an oracle rejected an output, 2 on bad arguments.
//! `perfbench/LAYERS.md` maps each layer metric to the end-to-end
//! metric it should move.

mod asyncw;
mod cpu;
mod crossing;
mod report;
mod scale;
mod server;
mod span;
mod stats;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{json_line, Ctx, Report};

/// The workloads. `BENCHMARK.json` lists all but `scale`, whose solve
/// times follow other guests' memory traffic by ±25 % from run to run
/// (see `LAYERS.md`); `scale` still runs by hand, and in the layer
/// passes of every traced run.
const WORKLOADS: [&str; 5] = ["crossing", "sweep", "scale", "server", "async"];

/// Measured seconds of each other workload's pass in a traced run.
const LAYER_PASS_SECONDS: f64 = 0.5;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Runs one workload at its full size.
fn run_workload(name: &str, ctx: &Ctx) -> Report {
    match name {
        "crossing" => crossing::run(ctx, &crossing::Size::full()),
        "sweep" => sweep::run(ctx, &sweep::Size::full()),
        "scale" => scale::run(ctx, &scale::Size::full()),
        "server" => server::run(ctx, &server::Size::full()),
        "async" => asyncw::run(ctx, &asyncw::Size::full()),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`: time the
/// hypervisor ran something else while this guest wanted to run.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(-1.0, |kb| kb / 1024.0)
}

fn print_report(label: &str, r: &Report) {
    println!("[{label}]");
    for (k, v) in &r.info {
        println!("  {k} = {v}");
    }
    for m in r.e2e.iter().chain(&r.layers) {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "  failure_ratio = {} ({} failed of {} attempted)",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    for f in &r.failures {
        println!("  FAILED: {f}");
    }
}

/// Prints per-span-name self times and writes the spans out.
fn print_spans(workload: &str, seed: u64, r: &Report) {
    println!("[spans] name count total_ms self_ms");
    for (name, t) in span::totals(r.tracer.spans()) {
        println!(
            "  {name} {} {:.3} {:.3}",
            t.count,
            t.total_ns as f64 * 1e-6,
            t.self_ns as f64 * 1e-6
        );
    }
    println!(
        "  spans kept = {}, dropped = {}",
        r.tracer.spans().len(),
        r.tracer.dropped()
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-{seed}.tsv"));
    match r.tracer.write_tsv(&path) {
        Ok(()) => println!("  spans written to {}", path.display()),
        Err(e) => println!("  spans not written ({}): {e}", path.display()),
    }
}

/// The traced run of `workload`: half the time untraced, half traced,
/// then a short traced pass of each other workload. Returns
/// `(attempted, failed, metrics)` with every per-layer metric.
fn traced_run(
    workload: &str,
    ctx: &Ctx,
    run: &dyn Fn(&str, &Ctx) -> Report,
) -> (u64, u64, Vec<report::Metric>) {
    let half = Ctx {
        seconds: ctx.seconds / 2.0,
        ..*ctx
    };
    let plain = run(workload, &half);
    print_report("untraced half", &plain);
    let traced = run(
        workload,
        &Ctx {
            trace: true,
            ..half
        },
    );
    print_report("traced half", &traced);
    print_spans(workload, ctx.seed, &traced);
    let rate = |r: &Report| r.get("episodes_per_s").unwrap_or(f64::NAN);
    let mut metrics = traced.layers.clone();
    metrics.push(report::Metric {
        name: "trace.overhead_ratio".into(),
        value: rate(&plain) / rate(&traced),
        unit: "ratio",
    });
    let mut attempted = plain.attempted + traced.attempted;
    let mut failed = plain.failed + traced.failed;
    // A traced run reports the whole layer table. The layers this
    // workload does not reach come from a short traced pass of each
    // other workload, at full size and with its oracles on.
    for other in WORKLOADS.iter().filter(|w| **w != workload) {
        let pass = run(
            other,
            &Ctx {
                seconds: LAYER_PASS_SECONDS,
                trace: true,
                ..*ctx
            },
        );
        print_report(&format!("layer pass: {other}"), &pass);
        attempted += pass.attempted;
        failed += pass.failed;
        for m in pass.layers {
            if !metrics.iter().any(|k| k.name == m.name) {
                metrics.push(m);
            }
        }
    }
    (attempted, failed, metrics)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_cores={} rustc=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads,
        env!("PERFBENCH_RUSTC")
    );
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: false,
        threads,
    };
    let jiffies_at_start = cpu_jiffies();
    let (attempted, failed, metrics) = if args.trace {
        traced_run(&args.workload, &ctx, &run_workload)
    } else {
        let mut r = run_workload(&args.workload, &ctx);
        r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
        print_report("run", &r);
        (r.attempted, r.failed, r.e2e)
    };
    // Host contention explains most run-to-run drift; print it with the
    // results so a slow run can be told from a slow program.
    if let (Some((s0, t0)), Some((s1, t1))) = (jiffies_at_start, cpu_jiffies()) {
        println!(
            "host_steal_share = {}",
            (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        );
    }
    println!("{}", json_line(attempted, failed, &metrics));
    if failed == 0 && attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse(&argv("--workload sweep --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sweep", 7, 3.0, true)
        );
        assert!(
            parse(&argv("--workload sweep")).is_err(),
            "seed is required"
        );
        assert!(parse(&argv("--workload nope --seed 1")).is_err());
        assert!(parse(&argv("--workload sweep --seed 1 --trace 2")).is_err());
        assert!(parse(&argv("--workload sweep --seed 1 --seconds")).is_err());
    }

    /// The metric names of one section of `BENCHMARK.json`.
    fn manifest_names(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let start = text.find(&format!("\"{section}\"")).expect("section");
        let body = &text[start..];
        let end = body.find(']').expect("section end");
        body[..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .into()
            })
            .collect()
    }

    /// Runs one workload at its tiny size.
    fn run_tiny(name: &str, ctx: &Ctx) -> Report {
        match name {
            "crossing" => crossing::run(ctx, &crossing::Size::tiny()),
            "sweep" => sweep::run(ctx, &sweep::Size::tiny()),
            "scale" => scale::run(ctx, &scale::Size::tiny()),
            "server" => server::run(ctx, &server::Size::tiny()),
            "async" => asyncw::run(ctx, &asyncw::Size::tiny()),
            _ => unreachable!(),
        }
    }

    fn tiny_ctx() -> Ctx {
        Ctx {
            seed: 11,
            seconds: 0.2,
            trace: false,
            threads: 2,
        }
    }

    /// Every workload at a tiny size, untraced, with its oracles on,
    /// reports every end-to-end metric of the manifest.
    #[test]
    fn tiny_untraced_run_of_every_workload() {
        for name in WORKLOADS {
            let r = run_tiny(name, &tiny_ctx());
            assert!(r.attempted > 0, "{name}: nothing attempted");
            assert_eq!(r.failed, 0, "{name}: {:?}", r.failures);
            // `main` adds `peak_rss_mb`.
            for m in manifest_names("end_to_end")
                .iter()
                .filter(|m| *m != "peak_rss_mb")
            {
                let v = r.get(m).unwrap_or_else(|| panic!("{name}: no {m}"));
                assert!(v.is_finite() && v > 0.0, "{name}: {m} = {v}");
            }
            assert!(r.layers.is_empty(), "{name}: layer metrics untraced");
        }
    }

    /// The traced run of every workload, at tiny sizes, reports every
    /// per-layer metric of the manifest and nothing else.
    #[test]
    fn tiny_traced_run_of_every_workload_reports_every_layer() {
        // Tiny sizes name their own largest p in the metric names.
        let big = |procs: &[u32]| *procs.last().unwrap();
        let renames = [
            (
                big(&sweep::Size::full().procs),
                big(&sweep::Size::tiny().procs),
            ),
            (scale::Size::full().p, scale::Size::tiny().p),
        ];
        let mut want: Vec<String> = manifest_names("per_layer")
            .iter()
            .map(|n| {
                renames.iter().fold(n.clone(), |n, (full, tiny)| {
                    n.replace(&format!("p{full}"), &format!("p{tiny}"))
                })
            })
            .collect();
        want.sort();
        want.dedup();
        for name in WORKLOADS {
            let (attempted, failed, metrics) = traced_run(name, &tiny_ctx(), &run_tiny);
            assert!(attempted > 0 && failed == 0, "{name}: {failed} failed");
            let mut got: Vec<String> = metrics.into_iter().map(|m| m.name).collect();
            got.sort();
            got.dedup();
            assert_eq!(got, want, "{name}: traced run must cover the manifest");
        }
    }
}
