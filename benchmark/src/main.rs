//! The repo's benchmark: one harness, four workloads, one schema.
//!
//! `ld-benchmark [--workload NAME | NAME…] [--seed N] [--seconds N |
//! --quick] [--trace [0|1]] [--out DIR] [--inject flip-block|drop-commit]`
//!
//! One workload runs in this process; several (or none: all four) are
//! run one after the other, each in a child process of its own, so
//! `peak_rss_mb` and the host-noise samples belong to one workload.
//! The last line of standard output of a single-workload run is the
//! result object; see `benchmark/README.md`.

mod journal_disk;
mod measure;
mod model;
mod model_disk;
mod report;
mod timed_disk;
mod trace;
mod traced;
mod workloads;

use std::process::ExitCode;
use workloads::{Inject, Opts, Pass, PassOut, NOMINAL_SECONDS};

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: String,
    inject: Inject,
}

fn usage() -> String {
    format!(
        "usage: ld-benchmark [--workload NAME | NAME...] [--seed N] [--seconds N | --quick] \
         [--trace [0|1]] [--out DIR] [--inject flip-block|drop-commit]\nworkloads: {}",
        workloads::NAMES.join(" ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: NOMINAL_SECONDS,
        trace: false,
        out_dir: "benchmark/out".into(),
        inject: Inject::None,
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => a.workloads.push(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds needs a number in (0, 600]")?
            }
            "--quick" => a.seconds = NOMINAL_SECONDS / 20.0,
            "--trace" => {
                // Bare `--trace` means on; `--trace 0|1` is the driver's form.
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--out" => a.out_dir = value("--out")?,
            "--inject" => {
                a.inject = match value("--inject")?.as_str() {
                    "flip-block" => Inject::FlipBlock,
                    "drop-commit" => Inject::DropCommit,
                    other => return Err(format!("unknown fault {other}")),
                }
            }
            "-h" | "--help" => return Err(usage()),
            name if !name.starts_with('-') => a.workloads.push(name.to_string()),
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = workloads::NAMES.iter().map(|s| s.to_string()).collect();
    }
    if let Some(bad) = a
        .workloads
        .iter()
        .find(|w| !workloads::NAMES.contains(&w.as_str()))
    {
        return Err(format!("unknown workload {bad}\n{}", usage()));
    }
    Ok(a)
}

/// Runs each workload in a child process; fails if any of them fails.
fn run_each(a: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut flags = vec![
        "--seed".to_string(),
        a.seed.to_string(),
        "--seconds".to_string(),
        a.seconds.to_string(),
        "--trace".to_string(),
        (a.trace as u8).to_string(),
        "--out".to_string(),
        a.out_dir.clone(),
    ];
    match a.inject {
        Inject::None => {}
        Inject::FlipBlock => flags.extend(["--inject".into(), "flip-block".into()]),
        Inject::DropCommit => flags.extend(["--inject".into(), "drop-commit".into()]),
    }
    let mut ok = true;
    for w in &a.workloads {
        let status = std::process::Command::new(&exe)
            .args(&flags)
            .args(["--workload", w])
            .status()
            .expect("spawn workload process");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_config(name: &str, a: &Args, full: &PassOut) {
    let sizes: Vec<String> = full.sizes.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "workload: {name}\nconfig: seed={} seconds={} threads={} host_cores={} pipelined={} cleaner_background={} map_shards={} recovery_threads_used={}\nsizes: {}",
        a.seed,
        a.seconds,
        full.threads,
        measure::host_cores(),
        full.effective.pipelined,
        full.effective.cleaner_background,
        full.effective.map_shards,
        full.restarts.first().map_or(0, |r| r.report.threads_used),
        sizes.join(" ")
    );
}

fn run_one(name: &str, a: &Args) -> ExitCode {
    let opts = Opts {
        seed: a.seed,
        scale: a.seconds / NOMINAL_SECONDS,
        inject: a.inject,
    };
    let run = |pass| workloads::run(name, &opts, pass).expect("known workload");

    let mut full = run(Pass::Full);
    print_config(name, a, &full);
    let e2e = report::end_to_end(&full);
    println!("end-to-end:\n{}", report::table(&e2e));
    let reads = measure::rate_per_s(&full.read_batches, full.read_batch_ops).0;
    println!(
        "per-layer, shown with every result:\n{}",
        report::table(&vec![
            ("reads_per_s", reads),
            ("commit.p50_us", measure::median_ns(&full.txn_ns) / 1e3),
        ])
    );
    println!(
        "  {:<36} {:>16} count\n  {:<36} {:>16} count",
        "failed_ops", full.failed, "attempted_ops", full.attempted
    );
    println!("{}", report::sample_counts(&full));
    println!(
        "write {}; read {}",
        report::batch_spread(&full.write_batches),
        report::batch_spread(&full.read_batches)
    );
    let noise = measure::noise_ratio(&full.noise);
    println!(
        "host.noise_ratio: {noise:.3}{}",
        if noise > report::NOISY_ABOVE {
            "  ** noisy: above 1.15, read the timings with care **"
        } else {
            ""
        }
    );

    let values = if a.trace {
        let sample_every = (full.commits + full.reads) / 5_000 + 1;
        trace::enable(sample_every);
        let traced = run(Pass::Traced);
        let data = trace::finish();
        let obs_off = run(Pass::ObsOff);
        let layers = report::per_layer(&full, &traced, &obs_off, &data);
        // The extra passes check their reads too.
        full.attempted += traced.attempted + obs_off.attempted;
        full.failed += traced.failed + obs_off.failed;
        println!("per-layer:\n{}", report::table(&layers));
        println!("layer self time in the traced pass (calls, total ms, self ms):");
        for (layer, calls, total, own) in report::layer_self_times(&data) {
            println!("  {layer:<12} {calls:>12} {total:>14.2} {own:>14.2}");
        }
        write_trace(name, a, &full, &layers, &data);
        layers
    } else {
        e2e
    };
    println!("{}", report::result_json(&full, &values));
    if full.failed == 0 && full.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_trace(
    name: &str,
    a: &Args,
    full: &PassOut,
    layers: &report::Values,
    data: &trace::TraceData,
) {
    let extra = format!(
        "\"workload\":\"{name}\",\"seed\":{},\"seconds\":{},\"spanSampleNote\":\"aggregates cover every span; records are kept for a sample of transactions\",\"perLayer\":{},\"endToEnd\":{}",
        a.seed,
        a.seconds,
        report::metrics_json(layers),
        report::metrics_json(&report::end_to_end(full)),
    );
    let path = std::path::Path::new(&a.out_dir).join(format!("{name}.trace.json"));
    let written = std::fs::create_dir_all(&a.out_dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(&data.spans, &extra)));
    match written {
        Ok(()) => println!("trace: {} spans in {}", data.spans.len(), path.display()),
        Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    // The disk reads its runtime knobs from LD_ARU_* variables; a
    // stray one would silently benchmark another configuration.
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("LD_ARU_"))
    {
        eprintln!(
            "refusing to run: {} is set; the benchmark measures the defaults",
            k.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.workloads.len() == 1 {
        run_one(&args.workloads[0], &args)
    } else {
        run_each(&args)
    }
}
