//! `perfbench`: one run of one workload.
//!
//! ```text
//! perfbench --workload <bulk_1k|session_grid|chaos_default> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --all --seed <n> --seconds <s>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced set and reports the per-layer metrics,
//! writing its spans to `perfbench/out/`. `--all` runs every workload
//! in both modes, each in its own process. Human-readable lines come
//! first; the last line of standard output is the JSON result. The exit
//! code is non-zero when any correctness check failed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

use netdsl_netsim::StreamOptions;
use perfbench::audit::{self, Tally};
use perfbench::layers::{self, Metric};
use perfbench::run::{self, tail_quantile, EndToEnd};
use perfbench::spans::Span;
use perfbench::stats::median;
use perfbench::workload::{Shape, Workload, ALL, GRID_WORKERS};

/// Child processes timed for `setup_s`: each builds the workload from
/// the seed, lowers codecs and FSMs lazily and warms up from a cold
/// start.
const SETUP_PROBES: usize = 9;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    all: bool,
    setup_probe: bool,
}

const USAGE: &str = "usage: perfbench --workload <bulk_1k|session_grid|chaos_default> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     perfbench --all --seed <n> --seconds <s>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        all: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--all" => args.all = true,
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_none() && !args.all {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.all {
        return run_all(&args);
    }
    let workload = args.workload.expect("checked by parse_args");
    if args.setup_probe {
        let t = Instant::now();
        let mut tally = Tally::default();
        run::setup(workload, args.seed, &Shape::FULL, &mut tally);
        let secs = t.elapsed().as_secs_f64();
        if tally.failed() > 0 {
            eprintln!("perfbench: setup failed: {:?}", tally.failures);
            return ExitCode::FAILURE;
        }
        println!("{secs}");
        return ExitCode::SUCCESS;
    }

    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("provenance {}", provenance());
    let self_test = audit::self_test();
    println!(
        "self_test corrupted_result_counts_as_failed={}",
        if self_test { "pass" } else { "FAIL" }
    );

    let (metrics, tally, broken) = if args.trace {
        traced(workload, &args)
    } else {
        match untraced(workload, &args) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let attempted = tally.attempted;
    let failed = tally.failed() + broken.len() as u64;
    println!(
        "audit attempted={attempted} failed={failed} failed_share={} driver_errors={} \
         violations={} oracle_mismatches={} abandoned={}",
        failed as f64 / attempted.max(1) as f64,
        tally.driver_errors,
        tally.violations,
        tally.oracle_mismatches,
        tally.abandoned
    );
    for f in tally.failures.iter().chain(&broken) {
        println!("FAILED {f}");
    }
    let correct = self_test && failed == 0 && attempted > 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            finite(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// JSON has no NaN or infinity; a metric that cannot be computed reads 0.
fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

type Outcome = (Vec<Metric>, Tally, Vec<String>);

fn untraced(workload: Workload, args: &Args) -> Result<Outcome, String> {
    let setup_s = setup_seconds(workload, args.seed)?;
    let shape = Shape::FULL;
    let mut tally = Tally::default();
    let prepared = run::setup(workload, args.seed, &shape, &mut tally);
    let e2e = run::measure(
        workload,
        args.seed,
        &shape,
        &prepared,
        args.seconds,
        &mut tally,
    );
    if e2e.peak_rss_mb == 0.0 {
        return Err("cannot read VmHWM from /proc/self/status".to_string());
    }
    report_e2e(workload, &e2e, setup_s);
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "goodput_MBps",
            value: e2e.goodput_mbps,
            unit: "MB/s",
        },
        Metric {
            name: "sessions_per_s",
            value: e2e.sessions_per_s,
            unit: "1/s",
        },
        Metric {
            name: "call_p50_us",
            value: e2e.call_p50_us,
            unit: "us",
        },
        Metric {
            name: "call_tail_us",
            value: e2e.call_tail_us,
            unit: "us",
        },
        Metric {
            name: "peak_rss_MB",
            value: e2e.peak_rss_mb,
            unit: "MB",
        },
    ];
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    Ok((metrics, tally, e2e.broken))
}

fn report_e2e(workload: Workload, e2e: &EndToEnd, setup_s: f64) {
    let call = match workload {
        Workload::SessionGrid => format!(
            "MultiSessionDriver::run_batch of one {}-scenario chunk",
            StreamOptions::default().chunk
        ),
        _ => "SuiteDriver::run of one scenario".to_string(),
    };
    println!(
        "timed sessions={} blocks={} seconds={:.3} calls={} ({call}) tail=p{} \
         samples_beyond_tail={} oracle_samples={} setup_probes={SETUP_PROBES} setup_s={setup_s}",
        e2e.sessions,
        e2e.blocks,
        e2e.seconds,
        e2e.calls,
        tail_quantile(workload) * 100.0,
        ((1.0 - tail_quantile(workload)) * e2e.calls as f64).floor(),
        e2e.oracle_samples,
    );
}

/// Median of [`SETUP_PROBES`] cold set-ups, each in a child process.
fn setup_seconds(workload: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut probes = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let out = Command::new(&exe)
            .args(["--workload", workload.name(), "--seed", &seed.to_string()])
            .arg("--setup-probe")
            .output()
            .map_err(|e| format!("setup probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let secs: f64 = text
            .trim()
            .parse()
            .ok()
            .filter(|_| out.status.success())
            .ok_or_else(|| {
                format!(
                    "setup probe failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                )
            })?;
        probes.push(secs);
    }
    Ok(median(&probes))
}

fn traced(workload: Workload, args: &Args) -> Outcome {
    let shape = Shape {
        trace_seconds: args.seconds,
        ..Shape::FULL
    };
    let t = Instant::now();
    let run = layers::traced(workload, args.seed, &shape, GRID_WORKERS);
    println!(
        "traced sessions={} spans={} seconds={:.3}",
        run.sessions,
        run.spans.len(),
        t.elapsed().as_secs_f64()
    );
    let path = format!(
        "perfbench/out/trace-{}-seed{}.tsv",
        workload.name(),
        args.seed
    );
    match write_spans(Path::new(&path), &run.spans) {
        Ok(()) => println!("spans written to {path}"),
        Err(e) => println!("spans not written ({path}: {e})"),
    }
    for m in &run.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    (run.metrics, run.tally, run.broken)
}

fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "scenario\tid\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.scenario, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// nproc, compiler, commit (or a digest of the sources when the tree is
/// not a git checkout), as one JSON object.
fn provenance() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Only a checkout rooted here names its commit; git would otherwise
    // report whatever repository encloses the directory.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": \"{}\", \"commit\": \"{commit}\", \
         \"source_digest\": \"{:016x}\"}}",
        env!("PERFBENCH_RUSTC"),
        source_digest()
    )
}

/// FNV-1a over the paths and contents of the sources the benchmark
/// builds (`Cargo.toml`, `Cargo.lock`, `crates/`, `perfbench/src/`).
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut BTreeMap<String, Vec<u8>>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if let Ok(bytes) = std::fs::read(&path) {
                files.insert(path.display().to_string(), bytes);
            }
        }
    }
    let mut files = BTreeMap::new();
    for root in ["Cargo.toml", "Cargo.lock", "crates", "perfbench/src"] {
        let path = Path::new(root);
        if path.is_dir() {
            walk(path, &mut files);
        } else if let Ok(bytes) = std::fs::read(path) {
            files.insert(root.to_string(), bytes);
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, bytes) in &files {
        for &b in name.as_bytes().iter().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Runs every workload untraced and traced, each in its own process,
/// relaying their output; fails if any run does.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate own executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for workload in ALL {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", trace])
                .output();
            match out {
                Ok(out) => {
                    print!("{}", String::from_utf8_lossy(&out.stdout));
                    eprint!("{}", String::from_utf8_lossy(&out.stderr));
                    ok &= out.status.success();
                }
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", workload.name());
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
