//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest-fed|ingest-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets up one workload from the seed, measures it for
//! `--seconds`, checks that the outputs are correct, prints every
//! metric by name with its unit, and ends with one JSON result line.
//! `--trace 0` measures the end-to-end metrics; `--trace 1` also
//! records spans around every call into a layer, runs the batch phases
//! (the resident population and the Section 5 sweep), prints the
//! per-layer metrics and the tracing overhead, and writes the spans out
//! as JSON lines. Every layer is timed from here, through the public API; the
//! program under test is unchanged. A failed check exits 1, bad
//! arguments exit 2. `METRICS.md` documents the workloads and metrics.

mod hist;
mod ingest;
mod inputs;
mod report;
mod resident;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use rts_obs::LogHistogram;

use crate::report::{Report, PER_LAYER};
use crate::trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <ingest-fed|ingest-churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The workloads, in the order `METRICS.md` describes them.
pub const WORKLOADS: [&str; 2] = ["ingest-fed", "ingest-churn"];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload gets: its settings, the report it fills, and the
/// tracer it records spans into.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Length of the measurement window.
    pub seconds: u64,
    /// Metrics and checks.
    pub report: Report,
    /// Span recorder (off in untraced runs).
    pub tracer: Tracer,
}

/// Reports a windowed stage histogram under `prefix`: count, p50, p99
/// and max, whichever of them the benchmark declares.
pub fn report_stage(ctx: &mut Ctx, prefix: &str, h: &LogHistogram) {
    let declared = |suffix: &str| {
        let name = format!("{prefix}.{suffix}");
        PER_LAYER.iter().map(|(n, _)| *n).find(|n| *n == name)
    };
    if let Some(name) = declared("count") {
        ctx.report.set(name, h.count() as f64, "window samples");
    }
    for (suffix, q) in [("p50", 0.5), ("p99", 0.99)] {
        if let Some(name) = declared(suffix) {
            let v = hist::hist_quantile(h, q);
            ctx.report.set(name, v.or_zero(), v.note(q));
        }
    }
    if let Some(name) = declared("max") {
        ctx.report
            .set(name, h.max() as f64, format!("n={}", h.count()));
    }
}

/// Where the traced run writes its spans: under the build directory,
/// inside the checkout.
fn span_path(args: &Args) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    target
        .join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        report: Report::default(),
        tracer: Tracer::new(args.trace),
    };
    let started = Instant::now();
    let mix = match args.workload.as_str() {
        "ingest-fed" => ingest::FED,
        _ => ingest::CHURN,
    };
    // The batch phases time the layers whose figures follow the host
    // too closely to gate on; they fill per-layer metrics only.
    let outcome = ingest::run(&mut ctx, mix).and_then(|()| {
        if ctx.tracer.on() {
            resident::run(&mut ctx)?;
            sweep::run(&mut ctx)?;
        }
        Ok(())
    });
    let wall = started.elapsed();
    if let Err(e) = outcome {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }
    let failed = ctx.report.failed;
    ctx.report.set(
        "failed_frac",
        failed as f64 / ctx.report.attempted.max(1) as f64,
        format!("{failed} of {}", ctx.report.attempted),
    );
    if ctx.tracer.on() {
        let spans = ctx.tracer.len();
        let cost = trace::record_cost_ns();
        ctx.report.set("trace.spans", spans as f64, "");
        ctx.report
            .set("trace.record_ns", cost, "calibrated cost of one span");
        ctx.report.set(
            "trace.overhead_frac",
            spans as f64 * cost / wall.as_nanos() as f64,
            "span recording over traced wall time; compare the end-to-end lines with an untraced run",
        );
        print!("{}", ctx.tracer.render_summary());
        let path = span_path(&args);
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }
    print!("{}", ctx.report.render());
    println!("{}", ctx.report.json(args.trace));
    if !ctx.report.correct() {
        eprintln!("perfbench: {}: a correctness check failed", args.workload);
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload ingest-fed --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "ingest-fed".into(),
                seed: 3,
                seconds: 10,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload ingest-fed")).is_err());
        assert!(parse_args(&argv("--workload ingest-fed --seed x")).is_err());
        assert!(parse_args(&argv("--workload ingest-fed --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload ingest-fed --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload ingest-fed --seed")).is_err());
    }
}
