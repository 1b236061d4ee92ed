//! Command-line entry point: runs one workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--rev <git rev>] [--spans <csv path>]
//! ```
//!
//! Every metric is printed as `metric <name> <value> <unit>`, followed by
//! one JSON line with the run's metadata and, last, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! result carries the end-to-end metrics, with `--trace 1` the per-layer
//! ones. The exit code is 1 when an output check failed and 2 on bad
//! arguments.

use std::fmt::Write as _;
use std::process::ExitCode;

use perfbench::{Budget, Config, Metric, Plant, Workload};

const USAGE: &str = "usage: perfbench --workload <handoff|abort-churn|service-fifo> \
                     --seed <n> --seconds <s> --trace <0|1> [--rev <rev>] [--spans <path>]";

struct Args {
    config: Config,
    rev: String,
    spans: Option<std::path::PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut rev = "unknown".to_string();
    let mut spans = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--rev" => rev = value,
            "--spans" => spans = Some(value.into()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        config: Config {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            budget: Budget::Seconds(seconds.ok_or("--seconds is required")?),
            trace: trace.ok_or("--trace is required")?,
            plant: Plant::None,
        },
        rev,
        spans,
    })
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                json_string(&m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let config = args.config;
    let report = perfbench::run(&config);

    for m in report.end_to_end.iter().chain(&report.per_layer) {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let failed_frac = report.failed as f64 / report.attempted as f64;
    println!("metric failed_frac {failed_frac} ratio");
    for (metric, samples) in &report.samples {
        println!("samples {metric} {samples}");
    }
    for failure in &report.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    if let Some(path) = &args.spans {
        if let Err(e) = perfbench::trace::write_spans(path, &report.tracers) {
            eprintln!("perfbench: writing spans to {}: {e}", path.display());
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let features = if cfg!(feature = "stats") {
        "[\"stats\"]"
    } else {
        "[]"
    };
    println!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"rev\": {}, \"nproc\": {nproc}, \
         \"reclaimer\": {}, \"features\": {features}, \"failed_frac\": {failed_frac:?}}}}}",
        json_string(config.workload.name()),
        config.seed,
        config.trace as u8,
        json_string(&args.rev),
        json_string(cqs_reclaim::default_reclaimer().name()),
    );
    let metrics = if config.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        json_metrics(metrics)
    );
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
