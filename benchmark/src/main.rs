//! End-to-end and per-layer wall-clock benchmark of the FlashPS
//! reproduction. See `README.md` for the workloads, the metrics and
//! the public functions this benchmark calls.
//!
//! ```text
//! fps-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, result JSON last
//! fps-benchmark [--seed N] [--seconds S] [--workload NAME] [--smoke] [--out FILE]
//!                                                                 every workload, both kinds
//! fps-benchmark repeat N [--seed N] [--seconds S] [--out FILE]    N passes, all values
//! fps-benchmark compare A.json B.json                             medians, quartiles, verdicts
//! ```

mod edit;
mod gen;
mod probes;
mod report;
mod stats;
mod workloads;

use std::process::ExitCode;

use fps_json::Json;
use report::Spec;

/// Read from the working directory: run from the repository root.
const SPEC_PATH: &str = "BENCHMARK.json";

const USAGE: &str = "usage: fps-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out FILE] | repeat N | compare A.json B.json";

#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(a),
        }
    }
    Ok(args)
}

fn write_out(path: Option<&str>, doc: &Json) -> Result<(), String> {
    match path {
        Some(p) => {
            std::fs::write(p, doc.to_string_pretty() + "\n").map_err(|e| format!("{p}: {e}"))
        }
        None => Ok(()),
    }
}

fn load_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &Args) -> Result<bool, String> {
    let problems = |p: Vec<String>| p.join("\n");
    match args.positional.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args.positional.as_slice() else {
                return Err(USAGE.into());
            };
            let spec = Spec::load(SPEC_PATH)?;
            Ok(!report::compare(&spec, &load_json(a)?, &load_json(b)?))
        }
        Some("repeat") => {
            let n: usize = args
                .positional
                .get(1)
                .and_then(|n| n.parse().ok())
                .filter(|&n| n >= 1)
                .ok_or(USAGE)?;
            let spec = Spec::load(SPEC_PATH)?;
            let seconds = args.seconds.unwrap_or(spec.run_seconds);
            let doc = report::repeat(&spec, None, n, args.seed, seconds).map_err(problems)?;
            write_out(args.out.as_deref(), &doc)?;
            Ok(true)
        }
        Some(_) => Err(USAGE.into()),
        // The driver's form: one workload, one kind of run, in-process.
        None if args.workload.is_some() && args.trace.is_some() => {
            let workload = args.workload.as_deref().expect("checked");
            let traced = args.trace.expect("checked");
            let seconds = args.seconds.ok_or("--seconds is required with --trace")?;
            let outcome = if traced {
                probes::run_traced(workload, args.seed, seconds)
            } else {
                workloads::run_untraced(workload, args.seed, seconds)
            }
            .ok_or(format!(
                "unknown workload {workload} (known: {})",
                workloads::NAMES.join(", ")
            ))?;
            outcome.print(workload, args.seed, seconds, traced);
            Ok(true)
        }
        // Everything: each workload in its own child process, untraced
        // then traced, checked against the spec.
        None => {
            let spec = Spec::load(SPEC_PATH)?;
            let seconds = match (args.seconds, args.smoke) {
                (Some(s), _) => s,
                (None, true) => spec.run_seconds / 10.0,
                (None, false) => spec.run_seconds,
            };
            let doc = report::repeat(&spec, args.workload.as_deref(), 1, args.seed, seconds)
                .map_err(problems)?;
            write_out(args.out.as_deref(), &doc)?;
            println!(
                "schema check: every metric of BENCHMARK.json printed exactly once per workload"
            );
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    match parse_args().and_then(|a| run(&a)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
