//! `dsi-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints the run's facts and metrics, one per line, and as its last line
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. An
//! untraced run (`--trace 0`) reports every end-to-end metric, a traced
//! run (`--trace 1`) every per-layer metric and writes its spans to
//! `perfbench/out/`.

use std::process::ExitCode;

use dsi_perfbench::layers::{trace_path, traced};
use dsi_perfbench::metrics::{declared, PER_LAYER};
use dsi_perfbench::run::untraced;
use dsi_perfbench::workload::{Inputs, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dsi-perfbench: {e}");
            eprintln!("usage: dsi-perfbench --workload <window_fleet|paper_batch|lossy_channels> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let inputs = match Inputs::generate(args.workload, args.seed, 1.0) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("dsi-perfbench: cannot generate inputs: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = if args.trace {
        traced(&inputs, args.seconds).and_then(|(report, tracer)| {
            let path = trace_path(&inputs);
            tracer.write(&path)?;
            let mut text = String::new();
            for m in PER_LAYER {
                text.push_str(&format!("# moves: {} -> {}\n", m.name, m.moves));
            }
            text.push_str(&format!("# spans written to {}\n", path.display()));
            Ok(text + &report.render(&declared(true)))
        })
    } else {
        untraced(&inputs, args.seconds).map(|report| report.render(&declared(false)))
    };
    match out {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dsi-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
