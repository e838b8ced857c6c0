//! The model-check runner: explores every core concurrency scenario
//! exhaustively (within its preemption bound) and prints one line per
//! scenario plus a final `MODEL OK` for CI to grep.
//!
//! The binary only does real work when the workspace is built with
//! `RUSTFLAGS="--cfg dsi_model"`; a normal build prints a rebuild
//! notice and exits non-zero so a misconfigured CI job cannot pass
//! vacuously.

#[cfg(not(dsi_model))]
fn main() {
    eprintln!("model: built without the model scheduler.");
    eprintln!("model: rebuild with RUSTFLAGS=\"--cfg dsi_model\" to run the suite.");
    std::process::exit(2);
}

#[cfg(dsi_model)]
fn main() {
    let mut failed = false;
    for s in dsi_model::scenarios::run_all() {
        let verdict = if s.is_clean() {
            "OK"
        } else {
            failed = true;
            "FAIL"
        };
        println!(
            "scenario {:<24} bound={} schedules={:<6} outcomes={} {}",
            s.name, s.bound, s.report.executions, s.distinct_outcomes, verdict
        );
        if let Some(v) = &s.report.violation {
            println!("  violation: {v}");
            if let Some(schedule) = &s.report.counterexample {
                println!("  counterexample schedule: {schedule:?}");
            }
        }
    }
    if failed {
        println!("MODEL FAIL");
        std::process::exit(1);
    }
    println!("MODEL OK");
}
