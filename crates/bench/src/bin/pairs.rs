//! Paired benchmark comparison of the working tree against a parent
//! commit:
//!
//! ```sh
//! cargo run --release -p dsi-bench --bin pairs -- <parent-rev> <seed>
//! ```
//!
//! The parent is extracted with `git archive` into
//! `target/pairs/<parent-sha>/`, with no network and nothing registered in
//! the repository. For every workload in `BENCHMARK.json`, that file's
//! `command` runs untraced in both checkouts, [`PAIRS`] pairs at its
//! `run_seconds`, alternating which side goes first. From the last JSON
//! line of each run it prints, for each end-to-end metric, each side's
//! quartiles, the pairs the change won and a [`Verdict`], and writes the
//! same plus every run's value to `target/pairs/<parent-sha>-seed<seed>.json`.
//!
//! It exits 1 on a worse verdict, an incorrect run, a larger failed share
//! than the parent's, or an air metric (deterministic per seed) that is not
//! the same in every run of both sides.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// Parent/change pairs per workload.
const PAIRS: usize = 10;

/// A JSON value; an object keeps its members in order.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut s = text.as_bytes();
        let v = Json::value(&mut s)?;
        s.trim_ascii()
            .is_empty()
            .then_some(v)
            .ok_or("trailing input".into())
    }

    fn value(s: &mut &[u8]) -> Result<Json, String> {
        *s = s.trim_ascii_start();
        if let Some(&open @ (b'[' | b'{')) = s.first() {
            *s = &s[1..];
            let close = if open == b'[' { b']' } else { b'}' };
            let mut members = Vec::new();
            while Json::eat(s, close).is_err() {
                if !members.is_empty() {
                    Json::eat(s, b',')?;
                }
                let key = match open {
                    b'{' => Json::string(s).and_then(|k| Json::eat(s, b':').map(|_| k))?,
                    _ => String::new(),
                };
                members.push((key, Json::value(s)?));
            }
            return Ok(match open {
                b'{' => Json::Obj(members),
                _ => Json::Arr(members.into_iter().map(|(_, v)| v).collect()),
            });
        }
        if s.first() == Some(&b'"') {
            return Json::string(s).map(Json::Str);
        }
        let len = (s.iter())
            .position(|b| !b.is_ascii_alphanumeric() && !b"+-.".contains(b))
            .unwrap_or(s.len());
        let (token, rest) = s.split_at(len);
        *s = rest;
        match token {
            b"true" => Ok(Json::Bool(true)),
            b"false" => Ok(Json::Bool(false)),
            b"null" => Ok(Json::Null),
            _ => (std::str::from_utf8(token).ok())
                .and_then(|t| t.parse().ok())
                .map(Json::Num)
                .ok_or(format!("bad token {:?}", String::from_utf8_lossy(token))),
        }
    }

    /// Consumes `byte` after any whitespace.
    fn eat(s: &mut &[u8], byte: u8) -> Result<(), String> {
        *s = s.trim_ascii_start();
        match s.split_first() {
            Some((&b, rest)) if b == byte => {
                *s = rest;
                Ok(())
            }
            _ => Err(format!("expected '{}'", byte as char)),
        }
    }

    /// A string literal without escapes, which no metric or workload
    /// name or command word needs.
    fn string(s: &mut &[u8]) -> Result<String, String> {
        Json::eat(s, b'"')?;
        let end = s.iter().position(|&b| b == b'"').ok_or("open string")?;
        let text = String::from_utf8(s[..end].to_vec()).map_err(|e| e.to_string())?;
        *s = &s[end + 1..];
        if text.contains('\\') {
            return Err("escapes are not supported".into());
        }
        Ok(text)
    }

    /// The member `key` of an object; `Null` when absent.
    fn get(&self, key: &str) -> &Json {
        let Json::Obj(members) = self else {
            return &Json::Null;
        };
        members
            .iter()
            .find(|(k, _)| k == key)
            .map_or(&Json::Null, |(_, v)| v)
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// An end-to-end metric of `BENCHMARK.json`.
struct Metric {
    name: String,
    higher_is_better: bool,
    /// The share of the parent's median by which the change may be worse.
    bound: f64,
}

/// One run's last JSON line.
#[derive(Debug, Default)]
struct Run {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

impl Run {
    fn parse(line: &str) -> Option<Run> {
        let j = Json::parse(line).ok()?;
        let Json::Obj(metrics) = j.get("metrics") else {
            return None;
        };
        Some(Run {
            correct: j.get("correct") == &Json::Bool(true),
            attempted: j.get("attempted").num()?,
            failed: j.get("failed").num()?,
            metrics: (metrics.iter())
                .map(|(k, v)| Some((k.clone(), v.get("value").num()?)))
                .collect::<Option<_>>()?,
        })
    }
}

/// First quartile, median and third quartile, interpolated linearly.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|p| {
        let x = p * (v.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Worse,
    Better,
    Unresolved,
    Same,
}

/// Judges one metric from the pairs `(parent[i], change[i])`; returns the
/// verdict and the pairs the change won. Worse: the change's median is
/// worse than the parent's by more than the bound, or (`queries_per_s`
/// only) it loses at least 9 in 10 pairs and the medians differ by more
/// than the parent's interquartile range. Better is the mirror. Otherwise
/// unresolved when either side's interquartile range exceeds the bound,
/// and the same when not.
fn verdict(metric: &Metric, parent: &[f64], change: &[f64]) -> (Verdict, usize) {
    // How much better `b` reads than `a`.
    let sign = if metric.higher_is_better { 1.0 } else { -1.0 };
    let gain = |a: f64, b: f64| sign * (b - a);
    let (mut wins, mut losses) = (0, 0);
    for (&a, &b) in parent.iter().zip(change) {
        wins += usize::from(gain(a, b) > 0.0);
        losses += usize::from(gain(a, b) < 0.0);
    }
    let ([p1, pm, p3], [c1, cm, c3]) = (quartiles(parent), quartiles(change));
    let shift = gain(pm, cm);
    let paired = |n: usize| metric.name == "queries_per_s" && 10 * n >= 9 * parent.len();
    let verdict = if shift < -metric.bound * pm || (paired(losses) && -shift > p3 - p1) {
        Verdict::Worse
    } else if shift > metric.bound * pm || (paired(wins) && shift > p3 - p1) {
        Verdict::Better
    } else if p3 - p1 > metric.bound * pm || c3 - c1 > metric.bound * cm {
        Verdict::Unresolved
    } else {
        Verdict::Same
    };
    (verdict, wins)
}

/// Every metric's verdict and change wins on one workload, and the
/// reasons the workload fails.
fn judge(
    metrics: &[Metric],
    parent: &[Run],
    change: &[Run],
) -> (Vec<(Verdict, usize)>, Vec<String>) {
    let mut failures = Vec::new();
    for (side, runs) in [("parent", parent), ("change", change)] {
        let wrong = runs.iter().filter(|r| !r.correct).count();
        if wrong > 0 {
            failures.push(format!("{wrong} incorrect {side} runs"));
        }
    }
    let share = |runs: &[Run]| {
        let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
        runs.iter().map(|r| r.failed).sum::<f64>() / attempted.max(1.0)
    };
    let (p, c) = (share(parent), share(change));
    if c > p {
        failures.push(format!("failed share {c} above the parent's {p}"));
    }
    let verdicts = (metrics.iter())
        .map(|m| {
            let (p, c) = (values(parent, &m.name), values(change, &m.name));
            if m.name.starts_with("air_") && p.iter().chain(&c).any(|&v| v != p[0]) {
                failures.push(format!("{} differs between runs", m.name));
            }
            let (v, wins) = verdict(m, &p, &c);
            if v == Verdict::Worse {
                failures.push(format!("{} is worse", m.name));
            }
            (v, wins)
        })
        .collect();
    (verdicts, failures)
}

/// Each run's value of `name`; NaN where a run lacks it.
fn values(runs: &[Run], name: &str) -> Vec<f64> {
    let value = |r: &Run| r.metrics.get(name).copied().unwrap_or(f64::NAN);
    runs.iter().map(value).collect()
}

/// A metric side as JSON; the NaN a run without the metric leaves is null.
fn side_json(values: &[f64]) -> String {
    let num = |x: f64| {
        if x.is_nan() {
            "null".into()
        } else {
            x.to_string()
        }
    };
    let [q1, median, q3] = quartiles(values).map(num);
    let runs: Vec<String> = values.iter().map(|&x| num(x)).collect();
    let runs = runs.join(", ");
    format!("{{\"q1\": {q1}, \"median\": {median}, \"q3\": {q3}, \"runs\": [{runs}]}}")
}

/// Runs `program` in `dir`; its standard output, if it succeeded.
fn output(dir: &Path, program: &str, args: &[&str]) -> Option<String> {
    let out = (Command::new(program).args(args).current_dir(dir))
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(rev), Some(Ok(seed)), 2) = (
        args.first(),
        args.get(1).map(|s| s.parse::<u64>()),
        args.len(),
    ) else {
        eprintln!("usage: pairs <parent-rev> <seed>");
        return ExitCode::from(2);
    };
    let git = |dir: &Path, args: &[&str]| {
        let out = output(dir, "git", args).unwrap_or_else(|| panic!("git {args:?} failed"));
        out.trim().to_string()
    };
    let top = git(Path::new("."), &["rev-parse", "--show-toplevel"]);
    let top = Path::new(&top);
    let commit = format!("{rev}^{{commit}}");
    let sha = git(top, &["rev-parse", "--verify", &commit]);
    let parent_dir = top.join("target").join("pairs").join(&sha);
    std::fs::create_dir_all(&parent_dir).expect("create the parent checkout");
    // Files keep their archive mtimes, so extracting the same commit again
    // rebuilds nothing.
    let extract = format!("git archive {sha} | tar -x -C \"$0\"");
    output(top, "sh", &["-c", &extract, &parent_dir.to_string_lossy()])
        .expect("extract the parent");

    let bench = std::fs::read_to_string(top.join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let bench = Json::parse(&bench).expect("BENCHMARK.json is JSON");
    let list = |key: &str| match bench.get(key) {
        Json::Arr(items) => items,
        _ => panic!("BENCHMARK.json: {key} is not an array"),
    };
    let text = |v: &Json| match v {
        Json::Str(s) => s.clone(),
        _ => panic!("BENCHMARK.json: {v:?} is not a string"),
    };
    let command: Vec<String> = list("command").iter().map(text).collect();
    let seconds = bench.get("run_seconds").num().expect("run_seconds");
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let metrics: Vec<Metric> = (list("end_to_end").iter())
        .map(|m| Metric {
            name: text(m.get("name")),
            higher_is_better: text(m.get("better")) == "higher",
            bound: m.get("bound").num().expect("a bound"),
        })
        .collect();

    let mut workloads = Vec::new();
    let mut failed = false;
    for name in list("workloads").iter().map(|w| text(w.get("name"))) {
        let mut args: Vec<&str> = command.iter().map(String::as_str).collect();
        args.extend(["--workload", &name, "--seed", &seed, "--seconds", &seconds]);
        args.extend(["--trace", "0"]);
        let mut runs: [Vec<Run>; 2] = Default::default();
        for pair in 0..PAIRS {
            let mut order = [(0, parent_dir.as_path()), (1, top)];
            order.rotate_left(pair % 2);
            for (side, dir) in order {
                let out = output(dir, args[0], &args[1..]);
                let last = out.as_deref().and_then(|o| o.lines().last());
                let run = last.and_then(Run::parse).unwrap_or_default();
                let qps = run.metrics.get("queries_per_s").map_or(f64::NAN, |&q| q);
                let side_name = ["parent", "change"][side];
                println!(
                    "{name} pair {pair} {side_name}: correct {}, {qps:.1} q/s",
                    run.correct
                );
                runs[side].push(run);
            }
        }
        let [parent, change] = &runs;
        let (verdicts, failures) = judge(&metrics, parent, change);
        println!(
            "{name}: metric | parent q1/median/q3 | change q1/median/q3 | change wins | verdict"
        );
        let mut rows = Vec::new();
        for (m, (v, wins)) in metrics.iter().zip(verdicts) {
            let (p, c) = (values(parent, &m.name), values(change, &m.name));
            let [[p1, pm, p3], [c1, cm, c3]] = [quartiles(&p), quartiles(&c)];
            println!(
                "  {} | {p1:.4}/{pm:.4}/{p3:.4} | {c1:.4}/{cm:.4}/{c3:.4} | {wins}/{PAIRS} | {v:?}",
                m.name
            );
            let (p, c) = (side_json(&p), side_json(&c));
            rows.push(format!("\"{}\": {{\"parent\": {p}, \"change\": {c}, \"change_wins\": {wins}, \"verdict\": \"{v:?}\"}}", m.name));
        }
        for f in &failures {
            println!("  FAIL: {f}");
        }
        failed |= !failures.is_empty();
        let failures: Vec<String> = failures.iter().map(|f| format!("{f:?}")).collect();
        let (rows, failures) = (rows.join(", "), failures.join(", "));
        workloads.push(format!(
            "\"{name}\": {{\"metrics\": {{{rows}}}, \"failures\": [{failures}]}}"
        ));
    }
    let path = parent_dir.with_file_name(format!("{sha}-seed{seed}.json"));
    let workloads = workloads.join(", ");
    let json = format!("{{\"parent\": \"{sha}\", \"seed\": {seed}, \"workloads\": {{{workloads}}}, \"pass\": {}}}\n", !failed);
    std::fs::write(&path, json).expect("write the report");
    println!("[wrote {}]", path.display());
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, higher_is_better: bool, bound: f64) -> Metric {
        let name = name.to_string();
        Metric {
            name,
            higher_is_better,
            bound,
        }
    }

    /// `base` scaled by ten distinct offsets within ±5%, rotated by `shift`.
    fn noisy(base: f64, shift: usize) -> Vec<f64> {
        let noise = [-5.0, 5.0, -3.0, 3.0, -1.0, 1.0, -4.0, 4.0, -2.0, 2.0];
        (0..10)
            .map(|i| base * (1.0 + noise[(i + shift) % 10] / 100.0))
            .collect()
    }

    #[test]
    fn verdicts_on_queries_per_second() {
        let qps = metric("queries_per_s", true, 0.25);
        let parent = noisy(1000.0, 0);
        let against_parent = |change: &[f64]| verdict(&qps, &parent, change);
        // 10% slower with ±5% noise: every pair lost, by more than the IQR.
        assert_eq!(against_parent(&noisy(900.0, 3)), (Verdict::Worse, 0));
        assert_eq!(against_parent(&parent), (Verdict::Same, 0));
        // Every change run beats every parent run.
        assert_eq!(against_parent(&noisy(1200.0, 0)), (Verdict::Better, 10));
        // Quartiles 1,000 and 2,000 around a median of 1,500.
        let wide = [1e3, 1e3, 1e3, 1e3, 1e3, 2e3, 2e3, 2e3, 2e3, 2e3];
        let mut flipped = wide;
        flipped.reverse();
        assert_eq!(verdict(&qps, &wide, &flipped), (Verdict::Unresolved, 5));
    }

    #[test]
    fn a_differing_air_metric_or_a_larger_failed_share_fails() {
        let air = [metric("air_tuning_bytes_mean", false, 0.2)];
        let runs = |value: [f64; 10], failed: [f64; 10]| -> Vec<Run> {
            let run = |(v, failed)| {
                let metrics = BTreeMap::from([(air[0].name.clone(), v)]);
                Run {
                    correct: true,
                    attempted: 100.0,
                    failed,
                    metrics,
                }
            };
            value.into_iter().zip(failed).map(run).collect()
        };
        let (same, zero) = ([5.0; 10], [0.0; 10]);
        let parent = runs(same, zero);
        assert_eq!(
            judge(&air, &parent, &runs(same, zero)),
            (vec![(Verdict::Same, 0)], vec![])
        );
        let (mut moved, mut one) = (same, zero);
        (moved[9], one[4]) = (5.5, 1.0);
        let failures = |change: Vec<Run>| judge(&air, &parent, &change).1;
        let air_moved = ["air_tuning_bytes_mean differs between runs"];
        assert_eq!(failures(runs(moved, zero)), air_moved);
        let failed_more = ["failed share 0.001 above the parent's 0"];
        assert_eq!(failures(runs(same, one)), failed_more);
    }

    #[test]
    fn reads_a_result_line() {
        let line = r#"{"correct": true, "attempted": 3, "failed": 0,
            "metrics": {"queries_per_s": {"value": 1.5e3, "unit": "1/s"}}}"#;
        let run = Run::parse(line).expect("a result line");
        assert!(run.correct);
        assert_eq!((run.attempted, run.failed), (3.0, 0.0));
        assert_eq!(run.metrics["queries_per_s"], 1500.0);
        assert!(Run::parse(r#"{"attempted": 3, "failed": 0, "metrics": 1}"#).is_none());
    }
}
