//! `exa-perf` command line.
//!
//! ```text
//! exa-perf --workload W --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json's command runs)
//! exa-perf trace W [--seed N]                               the same as --workload W --trace 1
//! exa-perf list [--benchmark-json]                          every name this benchmark defines
//! exa-perf run-all --seed N [--seconds S] [--out FILE]      every workload, both modes, one result set
//! exa-perf aa --seed N [--seconds S]                        the set twice; fails beyond the bounds
//! exa-perf compare OLD.json NEW.json                        per-metric deltas with base values
//! ```
//!
//! `--smoke` on a run, `run-all` and `aa` shrinks every size (n = 256) and
//! lifts the release-build guard; its numbers mean nothing.

use exa_perf::{host, report, run_end_to_end, run_traced, spec, Ctx};
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: exa-perf --workload <{}> --seed N --seconds S --trace 0|1 [--smoke]\n       \
         exa-perf list [--benchmark-json] | run-all | aa | compare OLD NEW",
        spec::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    ExitCode::from(2)
}

/// The flags shared by a single run, `run-all` and `aa`.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => f.workload = Some(value()?.clone()),
            "--seed" => f.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                f.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(f.seconds > 0.0 && f.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                f.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => f.out = Some(value()?.clone()),
            "--smoke" => f.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(f)
}

fn context(f: &Flags) -> Result<Ctx, String> {
    if !f.smoke {
        host::refuse_foreign_build()?;
    }
    Ok(Ctx {
        seed: f.seed,
        seconds: f.seconds,
        workers: host::workers(),
        smoke: f.smoke,
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let workload = flags.workload.clone().ok_or("--workload is required")?;
    if !spec::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let ctx = context(&flags)?;
    let out = if flags.trace {
        run_traced(&workload, &ctx)
    } else {
        run_end_to_end(&workload, &ctx)
    };
    print!("{}", report::table(&workload, flags.trace, &ctx, &out));
    println!("{}", report::result_line(&out));
    Ok(if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let ctx = context(&flags)?;
    let (set, correct) = report::run_all(&ctx);
    match &flags.out {
        Some(path) => std::fs::write(path, set + "\n").map_err(|e| format!("{path}: {e}"))?,
        None => println!("{set}"),
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn aa(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let ctx = context(&flags)?;
    let (first, ok_first) = report::run_all(&ctx);
    let (second, ok_second) = report::run_all(&ctx);
    let (table, beyond) = report::compare(&first, &second)?;
    print!("{table}");
    println!("A/A: {beyond} end-to-end metrics beyond their bound");
    Ok(if ok_first && ok_second && beyond == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [old, new] = args else {
        return Err("compare takes OLD.json NEW.json".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, beyond) = report::compare(&read(old)?, &read(new)?)?;
    print!("{table}");
    println!("{beyond} end-to-end metrics worse beyond their bound");
    Ok(if beyond == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") if args.get(1).map(String::as_str) == Some("--benchmark-json") => {
            println!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some("list") => {
            print!("{}", spec::listing());
            Ok(ExitCode::SUCCESS)
        }
        Some("trace") if args.len() >= 2 => {
            let mut flags = vec!["--workload".to_string(), args[1].clone()];
            flags.extend_from_slice(&args[2..]);
            flags.extend(["--trace".to_string(), "1".to_string()]);
            run(&flags)
        }
        Some("run-all") => run_all(&args[1..]),
        Some("aa") => aa(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some(_) => run(&args),
        None => Err("nothing to do".into()),
    };
    result.unwrap_or_else(|problem| usage(&problem))
}
