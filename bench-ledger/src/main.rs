//! `bench-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints context lines and a metric table, then — as the last line — one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics untraced, the per-layer metrics traced. Exits 1 when
//! a checked operation failed, 2 on bad arguments or unpreparable inputs.

use std::process::ExitCode;

use bench_ledger::metrics::{END_TO_END, PER_LAYER};
use bench_ledger::{prep, run, Config};

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        toy: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--toy" => cfg.toy = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(prep::PREPARE_FLAG) {
        return match prep::prepare_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bench-ledger: {e}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = parse(&args).and_then(|cfg| run(&cfg).map(|o| (cfg, o)));
    match outcome {
        Ok((cfg, out)) => {
            let defs = if cfg.trace { PER_LAYER } else { END_TO_END };
            println!(
                "# workload {} seed {} seconds {} trace {}",
                cfg.workload,
                cfg.seed,
                cfg.seconds,
                u8::from(cfg.trace)
            );
            print!("{}", out.table());
            println!("{}", out.json_line(defs));
            if out.is_correct(defs) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench-ledger: {e}");
            ExitCode::from(2)
        }
    }
}
