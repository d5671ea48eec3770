//! `ledger` — the repository's benchmark. See README.md beside this
//! package for the load model, the workloads and how to read the output.
//!
//! ```text
//! ledger --seed 1                           every workload, both passes
//! ledger --workload W --seed N --seconds S --trace 0|1
//!                                           one pass, as the driver runs it
//! ledger compare A.json[,A2.json..] B.json[,B2.json..]
//! ```

#![forbid(unsafe_code)]

mod compare;
mod gen;
mod host;
mod metrics;
mod report;
mod run;
mod spans;
mod stats;
mod system;

use std::io::Write;
use std::process::ExitCode;

use report::{print_workload, RunFile, WorkloadResult};
use run::{Config, SEGMENT_MS};

const RESULT_FILE: &str = "results/ledger.json";
const SPAN_FILE: &str = "results/ledger_spans.jsonl";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    pinned: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { workload: None, seed: 1, seconds: 15.0, trace: false, pinned: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == host::PINNED_ARG {
            parsed.pinned = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                system::workload(value).ok_or_else(|| {
                    format!("unknown workload {value:?}; known: {}", metrics::WORKLOADS.join(", "))
                })?;
                parsed.workload = Some(value.clone());
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 120.0) {
                    return Err(bad("between 0 and 120"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

fn write_spans(file: &mut std::fs::File, workload: &str, spans: &[spans::Span]) {
    spans::write_jsonl(file, workload, spans).expect("write span file");
}

fn create(path: &str) -> std::fs::File {
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::File::create(path).unwrap_or_else(|e| panic!("create {path}: {e}"))
}

/// One pass over one workload; the last line printed is the driver's.
fn run_one(args: &Args, cfg: &Config, name: &str) -> bool {
    let w = system::workload(name).expect("checked while parsing");
    let pass = if args.trace {
        let traced = run::traced(&w, cfg);
        write_spans(&mut create(SPAN_FILE), name, &traced.spans);
        traced.pass
    } else {
        run::untraced(&w, cfg)
    };
    let (end_to_end, per_layer) = if args.trace {
        (Vec::new(), pass.metrics.clone())
    } else {
        (pass.metrics.clone(), Vec::new())
    };
    print_workload(&WorkloadResult {
        name: name.to_string(),
        correct: pass.correct,
        attempted: pass.attempted,
        failed: pass.failed,
        chi_square_p: pass.chi_square_p,
        end_to_end,
        per_layer,
    });
    println!("{}", pass.driver_line());
    pass.correct
}

/// Every workload, both passes; writes the result and span files.
fn run_all(args: &Args, cfg: &Config) -> bool {
    println!(
        "ledger: seed {} · {} s in {} ms segments per workload · closed loop, one client, one worker · pinned={}",
        args.seed, args.seconds, SEGMENT_MS, cfg.pinned
    );
    let mut span_file = create(SPAN_FILE);
    let mut file = RunFile {
        seed: args.seed,
        seconds: args.seconds,
        segment_ms: SEGMENT_MS,
        workloads: Vec::new(),
        claim: None,
    };
    for name in metrics::WORKLOADS {
        let w = system::workload(name).expect("listed workload");
        let untraced = run::untraced(&w, cfg);
        let traced = run::traced(&w, cfg);
        write_spans(&mut span_file, name, &traced.spans);
        let result = WorkloadResult {
            name: name.to_string(),
            correct: untraced.correct && traced.pass.correct,
            attempted: untraced.attempted + traced.pass.attempted,
            failed: untraced.failed + traced.pass.failed,
            chi_square_p: untraced.chi_square_p.min(traced.pass.chi_square_p),
            end_to_end: untraced.metrics,
            per_layer: traced.pass.metrics,
        };
        print_workload(&result);
        file.workloads.push(result);
    }
    create(RESULT_FILE).write_all(file.to_json().as_bytes()).expect("write result file");
    println!("\nwrote {RESULT_FILE} and {SPAN_FILE}");
    file.workloads.iter().all(|w| w.correct)
}

fn load_set(list: &str) -> Result<Vec<RunFile>, String> {
    list.split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            RunFile::from_json(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: ledger compare A.json[,A2.json..] B.json[,B2.json..]".to_string());
    };
    let (report, ok) = compare::compare(&load_set(a)?, &load_set(b)?);
    print!("{report}");
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_command(&args[1..]),
        _ => parse(&args).map(|parsed| {
            if !parsed.pinned {
                if let Some(code) = host::reexec_pinned(&args) {
                    std::process::exit(code);
                }
                eprintln!("ledger: taskset unavailable, running unpinned (host.pinned = 0)");
            }
            let cfg = Config {
                seed: parsed.seed,
                seconds: parsed.seconds,
                segment_ms: SEGMENT_MS,
                scale: system::Scale::FULL,
                pinned: parsed.pinned,
            };
            match &parsed.workload {
                Some(name) => run_one(&parsed, &cfg, name),
                None => run_all(&parsed, &cfg),
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
