//! One part of the single-threaded Stitch pipeline benchmark.
//!
//! `perfbench <part> --seed N --seconds S --trace 0|1 --out DIR [--tiny]`
//! runs one workload (`cold_grid`, `warm_store`) or the compiler
//! stage-split pass (`stages`) in this process and prints one JSON line:
//! `correct`, `attempted`, `failed` and the raw metric values by name.
//! `perfbench/run.py` builds this binary, runs the parts a workload needs
//! as separate processes, and prints the benchmark's result line. See
//! `perfbench/README.md`.

mod grid;
mod host;
mod spans;
mod workloads;

use std::fmt::{Display, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;
use stitch::DEFAULT_FRAMES;
use stitch_apps::App;

/// Command-line options shared by every part.
pub struct Opts {
    /// Drives `cold_grid`'s fault plans; the apps are fixed inputs.
    pub seed: u64,
    /// Minimum length of the timed region.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Benchmark-owned scratch directory (artifact store, span files).
    pub out: PathBuf,
    /// Self-check sizes: one app, two frames, one unit of work.
    pub tiny: bool,
}

impl Opts {
    /// The fixed input apps: APP1–APP4, or APP3 alone at tiny sizes.
    pub fn apps(&self) -> Vec<App> {
        if self.tiny {
            vec![stitch_apps::svm_app()]
        } else {
            App::all()
        }
    }

    /// Frames per app run: `DEFAULT_FRAMES`, or 2 at tiny sizes.
    pub fn frames(&self) -> u32 {
        if self.tiny {
            2
        } else {
            DEFAULT_FRAMES
        }
    }

    /// Units of work a timed loop runs at least, whatever `--seconds` says.
    pub fn min_units(&self, full: usize) -> usize {
        if self.tiny {
            1
        } else {
            full
        }
    }
}

/// What a part reports: operations attempted and failed, metric values
/// by name, and the (wall, CPU) seconds of each call a part reports
/// call by call.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    calls: Vec<(f64, f64)>,
}

impl Outcome {
    /// Counts one operation (a point, session or faulted run, or a
    /// hygiene check); a failed one is reported on stderr.
    pub fn op(&mut self, ok: bool, what: impl Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}");
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn to_json(&self) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_string()
            }
        };
        let mut m = String::new();
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(m, "{sep}\"{name}\":{}", num(*v));
        }
        let calls: Vec<String> = self
            .calls
            .iter()
            .map(|&(w, c)| format!("[{},{}]", num(w), num(c)))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}},\"calls\":[{}]}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            calls.join(",")
        )
    }
}

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let part = args.first().ok_or("missing part name")?.clone();
    let mut opts = Opts {
        seed: 0,
        seconds: 1.0,
        trace: false,
        out: PathBuf::from(".bench_build/perfbench-out"),
        tiny: false,
    };
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            opts.tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => opts.trace = value == "1",
            "--out" => opts.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((part, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (part, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("perfbench: {}: {e}", opts.out.display());
        return ExitCode::from(2);
    }
    let outcome = match part.as_str() {
        "cold_grid" => workloads::cold_grid(&opts),
        "warm_store" => workloads::warm_store(&opts),
        "stages" => workloads::stages(&opts),
        other => {
            eprintln!("perfbench: unknown part {other}");
            return ExitCode::from(2);
        }
    };
    println!("{}", outcome.to_json());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
