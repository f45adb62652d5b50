//! The wavelet-histogram benchmark of record.
//!
//! One run measures one workload for a fixed time and prints every
//! metric by name with its unit; its last output line is a JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end ones, with `--trace 1` the per-layer
//! ones from a separate traced run. See README.md.
//!
//! ```text
//! perfbench --workload exact-sendcoef --seed 1 --seconds 15 --trace 0
//!           [--scale full|smoke] [--out-dir perfbench/results]
//! ```

mod builds;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde::Value;

use report::{print_table, result_file, result_line, to_json, Report};
use trace::Tracer;

/// The named workloads.
pub const WORKLOADS: [&str; 4] = [
    "exact-sendcoef",
    "exact-hwtopk-mp",
    "approx-twolevel",
    "serve-refresh",
];

/// Input sizes. `full` is the benchmark of record; `smoke` runs the same
/// code paths in seconds, for the benchmark's own tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub name: &'static str,
    /// Build workloads: log₂ of the key domain, records, splits, k.
    pub log_u: u32,
    pub records: u64,
    pub splits: u32,
    pub k: usize,
    /// TwoLevel-S error parameter.
    pub epsilon: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// serve-refresh: the 1-D dataset's histogram size.
    pub serve_k: usize,
    /// serve-refresh: the 2-D dataset (per-axis log₂ u, records, splits, k).
    pub log_u_2d: u32,
    pub records_2d: u64,
    pub splits_2d: u32,
    pub k_2d: usize,
    /// serve-refresh: predicates per reader batch.
    pub batch: usize,
    /// serve-refresh: records per delta and the delta period.
    pub delta_records: u64,
    pub delta_period: Duration,
}

impl Scale {
    pub const FULL: Scale = Scale {
        name: "full",
        log_u: 20,
        records: 1 << 22,
        splits: 64,
        k: 30,
        epsilon: 2e-3,
        setups: 3,
        serve_k: 4096,
        log_u_2d: 8,
        records_2d: 1 << 20,
        splits_2d: 16,
        k_2d: 1024,
        batch: 1024,
        delta_records: 4096,
        delta_period: Duration::from_millis(50),
    };

    pub const SMOKE: Scale = Scale {
        name: "smoke",
        log_u: 14,
        records: 1 << 16,
        splits: 8,
        k: 30,
        epsilon: 2e-2,
        setups: 2,
        serve_k: 256,
        log_u_2d: 5,
        records_2d: 1 << 14,
        splits_2d: 4,
        k_2d: 64,
        batch: 256,
        delta_records: 256,
        delta_period: Duration::from_millis(20),
    };
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
    pub out_dir: PathBuf,
}

impl RunConfig {
    pub fn run_id(&self) -> String {
        format!(
            "{}-seed{}-trace{}-{}",
            self.workload,
            self.seed,
            u8::from(self.traced),
            self.scale.name
        )
    }
}

/// SplitMix64 step: derives independent seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds between two instants.
pub fn secs(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

fn machine() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Value::Object(vec![
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("cpu_model".into(), Value::Str(cpu)),
        ("rustc".into(), Value::Str(env("PERFBENCH_RUSTC"))),
        ("commit".into(), Value::Str(env("PERFBENCH_COMMIT"))),
        ("profile".into(), Value::Str(profile.into())),
    ])
}

fn parse_args() -> Result<RunConfig, String> {
    let mut args = std::env::args().skip(1);
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        scale: Scale::FULL,
        out_dir: PathBuf::from("perfbench/results"),
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => cfg.workload = value,
            "--seed" => cfg.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cfg.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--scale" => {
                cfg.scale = match value.as_str() {
                    "full" => Scale::FULL,
                    "smoke" => Scale::SMOKE,
                    _ => return Err("--scale takes full or smoke".into()),
                }
            }
            "--out-dir" => cfg.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let origin = Instant::now();
    let mut tracer = Tracer::new(cfg.traced, origin);
    let machine = machine();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} scale={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.traced),
        cfg.scale.name
    );
    println!("machine {}", to_json(&machine).expect("finite"));

    let mut report = Report::default();
    if cfg.workload == "serve-refresh" {
        serve::run(&cfg, &mut tracer, &mut report);
    } else {
        builds::run(&cfg, &mut tracer, &mut report);
    }
    report.complete_per_layer();
    let names: Vec<(&str, &str)> = report.end_to_end.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(
        names,
        report::END_TO_END,
        "every workload reports every end-to-end metric"
    );
    if let Some(m) = report
        .per_layer
        .iter_mut()
        .find(|m| m.name == "trace.spans")
    {
        m.value = tracer.spans().len() as f64;
    }

    print_table("end-to-end (BENCHMARK.json names)", &report.end_to_end);
    print_table("end-to-end (workload names)", &report.detail);
    if cfg.traced {
        print_table("per-layer", &report.per_layer);
    }
    for f in &report.failures {
        println!("FAILED: {f}");
    }

    if let Err(e) = save(&cfg, &report, &tracer, machine) {
        eprintln!("perfbench: cannot write results: {e}");
        return ExitCode::from(1);
    }
    println!(
        "{}",
        to_json(&result_line(&report, cfg.traced)).expect("finite metrics")
    );
    ExitCode::SUCCESS
}

fn save(cfg: &RunConfig, report: &Report, tracer: &Tracer, machine: Value) -> std::io::Result<()> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    let run = cfg.run_id();
    let header = vec![
        ("workload".into(), Value::Str(cfg.workload.clone())),
        ("seed".into(), Value::UInt(cfg.seed)),
        ("seconds".into(), Value::Float(cfg.seconds)),
        ("trace".into(), Value::Bool(cfg.traced)),
        ("scale".into(), Value::Str(cfg.scale.name.into())),
        ("run".into(), Value::Str(run.clone())),
    ];
    let to_io = |e: serde::Error| std::io::Error::other(e.to_string());
    let result = to_json(&result_file(report, header, machine)).map_err(to_io)?;
    std::fs::write(cfg.out_dir.join(format!("{run}.json")), result)?;
    if cfg.traced {
        let trace = to_json(&tracer.to_value(&cfg.workload, &run)).map_err(to_io)?;
        let path = cfg.out_dir.join(format!("{run}.trace.json"));
        std::fs::write(&path, trace)?;
        println!("trace {}", path.display());
    }
    Ok(())
}
