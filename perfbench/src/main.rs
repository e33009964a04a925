//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <em_pipeline|block_join|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. The run measures for about `--seconds`
//! seconds, checks the program's outputs, and prints as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The traced run also writes its
//! spans to `.bench_out/trace-<workload>-<seed>.json`. Any failed output check makes
//! the exit code non-zero. See `perfbench/README.md` for the workloads and metrics.

mod block;
mod em;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Where runs write traces and scratch files, relative to the working directory.
pub const OUT_DIR: &str = ".bench_out";

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Scratch directory of this run (snapshots); removed when the run ends.
    pub scratch: PathBuf,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
    })
}

/// The commit the benchmark was built from, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The SIMD levels the GEMM and i8-dot kernels select at run time: AVX2+FMA, AVX-512F,
/// AVX-512F+BW. The kernels' own detection (`use_avx2_fma`, `use_avx512`,
/// `use_avx512bw` in `crates/nn/src/matrix.rs`) is crate-private, so the same feature
/// tests are repeated here.
fn simd_levels() -> (bool, bool, bool) {
    #[cfg(target_arch = "x86_64")]
    {
        let avx512 = std::is_x86_feature_detected!("avx512f");
        (
            std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma"),
            avx512,
            avx512 && std::is_x86_feature_detected!("avx512bw"),
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        (false, false, false)
    }
}

/// Host fingerprint recorded with every result.
fn fingerprint(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rayon = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into());
    let (avx2_fma, avx512, avx512bw) = simd_levels();
    format!(
        "\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"rayon_num_threads\":\"{rayon}\",\"avx2_fma\":{avx2_fma},\"avx512\":{avx512},\
         \"avx512bw\":{avx512bw},\"git_revision\":\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        git_revision()
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Ctx, &mut Report) = match args.workload.as_str() {
        "em_pipeline" => em::run,
        "block_join" => block::run,
        "serve_mixed" => serve::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let fingerprint = fingerprint(&args);
    let scratch = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    // The index spills shards under the system temp dir; point it into the working
    // directory so a run writes nowhere else. No other thread runs yet.
    let tmp = scratch.join("tmp");
    match std::fs::create_dir_all(&tmp).and_then(|()| std::path::absolute(&tmp)) {
        Ok(tmp) => std::env::set_var("TMPDIR", tmp),
        Err(e) => {
            eprintln!("perfbench: cannot create {}: {e}", tmp.display());
            return ExitCode::FAILURE;
        }
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        scratch,
    };
    let mut report = Report::default();
    run(&ctx, &mut report);
    let _ = std::fs::remove_dir_all(&ctx.scratch);

    println!("host: {{{fingerprint}}}");
    for line in &report.lines {
        println!("{line}");
    }
    for (name, reason) in &report.absent {
        println!("absent: {name}: {reason}");
    }
    if ctx.traced() {
        let path =
            PathBuf::from(OUT_DIR).join(format!("trace-{}-{}.json", args.workload, args.seed));
        match ctx
            .tracer
            .write(&path, &format!("\"host\":{{{fingerprint}}}"))
        {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => report.check(false, || format!("writing {}: {e}", path.display())),
        }
    }
    let line = report.result_line(if ctx.traced() { PER_LAYER } else { END_TO_END });
    for failure in &report.failures {
        println!("FAILED: {failure}");
    }
    println!("{line}");
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
