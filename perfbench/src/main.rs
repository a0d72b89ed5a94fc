//! streamloc benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wave|paced> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Both workloads run the paper's `source → A (fields 0) → B (fields 1)`
//! chain of counting operators (two instances each on two server tags,
//! each tag's three threads pinned to one CPU: six runtime threads) on
//! a Twitter-like stream generated from `--seed` before any timing
//! starts. Set-up trains the repository's `Manager`
//! on a `Simulation` of the same chain one drifted week at a time, on
//! the live key space and on a larger one whose timed
//! `Manager::reconfigure` calls give the rebuild cost. The live run
//! replays week w under the tables of week w - 1, runs back-to-back
//! waves to the tables of week w while the stream moves on to week
//! w + 1, drains, and checks every key's final count and owner against
//! a pure fold of the stream.
//!
//! * `wave` — saturating bursts of a fixed number of tuples around the
//!   waves: capacity of the whole data plane before them, and after
//!   them on the post-wave path.
//! * `paced` — an open-loop schedule at `PACED_RATE`, far below
//!   capacity: latency is set by batch fill and flush policy.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer ones (span histograms, registry counters and timed calls
//! into each layer's public functions). The last stdout line is the
//! JSON result.

mod affinity;
mod live;
mod setup;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::median;

/// Longest `--seconds`: a traced run makes three live runs of about
/// `seconds` each plus a shorter one-tag run, so the watchdog allows
/// `4 * seconds + 90` s, which must stay within the 180 s a run may
/// take.
const MAX_SECONDS: f64 = 20.0;

/// How many times set-up runs per invocation; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Open-loop rate (tuples/s over both sources) of the `paced` workload
/// and of every wave: about a third of the saturated capacity measured
/// on a 2-vCPU host (1.5-2.0M tuples/s).
pub const PACED_RATE: f64 = 500_000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Wave,
    Paced,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "wave" => Workload::Wave,
                    "paced" => Workload::Paced,
                    other => return Err(format!("unknown workload {other:?}")),
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=MAX_SECONDS).contains(&s) {
                    return Err(format!("--seconds must be within 1..={MAX_SECONDS}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Collects metrics, operation counts and correctness verdicts.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Report {
    /// Records a metric; a value that could not be measured (NaN or
    /// infinite) is left out of the result and fails the run.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        println!("{name:<40} {value:>16.4} {unit}");
        if value.is_finite() {
            self.metrics.push(Metric { name, value, unit });
        } else {
            self.check(false, || format!("{name} was not measured"));
        }
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Records a correctness violation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("correctness: {msg}");
            self.errors.push(msg);
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:e}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {:?}  seed {}  seconds {}  trace {}  available_parallelism {cores}",
        args.workload, args.seed, args.seconds, args.trace
    );
    // A run still going after this long is stuck (a wave that never
    // completes): it reports a failed operation and exits non-zero.
    let watchdog = Duration::from_secs_f64(4.0 * args.seconds + 90.0);
    std::thread::spawn(move || {
        std::thread::sleep(watchdog);
        eprintln!("perfbench: run did not finish within {watchdog:?}");
        println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
        std::process::exit(1);
    });
    let mut report = Report::default();

    // Set-up: stream generation and manager training, repeated so the
    // reported set-up time is a median.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut rebuild_ms = Vec::new();
    let mut trained = None;
    for _ in 0..reps {
        drop(trained.take());
        let t = Instant::now();
        let live = setup::train(args.seed, setup::LIVE, false);
        let large = setup::train(args.seed, setup::LARGE, args.trace);
        let stream = setup::live_stream(args.seed, live::week_len(args.seconds));
        setup_s.push(t.elapsed().as_secs_f64());
        rebuild_ms.extend(large.warm_rebuild_ms());
        trained = Some((live, large, stream));
    }
    let (trained, large, stream) = trained.expect("at least one set-up");
    println!(
        "live weeks: {} tweets a day, {} per source share",
        stream.tuples_per_day,
        stream.pre[0].len()
    );
    trained.check(&mut report);
    large.check(&mut report);

    let cpus = affinity::allowed_cpus();
    println!("server tags pinned to CPUs {cpus:?} in turn");
    let saturate = args.workload == Workload::Wave;
    let deployment = live::Deployment {
        trained: &trained,
        stream: &stream,
        cpus: &cpus,
        seed: args.seed,
        seconds: args.seconds,
    };
    let live_run = |saturate, traced, report: &mut Report| {
        live::run(&deployment, saturate, traced, setup::SERVERS, report)
    };
    let outcome = live_run(saturate, false, &mut report);
    if args.trace {
        let traced = live_run(saturate, true, &mut report);
        // The layer ledger compares with saturated throughput, which the
        // paced workload measures in one more run.
        let extra = (!saturate).then(|| live_run(true, false, &mut report));
        live::report_layers(
            &deployment,
            &outcome,
            &traced,
            extra.as_ref().unwrap_or(&outcome),
            &mut report,
        );
        large.report_layers(&mut report);
        let lost = trained.sim_lost_counts() + large.sim_lost_counts();
        report.metric("sim.lost_counts", lost as f64, "count");
    } else {
        report.metric("setup_s", median(&setup_s), "s");
        println!(
            "{:<40} {:>16.4} ms (not bounded; median of {} warm weeks)",
            "rebuild_ms",
            median(&rebuild_ms),
            rebuild_ms.len()
        );
        outcome.report_end_to_end(&mut report);
    }

    println!("{}", report.json());
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
