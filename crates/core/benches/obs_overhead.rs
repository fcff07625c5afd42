//! Observability overhead gate: disabled instrumentation must cost
//! nothing measurable.
//!
//! `summarize_observed(.., ObsMode::Off)` folds one extra branch per
//! block next to the summary recorder. This harness-free bench times
//! that path against the plain summary sweep over the same span,
//! interleaving min-of-N repetitions so drift in machine load hits both
//! sides equally, and exits nonzero when the obs-off sweep is more than
//! [`LIMIT_PCT`] slower.
//!
//! Where a process's stack and heap land (address-space randomisation)
//! can move either side by several percent, and by up to 30%, for the
//! life of that process: more than the limit. So the interleaved
//! measurement runs in [`TRIALS`] child processes, each one draw of
//! the layout, and the gate reads their median overhead.
//!
//! Run: `cargo bench -q -p mira-core --bench obs_overhead`

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use mira_core::{Date, Duration, ObsMode, SimConfig, SimTime, Simulation};

/// Largest tolerated obs-off slowdown over the plain sweep, percent.
const LIMIT_PCT: f64 = 2.0;

/// Child processes measured; the gate reads the median.
const TRIALS: usize = 21;

/// Interleaved rounds per trial; each side keeps its fastest.
const REPS: usize = 50;

/// The argument that makes this binary run one trial and print
/// `<plain seconds> <obs-off seconds>`.
const TRIAL_ARG: &str = "--obs-overhead-trial";

/// 122 days from March 2016 at 4 instants per day.
const STEP: Duration = Duration::from_hours(6);

fn span() -> (SimTime, SimTime) {
    (
        SimTime::from_date(Date::new(2016, 3, 1)),
        SimTime::from_date(Date::new(2016, 7, 1)),
    )
}

fn run_plain(sim: &Simulation) {
    let summary = sim
        .sweep_plan(span())
        .step(STEP)
        .threads(1)
        .summary()
        .expect("non-empty span");
    black_box(summary);
}

fn run_obs_off(sim: &Simulation) {
    let observed = sim
        .summarize_observed(span(), STEP, 1, ObsMode::Off)
        .expect("non-empty span");
    black_box(observed);
}

fn seconds(f: impl Fn()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// One trial: fastest plain and obs-off sweep over [`REPS`]
/// interleaved rounds.
fn trial() -> (f64, f64) {
    let sim = Simulation::new(SimConfig::with_seed(2014));
    // Warm both paths so lazily built engine state is paid untimed.
    run_plain(&sim);
    run_obs_off(&sim);
    let mut plain = f64::INFINITY;
    let mut off = f64::INFINITY;
    for _ in 0..REPS {
        plain = plain.min(seconds(|| run_plain(&sim)));
        off = off.min(seconds(|| run_obs_off(&sim)));
    }
    (plain, off)
}

fn main() {
    if std::env::args().any(|arg| arg == TRIAL_ARG) {
        let (plain, off) = trial();
        println!("{plain} {off}");
        return;
    }

    let exe = std::env::current_exe().expect("bench executable path");
    let mut overheads = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        let out = Command::new(&exe)
            .arg(TRIAL_ARG)
            .output()
            .expect("start a trial");
        assert!(out.status.success(), "trial failed: {out:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        let times: Vec<f64> = text
            .split_whitespace()
            .map(|t| t.parse().expect("trial prints seconds"))
            .collect();
        let [plain, off] = times[..] else {
            panic!("trial printed {text:?}");
        };
        let overhead_pct = (off - plain) / plain * 100.0;
        println!(
            "obs-overhead trial: plain={:.3} ms, obs-off={:.3} ms, overhead={overhead_pct:+.2}%",
            plain * 1e3,
            off * 1e3,
        );
        overheads.push(overhead_pct);
    }

    overheads.sort_by(f64::total_cmp);
    let median = overheads[TRIALS / 2];
    println!("obs-overhead gate: median overhead={median:+.2}% (limit {LIMIT_PCT:.2}%)");
    if median > LIMIT_PCT {
        eprintln!("obs-overhead gate FAILED: disabled instrumentation must be free");
        std::process::exit(1);
    }
    println!("obs-overhead gate: OK");
}
