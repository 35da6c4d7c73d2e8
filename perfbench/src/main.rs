//! End-to-end benchmark of Query From Examples, with an outside-in layer
//! trace. See `perfbench/README.md` for the workloads, the metrics and why
//! they are what they are.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oracle-small --seed 1 --seconds 45 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones.
//! `--record` prints the per-round values every run is checked against.

mod engine;
mod expected;
mod fleet;
mod speed;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use qfe_bench::{default_params, Scale};

use engine::{Example, SessionRecord};
use stats::{median, peak_rss_mb, summarize, Tally};
use trace::{ms, Layers, Metric};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    OracleSmall,
    HttpFleetChurn,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "oracle-small" => Some(Workload::OracleSmall),
            "http-fleet-churn" => Some(Workload::HttpFleetChurn),
            _ => None,
        }
    }

    /// Seconds one rotation (every example once) takes at the commit that
    /// introduced the benchmark, on a 2-vCPU x86-64 box, with its set-ups
    /// and probes. A run holds `seconds / rotation_seconds` rotations,
    /// fixed before it starts, so every commit measures the same sessions
    /// and every percentile is taken over the same mix of rounds. The box's
    /// speed drifts by tens of percent over seconds to minutes; these are
    /// figures from a slow stretch, so that a run stays within its time on
    /// a slow machine.
    fn rotation_seconds(self) -> f64 {
        match self {
            Workload::OracleSmall => 7.3,
            Workload::HttpFleetChurn => 1.15,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    /// Rotations in each of `passes` passes over the same plan. A traced
    /// run makes several passes (untraced, then traced), so that it takes
    /// about as long as an untraced one.
    fn rotations(&self, passes: usize) -> usize {
        let planned = (self.seconds / self.workload.rotation_seconds()).round();
        (planned / passes as f64).round().max(1.0) as usize
    }
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--record" {
            return Ok(None);
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The session order: `rotations` seeded permutations of the examples.
/// Every seed runs the same multiset of sessions.
fn plan(examples: usize, rotations: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut order = Vec::with_capacity(examples * rotations);
    for _ in 0..rotations {
        let mut rotation: Vec<usize> = (0..examples).collect();
        for i in (1..rotation.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            rotation.swap(i, j);
        }
        order.extend(rotation);
    }
    order
}

/// How a session compared with what it must repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Checked {
    /// Every round repeated.
    Exact,
    /// The rounds repeated up to one whose skyline stopped at δ, and
    /// differed from there on. Such a round keeps what was enumerated by
    /// the deadline, so a slower machine may keep fewer pairs and steer
    /// the rest of the session elsewhere; only the final answer is then
    /// checked.
    CutAtDelta,
}

/// Checks one session against the recorded rounds for its example, and
/// that it ends on a query that reproduces `R`.
fn check(ex: &Example, key: &str, rec: &SessionRecord, traced: bool) -> Result<Checked, String> {
    match &rec.final_query {
        Some(q) if !engine::reproduces(q, ex) => {
            return Err(format!("{}: final query {q} does not reproduce R", ex.name))
        }
        None => return Err(format!("{}: no final answer", ex.name)),
        _ => {}
    }
    let want = expected::rounds(key).ok_or(format!("{key}: no recorded rounds"))?;
    compare_rounds(key, &rec.rounds, want, traced)
}

/// Compares shown rounds with the recorded ones: effort, skyline pairs
/// kept and, for the traced replay, pick's cost evaluations. A difference
/// at a round whose skyline stopped at δ, in this run or in the recording,
/// ends the comparison; any other difference fails.
fn compare_rounds(
    key: &str,
    rounds: &[engine::RoundRecord],
    want: expected::Rounds,
    traced: bool,
) -> Result<Checked, String> {
    for (i, (r, w)) in rounds.iter().zip(want).enumerate() {
        let evals = if traced {
            r.cost_evaluations.unwrap_or(0)
        } else {
            w.2
        };
        let got = (r.effort, r.skyline_pairs, evals);
        if got == (w.0, w.1, w.2) {
            continue;
        }
        if r.delta_cut || w.3 {
            return Ok(Checked::CutAtDelta);
        }
        return Err(format!(
            "{key}: round {} (effort, skyline pairs, cost evaluations) {got:?}, recorded {w:?}",
            i + 1
        ));
    }
    if rounds.len() != want.len() {
        return Err(format!(
            "{key}: {} rounds, recorded {}",
            rounds.len(),
            want.len()
        ));
    }
    Ok(Checked::Exact)
}

/// The same session as the engine ran it, round for round, up to a round
/// whose skyline stopped at δ in either run.
fn check_replay(
    ex: &Example,
    engine: &SessionRecord,
    traced: &SessionRecord,
) -> Result<Checked, String> {
    for (e, t) in engine.rounds.iter().zip(&traced.rounds) {
        if e.edits == t.edits && e.groups == t.groups {
            continue;
        }
        if e.delta_cut || t.delta_cut {
            return Ok(Checked::CutAtDelta);
        }
        return Err(format!(
            "{}: traced replay diverged from the engine",
            ex.name
        ));
    }
    if engine.rounds.len() != traced.rounds.len() {
        return Err(format!(
            "{}: traced replay showed {} rounds, the engine {}",
            ex.name,
            traced.rounds.len(),
            engine.rounds.len()
        ));
    }
    Ok(Checked::Exact)
}

/// What one pass over the plan produced.
#[derive(Default)]
struct Pass {
    /// One entry per planned session, `None` where the session failed.
    records: Vec<Option<SessionRecord>>,
    /// Wall time of the pass minus the simulated user's and the probes'
    /// time.
    system_ms: f64,
}

impl Pass {
    fn push(&mut self, tally: &mut Tally, outcome: Result<(SessionRecord, Checked), String>) {
        match outcome {
            Ok((rec, checked)) => {
                tally.record(Ok(()));
                tally.cut_at_delta += u64::from(checked == Checked::CutAtDelta);
                self.records.push(Some(rec));
            }
            Err(e) => {
                tally.record(Err(e));
                self.records.push(None);
            }
        }
    }

    fn ok(&self) -> impl Iterator<Item = &SessionRecord> {
        self.records.iter().flatten()
    }
}

/// The end-to-end metrics. Every wait is taken at the reference speed
/// (see `speed.rs`); the detail line also gives the raw medians and the
/// probe's median time, which shows how fast the machine ran.
fn end_to_end(pass: &Pass, tally: &Tally, setup_s: f64, detail: &mut Vec<String>) -> Vec<Metric> {
    let m = |name, unit, value| Metric { name, unit, value };
    // Failed sessions have no timings; they count in `ok_frac` and make
    // the run incorrect.
    let sessions = pass.ok().count().max(1) as f64;
    let waits: Vec<(f64, Vec<f64>)> = pass.ok().map(|r| r.scaled_waits()).collect();
    let first: Vec<f64> = waits.iter().map(|w| w.0).collect();
    let rounds: Vec<f64> = waits.iter().flat_map(|w| w.1.clone()).collect();
    let raw_first: Vec<f64> = pass.ok().map(|r| r.first_round_ms).collect();
    let raw_rounds: Vec<f64> = pass.ok().flat_map(|r| r.round_ms.clone()).collect();
    let probes: Vec<f64> = pass.ok().flat_map(|r| r.probes_ms.clone()).collect();
    detail.push(format!(
        "\"probe_ms_p50\":{},\"raw_first_round_ms_p50\":{},\"raw_round_ms_p50\":{}",
        median(&probes),
        summarize(&raw_first).unwrap_or_default().p50,
        summarize(&raw_rounds).unwrap_or_default().p50
    ));
    let mut out = vec![m("setup_s", "s", setup_s)];
    for (p50, tail, samples) in [
        ("first_round_ms_p50", "first_round_ms_tail", &first),
        ("round_ms_p50", "round_ms_tail", &rounds),
    ] {
        let s = summarize(samples).unwrap_or_default();
        detail.push(format!(
            "\"{tail}\":{{\"samples\":{},\"tail_percentile\":{},\"beyond_tail\":{}}}",
            s.samples, s.tail_percentile, s.beyond
        ));
        out.push(m(p50, "ms", s.p50));
        out.push(m(tail, "ms", s.tail));
    }
    let waited_s = (first.iter().sum::<f64>() + rounds.iter().sum::<f64>()) / 1e3;
    let shown: usize = pass.ok().map(|r| r.rounds.len()).sum();
    let effort: usize = pass
        .ok()
        .flat_map(|r| r.rounds.iter().map(|x| x.effort))
        .sum();
    out.extend([
        m("sessions_per_s", "1/s", sessions / waited_s),
        m("rounds_per_session", "count", shown as f64 / sessions),
        m("effort_cost_per_session", "cells", effort as f64 / sessions),
        m("peak_rss_mb", "MB", peak_rss_mb()),
        m("ok_frac", "ratio", tally.ok_frac()),
    ]);
    out
}

/// The set-up times of one run, in seconds at the reference speed (see
/// `speed.rs`). A run sets up once before the plan and, when untraced,
/// once more after every session: a set-up takes 10–30 ms and the
/// machine's speed drifts over seconds, so the samples are spread over the
/// whole run rather than timed back to back. The extra set-ups are left
/// out of every session time.
#[derive(Default)]
struct SetupTimes(Vec<f64>);

impl SetupTimes {
    fn time<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let (value, scaled_ms) = speed::time_scaled(setup);
        self.0.push(scaled_ms / 1e3);
        value
    }

    fn median(&self) -> f64 {
        median(&self.0)
    }
}

struct RunResult {
    tally: Tally,
    metrics: Vec<Metric>,
    detail: Vec<String>,
}

fn run_engine_workload(args: &Args) -> Result<RunResult, String> {
    let make = || Ok(engine::small_examples());
    let mut setups = SetupTimes::default();
    let examples = setups.time(make)?;
    let params = default_params(Scale::Small);
    let key = |ex: &Example| expected::key(&ex.name);
    // Traced: the engine pass, then each session replayed without and
    // with timing.
    let rotations = args.rotations(if args.trace { 3 } else { 1 });
    let order = plan(examples.len(), rotations, args.seed);
    let mut tally = Tally::default();
    let mut untraced = Pass::default();
    for &i in &order {
        let ex = &examples[i];
        let start = Instant::now();
        let rec = engine::run_engine(ex, &params)
            .and_then(|rec| check(ex, &key(ex), &rec, false).map(|c| (rec, c)));
        untraced.system_ms +=
            ms(start.elapsed()) - rec.as_ref().map_or(0.0, |(r, _)| r.outside_ms());
        untraced.push(&mut tally, rec);
        if !args.trace {
            setups.time(make)?;
        }
    }
    let mut detail = vec![format!("\"sessions\":{}", order.len())];
    if !args.trace {
        let metrics = end_to_end(&untraced, &tally, setups.median(), &mut detail);
        return Ok(RunResult {
            tally,
            metrics,
            detail,
        });
    }
    let mut layers = Layers::default();
    let (mut untimed, mut timed_pass) = (Pass::default(), Pass::default());
    for (n, (&i, engine_rec)) in order.iter().zip(&untraced.records).enumerate() {
        let ex = &examples[i];
        // Alternate which replay goes first, so that neither always meets
        // the caches the other left warm.
        let clocks = if n % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for clock in clocks {
            trace::set_clock(clock);
            let mut scratch = Layers::default();
            let slot = if clock { &mut layers } else { &mut scratch };
            let start = Instant::now();
            let rec = engine::run_traced(ex, &params, slot);
            let elapsed = ms(start.elapsed()) - rec.as_ref().map_or(0.0, |r| r.oracle_ms);
            let rec = rec.and_then(|rec| {
                let checked = check(ex, &key(ex), &rec, true)?;
                let engine_rec = engine_rec
                    .as_ref()
                    .ok_or(format!("{}: no engine session to compare with", ex.name))?;
                let replayed = check_replay(ex, engine_rec, &rec)?;
                Ok((rec, checked.max(replayed)))
            });
            let pass = if clock { &mut timed_pass } else { &mut untimed };
            pass.system_ms += elapsed;
            if clock {
                layers.oracle_ms += rec.as_ref().map_or(0.0, |(r, _)| r.oracle_ms);
            }
            pass.push(&mut tally, rec);
        }
    }
    trace::set_clock(true);
    Ok(traced_result(tally, &layers, &timed_pass, &untimed, detail))
}

fn traced_result(
    tally: Tally,
    layers: &Layers,
    traced: &Pass,
    untraced: &Pass,
    detail: Vec<String>,
) -> RunResult {
    let metrics = layers.metrics(traced.records.len(), traced.system_ms, untraced.system_ms);
    RunResult {
        tally,
        metrics,
        detail,
    }
}

/// A store directory inside the checkout. The process id is zero-padded so
/// that path lengths, and with them the program's allocations, do not vary
/// from run to run.
fn temp_dir(tag: &str) -> PathBuf {
    PathBuf::from(".perfbench_tmp").join(format!("{:010}-{tag}", std::process::id()))
}

fn run_fleet_workload(args: &Args) -> Result<RunResult, String> {
    let mut made = 0;
    let mut make = || {
        made += 1;
        let tpl = fleet::template();
        let fleet = fleet::Fleet::start(&temp_dir(&format!("setup{made}")), false)?;
        Ok((tpl, fleet))
    };
    let mut setups = SetupTimes::default();
    let (tpl, fleet) = setups.time(&mut make)?;
    // Traced: the plain fleet, then the traced one, which takes about twice
    // as long because it replays every parse; a third of the plan each.
    let sessions = args.rotations(if args.trace { 3 } else { 1 });
    let key = expected::key(&tpl.example.name);
    let mut tally = Tally::default();
    // Alternate explicit resume and rehydrate-on-step across the run,
    // starting on the seed's parity.
    let mut parity = args.seed;
    let mut pass = |fleet: &fleet::Fleet,
                    tally: &mut Tally,
                    mut layers: Option<&mut Layers>,
                    mut setups: Option<&mut SetupTimes>|
     -> Result<Pass, String> {
        let mut client = fleet.client();
        let mut out = Pass::default();
        for _ in 0..sessions {
            let explicit = || {
                parity += 1;
                parity.is_multiple_of(2)
            };
            let start = Instant::now();
            let rec = fleet::run_session(&mut client, &tpl, explicit, layers.as_deref_mut())
                .and_then(|rec| check(&tpl.example, &key, &rec, false).map(|c| (rec, c)));
            out.system_ms +=
                ms(start.elapsed()) - rec.as_ref().map_or(0.0, |(r, _)| r.outside_ms());
            out.push(tally, rec);
            if let Some(setups) = setups.as_deref_mut() {
                // Timed, then shut down and removed outside any session.
                drop(setups.time(&mut make)?);
            }
        }
        Ok(out)
    };
    let interleave = (!args.trace).then_some(&mut setups);
    let untraced = pass(&fleet, &mut tally, None, interleave)?;
    drop(fleet);
    let mut detail = vec![format!("\"sessions\":{sessions}")];
    if !args.trace {
        let metrics = end_to_end(&untraced, &tally, setups.median(), &mut detail);
        return Ok(RunResult {
            tally,
            metrics,
            detail,
        });
    }
    let traced_fleet = fleet::Fleet::start(&temp_dir("traced"), true)?;
    let mut layers = Layers::default();
    let traced = pass(&traced_fleet, &mut tally, Some(&mut layers), None)?;
    traced_fleet.collect(&mut layers);
    drop(traced_fleet);
    Ok(traced_result(tally, &layers, &traced, &untraced, detail))
}

fn record() -> Result<(), String> {
    let params = default_params(Scale::Small);
    for ex in &engine::small_examples() {
        let rec = engine::run_traced(ex, &params, &mut Layers::default())?;
        let rounds: Vec<String> = rec
            .rounds
            .iter()
            .map(|r| {
                format!(
                    "({}, {}, {}, {})",
                    r.effort,
                    r.skyline_pairs,
                    r.cost_evaluations.unwrap_or(0),
                    r.delta_cut
                )
            })
            .collect();
        println!(
            "    (\"{}\", &[{}]),",
            expected::key(&ex.name),
            rounds.join(", ")
        );
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            if let Err(e) = record() {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Before any thread starts, so that all of them inherit it.
    let cpu = speed::pin_to_current_cpu();
    let run = match args.workload {
        Workload::HttpFleetChurn => run_fleet_workload(&args),
        _ => run_engine_workload(&args),
    };
    let _ = std::fs::remove_dir(".perfbench_tmp");
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for e in &run.tally.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let mut detail = run.detail;
    detail.push(format!("\"cut_at_delta\":{}", run.tally.cut_at_delta));
    detail.push(format!(
        "\"pinned_cpu\":{}",
        cpu.map_or("null".into(), |c| c.to_string())
    ));
    println!("{{\"detail\":{{{}}}}}", detail.join(","));
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.tally.failed == 0 && run.tally.attempted > 0,
        run.tally.attempted,
        run.tally.failed,
        metrics.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_plans_the_same_sessions() {
        let a = plan(5, 3, 1);
        let mut b = plan(5, 3, 0xBEEF);
        assert_eq!(a.len(), 15);
        assert_ne!(a, b);
        for rotation in a.chunks(5) {
            let mut r = rotation.to_vec();
            r.sort_unstable();
            assert_eq!(r, vec![0, 1, 2, 3, 4]);
        }
        let mut a = a;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(plan(5, 3, 7), plan(5, 3, 7));
    }

    #[test]
    fn rounds_after_a_delta_cut_may_differ_and_others_may_not() {
        let round = |effort, pairs, evals, delta_cut| engine::RoundRecord {
            effort,
            skyline_pairs: pairs,
            cost_evaluations: Some(evals),
            delta_cut,
            ..Default::default()
        };
        const WANT: expected::Rounds = &[(6, 3, 6, true), (5, 702, 1214, false)];
        let same = [round(6, 3, 6, true), round(5, 702, 1214, false)];
        assert_eq!(compare_rounds("k", &same, WANT, true), Ok(Checked::Exact));
        // A slower run kept fewer pairs at the cut round, and the session
        // went elsewhere from there, with a different round count.
        let slower = [
            round(6, 2, 4, true),
            round(5, 90, 99, false),
            round(4, 1, 1, false),
        ];
        assert_eq!(
            compare_rounds("k", &slower, WANT, true),
            Ok(Checked::CutAtDelta)
        );
        // A round that finished within δ must repeat.
        let wrong = [round(6, 3, 6, true), round(5, 701, 1214, false)];
        assert!(compare_rounds("k", &wrong, WANT, true).is_err());
        // So must the pick evaluations of the traced replay, but the
        // untraced run does not know them.
        let evals = [round(6, 3, 6, true), round(5, 702, 1, false)];
        assert!(compare_rounds("k", &evals, WANT, true).is_err());
        assert_eq!(compare_rounds("k", &evals, WANT, false), Ok(Checked::Exact));
        // This run's own cut excuses a difference too.
        const UNCUT: expected::Rounds = &[(5, 48, 304, false)];
        let cut_here = [round(5, 37, 197, true)];
        assert_eq!(
            compare_rounds("k", &cut_here, UNCUT, true),
            Ok(Checked::CutAtDelta)
        );
        assert!(compare_rounds("k", &same[..1], &[], true).is_err());
    }

    #[test]
    fn failed_sessions_count_and_keep_their_place() {
        let mut tally = Tally::default();
        let mut pass = Pass::default();
        pass.push(&mut tally, Ok((SessionRecord::default(), Checked::Exact)));
        pass.push(&mut tally, Err("boom".into()));
        pass.push(
            &mut tally,
            Ok((SessionRecord::default(), Checked::CutAtDelta)),
        );
        assert_eq!(pass.records.len(), 3);
        assert_eq!(pass.ok().count(), 2);
        assert_eq!(
            (tally.attempted, tally.failed, tally.cut_at_delta),
            (3, 1, 1)
        );
        assert!((tally.failed_frac() - 1.0 / 3.0).abs() < 1e-12);
    }
}
