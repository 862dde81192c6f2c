//! The Section 5 phase of a traced run: the paper's Section 5 as a
//! single-threaded batch job over traces derived from the workload seed.
//!
//! One sweep computes the Figure 2/3 weighted loss of Tail-Drop and
//! Greedy (through `server_only` and the full `simulate` engine) and of
//! Optimal (the unit chain solver, cold, and a warm `OptimalSweep`)
//! over the 26-point buffer sweep at 1.1× and 0.9× the mean rate, then
//! the Figure 5 whole-frame optima (frame DP) and one 4-session
//! weighted-fair `Mux` run. No smoothd code runs here. The phase runs
//! a few whole sweeps and fills only per-layer metrics: its figures
//! follow the host's speed, which drifts by half, more than the code.

use std::time::{Duration, Instant};

use rts_core::policy::{GreedyByteValue, TailDrop};
use rts_core::tradeoff::SmoothingParams;
use rts_mux::{Mux, SessionSpec, WeightedFair};
use rts_offline::{
    optimal_frame_benefit, optimal_unit_benefit, optimal_unit_throughput, OptimalSweep,
};
use rts_sim::{run_server_only, simulate, validate, SimConfig};
use rts_stream::slicing::{FrameSizeTrace, Slicing};
use rts_stream::weight::WeightAssignment;
use rts_stream::{Bytes, InputStream};

use crate::hist::median;
use crate::inputs::{section5_trace, Digest, CANONICAL_SEED};
use crate::Ctx;

/// Rate factors of Figures 2 and 3.
const FACTORS: [f64; 2] = [1.1, 0.9];
/// Figure 5 buffer sizes, in multiples of the largest frame.
const FIG5_KS: [f64; 14] = [
    0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 26.0,
];
const MUX_SESSIONS: u64 = 4;
const MUX_DELAY: u64 = 8;
const MUX_FACTOR: f64 = 0.9;
const SETUP_ROUNDS: usize = 5;
const SWEEPS: u64 = 3;

/// The seeded traces: the Section 5 trace (the canonical one at
/// [`CANONICAL_SEED`]) and one trace per multiplexed session.
pub struct Inputs {
    trace: FrameSizeTrace,
    mux: Vec<FrameSizeTrace>,
    /// Digest of every generated frame.
    pub digest: Digest,
}

impl Inputs {
    /// Generates the inputs of workload seed `seed`.
    pub fn generate(seed: u64) -> Inputs {
        let trace = section5_trace(seed, 0);
        let mux: Vec<FrameSizeTrace> = (1..=MUX_SESSIONS)
            .map(|i| section5_trace(seed, i))
            .collect();
        let mut digest = Digest::default();
        for t in std::iter::once(&trace).chain(&mux) {
            digest.add_trace(t);
        }
        Inputs { trace, mux, digest }
    }
}

/// The traces as the engines consume them.
struct Streams {
    bytes: InputStream,
    frames: InputStream,
    mux: Vec<InputStream>,
}

fn materialize(inputs: &Inputs) -> Streams {
    let w = WeightAssignment::MPEG_12_8_1;
    Streams {
        bytes: inputs.trace.materialize(Slicing::PerByte, w),
        frames: inputs.trace.materialize(Slicing::WholeFrame, w),
        mux: inputs
            .mux
            .iter()
            .map(|t| t.materialize(Slicing::PerByte, w))
            .collect(),
    }
}

fn rate_at(trace: &FrameSizeTrace, factor: f64) -> Bytes {
    (trace.average_rate() * factor).round().max(1.0) as Bytes
}

/// Time spent in one engine and the slices it was given.
#[derive(Debug, Default, Clone, Copy)]
struct Engine {
    time: Duration,
    calls: u64,
    slices: u64,
}

impl Engine {
    fn time<T>(&mut self, slices: usize, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.time += started.elapsed();
        self.calls += 1;
        self.slices += slices as u64;
        out
    }

    fn ns_per_slice(&self) -> f64 {
        self.time.as_nanos() as f64 / self.slices.max(1) as f64
    }
}

#[derive(Debug, Default)]
struct Engines {
    tail_so: Engine,
    greedy_so: Engine,
    sim_tail: Engine,
    sim_greedy: Engine,
    unit_chain: Engine,
    analyze: Engine,
    warm: Engine,
    frame_dp: Engine,
    mux: Engine,
}

/// One Figure 2/3 row: `(k, buffer, tail, greedy, optimal)` losses.
type Row = (u64, Bytes, f64, f64, f64);

struct Sweep {
    elapsed: Duration,
    rows: [Vec<Row>; 2],
}

/// One whole Section 5 result. Checks run outside the timed calls.
fn one_sweep(
    ctx: &mut Ctx,
    inputs: &Inputs,
    s: &Streams,
    e: &mut Engines,
    index: u64,
) -> Result<Sweep, String> {
    let started = Instant::now();
    let root = ctx.tracer.open("section5.sweep", 0, index);
    let n = s.bytes.slice_count();
    let total_weight = s.bytes.total_weight() as f64;
    let t0 = Instant::now();
    let warm = e
        .analyze
        .time(n, || OptimalSweep::new(&s.bytes))
        .map_err(|err| format!("OptimalSweep::new: {err}"))?;
    ctx.tracer
        .span("rts-offline.sweep_analyze", t0, Instant::now(), root, index);
    let max_frame = inputs.trace.max_frame_bytes();
    let mut rows: [Vec<Row>; 2] = [Vec::new(), Vec::new()];
    for (fi, &factor) in FACTORS.iter().enumerate() {
        let rate = rate_at(&inputs.trace, factor);
        for k in 1..=26u64 {
            let b = k * max_frame;
            let params = SmoothingParams::balanced_from_buffer_rate(b, rate, 1);
            let request = index * 1000 + fi as u64 * 100 + k;
            let point = ctx.tracer.open("section5.point", root, request);
            let tail = e
                .tail_so
                .time(n, || run_server_only(&s.bytes, b, rate, TailDrop::new()));
            let greedy = e.greedy_so.time(n, || {
                run_server_only(&s.bytes, b, rate, GreedyByteValue::new())
            });
            let sim_tail = e.sim_tail.time(n, || {
                simulate(&s.bytes, SimConfig::new(params), TailDrop::new())
            });
            let sim_greedy = e.sim_greedy.time(n, || {
                simulate(&s.bytes, SimConfig::new(params), GreedyByteValue::new())
            });
            let opt = e
                .unit_chain
                .time(n, || optimal_unit_benefit(&s.bytes, b, rate))
                .map_err(|err| format!("optimal_unit_benefit: {err}"))?;
            let warm_opt = e.warm.time(0, || warm.benefit(b, rate));
            ctx.tracer.close(point);

            let throughput = optimal_unit_throughput(&s.bytes, b, rate)
                .map_err(|err| format!("optimal_unit_throughput: {err}"))?;
            let ok = validate(&sim_tail).is_ok()
                && validate(&sim_greedy).is_ok()
                && tail.throughput == throughput
                && opt == warm_opt
                && [
                    tail.benefit,
                    greedy.benefit,
                    sim_tail.metrics.benefit,
                    sim_greedy.metrics.benefit,
                ]
                .iter()
                .all(|&online| online <= opt);
            point_result(ctx, ok, || {
                format!(
                    "factor {factor} k {k}: simulate validates, Thm 3.5 throughput, warm = cold optimum, optimum >= online"
                )
            });
            rows[fi].push((
                k,
                b,
                tail.weighted_loss(),
                greedy.weighted_loss(),
                1.0 - opt as f64 / total_weight,
            ));
        }
    }
    let rate = rate_at(&inputs.trace, 1.0);
    let frames = s.frames.slice_count();
    for k in FIG5_KS {
        let b = (k * max_frame as f64).round() as Bytes;
        let t = Instant::now();
        let frame_opt = e
            .frame_dp
            .time(frames, || optimal_frame_benefit(&s.frames, b, rate))
            .map_err(|err| format!("optimal_frame_benefit: {err}"))?;
        ctx.tracer
            .span("rts-offline.frame_dp", t, Instant::now(), root, index);
        let byte_opt = e.warm.time(0, || warm.benefit(b, rate));
        point_result(ctx, frame_opt <= byte_opt, || {
            format!("fig5 k {k}: whole-frame optimum <= byte optimum")
        });
    }
    let rates: Vec<Bytes> = s
        .mux
        .iter()
        .map(|m| m.stats().rate_at(MUX_FACTOR))
        .collect();
    let link: Bytes = rates.iter().sum();
    let specs: Vec<SessionSpec> = s
        .mux
        .iter()
        .zip(&rates)
        .map(|(m, &r)| {
            let params = SmoothingParams::balanced_from_rate_delay(r, MUX_DELAY, 1);
            SessionSpec::new(m.clone(), params, Box::new(GreedyByteValue::new())).with_weight(r)
        })
        .collect();
    let mux_slices: usize = s.mux.iter().map(|m| m.slice_count()).sum();
    let t = Instant::now();
    let report = e.mux.time(mux_slices, || {
        let mut mux = Mux::new(link, WeightedFair::new());
        for spec in specs {
            mux.admit(spec)
                .expect("sum of nominal rates equals the link rate");
        }
        mux.run()
    });
    ctx.tracer
        .span("rts-mux.wfq_run", t, Instant::now(), root, index);
    point_result(
        ctx,
        report.max_slot_sent() <= link && report.delivered_weight() <= report.offered_weight(),
        || "mux: link never oversubscribed, delivered <= offered".into(),
    );
    ctx.tracer.close(root);
    Ok(Sweep {
        elapsed: started.elapsed(),
        rows,
    })
}

/// Counts one checked point; a failing one is recorded by name.
fn point_result(ctx: &mut Ctx, ok: bool, what: impl FnOnce() -> String) {
    ctx.report.attempted += 1;
    if !ok {
        ctx.report.failed += 1;
        ctx.report.check(what(), false);
    }
}

/// Compares losses with a committed figure CSV (two decimals, percent).
fn matches_csv(rows: &[Row], csv: &str) -> bool {
    let want: Vec<&str> = csv.lines().skip(1).filter(|l| !l.is_empty()).collect();
    want.len() == rows.len()
        && rows
            .iter()
            .zip(want)
            .all(|(&(k, b, tail, greedy, opt), line)| {
                let got = format!(
                    "{k},{b},{:.2},{:.2},{:.2}",
                    tail * 100.0,
                    greedy * 100.0,
                    opt * 100.0
                );
                got == line.trim_end()
            })
}

/// Runs the phase.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut kept = None;
    for round in 0..SETUP_ROUNDS as u64 {
        let started = Instant::now();
        let inputs = Inputs::generate(ctx.seed);
        let streams = materialize(&inputs);
        let ended = Instant::now();
        ctx.tracer
            .span("rts-stream.generate", started, ended, 0, round);
        setups.push((ended - started).as_secs_f64());
        kept = Some((inputs, streams));
    }
    let (inputs, streams) = kept.expect("at least one set-up round");
    println!("section5 inputs digest {}", inputs.digest.hex());
    ctx.report.set(
        "rts-stream.gen_s",
        median(&setups),
        format!("median of {SETUP_ROUNDS}: trace generation + materialization"),
    );

    let mut engines = Engines::default();
    let failed_before = ctx.report.failed;
    let sweeps = (0..SWEEPS)
        .map(|index| one_sweep(ctx, &inputs, &streams, &mut engines, index))
        .collect::<Result<Vec<_>, _>>()?;
    let failed = ctx.report.failed - failed_before;
    ctx.report.check(
        format!("section5: every sweep point and mux run checked, {failed} failed"),
        failed == 0,
    );

    if ctx.seed == CANONICAL_SEED {
        let rows = &sweeps[0].rows;
        ctx.report.check(
            "canonical seed: Figure 2 losses equal results/fig2.csv",
            matches_csv(&rows[0], include_str!("../../results/fig2.csv")),
        );
        ctx.report.check(
            "canonical seed: Figure 3 losses equal results/fig3.csv",
            matches_csv(&rows[1], include_str!("../../results/fig3.csv")),
        );
    }
    ctx.report.check(
        "every sweep reproduces the first sweep's losses",
        sweeps.iter().all(|s| s.rows == sweeps[0].rows),
    );

    let times: Vec<f64> = sweeps.iter().map(|s| s.elapsed.as_secs_f64()).collect();
    ctx.report.set(
        "sweep_s",
        median(&times),
        format!("median of {SWEEPS} sweeps"),
    );
    let e = &engines;
    for (name, engine) in [
        ("rts-sim.simulate_ns_per_slice.tail", e.sim_tail),
        ("rts-sim.simulate_ns_per_slice.greedy", e.sim_greedy),
        ("rts-sim.server_only_ns_per_slice.tail", e.tail_so),
        ("rts-sim.server_only_ns_per_slice.greedy", e.greedy_so),
        ("rts-offline.unit_chain_ns_per_slice", e.unit_chain),
        ("rts-mux.wfq_ns_per_slice", e.mux),
    ] {
        ctx.report.set(
            name,
            engine.ns_per_slice(),
            format!("{} calls", engine.calls),
        );
    }
    ctx.report.set(
        "rts-offline.sweep_analyze_s",
        e.analyze.time.as_secs_f64() / e.analyze.calls.max(1) as f64,
        format!("mean of {} calls", e.analyze.calls),
    );
    ctx.report.set(
        "rts-offline.sweep_ns_per_point",
        e.warm.time.as_nanos() as f64 / e.warm.calls.max(1) as f64,
        format!("{} points", e.warm.calls),
    );
    ctx.report.set(
        "rts-offline.frame_dp_ns_per_frame",
        e.frame_dp.ns_per_slice(),
        format!("{} calls", e.frame_dp.calls),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_comparison_is_exact_to_two_decimals() {
        let csv = "k_max_frames,buffer,tail_drop,greedy,optimal\n1,120,7.84,1.80,0.74\n";
        assert!(matches_csv(&[(1, 120, 0.0784, 0.018, 0.0074)], csv));
        assert!(!matches_csv(&[(1, 120, 0.0785, 0.018, 0.0074)], csv));
        assert!(!matches_csv(&[], csv));
    }
}
