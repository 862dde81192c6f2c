//! The resident phase of a traced run: 250 000 unbounded balanced CBR
//! sessions (Tail-Drop, rate 4, D = 4, slice = rate) on one free-running
//! shard.
//!
//! At about 1.6 KB per session the working set is larger than the last
//! level cache, so the per-session memory layout sets the slot cost.
//! The phase admits the population with one `admit_batch`, measures a
//! window aligned to slot boundaries, takes `Daemon::snapshot`, decodes
//! it with a standalone `read_snapshot`, restores it into a fresh
//! daemon, and replays the population on this thread to split a slot
//! into its session passes.
//!
//! Its figures follow the host's shared memory system more than the
//! code, too much to gate on, so it runs only in traced runs and only
//! fills per-layer metrics.

use std::time::{Duration, Instant};

use rts_core::policy::TailDrop;
use rts_core::ServerStep;
use rts_obs::LogHistogram;
use rts_smoothd::{
    read_snapshot, AdmitRequest, ArrivalSource, Daemon, DaemonConfig, DaemonReport, LiveSession,
    SessionCounters, Shard, SlotPacing, WirePolicy,
};

use crate::hist::{self, sample_quantile};
use crate::Ctx;

/// Sessions requested.
const SESSIONS: u64 = 250_000;
const RATE: u64 = 4;
const DELAY: u64 = 4;
const LINK_DELAY: u64 = 1;
/// Slots skipped after residency so every session's pipeline is full
/// (each plays one slice per slot from then on).
const WARMUP_SLOTS: u64 = 8;
/// Shortest window, and its fewest slots: ten samples above p90.
const WINDOW: Duration = Duration::from_secs(3);
const MIN_WINDOW_SLOTS: usize = 100;
/// Untimed then timed slots of the traced replay.
const REPLAY_WARMUP: u64 = 8;
const REPLAY_SLOTS: u64 = 12;
const POLL: Duration = Duration::from_micros(100);
const PATIENCE: Duration = Duration::from_secs(120);

/// The one admission request every session shares.
fn request() -> AdmitRequest {
    AdmitRequest {
        rate: RATE,
        delay: DELAY,
        link_delay: LINK_DELAY,
        buffer: 0, // balanced B = R·D
        weight: 1,
        policy: WirePolicy::Tail,
        per_slot: RATE as u32,
        slice_size: RATE as u32,
        lifetime: 0, // unbounded
    }
}

fn link_rate() -> u64 {
    RATE * SESSIONS
}

fn config() -> DaemonConfig {
    DaemonConfig {
        shards: 1,
        shard_link_rate: link_rate(),
        overbook: (1, 1),
        queue_capacity: 4096,
        pacing: SlotPacing::Free,
        record_events: false,
        ..DaemonConfig::default()
    }
}

/// Resident set size of this process, from `/proc/self/statm`.
fn rss_bytes() -> Result<u64, String> {
    let statm = std::fs::read_to_string("/proc/self/statm").map_err(|e| format!("statm: {e}"))?;
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .ok_or("statm: no resident field")?;
    Ok(pages * 4096)
}

fn wait_resident(daemon: &Daemon, want: u64) -> Result<(), String> {
    let deadline = Instant::now() + PATIENCE;
    while daemon.live_sessions() < want {
        if Instant::now() > deadline {
            return Err(format!(
                "only {} of {want} sessions resident",
                daemon.live_sessions()
            ));
        }
        std::thread::sleep(POLL);
    }
    Ok(())
}

struct Setup {
    daemon: Daemon,
    total: Duration,
    admit: Duration,
    wait: Duration,
    resident: u64,
    rss: u64,
}

fn set_up(ctx: &mut Ctx) -> Result<Setup, String> {
    let rss_before = rss_bytes()?;
    let started = Instant::now();
    let root = ctx.tracer.open("smoothd.daemon.setup", 0, 0);
    let mut daemon = Daemon::start(config());
    let admit_started = Instant::now();
    let batch = daemon
        .admit_batch(&request(), SESSIONS)
        .map_err(|r| format!("admit_batch refused: {}", r.name()))?;
    let admitted = Instant::now();
    ctx.tracer.span(
        "smoothd.daemon.admit_batch",
        admit_started,
        admitted,
        root,
        0,
    );
    wait_resident(&daemon, batch.admitted)?;
    let resident = Instant::now();
    ctx.tracer
        .span("smoothd.daemon.residency_wait", admitted, resident, root, 0);
    ctx.tracer.close(root);
    let rss = rss_bytes()?.saturating_sub(rss_before);
    Ok(Setup {
        resident: daemon.live_sessions(),
        daemon,
        total: resident - started,
        admit: admitted - admit_started,
        wait: resident - admitted,
        rss,
    })
}

struct Window {
    slots: u64,
    played: u64,
    slot_ms: Vec<f64>,
    process: LogHistogram,
}

/// Measures a window of at least [`WINDOW`] and [`MIN_WINDOW_SLOTS`]
/// slots that opens and closes on slot boundaries, so the registry diff
/// covers whole slots only.
fn measure_window(ctx: &mut Ctx, daemon: &Daemon) -> Result<Window, String> {
    let registry = daemon.registry();
    let tel = registry.shard(0);
    let boundary = |last: u64| -> Result<(u64, Instant), String> {
        let deadline = Instant::now() + PATIENCE;
        loop {
            let s = tel.slots.get();
            if s != last {
                return Ok((s, Instant::now()));
            }
            if Instant::now() > deadline {
                return Err("shard stopped stepping".into());
            }
            std::thread::sleep(POLL);
        }
    };
    let mut at = (tel.slots.get(), Instant::now());
    for _ in 0..WARMUP_SLOTS {
        at = boundary(at.0)?;
    }
    let (s0, t0) = at;
    // The worker publishes a slot's counters right after the slot
    // counter; let that finish before reading the opening values.
    std::thread::sleep(Duration::from_millis(1));
    let open = registry.snapshot();
    let p0 = tel.played_slices.get();
    let window_span = ctx.tracer.open("smoothd.worker.window", 0, s0);
    let mut slot_ms = Vec::new();
    loop {
        let next = boundary(at.0)?;
        let k = next.0 - at.0;
        let per = (next.1 - at.1).as_secs_f64() * 1e3 / k as f64;
        slot_ms.extend(std::iter::repeat_n(per, k as usize));
        ctx.tracer
            .span("smoothd.worker.slot", at.1, next.1, window_span, next.0);
        at = next;
        if at.1 - t0 >= WINDOW && slot_ms.len() >= MIN_WINDOW_SLOTS {
            break;
        }
    }
    ctx.tracer.close(window_span);
    std::thread::sleep(Duration::from_millis(1));
    let close = registry.snapshot();
    let p1 = tel.played_slices.get();
    Ok(Window {
        slots: at.0 - s0,
        played: p1 - p0,
        slot_ms,
        process: hist::window(&open.shards[0].latency, &close.shards[0].latency),
    })
}

fn check_shutdown(ctx: &mut Ctx, what: &str, report: &DaemonReport, sessions: u64) {
    let r = &mut ctx.report;
    r.check(
        format!("{what}: evicted shutdown ledger is conserved"),
        report.totals.conserved(),
    );
    r.check(
        format!("{what}: every shard slot sent at most the link rate"),
        report.shards.iter().all(|s| s.max_slot_sent <= s.link_rate),
    );
    r.check(
        format!("{what}: {sessions} sessions retired at shutdown"),
        report.retired_sessions == sessions,
    );
}

/// Runs the phase.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let setup = set_up(ctx)?;
    let mut daemon = setup.daemon;
    ctx.report.attempted += SESSIONS;
    ctx.report.failed += SESSIONS - setup.resident.min(SESSIONS);
    ctx.report.check(
        "resident phase: resident equals requested",
        setup.resident == SESSIONS,
    );
    ctx.report.set(
        "smoothd.daemon.admit_batch_ns_per_session",
        setup.admit.as_nanos() as f64 / SESSIONS as f64,
        "",
    );
    ctx.report.set(
        "smoothd.daemon.residency_wait_s",
        setup.wait.as_secs_f64(),
        format!("set-up took {:.3} s in all", setup.total.as_secs_f64()),
    );
    ctx.report.set(
        "rss_bytes_per_session",
        setup.rss as f64 / SESSIONS as f64,
        "/proc/self/statm resident delta across admission",
    );

    let w = measure_window(ctx, &daemon)?;
    let session_slots = w.slots * SESSIONS;
    ctx.report.check(
        format!(
            "resident phase: played slices {} equal sessions x slots {session_slots}",
            w.played
        ),
        w.played == session_slots,
    );
    ctx.report.check(
        "resident phase: registry process samples equal window slots",
        w.process.count() == w.slots,
    );
    ctx.report.set(
        "ns_per_session_slot",
        w.process.sum() as f64 / session_slots as f64,
        format!("{} slots", w.slots),
    );
    for (name, q) in [("slot_p50_ms", 0.5), ("slot_p90_ms", 0.9)] {
        let v = sample_quantile(&w.slot_ms, q);
        ctx.report.set(name, v.value.unwrap_or(v.max), v.note(q));
    }
    ctx.report.set(
        "slot_samples",
        w.slot_ms.len() as f64,
        "per-slot wall times between observed slot boundaries",
    );

    let started = Instant::now();
    let (snapshotted, bytes) = daemon.snapshot();
    let snap = started.elapsed();
    ctx.tracer
        .span("smoothd.snapshot.encode", started, Instant::now(), 0, 0);
    ctx.report.check(
        "snapshot: session count equals resident",
        snapshotted == SESSIONS,
    );
    ctx.report.set("snapshot_s", snap.as_secs_f64(), "");
    ctx.report.set(
        "smoothd.snapshot.encode_ns_per_session",
        snap.as_nanos() as f64 / snapshotted.max(1) as f64,
        "",
    );
    ctx.report.set(
        "smoothd.snapshot.bytes_per_session",
        bytes.len() as f64 / snapshotted.max(1) as f64,
        "",
    );
    let report = daemon.shutdown(false);
    check_shutdown(ctx, "measured daemon", &report, SESSIONS);
    drop(report);

    let started = Instant::now();
    let decoded = read_snapshot(&bytes).map_err(|e| format!("read_snapshot: {e}"))?;
    let took = started.elapsed();
    ctx.tracer
        .span("smoothd.snapshot.decode", started, Instant::now(), 0, 0);
    ctx.report.check(
        "standalone read_snapshot decodes every session",
        decoded.len() as u64 == snapshotted,
    );
    ctx.report.set(
        "smoothd.snapshot.decode_ns_per_session",
        took.as_nanos() as f64 / snapshotted.max(1) as f64,
        "",
    );
    drop(decoded);

    let mut fresh = Daemon::start(config());
    let started = Instant::now();
    let restored = fresh.restore(&bytes).map_err(|e| format!("restore: {e}"))?;
    let returned = Instant::now();
    wait_resident(&fresh, restored)?;
    let resident = Instant::now();
    let span = ctx
        .tracer
        .span("smoothd.daemon.restore", started, resident, 0, 0);
    ctx.tracer
        .span("smoothd.daemon.restore_call", started, returned, span, 0);
    ctx.report.check(
        "restore: restored count equals resident",
        restored == snapshotted,
    );
    ctx.report.check(
        "restore: every restored session is resident",
        fresh.live_sessions() == restored,
    );
    ctx.report
        .set("restore_s", (resident - started).as_secs_f64(), "");
    ctx.report.set(
        "smoothd.daemon.restore_ns_per_session",
        (returned - started).as_nanos() as f64 / restored.max(1) as f64,
        "restore call until it returns",
    );
    drop(bytes);
    let report = fresh.shutdown(false);
    check_shutdown(ctx, "restored daemon", &report, restored);
    drop(report);
    replay(ctx)
}

/// Steps the same population on this thread twice: once as a `Shard`,
/// once as plain sessions split into the begin-slot and step passes.
/// Granting each session its demand is exact here: demand is at most
/// the session rate and the rates sum to the link rate, so the fair
/// share never binds.
fn replay(ctx: &mut Ctx) -> Result<(), String> {
    let req = request();
    let mut shard = Shard::new(0, link_rate(), (1, 1));
    for id in 1..=SESSIONS {
        shard
            .admit(id, &req)
            .map_err(|r| format!("replay admit refused: {}", r.name()))?;
    }
    let mut process = Duration::ZERO;
    for slot in 0..REPLAY_WARMUP + REPLAY_SLOTS {
        let started = Instant::now();
        shard.process_slot();
        let ended = Instant::now();
        if slot >= REPLAY_WARMUP {
            process += ended - started;
            ctx.tracer
                .span("smoothd.shard.process_slot", started, ended, 0, slot);
        }
    }
    let shard_totals = shard.totals();
    drop(shard);

    let params = Shard::params_of(&req).map_err(|r| format!("params: {}", r.name()))?;
    let mut sessions: Vec<LiveSession> = (1..=SESSIONS)
        .map(|id| {
            LiveSession::new(
                id,
                params,
                req.weight.max(1),
                Box::new(TailDrop::new()),
                ArrivalSource::cbr(RATE, RATE, req.weight.max(1), None),
            )
        })
        .collect();
    let mut arrivals = Vec::new();
    let mut demand = vec![0u64; sessions.len()];
    let mut sstep = ServerStep::default();
    let mut delivered = Vec::new();
    let (mut begin, mut step) = (Duration::ZERO, Duration::ZERO);
    for slot in 0..REPLAY_WARMUP + REPLAY_SLOTS {
        let t0 = Instant::now();
        for (s, d) in sessions.iter_mut().zip(demand.iter_mut()) {
            s.begin_slot(&mut arrivals);
            *d = s.demand();
        }
        let t1 = Instant::now();
        for (s, &d) in sessions.iter_mut().zip(&demand) {
            s.step(d, &mut sstep, &mut delivered);
        }
        let t2 = Instant::now();
        if slot >= REPLAY_WARMUP {
            begin += t1 - t0;
            step += t2 - t1;
            let parent = ctx.tracer.span("smoothd.session.slot", t0, t2, 0, slot);
            ctx.tracer
                .span("smoothd.session.begin_slot", t0, t1, parent, slot);
            ctx.tracer
                .span("smoothd.session.step", t1, t2, parent, slot);
        }
    }
    let mut totals = SessionCounters::default();
    for s in &sessions {
        totals.add(s.counters());
    }
    drop(sessions);
    ctx.report.check(
        "replay: session passes' combined ledger equals Shard::totals()",
        totals == shard_totals,
    );

    let per = |d: Duration| d.as_nanos() as f64 / (REPLAY_SLOTS * SESSIONS) as f64;
    let note = format!("{REPLAY_SLOTS} slots after {REPLAY_WARMUP} warm-up slots");
    ctx.report
        .set("smoothd.shard.process_slot_ns", per(process), note.clone());
    ctx.report
        .set("smoothd.session.begin_slot_ns", per(begin), note.clone());
    ctx.report.set("smoothd.session.step_ns", per(step), note);
    ctx.report.set(
        "smoothd.shard.residual_ns",
        per(process) - per(begin) - per(step),
        "process_slot - begin_slot - step: fair grants, retirement sweep, stats",
    );
    if let Some(worker) = ctx.report.get("ns_per_session_slot") {
        ctx.report.set(
            "smoothd.shard.replay_over_worker",
            per(process) / worker,
            "single-threaded process_slot over the daemon worker's ns_per_session_slot",
        );
    }
    Ok(())
}
