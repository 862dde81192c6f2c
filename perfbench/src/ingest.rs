//! `ingest-fed` and `ingest-churn`: externally fed Greedy sessions over
//! TCP loopback.
//!
//! Two deadline-paced shards (4 ms slots) serve the frame protocol
//! through `serve_tcp_with`. One generator thread with two nonblocking
//! connections drives the load open loop: each connection
//! `AdmitBatch`es 64 sessions, then every slot it sends one `Data`
//! frame to each session whose turn it is (every session once per
//! eight slots, staggered) carrying the next frame of that session's
//! own seeded Section 5 MPEG trace as byte slices with 12:8:1 weights,
//! and closes the slot's batch with a `Stats` frame that acts as a
//! fence. Now and then one connection drains a session and admits a
//! replacement, which carries on with the drained session's trace:
//! every sixteen slots in `ingest-fed`, every slot in `ingest-churn`.
//!
//! `ingest-fed` is the write path: the frame codec, the global
//! `Mutex<Daemon>`, command queues, queue-fed arrivals, drops on VBR
//! input and retirement, and its latency is the batch's round trip.
//! `ingest-churn` carries the same data plus 250 admissions and drains
//! a second: the control plane (admission pricing under the
//! daemon lock, `Admit`/`Drain` commands, retirement), and its latency
//! is the admission's round trip. Both session loops are small and stay
//! in cache.
//!
//! Every batch is timed from when it was due, not from when it was
//! written, and the generator's own lag is reported. A batch the
//! generator wrote a slot period or more after it was due did not keep
//! the schedule: its round trip and its churn admission are left out of
//! every latency figure, and such batches are counted as
//! `gen.late_batches`. On a shared host a vCPU is now and then
//! descheduled for tens of milliseconds, so some batches of a run are
//! late whatever the generator does. The slot is 4 ms rather than
//! smoothd's usual 1 ms so that such a stall makes few batches late and
//! never fills the shards' command queues.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rts_obs::RejectReason;
use rts_smoothd::{
    encode_frame, serve_tcp_with, AdmitRequest, Daemon, DaemonConfig, Frame, FrameReader,
    IngestConfig, SlotPacing, WirePolicy, PROTOCOL_VERSION,
};
use rts_stream::rng::SplitMix64;
use rts_stream::weight::WeightAssignment;
use rts_stream::{Bytes, Weight};
use rts_telemetry::{render_exposition, Registry, RegistrySnapshot};

use crate::hist::{self, interquartile_mean, sample_quantile};
use crate::inputs::{derive, mpeg_trace, Digest, TRACE_FRAMES};
use crate::trace::Tracer;
use crate::Ctx;

const SHARDS: u32 = 2;
const CONNS: usize = 2;
const PER_CONN: usize = 64;
/// Slots between two `Data` frames of one session.
const PERIOD: u64 = 8;
const SLOT: Duration = Duration::from_millis(4);
/// Smoothing delay `D` in slots; `B = R·D` holds the largest frame.
const DELAY: u64 = 32;
/// A session is drained this many slots after its last `Data` frame.
const CHURN_LAG: u64 = PERIOD / 2;
/// Set-up rounds per run; `setup_s` is their interquartile mean.
const SETUP_ROUNDS: usize = 100;
const WARMUP: Duration = Duration::from_millis(500);
/// Interval of the traced lock and scrape probe.
const PROBE_EVERY: Duration = Duration::from_millis(2);
const POLL: Duration = Duration::from_micros(50);
const PATIENCE: Duration = Duration::from_secs(30);

/// A traffic mix of the shared generator.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Slots between two churn operations.
    churn_every: u64,
    /// Whether the end-to-end latency is the churn admission's round
    /// trip rather than the batch fence's.
    admit_latency: bool,
}

/// `ingest-fed`: data-heavy, one churn every sixteen slots.
pub const FED: Mix = Mix {
    churn_every: 16,
    admit_latency: false,
};

/// `ingest-churn`: the same data plus one churn every slot.
pub const CHURN: Mix = Mix {
    churn_every: 1,
    admit_latency: true,
};

/// Per-session traces and the session rate derived from them.
pub struct Inputs {
    /// `(bytes, weight per byte)` per frame, one trace per session slot.
    traces: Vec<Vec<(Bytes, Weight)>>,
    rate: Bytes,
    /// Digest of every generated frame and the rate.
    pub digest: Digest,
}

impl Inputs {
    /// Generates the inputs of workload seed `seed`.
    pub fn generate(seed: u64) -> Inputs {
        let w = WeightAssignment::MPEG_12_8_1;
        let mut digest = Digest::default();
        let mut bytes = 0u64;
        let mut frames = 0u64;
        let traces: Vec<Vec<(Bytes, Weight)>> = (0..(CONNS * PER_CONN) as u64)
            .map(|j| {
                let t = mpeg_trace(derive(seed, 1000 + j), TRACE_FRAMES);
                digest.add_trace(&t);
                bytes += t.total_bytes();
                frames += t.len() as u64;
                t.frames()
                    .iter()
                    .map(|&(kind, size)| (size, w.weight_of(kind, 1)))
                    .collect()
            })
            .collect();
        // About 0.95 of the mean offered rate, so VBR peaks drop.
        let mean_per_slot = bytes as f64 / frames as f64 / PERIOD as f64;
        let rate = (0.95 * mean_per_slot).round().max(1.0) as Bytes;
        digest.add(rate);
        Inputs {
            traces,
            rate,
            digest,
        }
    }
}

fn request(rate: Bytes) -> AdmitRequest {
    AdmitRequest {
        rate,
        delay: DELAY,
        link_delay: 1,
        buffer: 0, // balanced B = R·D
        weight: 1,
        policy: WirePolicy::Greedy,
        per_slot: 0, // externally fed
        slice_size: 0,
        lifetime: 0,
    }
}

fn config(rate: Bytes) -> DaemonConfig {
    DaemonConfig {
        shards: SHARDS,
        // Either shard can hold every session, churn included.
        shard_link_rate: rate * (CONNS * PER_CONN) as u64,
        overbook: (1, 1),
        pacing: SlotPacing::Deadline(SLOT),
        record_events: false,
        ..DaemonConfig::default()
    }
}

/// What a connection waits for, in the order the daemon answers.
enum Expect {
    Fence {
        tick: u64,
        due: Instant,
    },
    Admit {
        slot: usize,
        tick: u64,
        sent: Instant,
    },
}

/// One session position on a connection.
#[derive(Debug, Clone, Copy)]
struct Slot {
    session: Option<u64>,
    trace: usize,
    next: usize,
}

/// Samples and counters the generator keeps, attributed to ticks.
#[derive(Default)]
struct GenStats {
    rtt_us: Vec<(u64, f64)>,
    admit_us: Vec<(u64, f64)>,
    lag_us: Vec<(u64, f64)>,
    rejects: [u64; RejectReason::ALL.len()],
    sent_bytes: u64,
    rejected_bytes: u64,
    frames: Vec<u64>,
    churns: u64,
    churn_skipped: u64,
    replacements: u64,
    cpu_open: f64,
    cpu_close: f64,
}

/// One `Data` frame awaiting its fence.
struct SentData {
    session: u64,
    bytes: Bytes,
    rejected: bool,
}

struct Conn {
    /// Position among the generator's connections.
    index: usize,
    stream: TcpStream,
    reader: FrameReader,
    out: Vec<u8>,
    expect: VecDeque<Expect>,
    slots: Vec<Slot>,
    /// Data frames per outstanding fence, by tick, so a `Rejected`
    /// reply is charged to its frame.
    data: VecDeque<(u64, Vec<SentData>)>,
    /// `(tick, every shard's slot count)` when a tick's fence returned.
    acked: [(u64, [u64; SHARDS as usize]); 64],
    closed: bool,
}

fn frame_err(e: impl std::fmt::Debug) -> String {
    format!("frame error: {e:?}")
}

fn shard_slots(registry: &Registry) -> [u64; SHARDS as usize] {
    std::array::from_fn(|i| registry.shard(i).slots.get())
}

/// True once every shard stepped at least twice since `then`: a
/// command queued before `then` has been applied and its slices taken
/// up by a slot.
fn consumed_since(registry: &Registry, then: &[u64; SHARDS as usize]) -> bool {
    shard_slots(registry)
        .iter()
        .zip(then)
        .all(|(now, then)| *now >= then + 2)
}

impl Conn {
    fn connect(index: usize, addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(PATIENCE))
            .map_err(|e| e.to_string())?;
        let mut c = Conn {
            index,
            stream,
            reader: FrameReader::new(),
            out: Vec::new(),
            expect: VecDeque::new(),
            slots: Vec::new(),
            data: VecDeque::new(),
            acked: [(u64::MAX, [0; SHARDS as usize]); 64],
            closed: false,
        };
        match c.call(&Frame::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Frame::Welcome { .. } => Ok(c),
            other => Err(format!("Hello answered with {other:?}")),
        }
    }

    /// Blocking request/reply, for set-up only.
    fn call(&mut self, frame: &Frame) -> Result<Frame, String> {
        self.stream
            .write_all(&encode_frame(frame))
            .map_err(|e| format!("write: {e}"))?;
        let mut buf = [0u8; 4096];
        loop {
            if let Some(f) = self.reader.next_frame().map_err(frame_err)? {
                return Ok(f);
            }
            let n = self
                .stream
                .read(&mut buf)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("daemon closed the connection".into());
            }
            self.reader.extend(&buf[..n]);
        }
    }

    fn resident(&mut self) -> Result<u64, String> {
        match self.call(&Frame::Stats)? {
            Frame::StatsReply(s) => Ok(s.sessions),
            other => Err(format!("expected StatsReply, got {other:?}")),
        }
    }

    fn flush(&mut self) -> Result<(), String> {
        let mut written = 0;
        while written < self.out.len() {
            match self.stream.write(&self.out[written..]) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        self.out.drain(..written);
        Ok(())
    }

    /// Flushes, reads whatever arrived, and matches every reply to
    /// what it answers.
    fn service(
        &mut self,
        g: &mut GenStats,
        registry: &Registry,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        self.flush()?;
        let mut buf = [0u8; 16384];
        while !self.closed {
            match self.stream.read(&mut buf) {
                Ok(0) => self.closed = true,
                Ok(n) => self.reader.extend(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        while let Some(frame) = self.reader.next_frame().map_err(frame_err)? {
            let now = Instant::now();
            self.reply(frame, now, g, registry, tracer)?;
        }
        if self.closed && !self.expect.is_empty() {
            return Err("daemon closed the connection with replies outstanding".into());
        }
        Ok(())
    }

    fn reply(
        &mut self,
        frame: Frame,
        now: Instant,
        g: &mut GenStats,
        registry: &Registry,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let request = |tick: u64| tick * CONNS as u64 + self.index as u64;
        match frame {
            Frame::StatsReply(_) => match self.expect.pop_front() {
                Some(Expect::Fence { tick, due }) => {
                    g.rtt_us.push((tick, (now - due).as_secs_f64() * 1e6));
                    tracer.span("gen.data_rtt", due, now, 0, request(tick));
                    self.acked[(tick % 64) as usize] = (tick, shard_slots(registry));
                    while self.data.front().is_some_and(|(t, _)| *t <= tick) {
                        self.data.pop_front();
                    }
                    Ok(())
                }
                _ => Err("fence reply out of order".into()),
            },
            Frame::Admitted { session, .. } => match self.expect.pop_front() {
                Some(Expect::Admit { slot, tick, sent }) => {
                    self.slots[slot].session = Some(session);
                    g.replacements += 1;
                    g.admit_us.push((tick, (now - sent).as_secs_f64() * 1e6));
                    tracer.span("gen.admit_rtt", sent, now, 0, request(tick));
                    Ok(())
                }
                _ => Err("admission reply out of order".into()),
            },
            Frame::Rejected { session, reason } => {
                g.rejects[rts_telemetry::reject_index(reason)] += 1;
                if session == 0 {
                    // A refused replacement leaves its slot empty.
                    return match self.expect.pop_front() {
                        Some(Expect::Admit { .. }) => Ok(()),
                        _ => Err(format!("unexpected rejection: {}", reason.name())),
                    };
                }
                let hit = self
                    .data
                    .iter_mut()
                    .flat_map(|(_, frames)| frames.iter_mut())
                    .find(|d| d.session == session && !d.rejected);
                if let Some(d) = hit {
                    d.rejected = true;
                    g.rejected_bytes += d.bytes;
                }
                Ok(())
            }
            Frame::Bye => {
                self.closed = true;
                Ok(())
            }
            other => Err(format!("unexpected frame {other:?}")),
        }
    }

    /// Queues one slot's batch: the due `Data` frames, an optional
    /// churn of `slot`, and the fence.
    fn send_tick(
        &mut self,
        tick: u64,
        due: Instant,
        inputs: &Inputs,
        churn: Option<usize>,
        g: &mut GenStats,
        registry: &Registry,
    ) {
        let phase = (tick % PERIOD) as usize;
        let mut batch = Vec::new();
        for j in (phase..self.slots.len()).step_by(PERIOD as usize) {
            let slot = &mut self.slots[j];
            let Some(session) = slot.session else {
                continue;
            };
            let trace = &inputs.traces[slot.trace];
            let (bytes, weight) = trace[slot.next % trace.len()];
            slot.next += 1;
            let slices = vec![(1, weight); bytes as usize];
            self.out
                .extend_from_slice(&encode_frame(&Frame::Data { session, slices }));
            batch.push(SentData {
                session,
                bytes,
                rejected: false,
            });
            g.sent_bytes += bytes;
            *g.frames.last_mut().expect("tick opened") += 1;
        }
        if let Some(j) = churn {
            self.churn(j, tick, due, inputs, g, registry);
        }
        self.out.extend_from_slice(&encode_frame(&Frame::Stats));
        self.expect.push_back(Expect::Fence { tick, due });
        self.data.push_back((tick, batch));
    }

    /// Drains the session in `slot` and admits a replacement, once its
    /// last `Data` frame has certainly been consumed: that frame's
    /// fence has returned and every shard has stepped twice since.
    /// Draining earlier would discard the frame's queued slices.
    fn churn(
        &mut self,
        j: usize,
        tick: u64,
        due: Instant,
        inputs: &Inputs,
        g: &mut GenStats,
        registry: &Registry,
    ) {
        let last = tick - CHURN_LAG;
        let (acked_tick, slots_then) = self.acked[(last % 64) as usize];
        let Some(session) = self.slots[j].session else {
            g.churn_skipped += 1;
            return;
        };
        if acked_tick != last || !consumed_since(registry, &slots_then) {
            g.churn_skipped += 1;
            return;
        }
        self.out
            .extend_from_slice(&encode_frame(&Frame::Drain { session }));
        self.out
            .extend_from_slice(&encode_frame(&Frame::Admit(request(inputs.rate))));
        self.slots[j].session = None;
        self.expect.push_back(Expect::Admit {
            slot: j,
            tick,
            sent: due,
        });
        g.churns += 1;
    }
}

/// Connects every connection and admits its sessions, one connection
/// at a time so placement sees the first batch resident before
/// routing the second. Returns the connections and the set-up time.
fn set_up(addr: &str, rate: Bytes) -> Result<(Vec<Conn>, Duration), String> {
    let started = Instant::now();
    let mut conns = (0..CONNS)
        .map(|i| Conn::connect(i, addr))
        .collect::<Result<Vec<_>, _>>()?;
    for (i, c) in conns.iter_mut().enumerate() {
        let reply = c.call(&Frame::AdmitBatch {
            count: PER_CONN as u32,
            req: request(rate),
        })?;
        let Frame::AdmittedBatch {
            first_session,
            count,
        } = reply
        else {
            return Err(format!("AdmitBatch answered with {reply:?}"));
        };
        if count as usize != PER_CONN {
            return Err(format!("AdmitBatch admitted {count} of {PER_CONN}"));
        }
        c.slots = (0..PER_CONN)
            .map(|k| Slot {
                session: Some(first_session + k as u64),
                trace: i * PER_CONN + k,
                next: 0,
            })
            .collect();
        let want = ((i + 1) * PER_CONN) as u64;
        let deadline = Instant::now() + PATIENCE;
        while c.resident()? < want {
            if Instant::now() > deadline {
                return Err("sessions never became resident".into());
            }
            std::thread::sleep(POLL);
        }
    }
    Ok((conns, started.elapsed()))
}

fn goodbye(conns: &mut [Conn]) -> Result<(), String> {
    for c in conns.iter_mut() {
        c.stream.set_nonblocking(false).map_err(|e| e.to_string())?;
        match c.call(&Frame::Goodbye)? {
            Frame::Bye => {}
            other => return Err(format!("Goodbye answered with {other:?}")),
        }
    }
    Ok(())
}

fn wait_empty(daemon: &Mutex<Daemon>) -> Result<(), String> {
    let deadline = Instant::now() + PATIENCE;
    loop {
        {
            let mut d = daemon.lock().expect("daemon mutex poisoned");
            d.poll();
            if d.live_sessions() == 0 {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err("set-up sessions never retired".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// CPU time (user + system) of this process's threads whose name
/// starts with `prefix`, from `/proc/self/task/*/stat` (clock ticks of
/// 10 ms).
fn threads_cpu_s(prefix: &str) -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let mut ticks = 0u64;
    for task in tasks.flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if !comm.starts_with(prefix) {
            continue;
        }
        let stat = std::fs::read_to_string(task.path().join("stat")).unwrap_or_default();
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        ticks += fields
            .get(11)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0);
        ticks += fields
            .get(12)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0);
    }
    ticks as f64 / 100.0
}

/// The traced probe: a second thread that times taking the daemon lock
/// and a telemetry scrape under it.
struct Probe {
    stop: Arc<AtomicBool>,
    join: std::thread::JoinHandle<(Vec<ProbeSample>, Tracer)>,
}

struct ProbeSample {
    at: Instant,
    lock_wait_ns: f64,
    scrape_ns: f64,
}

fn start_probe(daemon: &Arc<Mutex<Daemon>>, tracer: Tracer) -> Probe {
    let stop = Arc::new(AtomicBool::new(false));
    let join = {
        let stop = Arc::clone(&stop);
        let daemon = Arc::clone(daemon);
        std::thread::spawn(move || {
            let mut tracer = tracer;
            let mut samples = Vec::new();
            let mut request = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let t0 = Instant::now();
                let d = daemon.lock().expect("daemon mutex poisoned");
                let t1 = Instant::now();
                let detail = d.stats_detail();
                let text = render_exposition(&d.registry().snapshot());
                let t2 = Instant::now();
                drop(d);
                std::hint::black_box((detail, text));
                let parent = tracer.span("smoothd.control.probe", t0, t2, 0, request);
                tracer.span("smoothd.control.lock_wait", t0, t1, parent, request);
                tracer.span("smoothd.telemetry.scrape", t1, t2, parent, request);
                samples.push(ProbeSample {
                    at: t0,
                    lock_wait_ns: (t1 - t0).as_nanos() as f64,
                    scrape_ns: (t2 - t1).as_nanos() as f64,
                });
                request += 1;
                std::thread::sleep(PROBE_EVERY);
            }
            (samples, tracer)
        })
    };
    Probe { stop, join }
}

/// The measurement window that was kept.
struct Window {
    first: u64,
    ticks: u64,
    opened: Instant,
    closed: Instant,
    open: RegistrySnapshot,
    close: RegistrySnapshot,
}

/// Runs the open-loop generator through the warm-up and one window.
fn generate(
    ctx: &mut Ctx,
    mix: Mix,
    conns: &mut [Conn],
    inputs: &Inputs,
    registry: &Registry,
    g: &mut GenStats,
) -> Result<Window, String> {
    for c in conns.iter_mut() {
        c.stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    }
    let ticks = |d: Duration| (d.as_nanos() / SLOT.as_nanos()) as u64;
    let window_ticks = ticks(Duration::from_secs(ctx.seconds));
    let first = ticks(WARMUP);
    let mut open: Option<(Instant, RegistrySnapshot)> = None;
    let start = Instant::now() + 2 * SLOT;
    let mut jitter = SplitMix64::new(derive(ctx.seed, 2));
    let mut tick = 0u64;
    loop {
        // One batch per slot, at a seeded random offset inside it, so
        // arrivals never phase-lock with the daemon's periodic loops.
        let due = start + SLOT.mul_f64(tick as f64 + jitter.next_f64());
        loop {
            for c in conns.iter_mut() {
                c.service(g, registry, &mut ctx.tracer)?;
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(POLL));
        }
        if tick == first + window_ticks {
            let (opened, snap) = open.take().expect("window opened");
            let close = registry.snapshot();
            g.cpu_close = threads_cpu_s("smoothd-shard");
            return Ok(Window {
                first,
                ticks: window_ticks,
                opened,
                closed: Instant::now(),
                open: snap,
                close,
            });
        }
        if tick == first {
            open = Some((Instant::now(), registry.snapshot()));
            g.cpu_open = threads_cpu_s("smoothd-shard");
        }
        let written = Instant::now();
        g.lag_us.push((tick, (written - due).as_secs_f64() * 1e6));
        g.frames.push(0);
        let span = ctx.tracer.open("gen.tick", 0, tick);
        let churn = (tick.is_multiple_of(mix.churn_every) && tick >= CHURN_LAG).then(|| {
            let k = tick / mix.churn_every;
            let conn = (k % CONNS as u64) as usize;
            let group = ((k / CONNS as u64) % (PER_CONN as u64 / PERIOD)) as usize;
            let j = group * PERIOD as usize + ((tick - CHURN_LAG) % PERIOD) as usize;
            (conn, j)
        });
        for (i, c) in conns.iter_mut().enumerate() {
            let mine = churn.filter(|&(conn, _)| conn == i).map(|(_, j)| j);
            let started = Instant::now();
            c.send_tick(tick, due, inputs, mine, g, registry);
            c.flush()?;
            let request = tick * CONNS as u64 + i as u64;
            ctx.tracer
                .span("gen.batch", started, Instant::now(), span, request);
        }
        ctx.tracer.close(span);
        tick += 1;
    }
}

/// Whether the generator wrote tick `tick`'s batch less than `limit_us`
/// after it was due. A batch written a slot or more late would carry
/// the generator's lag into its round trip, so its samples are left out
/// of the latency figures rather than averaged in.
fn on_time(g: &GenStats, tick: u64, limit_us: f64) -> bool {
    g.lag_us
        .get(tick as usize)
        .is_some_and(|&(t, lag)| t == tick && lag < limit_us)
}

/// Waits for every outstanding reply, then for every shard to step
/// twice more so the last `Data` frames have been consumed.
fn settle(
    conns: &mut [Conn],
    registry: &Registry,
    g: &mut GenStats,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let deadline = Instant::now() + PATIENCE;
    while conns.iter().any(|c| !c.expect.is_empty()) {
        for c in conns.iter_mut() {
            c.service(g, registry, tracer)?;
        }
        if Instant::now() > deadline {
            return Err("replies never arrived".into());
        }
        std::thread::sleep(POLL);
    }
    let then = shard_slots(registry);
    while !consumed_since(registry, &then) {
        if Instant::now() > deadline {
            return Err("shards stopped stepping".into());
        }
        std::thread::sleep(POLL);
    }
    Ok(())
}

/// Runs the workload with traffic mix `mix`.
pub fn run(ctx: &mut Ctx, mix: Mix) -> Result<(), String> {
    let inputs = Inputs::generate(ctx.seed);
    println!(
        "inputs digest {} (session rate {} B/slot)",
        inputs.digest.hex(),
        inputs.rate
    );
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    ctx.report.check(
        format!("generator uses 1 thread and {CONNS} connections, within nproc = {cpus}"),
        CONNS <= cpus,
    );
    if CONNS > cpus {
        return Err(format!("ingest-fed needs at least {CONNS} CPUs"));
    }

    let daemon = Arc::new(Mutex::new(Daemon::start(config(inputs.rate))));
    let registry = daemon.lock().expect("daemon mutex poisoned").registry();
    let server = serve_tcp_with(Arc::clone(&daemon), "127.0.0.1:0", IngestConfig::default())
        .map_err(|e| format!("serve_tcp_with: {e}"))?;
    let addr = server
        .local_addr()
        .ok_or("listener has no address")?
        .to_string();

    let mut setups = Vec::new();
    let mut kept = None;
    for round in 0..SETUP_ROUNDS as u64 {
        let started = Instant::now();
        let (mut conns, took) = set_up(&addr, inputs.rate)?;
        ctx.tracer
            .span("smoothd.ingest.setup", started, Instant::now(), 0, round);
        setups.push(took.as_secs_f64());
        if round + 1 < SETUP_ROUNDS as u64 {
            goodbye(&mut conns)?;
            drop(conns);
            wait_empty(&daemon)?;
        } else {
            kept = Some(conns);
        }
    }
    let mut conns = kept.expect("at least one set-up round");
    // A round's time is quantized by the ingest pool's idle back-off
    // into steps of about 3 ms, and the median sat on a step boundary,
    // jumping between 6 and 9 ms from run to run.
    ctx.report.set(
        "setup_s",
        interquartile_mean(&setups),
        format!(
            "interquartile mean of {SETUP_ROUNDS}: connect + Hello + AdmitBatch until resident"
        ),
    );
    let split: Vec<u64> = (0..SHARDS as usize)
        .map(|i| registry.shard(i).sessions.get())
        .collect();
    println!("sessions per shard after set-up: {split:?}");

    let probe = ctx
        .tracer
        .on()
        .then(|| start_probe(&daemon, ctx.tracer.child()));
    let mut g = GenStats::default();
    let outcome = generate(ctx, mix, &mut conns, &inputs, &registry, &mut g);
    let probed = probe.map(|p| {
        p.stop.store(true, Ordering::Relaxed);
        p.join.join().expect("probe thread panicked")
    });
    let w = outcome?;
    settle(&mut conns, &registry, &mut g, &mut ctx.tracer)?;
    goodbye(&mut conns)?;
    drop(conns);
    server.stop();
    let daemon = Arc::try_unwrap(daemon)
        .map_err(|_| "daemon still shared after the listener stopped")?
        .into_inner()
        .expect("daemon mutex poisoned");
    let report = daemon.shutdown(true);

    let end = w.first + w.ticks;
    let limit = SLOT.as_secs_f64() * 1e6;
    let in_window = |v: &[(u64, f64)], on_time_only: bool| -> Vec<f64> {
        v.iter()
            .filter(|&&(t, _)| (w.first..end).contains(&t))
            .filter(|&&(t, _)| !on_time_only || on_time(&g, t, limit))
            .map(|&(_, x)| x)
            .collect()
    };
    let window_s = (w.closed - w.opened).as_secs_f64();
    let (open, close) = (&w.open, &w.close);
    let played: u64 = close.shards.iter().map(|s| s.played_slices).sum::<u64>()
        - open.shards.iter().map(|s| s.played_slices).sum::<u64>();
    let mut slots = 0u64;
    let mut session_slots = 0f64;
    for (a, b) in open.shards.iter().zip(&close.shards) {
        let d = b.slots - a.slots;
        slots += d;
        session_slots += d as f64 * (a.sessions + b.sessions) as f64 / 2.0;
    }
    let process = hist::window(&open.process, &close.process);
    let misses = close.total_misses() - open.total_misses();
    let note = format!("{slots} shard slots in {window_s:.3} s");
    ctx.report
        .set("slices_per_s", played as f64 / window_s, note);
    // Shard-worker CPU time, not wall time inside `process_slot`: with
    // the generator and the ingest pool sharing the cores, wall time
    // there mostly measures preemption.
    ctx.report.set(
        "smoothd.worker.cpu_ns_per_session_slot",
        (g.cpu_close - g.cpu_open) * 1e9 / session_slots.max(1.0),
        format!("shard-worker CPU time over {session_slots} session-slots"),
    );

    let rtt = in_window(&g.rtt_us, true);
    let admits = in_window(&g.admit_us, true);
    let (latency, what) = if mix.admit_latency {
        (&admits, "churn admissions: due time to Admitted")
    } else {
        (&rtt, "fenced batches: due time to fence reply")
    };
    for (name, q) in [("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)] {
        let v = sample_quantile(latency, q);
        ctx.report
            .set(name, v.value.unwrap_or(v.max) / 1e3, v.note(q));
    }
    ctx.report
        .set("latency_samples", latency.len() as f64, what);
    for (name, q) in [("data_rtt_p50_us", 0.5), ("data_rtt_p99_us", 0.99)] {
        let v = sample_quantile(&rtt, q);
        ctx.report.set(name, v.or_zero(), v.note(q));
    }
    let p99 = sample_quantile(&rtt, 0.99);
    println!(
        "data_rtt p99 limit {limit} us: {}",
        if p99.value.unwrap_or(p99.max) <= limit {
            "met"
        } else {
            "missed"
        }
    );
    ctx.report.set("data_rtt_samples", rtt.len() as f64, "");
    let a50 = sample_quantile(&admits, 0.5);
    ctx.report
        .set("admit_rtt_p50_us", a50.or_zero(), a50.note(0.5));
    ctx.report.set(
        "admit_rtt_samples",
        admits.len() as f64,
        format!("{} churns, {} skipped", g.churns, g.churn_skipped),
    );
    let lags = in_window(&g.lag_us, false);
    let l99 = sample_quantile(&lags, 0.99);
    ctx.report
        .set("gen.lag_us.p99", l99.or_zero(), l99.note(0.99));
    ctx.report.set("gen.lag_us.max", l99.max, "");
    let late = lags.iter().filter(|&&lag| lag >= limit).count();
    ctx.report.set(
        "gen.late_batches",
        late as f64,
        format!(
            "of {} window slots written {limit} us or more after they were due; left out of every latency",
            lags.len()
        ),
    );

    let p50 = hist::hist_quantile(&process, 0.5);
    ctx.report.set(
        "smoothd.worker.process_ns.count",
        process.count() as f64,
        "",
    );
    ctx.report
        .set("smoothd.worker.process_ns.mean", process.mean(), "");
    ctx.report.set(
        "smoothd.worker.process_ns.p50",
        p50.or_zero(),
        p50.note(0.5),
    );
    ctx.report.set(
        "smoothd.worker.busy_frac",
        process.sum() as f64 / (window_s * 1e9 * SHARDS as f64),
        "mean over shards",
    );
    crate::report_stage(
        ctx,
        "smoothd.ingest.decode_ns",
        &hist::window(&open.ingest_decode, &close.ingest_decode),
    );
    crate::report_stage(
        ctx,
        "smoothd.worker.admit_ns",
        &hist::window(&open.admit, &close.admit),
    );
    crate::report_stage(
        ctx,
        "smoothd.worker.retire_ns",
        &hist::window(&open.retire, &close.retire),
    );
    ctx.report
        .set("smoothd.worker.deadline_misses", misses as f64, "window");
    ctx.report.set(
        "smoothd.worker.lateness_ns.max",
        hist::window(&open.lateness, &close.lateness).max() as f64,
        "window",
    );
    for (reason, &n) in RejectReason::ALL.iter().zip(&g.rejects) {
        let name = format!("smoothd.ingest.rejects.{}", reason.name());
        let declared = crate::report::PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .expect("every reject reason is declared");
        ctx.report.set(declared, n as f64, "whole run");
    }
    if let Some((samples, tracer)) = probed {
        let after = w.opened;
        let waits: Vec<f64> = samples
            .iter()
            .filter(|s| s.at >= after)
            .map(|s| s.lock_wait_ns)
            .collect();
        let scrapes: Vec<f64> = samples
            .iter()
            .filter(|s| s.at >= after)
            .map(|s| s.scrape_ns)
            .collect();
        ctx.report
            .set("smoothd.control.lock_wait_ns.count", waits.len() as f64, "");
        for (name, q) in [
            ("smoothd.control.lock_wait_ns.p50", 0.5),
            ("smoothd.control.lock_wait_ns.p99", 0.99),
        ] {
            let v = sample_quantile(&waits, q);
            ctx.report.set(name, v.or_zero(), v.note(q));
        }
        let s50 = sample_quantile(&scrapes, 0.5);
        ctx.report.set(
            "smoothd.telemetry.scrape_ns.p50",
            s50.or_zero(),
            s50.note(0.5),
        );
        ctx.tracer.merge(tracer);
    }

    // Refused frames are the failed operations. A missed slot deadline
    // loses nothing (sessions run on their own clocks), so misses are
    // reported as lateness, not as failures.
    let window_frames: u64 = g.frames[w.first as usize..end as usize].iter().sum();
    ctx.report.attempted += window_frames + g.churns;
    ctx.report.failed += g.rejects.iter().sum::<u64>();

    let t = &report.totals;
    let offered = t.offered_bytes.max(1) as f64;
    ctx.report.set(
        "smoothd.ledger.played_byte_frac",
        t.played_bytes as f64 / offered,
        "",
    );
    ctx.report.set(
        "smoothd.ledger.server_drop_byte_frac",
        t.server_dropped_bytes as f64 / offered,
        "",
    );
    ctx.report
        .check("drained shutdown ledger is conserved", t.conserved());
    ctx.report.check(
        format!(
            "offered bytes {} equal the bytes the generator sent {} (less {} refused)",
            t.offered_bytes, g.sent_bytes, g.rejected_bytes
        ),
        t.offered_bytes == g.sent_bytes - g.rejected_bytes,
    );
    ctx.report.check(
        "every shard slot sent at most the link rate",
        report.shards.iter().all(|s| s.max_slot_sent <= s.link_rate),
    );
    ctx.report.check(
        "every session retired at shutdown",
        report.retired_sessions == (SETUP_ROUNDS * CONNS * PER_CONN) as u64 + g.replacements,
    );
    Ok(())
}
