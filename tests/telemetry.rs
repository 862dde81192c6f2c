//! End-to-end acceptance for the ISSUE 7 telemetry plane: a paced
//! loopback daemon run must report deadline-miss accounting and
//! per-stage latency histograms through BOTH surfaces — the
//! `StatsDetail` frame on the ingest socket and the Prometheus-style
//! text exposition endpoint — with identical counter values.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rts_smoothd::{
    encode_frame, serve_tcp, AdmitRequest, Daemon, DaemonConfig, Frame, FrameReader, StatsDetail,
    WirePolicy, PROTOCOL_VERSION,
};
use rts_telemetry::{parse_exposition, render_exposition, MetricsServer, SlotPacing};

fn cbr_request(rate: u64, lifetime: u64) -> AdmitRequest {
    AdmitRequest {
        rate,
        delay: 4,
        link_delay: 1,
        buffer: 0, // balanced B = R·D
        weight: 1,
        policy: WirePolicy::Tail,
        per_slot: rate as u32,
        slice_size: 1,
        lifetime,
    }
}

/// Speaks the frame protocol over `addr`: handshake, one StatsDetail
/// poll, goodbye.
fn poll_stats_detail(addr: &str) -> StatsDetail {
    let mut stream = TcpStream::connect(addr).expect("connect ingest");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = FrameReader::new();
    let recv = |stream: &mut TcpStream, reader: &mut FrameReader| -> Frame {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(frame) = reader.next_frame().expect("well-formed reply") {
                return frame;
            }
            let n = stream.read(&mut buf).expect("socket read");
            assert!(n > 0, "server closed mid-reply");
            reader.extend(&buf[..n]);
        }
    };
    stream
        .write_all(&encode_frame(&Frame::Hello {
            version: PROTOCOL_VERSION,
        }))
        .unwrap();
    assert!(matches!(
        recv(&mut stream, &mut reader),
        Frame::Welcome { .. }
    ));
    stream
        .write_all(&encode_frame(&Frame::StatsDetail))
        .unwrap();
    let detail = match recv(&mut stream, &mut reader) {
        Frame::StatsDetailReply(detail) => *detail,
        other => panic!("expected StatsDetailReply, got {other:?}"),
    };
    let _ = stream.write_all(&encode_frame(&Frame::Goodbye));
    detail
}

/// Scrapes the exposition endpoint and returns the parsed series.
fn scrape(addr: std::net::SocketAddr) -> Vec<(String, f64)> {
    let mut conn = TcpStream::connect(addr).expect("connect metrics");
    conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut text = String::new();
    conn.read_to_string(&mut text).unwrap();
    let body = text.split("\r\n\r\n").nth(1).expect("http body");
    parse_exposition(body).expect("exposition parses")
}

fn series(parsed: &[(String, f64)], name: &str) -> f64 {
    parsed
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("missing series {name}"))
        .1
}

#[test]
fn stats_frame_and_exposition_report_identical_counters() {
    // A deadline-paced daemon: 1 ms slots, long enough lifetimes that
    // every stage histogram sees real traffic.
    let cfg = DaemonConfig {
        shards: 2,
        shard_link_rate: 1 << 10,
        overbook: (1, 1),
        queue_capacity: 256,
        pacing: SlotPacing::Deadline(Duration::from_millis(1)),
        record_events: false,
        rebalance: Default::default(),
    };
    let mut daemon = Daemon::start(cfg);
    let registry = daemon.registry();
    let render = Arc::new(move || render_exposition(&registry.snapshot()));
    let mut metrics = MetricsServer::serve("127.0.0.1:0", render).expect("bind metrics");
    let metrics_addr = metrics.local_addr();

    for _ in 0..6 {
        daemon.admit(&cbr_request(4, 20)).expect("fits the link");
    }
    // One reject for the per-reason ledger (zero rate is infeasible).
    assert!(daemon.admit(&cbr_request(0, 1)).is_err());
    assert!(
        daemon.wait_idle(Duration::from_secs(30)),
        "finite sessions must retire"
    );
    daemon.poll();

    let shared = Arc::new(Mutex::new(daemon));
    let ingest = serve_tcp(Arc::clone(&shared), "127.0.0.1:0").expect("bind ingest");
    let ingest_addr = ingest.local_addr().unwrap().to_string();

    // Both surfaces, scraped while the daemon is idle (no slot work in
    // flight), must agree exactly. The StatsDetail dispatch polls the
    // retirement queue first, so take the frame before the scrape.
    let detail = poll_stats_detail(&ingest_addr);
    let parsed = scrape(metrics_addr);

    // Deadline pacing was live: slots advanced under the 1 ms clock and
    // the lateness/stage instruments populated.
    assert_eq!(detail.shards.len(), 2);
    let total_slots: u64 = detail.shards.iter().map(|s| s.slots).sum();
    assert!(total_slots > 0, "paced shards stepped");
    assert_eq!(detail.retired, 6);
    assert_eq!(detail.rejects.iter().sum::<u64>(), 1);
    assert!(
        detail.stages[2].count > 0,
        "process-stage digest saw the paced slots"
    );
    assert!(
        detail.stages[0].count >= 2,
        "ingest-decode digest timed the Hello and the poll itself"
    );

    // Counter-for-counter agreement between the two surfaces.
    assert_eq!(series(&parsed, "smoothd_retired_total"), detail.retired as f64);
    let expo_rejects: f64 = parsed
        .iter()
        .filter(|(n, _)| n.starts_with("smoothd_rejects_total"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(expo_rejects, detail.rejects.iter().sum::<u64>() as f64);
    for row in &detail.shards {
        let label = |name: &str| format!("{name}{{shard=\"{}\"}}", row.shard);
        assert_eq!(series(&parsed, &label("smoothd_slots_total")), row.slots as f64);
        assert_eq!(
            series(&parsed, &label("smoothd_played_slices_total")),
            row.played as f64
        );
        assert_eq!(
            series(&parsed, &label("smoothd_sent_bytes_total")),
            row.sent_bytes as f64
        );
        assert_eq!(
            series(&parsed, &label("smoothd_deadline_miss_total")),
            row.deadline_misses as f64
        );
        assert_eq!(
            series(&parsed, &label("smoothd_slot_overrun_total")),
            row.slot_overruns as f64
        );
        assert_eq!(
            series(&parsed, &label("smoothd_sessions")),
            row.sessions as f64
        );
    }
    // Stage histograms surface on both sides with matching counts.
    // ingest-decode keeps recording between the frame poll and the
    // scrape (the poll's own Goodbye gets timed), so it only gets a
    // monotonicity bound; the slot-loop stages are quiescent and exact.
    let stage_names = ["ingest-decode", "admit", "process", "retire"];
    for (hist, stage) in detail.stages.iter().zip(stage_names) {
        let expo = series(&parsed, &format!("smoothd_stage_ns_count{{stage=\"{stage}\"}}"));
        if stage == "ingest-decode" {
            assert!(expo >= hist.count as f64, "stage {stage} went backwards");
        } else {
            assert_eq!(expo, hist.count as f64, "stage {stage}");
        }
    }
    assert_eq!(
        series(&parsed, "smoothd_lateness_ns_count"),
        detail.lateness.count as f64
    );
    // Every session played its full CBR offer: 6 sessions x 4/slot x 20.
    let total_played: u64 = detail.shards.iter().map(|s| s.played).sum();
    assert_eq!(total_played, 6 * 4 * 20);

    ingest.stop();
    metrics.stop();
    let daemon = Arc::try_unwrap(shared)
        .map(|m| m.into_inner().unwrap())
        .unwrap_or_else(|_| panic!("ingest threads still hold the daemon"));
    let report = daemon.shutdown(true);
    assert!(report.totals.conserved(), "ledger: {:?}", report.totals);
}

#[test]
fn early_wakes_end_slots_on_the_same_deadlines_as_sleeping() {
    // A shard waits out its slot parked and is woken early whenever a
    // control command arrives. Those wakes must be invisible to the
    // cadence: the same deadlines as sleeping straight through, no
    // miss, and a realized period of exactly `d`.
    use rts_telemetry::{Clock, ManualClock, SlotClock, SlotOutcome};
    const D: Duration = Duration::from_millis(10);
    let slept = Arc::new(ManualClock::new());
    let woken = Arc::new(ManualClock::new());
    let mut by_sleep = SlotClock::new(Arc::clone(&slept), SlotPacing::Deadline(D));
    let mut by_wake = SlotClock::new(Arc::clone(&woken), SlotPacing::Deadline(D));
    for slot in 0..100u64 {
        let start = woken.now();
        let work = Duration::from_micros(slot * 373 % 9_000);
        slept.advance(work);
        woken.advance(work);
        assert_eq!(by_sleep.pace(), SlotOutcome::default(), "slot {slot}");
        let mut wakes = 0;
        let outcome = by_wake.pace_with(|clock, left| {
            // The first three waits end halfway (a command arrived);
            // the last one runs to the deadline.
            wakes += 1;
            clock.advance(if wakes <= 3 { left / 2 } else { left });
            true
        });
        assert_eq!(outcome, SlotOutcome::default(), "slot {slot}");
        assert_eq!(wakes, 4, "slot {slot}");
        assert_eq!(woken.now(), slept.now(), "slot {slot}");
        assert_eq!(woken.now() - start, D, "slot {slot}");
    }
    assert_eq!(woken.now(), 100 * D);
}
