//! `serve`: `ServeState::handle` with the 30-day archive attached, two
//! connection threads on seeded schedules. An ingest feeder sends small
//! chunks plus periodic day-to-week backfills (open loop throughout);
//! a query client sends a status / metrics / figure / report / replay
//! mix, first open loop at a fixed rate, then closed loop (saturation)
//! while the feeder keeps its schedule.
//!
//! Latencies come from replaying both connections on a dedicated core
//! each, with the sweep lock between them (see [`replay`]): measured
//! on-CPU service times in, so lock contention reaches the end-to-end
//! metrics while hypervisor steal stays out of them.

use std::collections::BTreeMap;
use std::time::{Duration as WallDuration, Instant};

use mira_core::{archive, Archive, Simulation};
use mira_serve::{parse_request, ServeState};
use mira_store::{open_archive, ColumnarArchive};

use crate::archive::{at, grid_len, groups_touched, span, ScanQuery, RACKS};
use crate::reproduce::STEP;
use crate::stats::{pct, Rng};
use crate::trace::Tracer;
use crate::{clock, Ctx, Outcome};

/// Connection threads: the ingest feeder and the query client.
pub const THREADS: usize = 2;
/// Offered query rate of the open-loop phase, requests per second:
/// about a sixth of the saturation throughput (`query_qps_max`)
/// measured on a 2-vCPU Xeon virtual machine, so the server is lightly
/// loaded and the tail comes from the sweep lock, not from queueing.
/// An assumption; the repository records no production traffic.
pub const QUERY_RATE: f64 = 800.0;
/// The p99 latency the open-loop phase must meet at `QUERY_RATE`.
pub const QUERY_P99_LIMIT_US: f64 = 5000.0;
/// Small ingest chunks per second (Poisson), one to twelve steps each.
/// An assumption, like every rate and size of the feeder.
pub const INGEST_RATE: f64 = 40.0;
/// A backfill every this many seconds, cycling one, three and seven
/// days. One ingest request in three is a backfill and one in nine a
/// week's, so the ingest p99 is a week's backfill rather than the knee
/// between backfills and small chunks; and the write lock is held about
/// 10% of the time, so the query p99 lies well inside the tail of waits
/// behind it rather than at its knee. An assumption, sized for that.
pub const BACKFILL_PERIOD_S: f64 = 0.05;

const BACKFILL_STEPS: [usize; 3] = [288, 3 * 288, 7 * 288];
/// Closed-loop requests per saturation throughput sample.
const QPS_WINDOW: usize = 250;
/// Share of the session spent open loop; the rest is saturation.
const OPEN_SHARE: f64 = 0.7;
/// The schedules start this long after the threads are spawned.
const LEAD: WallDuration = WallDuration::from_millis(20);
/// A thread ahead of schedule sleeps until this close to the due time,
/// then spins, so the generator is not late by a sleep's overshoot.
const SPIN: WallDuration = WallDuration::from_micros(300);

const FIGURES: [&str; 8] = [
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig8",
    "fig10",
    "free_cooling",
];

/// One request of either generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    Status,
    Metrics,
    Figure(usize),
    Report,
    Replay(ScanQuery, usize),
    Ingest(usize),
}

impl Cmd {
    pub fn key(self) -> &'static str {
        match self {
            Cmd::Status => "status",
            Cmd::Metrics => "metrics",
            Cmd::Figure(_) => "figure",
            Cmd::Report => "report",
            Cmd::Replay(..) => "replay",
            Cmd::Ingest(_) => "ingest",
        }
    }

    /// How the request takes the state's sweep lock: ingest writes it;
    /// status, metrics, report and every figure but `fig10` (which reads
    /// the RAS log) read it. Replay takes only the store's lock, which
    /// no other connection here contends for.
    fn sweep_lock(self) -> Lock {
        match self {
            Cmd::Ingest(_) => Lock::Write,
            Cmd::Status | Cmd::Metrics | Cmd::Report => Lock::Read,
            Cmd::Figure(i) if FIGURES[i % FIGURES.len()] == "fig10" => Lock::None,
            Cmd::Figure(_) => Lock::Read,
            Cmd::Replay(..) => Lock::None,
        }
    }

    fn line(self, id: u64) -> String {
        match self {
            Cmd::Status => format!("{{\"cmd\":\"status\",\"id\":{id}}}"),
            Cmd::Metrics => format!("{{\"cmd\":\"metrics\",\"id\":{id}}}"),
            Cmd::Figure(i) => format!(
                "{{\"cmd\":\"figure\",\"figure\":\"{}\",\"id\":{id}}}",
                FIGURES[i % FIGURES.len()]
            ),
            Cmd::Report => format!("{{\"cmd\":\"report\",\"id\":{id}}}"),
            Cmd::Replay(q, limit) => format!(
                "{{\"cmd\":\"replay\",\"from\":{},\"to\":{},\"limit\":{limit},\"id\":{id}}}",
                at(q.lo).epoch_seconds(),
                at(q.hi).epoch_seconds()
            ),
            Cmd::Ingest(steps) => format!("{{\"cmd\":\"ingest\",\"steps\":{steps},\"id\":{id}}}"),
        }
    }
}

/// The next query of the seeded mix: status, metrics, figure (every id
/// in turn), report and replay in equal shares, as the repository's
/// serve bench weighs its query mix (replay joins it because a store is
/// attached). A replay covers one to six hours with a limit of ten to
/// 100 rows; those sizes are assumptions, not measured traffic.
pub fn next_query(rng: &mut Rng, figure_turn: &mut usize) -> Cmd {
    match rng.range(0, 4) {
        0 => Cmd::Status,
        1 => Cmd::Metrics,
        2 => {
            *figure_turn += 1;
            Cmd::Figure(*figure_turn % FIGURES.len())
        }
        3 => Cmd::Report,
        _ => {
            let len = rng.range(1, 6) as usize * 12;
            let lo = rng.range(0, (grid_len() - len) as u64) as usize;
            let q = ScanQuery {
                lo,
                hi: lo + len,
                channel: None,
            };
            Cmd::Replay(q, rng.range(10, 100) as usize)
        }
    }
}

/// Due times (ns after the schedule start) of a Poisson stream at
/// `rate` per second over `horizon_s` seconds.
pub fn poisson(rng: &mut Rng, rate: f64, horizon_s: f64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut t = rng.exp(1.0 / rate);
    while t < horizon_s {
        out.push((t * 1e9) as u64);
        t += rng.exp(1.0 / rate);
    }
    out
}

/// The feeder's schedule: Poisson small chunks merged with periodic
/// backfills, in due order.
pub fn ingest_schedule(rng: &mut Rng, horizon_s: f64) -> Vec<(u64, Cmd)> {
    let mut out: Vec<(u64, Cmd)> = poisson(rng, INGEST_RATE, horizon_s)
        .into_iter()
        .map(|due| (due, Cmd::Ingest(rng.range(1, 12) as usize)))
        .collect();
    let mut k = 0;
    loop {
        let due = BACKFILL_PERIOD_S * (k as f64 + 0.5);
        if due >= horizon_s {
            break;
        }
        out.push((
            (due * 1e9) as u64,
            Cmd::Ingest(BACKFILL_STEPS[k % BACKFILL_STEPS.len()]),
        ));
        k += 1;
    }
    out.sort_by_key(|&(due, _)| due);
    out
}

/// One completed request.
#[derive(Debug, Clone)]
struct Done {
    cmd: Cmd,
    id: u64,
    /// Due, start and end in ns after the schedule start; a closed-loop
    /// request is due when it starts.
    due: u64,
    start: u64,
    end: u64,
    /// On-CPU service time of `ServeState::handle`, ns.
    cpu: u64,
    /// The thread was idle, waiting for this request's due time.
    waited: bool,
    /// The reply carried `"ok":true`.
    ok: bool,
    /// A replay reply's `returned`, `rows_scanned`, `groups_scanned`
    /// and `groups_total`.
    scan: Option<[u64; 4]>,
    /// The start of a failed reply, for the failure report.
    error: Option<String>,
}

/// The unsigned integer after `"key":` in a reply (replay replies put
/// their counters before the row array, so the first match is theirs).
fn reply_u64(reply: &str, key: &str) -> Option<u64> {
    let at = reply.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits = reply.get(at..)?;
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits.get(..end)?.parse().ok()
}

/// Waits for `due` (ns after `epoch`), sleeping then spinning; returns
/// whether the thread had to wait at all.
fn wait_until(epoch: Instant, due: u64) -> bool {
    let target = epoch + WallDuration::from_nanos(due);
    let now = Instant::now();
    if now >= target {
        return false;
    }
    if target - now > SPIN {
        std::thread::sleep(target - now - SPIN);
    }
    while Instant::now() < target {
        std::hint::spin_loop();
    }
    true
}

fn since(epoch: Instant) -> u64 {
    u64::try_from(Instant::now().saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Sends one request and records it; with the tracer on, the request,
/// its queue wait and its `handle` call are recorded as spans as they
/// happen.
fn serve_one(
    state: &ServeState,
    epoch: Instant,
    (cmd, id, due, open): (Cmd, u64, u64, bool),
    tracer: &mut Tracer,
) -> Done {
    let waited = if open { wait_until(epoch, due) } else { false };
    let line = cmd.line(id);
    let start = since(epoch);
    let due = if open { due } else { start };
    let request = tracer.enter_at("serve.request", id, due);
    let queue = tracer.enter_at("serve.queue", id, due);
    tracer.exit_at(queue, start);
    let handle = tracer.enter_at("serve.handle", id, start);
    let (reply, cpu_s) = clock::on_cpu(|| state.handle(&line));
    let end = since(epoch);
    tracer.exit_at(handle, end);
    tracer.exit_at(request, end);
    let ok = reply.starts_with("{\"ok\":true");
    let scan = match cmd {
        Cmd::Replay(..) => Some(
            ["returned", "rows_scanned", "groups_scanned", "groups_total"]
                .map(|k| reply_u64(&reply, k).unwrap_or(u64::MAX)),
        ),
        _ => None,
    };
    Done {
        cmd,
        id,
        due,
        start,
        end,
        cpu: (cpu_s * 1e9) as u64,
        waited,
        ok,
        scan,
        error: (!ok).then(|| format!("{line} -> {}", truncate(&reply))),
    }
}

/// One session: the feeder's requests and the client's open-loop ones
/// in full, the saturation phase packed (see [`pack`]) with its replies
/// already checked, the share of vCPU time the host stole, and the
/// spans.
struct Session {
    fed: Vec<Done>,
    queried: Vec<Done>,
    /// When the saturation phase starts, ns after the schedule start.
    open_ns: u64,
    saturation: Vec<u32>,
    saturation_checks: Outcome,
    /// The client thread's CPU time per saturation request, ns: the
    /// request and everything the benchmark does around it, tracing
    /// included.
    client_ns_per_request: f64,
    stolen: f64,
    tracer: Tracer,
}

/// Runs one session of `seconds`, with the tracer on when `trace`.
fn session(state: &ServeState, seed: u64, seconds: f64, trace: bool) -> Session {
    let open_s = seconds * OPEN_SHARE;
    let mut feed_rng = Rng::new(seed, 2);
    let feed = ingest_schedule(&mut feed_rng, seconds);
    let mut query_rng = Rng::new(seed, 3);
    let dues = poisson(&mut query_rng, QUERY_RATE, open_s);
    let end_ns = (seconds * 1e9) as u64;
    let epoch = Instant::now() + LEAD;
    let mut tracer = Tracer::new(trace, epoch);
    let root = tracer.enter_at("serve.session", 0, 0);
    let (mut feed_tracer, mut client_tracer) = (tracer.fork(1, root), tracer.fork(2, root));
    let open_ns = (open_s * 1e9) as u64;
    let steal = clock::steal_s();
    let ((fed, feed_tracer), client) = std::thread::scope(|scope| {
        let feeder = scope.spawn(|| {
            let fed = feed
                .iter()
                .enumerate()
                .map(|(i, &(due, cmd))| {
                    serve_one(state, epoch, (cmd, i as u64, due, true), &mut feed_tracer)
                })
                .collect::<Vec<_>>();
            (fed, feed_tracer)
        });
        let client = scope.spawn(move || {
            let tr = &mut client_tracer;
            let mut figure_turn = 0;
            let mut done = Vec::with_capacity(dues.len());
            for (i, &due) in dues.iter().enumerate() {
                let cmd = next_query(&mut query_rng, &mut figure_turn);
                done.push(serve_one(state, epoch, (cmd, i as u64, due, true), tr));
            }
            wait_until(epoch, open_ns);
            let (mut saturation, mut checks) = (Vec::new(), Outcome::default());
            let (first_id, mut id) = (dues.len() as u64, dues.len() as u64);
            let cpu0 = clock::thread_cpu_s();
            while since(epoch) < end_ns {
                let cmd = next_query(&mut query_rng, &mut figure_turn);
                let d = serve_one(state, epoch, (cmd, id, 0, false), tr);
                saturation.push(pack(d.cpu, cmd.sweep_lock()));
                verify(&d, &mut checks);
                id += 1;
            }
            let per_request = (clock::thread_cpu_s() - cpu0) * 1e9 / (id - first_id).max(1) as f64;
            (done, saturation, checks, per_request, client_tracer)
        });
        let fed = feeder.join().expect("feeder thread panicked");
        let client = client.join().expect("query client panicked");
        (fed, client)
    });
    let stolen = (clock::steal_s() - steal) / (THREADS as f64 * seconds);
    let (queried, saturation, saturation_checks, client_ns_per_request, client_tracer) = client;
    tracer.adopt(feed_tracer);
    tracer.adopt(client_tracer);
    tracer.exit(root);
    Session {
        fed,
        queried,
        open_ns,
        saturation,
        saturation_checks,
        client_ns_per_request,
        stolen,
        tracer,
    }
}

/// How a request takes the state's sweep lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lock {
    None,
    Read,
    Write,
}

impl Lock {
    fn conflicts(self, other: Lock) -> bool {
        matches!(
            (self, other),
            (Lock::Write, Lock::Read | Lock::Write) | (Lock::Read, Lock::Write)
        )
    }
}

/// The top bit of a packed closed-loop request: it reads the sweep lock.
const READS: u32 = 1 << 31;

/// A closed-loop request packed into 32 bits, so the saturation phase's
/// memory use stays small at any throughput: its on-CPU ns (saturating
/// below [`READS`]) and whether it reads the sweep lock.
fn pack(cpu: u64, lock: Lock) -> u32 {
    let ns = u32::try_from(cpu).map_or(READS - 1, |ns| ns.min(READS - 1));
    if lock == Lock::Read {
        ns | READS
    } else {
        ns
    }
}

/// A request as the dedicated-core replay sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Job {
    /// Not started before this, ns after the schedule start: an
    /// open-loop request's due time, the saturation phase's start for a
    /// closed-loop one.
    due: u64,
    cpu: u64,
    lock: Lock,
}

/// Where the replay placed a request, in ns after the schedule start:
/// when it was ready (due, and its connection free), when it started
/// (after any wait on the sweep lock) and when it ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placed {
    ready: u64,
    start: u64,
    end: u64,
}

/// Replays two connections on a dedicated core each, sharing the sweep
/// lock. A connection serves its requests in order; each is ready at
/// the later of its due time and the previous one's end. A request that
/// takes the lock holds it for its whole on-CPU service, so one that
/// conflicts with the other connection's request in progress (a read
/// with a write, or two writes) starts when that one ends. Requests are
/// placed in order of readiness, which grants the lock first come,
/// first served. Calls `placed(connection, placement)` for each.
///
/// The inputs are measured on-CPU times, which host steal does not
/// advance, so the result is the latency each connection would see on
/// dedicated cores, lock contention included. Holding the lock for the
/// whole call is exact for ingest, which does nearly all its work under
/// the write lock, and an upper bound for reads.
fn replay(conns: [&mut dyn Iterator<Item = Job>; 2], mut placed: impl FnMut(usize, Placed)) {
    let mut next = [conns[0].next(), conns[1].next()];
    let mut free = [0u64; 2];
    // Each connection's latest request: its start, end and lock.
    let mut latest = [(0u64, 0u64, Lock::None); 2];
    loop {
        let ready = [0, 1].map(|c| next[c].map(|j| j.due.max(free[c])));
        let c = match ready {
            [Some(a), Some(b)] => usize::from(b < a),
            [Some(_), None] => 0,
            [None, Some(_)] => 1,
            [None, None] => break,
        };
        let (Some(job), Some(ready)) = (next[c], ready[c]) else {
            break;
        };
        // The other connection's latest request started no later than
        // `ready`: requests are placed in order of readiness.
        let (_, other_end, other_lock) = latest[1 - c];
        let start = if job.lock.conflicts(other_lock) && ready < other_end {
            other_end
        } else {
            ready
        };
        let end = start + job.cpu;
        placed(c, Placed { ready, start, end });
        free[c] = end;
        latest[c] = (start, end, job.lock);
        next[c] = conns[c].next();
    }
}

/// A session replayed on dedicated cores: the placement of every
/// open-loop request, and the saturation throughput per window of
/// `QPS_WINDOW` closed-loop requests.
struct Replayed {
    fed: Vec<Placed>,
    queried: Vec<Placed>,
    qps: Vec<f64>,
}

fn replay_session(s: &Session) -> Replayed {
    let job = |d: &Done| Job {
        due: d.due,
        cpu: d.cpu,
        lock: d.cmd.sweep_lock(),
    };
    let closed = |&p: &u32| Job {
        due: s.open_ns,
        cpu: u64::from(p & !READS),
        lock: if p & READS == 0 {
            Lock::None
        } else {
            Lock::Read
        },
    };
    let mut feed = s.fed.iter().map(job);
    let mut client = s
        .queried
        .iter()
        .map(job)
        .chain(s.saturation.iter().map(closed));
    let mut out = Replayed {
        fed: Vec::with_capacity(s.fed.len()),
        queried: Vec::with_capacity(s.queried.len()),
        qps: Vec::new(),
    };
    // The current window: requests placed and when the first was ready.
    let (mut window, mut window_start) = (0, 0);
    replay([&mut feed, &mut client], |c, p| {
        if c == 0 {
            out.fed.push(p);
        } else if out.queried.len() < s.queried.len() {
            out.queried.push(p);
        } else {
            if window == 0 {
                window_start = p.ready;
            }
            window += 1;
            if window == QPS_WINDOW {
                let seconds = (p.end - window_start) as f64 * 1e-9;
                out.qps.push(QPS_WINDOW as f64 / seconds);
                window = 0;
            }
        }
    });
    out
}

fn build_state(ctx: &Ctx, sim: Simulation, out: &mut Outcome) -> Option<ServeState> {
    let (from, to) = span();
    let path = ctx.work.join("serve.mstore");
    let store = ColumnarArchive::create(&path)
        .map_err(mira_core::Error::from)
        .and_then(|mut store| {
            let mut batch = Vec::with_capacity(1024);
            archive::sweep_records(sim.telemetry(), from, to, STEP, |rec| {
                batch.push(*rec);
                if batch.len() == batch.capacity() {
                    store.append_telemetry(&batch)?;
                    batch.clear();
                }
                Ok::<(), mira_core::Error>(())
            })?;
            store.append_telemetry(&batch)?;
            store.flush()?;
            drop(store);
            Ok(open_archive(&path)?)
        });
    let store = out.check_result(store)?;
    let state = out
        .check_result(ServeState::new(sim, STEP))?
        .with_store(store);
    // Warm-up: a day of ingest, then every command once, so no query
    // meets an empty sweep and lazy state is built before timing.
    let mut warm = vec![Cmd::Ingest(288), Cmd::Status, Cmd::Metrics, Cmd::Report];
    warm.extend((0..FIGURES.len()).map(Cmd::Figure));
    warm.push(Cmd::Replay(
        ScanQuery {
            lo: 0,
            hi: 12,
            channel: None,
        },
        10,
    ));
    for (i, cmd) in warm.into_iter().enumerate() {
        let reply = state.handle(&cmd.line(i as u64));
        out.check(reply.starts_with("{\"ok\":true"), || {
            format!("warm-up {reply}")
        });
    }
    Some(state)
}

/// Checks one reply: `"ok":true`, and a replay's row and group counts.
fn verify(d: &Done, out: &mut Outcome) {
    out.check(d.ok, || d.error.clone().unwrap_or_default());
    if let (Cmd::Replay(q, limit), Some([returned, scanned, groups, _])) = (d.cmd, d.scan) {
        let expected = ((q.hi - q.lo) * RACKS) as u64;
        out.check(
            scanned == expected
                && returned == expected.min(limit as u64)
                && groups == groups_touched(q, grid_len() * RACKS).0,
            || format!("replay {q:?}: returned {returned}, scanned {scanned} in {groups} groups"),
        );
    }
}

/// Checks every reply, and that the served aggregate equals a cold
/// sweep of the ingested span.
fn check(ctx: &Ctx, state: &ServeState, s: &mut Session, out: &mut Outcome) {
    for d in s.fed.iter().chain(&s.queried) {
        verify(d, out);
    }
    out.absorb(std::mem::take(&mut s.saturation_checks));
    let sim = state.simulation();
    let from = sim.config().span().0;
    let steps = i64::try_from(state.ingested_steps()).unwrap_or(i64::MAX);
    let cold = sim
        .sweep_plan((from, from + STEP * steps))
        .step(STEP)
        .threads(ctx.threads)
        .summary();
    let served = state.snapshot_summary();
    match (served, cold) {
        (Ok(a), Ok(b)) => out.check(a == b, || "served summary differs from a cold sweep".into()),
        (a, b) => out.check(false, || {
            format!("summaries: served {:?}, cold {:?}", a.err(), b.err())
        }),
    }
}

fn truncate(s: &str) -> &str {
    s.get(..200).unwrap_or(s)
}

/// Latencies (end - due, ns) of the open-loop requests due before `until`.
fn open_latencies(done: &[Done], placed: &[Placed], until: u64) -> Vec<f64> {
    done.iter()
        .zip(placed)
        .filter(|(d, _)| d.due < until)
        .map(|(d, p)| (p.end - d.due) as f64)
        .collect()
}

/// Most requests due but not yet started, seen at any request's start.
fn backlog_max(done: &[Done], placed: &[Placed]) -> f64 {
    let dues: Vec<u64> = done.iter().map(|d| d.due).collect();
    placed
        .iter()
        .enumerate()
        .map(|(i, p)| {
            dues.partition_point(|&due| due <= p.start)
                .saturating_sub(i)
        })
        .max()
        .unwrap_or(0) as f64
}

/// Share of the requests' time from ready to end spent waiting on the
/// sweep lock.
fn lock_wait_frac(placed: &[Placed]) -> f64 {
    let wait: u64 = placed.iter().map(|p| p.start - p.ready).sum();
    let busy: u64 = placed.iter().map(|p| p.end - p.ready).sum();
    wait as f64 / busy.max(1) as f64
}

/// Runs a session and checks its replies and the served aggregate.
fn checked_session(
    ctx: &Ctx,
    state: &ServeState,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
) -> Session {
    let mut s = session(state, ctx.seed, seconds, trace);
    check(ctx, state, &mut s, out);
    s
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (state, setup_s, new_ms) = crate::set_up(ctx, 3, |sim| build_state(ctx, sim, &mut out));
    let seconds = ctx.seconds as f64;
    let sessions = match (state, ctx.trace) {
        (None, _) => Vec::new(),
        (Some(state), false) => vec![checked_session(ctx, &state, seconds, false, &mut out)],
        (Some(state), true) => {
            // Untraced, then traced, each half the run with the same
            // seed on a freshly built state: the client's CPU time per
            // saturation request of the two gives the tracing overhead.
            let untraced = checked_session(ctx, &state, seconds / 2.0, false, &mut out);
            drop(state);
            let (state, _, _) = crate::set_up(ctx, 1, |sim| build_state(ctx, sim, &mut out));
            let traced = state.map(|s| checked_session(ctx, &s, seconds / 2.0, true, &mut out));
            std::iter::once(untraced).chain(traced).collect()
        }
    };
    let _ = std::fs::remove_file(ctx.work.join("serve.mstore"));

    match (ctx.trace, sessions.as_slice()) {
        (true, [untraced, traced]) => {
            layer_metrics(ctx, untraced, traced, seconds / 2.0, &mut out);
            out.median_of("simulation.new_ms", &new_ms, "ms");
        }
        (false, [s]) => {
            end_to_end(s, &mut out);
            out.finish_end_to_end(&setup_s);
        }
        _ => {}
    }
    out
}

/// Latencies from due time on dedicated cores, over the open phase, and
/// the saturation throughput.
fn end_to_end(s: &Session, out: &mut Outcome) {
    let r = replay_session(s);
    let query_lat = open_latencies(&s.queried, &r.queried, s.open_ns);
    let p99_us = pct(&query_lat, 0.99) / 1e3;
    let waited = r.queried.iter().filter(|p| p.start > p.ready).count();
    println!(
        "query p99 {p99_us:.1} us over {} queries at {QUERY_RATE}/s ({:.1}% of the median \
         saturation throughput): limit {QUERY_P99_LIMIT_US} us {}; {:.2}% of the queries \
         waited on the sweep lock, {:.2}% of query and {:.2}% of ingest time",
        query_lat.len(),
        100.0 * QUERY_RATE / pct(&r.qps, 0.5),
        if p99_us <= QUERY_P99_LIMIT_US {
            "met"
        } else {
            "missed"
        },
        100.0 * waited as f64 / r.queried.len().max(1) as f64,
        100.0 * lock_wait_frac(&r.queried),
        100.0 * lock_wait_frac(&r.fed),
    );
    let us: Vec<f64> = query_lat.iter().map(|ns| ns / 1e3).collect();
    out.quantile_of("query_p50_us", &us, 0.5, "us");
    out.quantile_of("query_p99_us", &us, 0.99, "us");
    let ingest_lat = open_latencies(&s.fed, &r.fed, s.open_ns);
    out.metric("ingest_p99_ms", pct(&ingest_lat, 0.99) / 1e6, "ms");
    out.slow_quartile_of("query_qps_max", &r.qps, "1/s", true);
    out.alias("throughput_per_s", "query_qps_max", 1.0, "1/s");
    out.alias("op_ms", "query_p50_us", 1e-3, "ms");
    out.alias("op_tail_ms", "query_p99_us", 1e-3, "ms");
}

/// The serve, store and trace per-layer metrics of the traced session,
/// and its spans written out.
fn layer_metrics(
    ctx: &Ctx,
    untraced: &Session,
    traced: &Session,
    session_s: f64,
    out: &mut Outcome,
) {
    let (fed, queried) = (&traced.fed, &traced.queried);
    let r = replay_session(traced);
    let all: Vec<&Done> = fed.iter().chain(queried).collect();

    let mut service: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for d in &all {
        service
            .entry(d.cmd.key())
            .or_default()
            .push(d.cpu as f64 / 1e3);
    }
    for key in ["status", "metrics", "figure", "report", "replay", "ingest"] {
        let v = service.get(key).map_or(&[][..], Vec::as_slice);
        out.metric(format!("serve.service_us_p50.{key}"), pct(v, 0.5), "us");
        out.metric(format!("serve.service_us_p99.{key}"), pct(v, 0.99), "us");
    }
    let mut parse_us = Vec::with_capacity(all.len());
    for d in &all {
        let line = d.cmd.line(d.id);
        let t = Instant::now();
        let parsed = parse_request(&line);
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        out.check(parsed.is_ok(), || format!("parse {line}"));
    }
    out.median_of("serve.parse_us_p50", &parse_us, "us");

    let waits: Vec<f64> = queried
        .iter()
        .zip(&r.queried)
        .map(|(d, p)| (p.start - d.due) as f64 / 1e3)
        .collect();
    out.metric("serve.queue_wait_us_p99", pct(&waits, 0.99), "us");
    out.metric(
        "serve.query_lock_wait_frac",
        lock_wait_frac(&r.queried),
        "frac",
    );
    out.metric(
        "serve.ingest_lock_wait_frac",
        lock_wait_frac(&r.fed),
        "frac",
    );
    let busy: u64 = fed.iter().map(|d| d.cpu).sum();
    out.metric(
        "serve.ingest_busy_frac",
        busy as f64 / (session_s * 1e9),
        "frac",
    );
    out.metric(
        "serve.backlog_max",
        backlog_max(queried, &r.queried).max(backlog_max(fed, &r.fed)),
        "count",
    );
    let late = all
        .iter()
        .filter(|d| d.waited)
        .map(|d| d.start.saturating_sub(d.due))
        .max()
        .unwrap_or(0);
    out.metric("serve.gen_late_max_ms", late as f64 / 1e6, "ms");
    let wall: Vec<f64> = queried
        .iter()
        .map(|d| (d.end - d.due) as f64 / 1e3)
        .collect();
    out.metric("serve.wall_query_p99_us", pct(&wall, 0.99), "us");
    out.metric("serve.steal_frac", traced.stolen, "frac");

    let (mut groups, mut total, mut useful, mut decoded) = (0u64, 0u64, 0u64, 0u64);
    for d in &all {
        if let (Cmd::Replay(q, _), Some([_, scanned, scanned_groups, all_groups])) = (d.cmd, d.scan)
        {
            groups += scanned_groups;
            total += all_groups;
            useful += scanned;
            decoded += groups_touched(q, grid_len() * RACKS).1;
        }
    }
    out.metric(
        "store.groups_scanned_frac",
        groups as f64 / total as f64,
        "frac",
    );
    out.metric(
        "store.rows_useful_frac",
        useful as f64 / decoded as f64,
        "frac",
    );
    out.metric(
        "trace.overhead_frac",
        traced.client_ns_per_request / untraced.client_ns_per_request - 1.0,
        "frac",
    );
    let path = ctx.work.join("trace-serve.jsonl");
    if let Err(e) = traced.tracer.write_jsonl(&path) {
        out.check(false, || format!("writing {}: {e}", path.display()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let feed = |seed| ingest_schedule(&mut Rng::new(seed, 2), 4.0);
        assert_eq!(feed(7), feed(7));
        assert_ne!(feed(7), feed(8));
        let a = feed(7);
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "in due order");
        let backfills = a
            .iter()
            .filter(|(_, c)| matches!(c, Cmd::Ingest(n) if *n >= 288))
            .count();
        assert_eq!(backfills, 80, "one every 0.05 s");
        let small = a.len() - backfills;
        assert!(
            (110..=210).contains(&small),
            "about 40 chunks a second, got {small}"
        );

        let mix = |seed| {
            let mut rng = Rng::new(seed, 3);
            let mut turn = 0;
            (0..500)
                .map(|_| next_query(&mut rng, &mut turn))
                .collect::<Vec<_>>()
        };
        assert_eq!(mix(7), mix(7));
        assert_ne!(mix(7), mix(8));
        for key in ["status", "metrics", "figure", "report", "replay"] {
            assert!(mix(7).iter().any(|c| c.key() == key), "{key} present");
        }
        assert_eq!(
            poisson(&mut Rng::new(1, 3), 50.0, 2.0),
            poisson(&mut Rng::new(1, 3), 50.0, 2.0)
        );
    }

    #[test]
    fn replay_makes_reads_and_writes_wait_for_each_other() {
        let job = |due, cpu, lock| Job { due, cpu, lock };
        let feed = [job(10, 30, Lock::Write), job(42, 10, Lock::Write)];
        let client = [
            job(20, 5, Lock::Read),
            job(25, 5, Lock::None),
            job(42, 10, Lock::Read),
        ];
        let mut placed = [Vec::new(), Vec::new()];
        replay([&mut feed.into_iter(), &mut client.into_iter()], |c, p| {
            placed[c].push((p.ready, p.start, p.end))
        });
        // The second write, ready at 42, waits for the read in progress
        // (40..45); the first read waits for the first write (10..40).
        assert_eq!(placed[0], vec![(10, 10, 40), (42, 45, 55)]);
        // The lock-free request queues only behind its own connection;
        // the last read waits for the second write.
        assert_eq!(placed[1], vec![(20, 40, 45), (45, 45, 50), (50, 55, 65)]);

        // Reads never wait for reads; packing keeps the lock and time.
        let mut reads = [job(0, 10, Lock::Read)].into_iter();
        let mut more = [job(5, 10, Lock::Read)].into_iter();
        let mut starts = Vec::new();
        replay([&mut reads, &mut more], |_, p| starts.push(p.start));
        assert_eq!(starts, vec![0, 5]);
        assert_eq!(pack(7, Lock::Read), READS | 7);
        assert_eq!(pack(u64::MAX, Lock::None), READS - 1);
    }

    #[test]
    fn every_request_line_parses() {
        let mut rng = Rng::new(3, 3);
        let mut turn = 0;
        for i in 0..200 {
            let line = next_query(&mut rng, &mut turn).line(i);
            assert!(parse_request(&line).is_ok(), "{line}");
        }
        assert!(parse_request(&Cmd::Ingest(5).line(1)).is_ok());
    }
}
