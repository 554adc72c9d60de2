//! The load generator: set-up of the daemon, and the timed phase over
//! at most two client connections (closed-loop lanes and the paced
//! reader).

use crate::plan::{Key, Kind, Op, Plan};
use crate::server::Daemon;
use crate::spans::Recorder;
use frost_server::client::Connection;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The closed-loop lanes run their operation lists in this many
/// consecutive slices; each `_p50_ms` is the median of the slices' p50s
/// and the recorded `ops_per_s` the median slice throughput, so a few
/// slices that a busy host slowed do not move them.
pub const SLICES: usize = 10;

/// Where each slice of a lane starts and ends (`SLICES + 1` offsets).
/// A writer lane is cut before an import, so every slice holds whole
/// write iterations; other lanes are cut into equal operation counts.
pub fn slice_bounds(lane: &[Op]) -> Vec<usize> {
    let imports: Vec<usize> = lane
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, Op::Import { .. }))
        .map(|(i, _)| i)
        .collect();
    (0..=SLICES)
        .map(|k| match k {
            0 => 0,
            k if k == SLICES => lane.len(),
            k if imports.is_empty() => lane.len() * k / SLICES,
            k => imports[imports.len() * k / SLICES],
        })
        .collect()
}

/// One timed operation's outcome.
#[derive(Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    pub ms: f64,
    pub ok: bool,
    /// The slice it ran in (the paced reader's by its due time).
    pub slice: usize,
}

/// A set-up that is ready for the timed phase.
pub struct Setup {
    pub primary: Daemon,
    /// Spawn → ready → warm-up done, in seconds.
    pub seconds: f64,
    /// Warm-up bodies by target: browse-style reads must return them
    /// byte for byte.
    pub warm: HashMap<String, String>,
}

/// Spawns the daemon on a fresh copy of the snapshot and warms up.
pub fn setup(frostd: &Path, work: &Path, tag: &str, plan: &Plan) -> Result<Setup, String> {
    let store = work.join(format!("{tag}.frostb"));
    std::fs::copy(work.join("base.frostb"), &store).map_err(|e| format!("copy snapshot: {e}"))?;
    // Write the copy out first: otherwise the daemon's first WAL fsync
    // may have to flush it, and set-up time would follow the disk.
    std::fs::File::open(&store)
        .and_then(|f| f.sync_all())
        .map_err(|e| format!("sync snapshot copy: {e}"))?;
    let started = Instant::now();
    let primary = Daemon::spawn(frostd, &store, &[], &work.join(format!("{tag}.log")))?;
    primary.wait_ready()?;
    let mut warm = HashMap::new();
    let mut conn = Connection::open(&primary.addr)?;
    for key in &plan.warmup {
        let (status, body) = conn.get(&key.target)?;
        if status != 200 {
            return Err(format!("warm-up {} answered {status}: {body}", key.target));
        }
        warm.insert(key.target.clone(), body);
    }
    drop(conn);
    Ok(Setup {
        primary,
        seconds: started.elapsed().as_secs_f64(),
        warm,
    })
}

/// Where a traced exchange sat: its trace id, its time-to-first-byte
/// span, and when its request went out. `frostd`'s own traces carry durations
/// only, so their spans are laid out from this instant.
#[derive(Clone, Copy)]
pub struct Sent {
    pub trace: u64,
    pub parent: Option<u64>,
    pub at: Instant,
}

/// The latest traced exchange per target.
pub type SentByTarget = HashMap<String, Sent>;

fn merge_sent(into: &mut SentByTarget, from: SentByTarget) {
    for (target, sent) in from {
        match into.get(&target) {
            Some(have) if have.at >= sent.at => {}
            _ => {
                into.insert(target, sent);
            }
        }
    }
}

/// A client connection that counts reconnects and, when traced,
/// records client-side spans for every exchange under the span of the
/// operation it belongs to.
pub struct Client<'a> {
    conn: Connection,
    rec: Option<&'a Recorder>,
    trace: u64,
    parent: Option<u64>,
    reconnects: u64,
    sent: SentByTarget,
}

impl<'a> Client<'a> {
    pub fn open(addr: &str) -> Result<Self, String> {
        Ok(Client {
            conn: Connection::open(addr)?,
            rec: None,
            trace: 0,
            parent: None,
            reconnects: 0,
            sent: HashMap::new(),
        })
    }

    /// Runs `f` as one operation: inside a root span named `name` when
    /// `rec` is set, so the exchanges `f` makes become its children.
    pub fn op<R>(
        &mut self,
        rec: Option<&'a Recorder>,
        name: &str,
        trace: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        self.rec = rec;
        self.trace = trace;
        match rec {
            Some(rec) => rec.time(name, trace, None, |id| {
                self.parent = Some(id);
                f(self)
            }),
            None => {
                self.parent = None;
                f(self)
            }
        }
    }

    pub fn call(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<(u16, String), String> {
        let start = Instant::now();
        let out = match method {
            "GET" => self.conn.get(target),
            "POST" => self.conn.post(target, body),
            _ => self.conn.delete(target),
        };
        let end = Instant::now();
        if let Some(t) = self.conn.last_timing() {
            if !t.reused {
                self.reconnects += 1;
            }
            if let Some(rec) = self.rec {
                let (trace, parent) = (self.trace, self.parent);
                // The exchange began `total` before it ended; anything
                // earlier in the call was connection set-up.
                let sent = end.checked_sub(t.total).unwrap_or(start).max(start);
                if !t.reused {
                    rec.record("client.connect", trace, parent, start, sent);
                }
                let first = sent + t.ttfb;
                let waiting = rec.record("client.send_to_first_byte", trace, parent, sent, first);
                rec.record("client.first_to_last_byte", trace, parent, first, end);
                self.sent.insert(
                    target.to_string(),
                    Sent {
                        trace,
                        parent: Some(waiting),
                        at: sent,
                    },
                );
            }
        }
        out
    }

    pub fn get_200(&mut self, target: &str) -> Result<String, String> {
        let response = self.call("GET", target, &[])?;
        expect_200(target, response)
    }
}

fn expect_200(what: &str, (status, body): (u16, String)) -> Result<String, String> {
    if status == 200 {
        Ok(body)
    } else {
        Err(format!(
            "{what} answered {status}: {}",
            body.chars().take(200).collect::<String>()
        ))
    }
}

/// What the timed phase produced.
#[derive(Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    /// Wall time of the closed-loop lanes (the writer loop on `ingest`).
    pub lane_wall_s: f64,
    pub lane_ops: usize,
    /// Lane throughput of each slice, in operations per second.
    pub slice_ops_per_s: Vec<f64>,
    /// Paced reader: how late each GET was sent, in ms.
    pub lateness_ms: Vec<f64>,
    pub reconnects: u64,
    pub errors: Vec<String>,
    /// `(key, body)` of every 16th analyze operation, for the
    /// in-process comparison.
    pub sampled: Vec<(Key, String)>,
    /// Traced runs: the latest exchange per target on the primary.
    pub sent: SentByTarget,
}

impl Phase {
    /// Takes in what one connection produced.
    fn absorb(&mut self, out: ConnOut) {
        self.samples.extend(out.samples);
        self.errors.extend(out.errors);
        self.sampled.extend(out.sampled);
        self.lateness_ms.extend(out.lateness_ms);
        self.reconnects += out.reconnects;
        merge_sent(&mut self.sent, out.sent);
    }
}

/// What one connection produced.
#[derive(Default)]
pub struct ConnOut {
    samples: Vec<Sample>,
    errors: Vec<String>,
    sampled: Vec<(Key, String)>,
    /// The first fresh `/metrics` body of every import, by experiment.
    pub bodies: HashMap<String, String>,
    lateness_ms: Vec<f64>,
    slice_ends: Vec<Instant>,
    reconnects: u64,
    sent: SentByTarget,
}

impl ConnOut {
    fn push(&mut self, kind: Kind, ms: f64, slice: usize, result: Result<(), String>) {
        let ok = result.is_ok();
        if let Err(e) = result {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.samples.push(Sample {
            kind,
            ms,
            ok,
            slice,
        });
    }

    fn close(&mut self, client: Client) {
        self.reconnects = client.reconnects;
        self.sent = client.sent;
    }
}

/// What every connection thread of a timed phase shares.
struct Shared<'a> {
    plan: &'a Plan,
    warm: &'a HashMap<String, String>,
    rec: Option<&'a Recorder>,
    start: Instant,
}

fn check_warm(warm: &HashMap<String, String>, target: &str, body: &str) -> Result<(), String> {
    match warm.get(target) {
        Some(w) if w == body => Ok(()),
        Some(_) => Err(format!("{target}: body differs from its warm-up body")),
        None => Ok(()),
    }
}

/// Executes one operation; returns an error message on failure.
pub fn execute(
    client: &mut Client,
    op: &Op,
    index: usize,
    warm: &HashMap<String, String>,
    out: &mut ConnOut,
) -> Result<(), String> {
    match op {
        Op::Get { kind, key } => {
            let body = client.get_200(&key.target)?;
            match kind {
                Kind::Read | Kind::DiagramHit => check_warm(warm, &key.target, &body)?,
                _ => {
                    if index.is_multiple_of(16) {
                        out.sampled.push((key.clone(), body));
                    }
                }
            }
        }
        Op::Import {
            dataset,
            name,
            csv,
            pairs,
        } => {
            let target = format!("/experiments?dataset={dataset}&name={name}");
            let body = expect_200(&target, client.call("POST", &target, csv.as_bytes())?)?;
            let parsed = serde_json::from_str(&body).map_err(|e| format!("import body: {e:?}"))?;
            let got = parsed.get("pairs").and_then(|v| v.as_f64());
            if got != Some(*pairs as f64) {
                return Err(format!(
                    "import {name}: server reports {got:?} pairs, CSV holds {pairs} distinct"
                ));
            }
        }
        Op::FreshRead { reads } => {
            for (n, key) in reads.iter().enumerate() {
                let body = client.get_200(&key.target)?;
                if let (0, frost_storage::api::Request::GetMetrics { experiment }) =
                    (n, &key.request)
                {
                    out.bodies.insert(experiment.clone(), body);
                }
            }
        }
        Op::Delete { name } => {
            let target = format!("/experiments/{name}");
            expect_200(&target, client.call("DELETE", &target, &[])?)?;
        }
        Op::Save => {
            expect_200(
                "/snapshot/save",
                client.call("POST", "/snapshot/save", &[])?,
            )?;
        }
    }
    Ok(())
}

/// Runs the plan's lead-in on one connection, untimed; any failure
/// fails the run.
pub fn lead_in(plan: &Plan, setup: &Setup) -> Result<(), String> {
    if plan.lead_in.is_empty() {
        return Ok(());
    }
    let mut client = Client::open(&setup.primary.addr)?;
    let mut out = ConnOut::default();
    for (i, op) in plan.lead_in.iter().enumerate() {
        execute(&mut client, op, i, &setup.warm, &mut out).map_err(|e| format!("lead-in: {e}"))?;
    }
    Ok(())
}

/// Runs one closed-loop lane in `SLICES` consecutive slices; all lanes
/// meet at a barrier after each slice, and lane 0 records when each
/// slice ended.
fn run_lane(sh: &Shared, addr: &str, lane_no: usize, barrier: &Barrier) -> Result<ConnOut, String> {
    let lanes = sh.plan.lanes.len();
    let lane = &sh.plan.lanes[lane_no];
    let mut client = match Client::open(addr) {
        Ok(c) => c,
        Err(e) => {
            // Keep the other lanes from waiting forever.
            for _ in 0..SLICES {
                barrier.wait();
            }
            return Err(e);
        }
    };
    let mut out = ConnOut {
        samples: Vec::with_capacity(lane.len()),
        ..ConnOut::default()
    };
    let bounds = slice_bounds(lane);
    for slice in 0..SLICES {
        for (i, op) in lane
            .iter()
            .enumerate()
            .take(bounds[slice + 1])
            .skip(bounds[slice])
        {
            let index = i * lanes + lane_no;
            let rec = sh.rec.filter(|_| index.is_multiple_of(sh.plan.trace_every));
            let start = Instant::now();
            let name = format!("op.{}", op.kind().name());
            let trace = (lane_no as u64) << 40 | i as u64;
            let result = client.op(rec, &name, trace, |c| {
                execute(c, op, index, sh.warm, &mut out)
            });
            out.push(
                op.kind(),
                start.elapsed().as_secs_f64() * 1e3,
                slice,
                result,
            );
        }
        barrier.wait();
        if lane_no == 0 {
            out.slice_ends.push(Instant::now());
        }
    }
    out.close(client);
    Ok(out)
}

/// Open-loop reader: GET `i` is due at `start + i/rate`; its latency
/// runs from when it was due, so a stall also delays those behind it.
fn run_paced(sh: &Shared, addr: &str, paced: &crate::plan::Paced) -> Result<ConnOut, String> {
    let mut client = Client::open(addr)?;
    let mut out = ConnOut::default();
    for (i, &k) in paced.order.iter().enumerate() {
        let due = sh.start + Duration::from_secs_f64(i as f64 / paced.rate);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        out.lateness_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let target = &paced.keys[k].target;
        let result = client.op(sh.rec, "op.read", 1u64 << 41 | i as u64, |c| {
            let body = c.get_200(target)?;
            check_warm(sh.warm, target, &body)
        });
        out.push(
            Kind::Read,
            Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3,
            i * SLICES / paced.order.len(),
            result,
        );
    }
    out.close(client);
    Ok(out)
}

/// Runs the plan's timed phase against a ready set-up.
pub fn timed_phase(plan: &Plan, setup: &Setup, rec: Option<&Recorder>) -> Result<Phase, String> {
    let addr = setup.primary.addr.as_str();
    let sh = Shared {
        plan,
        warm: &setup.warm,
        rec,
        start: Instant::now(),
    };
    let sh = &sh;
    let mut phase = Phase::default();
    let barrier = Barrier::new(plan.lanes.len());
    let barrier = &barrier;
    std::thread::scope(|s| -> Result<(), String> {
        let lanes: Vec<_> = (0..plan.lanes.len())
            .map(|n| s.spawn(move || run_lane(sh, addr, n, barrier)))
            .collect();
        let paced = plan
            .paced
            .as_ref()
            .map(|p| s.spawn(move || run_paced(sh, addr, p)));
        let mut slice_ends = Vec::new();
        for lane in lanes {
            let mut out = lane
                .join()
                .map_err(|_| "lane thread panicked".to_string())??;
            slice_ends.append(&mut out.slice_ends);
            phase.absorb(out);
        }
        phase.lane_wall_s = sh.start.elapsed().as_secs_f64();
        phase.lane_ops = plan.lanes.iter().map(Vec::len).sum();
        let mut slice_start = sh.start;
        let bounds: Vec<Vec<usize>> = plan.lanes.iter().map(|l| slice_bounds(l)).collect();
        for (k, end) in slice_ends.into_iter().enumerate() {
            let ops: usize = bounds.iter().map(|b| b[k + 1] - b[k]).sum();
            phase
                .slice_ops_per_s
                .push(ops as f64 / end.duration_since(slice_start).as_secs_f64());
            slice_start = end;
        }
        if let Some(p) = paced {
            phase.absorb(
                p.join()
                    .map_err(|_| "paced reader panicked".to_string())??,
            );
        }
        Ok(())
    })?;
    Ok(phase)
}
