//! The replication probe of a traced run: the layer probe's writes made
//! against a real primary `frostd` with one async replica attached. The
//! replication numbers come from the two daemons' own `/metrics` and
//! `/readyz`, and every import the replica serves must have the body the
//! primary served for it.

use crate::drive::{execute, Client, ConnOut};
use crate::ledger::Scrape;
use crate::plan::Op;
use crate::replay::{ms, Layers};
use crate::server::Daemon;
use crate::spans::{median, Recorder};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// How long the replica may take to serve an import, or to follow a
/// compaction.
const CATCH_UP_TIMEOUT: Duration = Duration::from_secs(10);
/// Pause between two polls of the replica.
const POLL_PAUSE: Duration = Duration::from_millis(1);
/// Trace ids of the probe's operations.
const TRACE: u64 = 4 << 40;

/// A node's durable WAL position from its `/readyz`: `(bytes, records)`.
fn position(client: &mut Client) -> Result<(f64, f64), String> {
    let (_, body) = client.call("GET", "/readyz", &[])?;
    let parsed = serde_json::from_str(&body).map_err(|e| format!("/readyz: {e:?}"))?;
    let field = |k: &str| {
        parsed
            .get(k)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("/readyz has no {k}"))
    };
    Ok((field("applied_offset_bytes")?, field("applied_records")?))
}

/// Polls the replica until `done` holds for an answer; returns when.
fn wait_for(
    client: &mut Client,
    what: &str,
    mut done: impl FnMut(&mut Client) -> Result<bool, String>,
) -> Result<Instant, String> {
    let start = Instant::now();
    loop {
        if done(client)? {
            return Ok(Instant::now());
        }
        if start.elapsed() > CATCH_UP_TIMEOUT {
            return Err(format!("replica: {what} after {CATCH_UP_TIMEOUT:?}"));
        }
        std::thread::sleep(POLL_PAUSE);
    }
}

/// What the probe measured, and what it found wrong.
pub struct Probe {
    pub layers: Layers,
    pub problems: Vec<String>,
}

/// Boots a primary on a copy of `work/base.frostb` and a replica that
/// bootstraps from it, then makes `writes` on the primary. After every
/// import it reads how many WAL records the replica is behind and times
/// until the replica serves the import; after a compaction it times
/// until the replica is at the primary's new WAL position.
pub fn probe(
    frostd: &Path,
    work: &Path,
    writes: &[Op],
    rec: Option<&Recorder>,
) -> Result<Probe, String> {
    let store = work.join("replication.frostb");
    std::fs::copy(work.join("base.frostb"), &store).map_err(|e| format!("copy snapshot: {e}"))?;
    let primary = Daemon::spawn(frostd, &store, &[], &work.join("replication.log"))?;
    primary.wait_ready()?;
    let replica = Daemon::spawn(
        frostd,
        &work.join("replication-replica.frostb"),
        &["--replica-of".to_string(), primary.addr.clone()],
        &work.join("replication-replica.log"),
    )?;
    replica.wait_ready()?;
    let mut writer = Client::open(&primary.addr)?;
    let mut watcher = Client::open(&replica.addr)?;
    let start = position(&mut writer)?;
    wait_for(&mut watcher, "not at the primary's position", |c| {
        Ok(position(c)? == start)
    })?;

    let before = Scrape::take(&primary.addr)?;
    let mut until_save = None;
    let mut out = ConnOut::default();
    let mut served = HashMap::new();
    let mut problems = Vec::new();
    let (mut lag, mut visible_ms, mut rebootstrap_ms) = (Vec::new(), Vec::new(), Vec::new());
    let no_warm = HashMap::new();
    for (i, op) in writes.iter().enumerate() {
        let trace = TRACE | i as u64;
        if matches!(op, Op::Save) && until_save.is_none() {
            until_save = Some(Scrape::take(&primary.addr)?);
        }
        let name = format!("op.{}", op.kind().name());
        let done = writer.op(rec, &name, trace, |c| execute(c, op, i, &no_warm, &mut out));
        let acked = Instant::now();
        if let Err(e) = done {
            problems.push(format!("replication probe: {e}"));
            continue;
        }
        let caught_up = match op {
            Op::Import { name, .. } => {
                let behind = position(&mut writer)?.1 - position(&mut watcher)?.1;
                if until_save.is_none() {
                    lag.push(behind);
                }
                let target = format!("/metrics?experiment={name}");
                watcher
                    .op(rec, "replica.visible", trace, |c| {
                        wait_for(c, &format!("{name} not visible"), |c| {
                            let (status, body) = c.call("GET", &target, &[])?;
                            match status {
                                200 => {
                                    served.insert(name.clone(), body);
                                    Ok(true)
                                }
                                404 => Ok(false),
                                other => Err(format!("replica {target} answered {other}")),
                            }
                        })
                    })
                    .map(|at| visible_ms.push(ms(at - acked)))
            }
            Op::Save => {
                let now = position(&mut writer)?;
                watcher
                    .op(rec, "replica.rebootstrap", trace, |c| {
                        wait_for(c, "did not follow the compaction", |c| {
                            Ok(position(c)? == now)
                        })
                    })
                    .map(|at| rebootstrap_ms.push(ms(at - acked)))
            }
            _ => Ok(()),
        };
        if let Err(e) = caught_up {
            problems.push(e);
        }
    }
    let until_save = until_save.ok_or("the probe's writes hold no compaction")?;
    for (name, body) in &served {
        if out.bodies.get(name) != Some(body) {
            problems.push(format!("{name}: replica body differs from the primary's"));
        }
    }
    if served.len() != out.bodies.len() {
        problems.push(format!(
            "{} of {} imports were served by the replica",
            served.len(),
            out.bodies.len()
        ));
    }

    let d = |series: &str| until_save.sample(series) - before.sample(series);
    let wal_bytes = d("frost_replication_applied_offset_bytes");
    let mut layers = Layers::new();
    layers.insert(
        "replication.polls".into(),
        d("frost_replication_polls_total"),
    );
    layers.insert("replication.wal_bytes".into(), wal_bytes);
    layers.insert(
        "replication.streamed_bytes_per_wal_byte".into(),
        d("frost_replication_streamed_bytes_total") / wal_bytes.max(1.0),
    );
    layers.insert(
        "replication.lag_records".into(),
        lag.iter().sum::<f64>() / lag.len().max(1) as f64,
    );
    layers.insert("replication.visible_ms".into(), median(&visible_ms));
    layers.insert("replication.rebootstrap_ms".into(), median(&rebootstrap_ms));
    Ok(Probe { layers, problems })
}
