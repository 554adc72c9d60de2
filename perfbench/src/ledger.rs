//! The server-side ledger: `frostd`'s own `/metrics` (Prometheus text)
//! and `/stats` (JSON), scraped before and after a timed phase and
//! diffed into per-layer numbers.

use frost_server::client::Connection;
use std::collections::BTreeMap;

/// One scrape: every Prometheus sample by its full series name
/// (`name{labels}`), plus the `/stats` object.
#[derive(Clone, Default)]
pub struct Scrape {
    samples: BTreeMap<String, f64>,
    stats: BTreeMap<String, f64>,
}

impl Scrape {
    pub fn take(addr: &str) -> Result<Scrape, String> {
        let mut conn = Connection::open(addr)?;
        let (status, text) = conn.get("/metrics")?;
        if status != 200 {
            return Err(format!("GET /metrics answered {status}"));
        }
        let mut samples = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    samples.insert(series.to_string(), v);
                }
            }
        }
        let (status, body) = conn.get("/stats")?;
        if status != 200 {
            return Err(format!("GET /stats answered {status}"));
        }
        let parsed = serde_json::from_str(&body).map_err(|e| format!("/stats: {e:?}"))?;
        let mut stats = BTreeMap::new();
        if let serde_json::Value::Object(entries) = parsed {
            for (k, v) in entries {
                if let Some(n) = v.as_f64() {
                    stats.insert(k, n);
                }
            }
        }
        Ok(Scrape { samples, stats })
    }

    /// A sample's value (0 when absent — counters start unreported).
    pub fn sample(&self, series: &str) -> f64 {
        self.samples.get(series).copied().unwrap_or(0.0)
    }

    /// A `/stats` counter (0 when absent).
    pub fn stat(&self, key: &str) -> f64 {
        self.stats.get(key).copied().unwrap_or(0.0)
    }

    /// Cumulative bucket counts of one histogram series: `(le, count)`,
    /// ascending, without `+Inf`.
    fn buckets(&self, name: &str, labels: &str) -> Vec<(f64, f64)> {
        let prefix = if labels.is_empty() {
            format!("{name}_bucket{{le=\"")
        } else {
            format!("{name}_bucket{{{labels},le=\"")
        };
        let mut out: Vec<(f64, f64)> = self
            .samples
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .filter_map(|(k, v)| {
                let le = k[prefix.len()..].trim_end_matches("\"}");
                le.parse::<f64>().ok().map(|le| (le, *v))
            })
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }
}

/// The change of one histogram between two scrapes.
pub struct HistDelta {
    /// `(upper bound, observations in this bucket)`, ascending.
    buckets: Vec<(f64, f64)>,
    pub count: f64,
    pub sum: f64,
}

impl HistDelta {
    pub fn between(before: &Scrape, after: &Scrape, name: &str, labels: &str) -> HistDelta {
        let cumulative = |s: &Scrape| -> BTreeMap<u64, f64> {
            s.buckets(name, labels)
                .into_iter()
                .map(|(le, c)| (le.to_bits(), c))
                .collect()
        };
        let (b, a) = (cumulative(before), cumulative(after));
        // Only non-empty buckets are exposed, so a bucket absent in one
        // scrape holds the cumulative count of the next lower one there.
        let lookup = |m: &BTreeMap<u64, f64>, le: f64| -> f64 {
            m.iter()
                .filter(|(k, _)| f64::from_bits(**k) <= le)
                .map(|(_, v)| *v)
                .fold(0.0, f64::max)
        };
        let mut les: Vec<f64> = a
            .keys()
            .chain(b.keys())
            .map(|k| f64::from_bits(*k))
            .collect();
        les.sort_by(f64::total_cmp);
        les.dedup();
        let mut prev = 0.0;
        let mut buckets = Vec::with_capacity(les.len());
        for le in les {
            let cum = lookup(&a, le) - lookup(&b, le);
            buckets.push((le, (cum - prev).max(0.0)));
            prev = cum;
        }
        let series = |suffix: &str| {
            if labels.is_empty() {
                format!("{name}_{suffix}")
            } else {
                format!("{name}_{suffix}{{{labels}}}")
            }
        };
        HistDelta {
            buckets,
            count: after.sample(&series("count")) - before.sample(&series("count")),
            sum: after.sample(&series("sum")) - before.sample(&series("sum")),
        }
    }

    /// Quantile `q`, interpolated linearly inside the bucket that holds
    /// it (from the previous exposed bound to its own); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: f64 = self.buckets.iter().map(|b| b.1).sum();
        if total <= 0.0 {
            return 0.0;
        }
        let target = q * total;
        let (mut seen, mut lower) = (0.0, 0.0);
        for &(le, n) in &self.buckets {
            if n > 0.0 && seen + n >= target {
                return lower + (le - lower) * ((target - seen) / n).clamp(0.0, 1.0);
            }
            seen += n;
            lower = le;
        }
        lower
    }

    pub fn mean(&self) -> f64 {
        if self.count > 0.0 {
            self.sum / self.count
        } else {
            0.0
        }
    }
}

/// Stage p50 in microseconds from the stage histogram. A stage the
/// timed phase never reached (the evaluation stages of a hit-only
/// phase) is reported over the daemon's whole life, set-up included.
pub fn stage_p50_us(before: &Scrape, after: &Scrape, stage: &str) -> f64 {
    let labels = format!("stage=\"{stage}\"");
    let name = "frost_http_stage_duration_seconds";
    let mut delta = HistDelta::between(before, after, name, &labels);
    if delta.count <= 0.0 {
        delta = HistDelta::between(&Scrape::default(), after, name, &labels);
    }
    delta.quantile(0.5) * 1e6
}

/// One request trace from `frostd`'s `/debug/traces` ring: its target
/// and its stage durations in pipeline order (they sum to its total).
pub struct ServerTrace {
    pub target: String,
    pub stages: Vec<(String, u64)>,
}

/// The daemon's retained request traces (the last 256 by default).
pub fn server_traces(addr: &str) -> Result<Vec<ServerTrace>, String> {
    let mut conn = Connection::open(addr)?;
    let (status, body) = conn.get("/debug/traces")?;
    if status != 200 {
        return Err(format!("GET /debug/traces answered {status}"));
    }
    let parsed = serde_json::from_str(&body).map_err(|e| format!("/debug/traces: {e:?}"))?;
    let traces = parsed
        .get("traces")
        .and_then(|t| t.as_array())
        .unwrap_or(&[]);
    Ok(traces
        .iter()
        .filter_map(|t| {
            let target = t.get("target")?.as_str()?.to_string();
            let stages = t
                .get("stages")?
                .as_array()?
                .iter()
                .filter_map(|s| {
                    Some((
                        s.get("stage")?.as_str()?.to_string(),
                        s.get("ns")?.as_f64()? as u64,
                    ))
                })
                .collect();
            Some(ServerTrace { target, stages })
        })
        .collect())
}

/// The cache-class counters of a timed phase, from `/stats`.
#[derive(Debug, Clone, Copy)]
pub struct CacheClass {
    pub response_hits: f64,
    pub response_misses: f64,
    pub body_hits: f64,
    pub body_misses: f64,
    pub renders: f64,
}

impl CacheClass {
    pub fn between(before: &Scrape, after: &Scrape) -> CacheClass {
        let d = |k: &str| after.stat(k) - before.stat(k);
        CacheClass {
            response_hits: d("response_hits"),
            response_misses: d("response_misses"),
            body_hits: d("hits"),
            body_misses: d("misses"),
            renders: d("json_renders"),
        }
    }
}
