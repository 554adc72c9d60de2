//! The Frost command-line interface.
//!
//! Snowman exposes its full feature set through GUI, REST API and CLI;
//! this binary is the CLI of the Rust reproduction, working directly on
//! CSV files:
//!
//! ```text
//! frost profile  <dataset.csv>
//! frost evaluate <dataset.csv> <gold-pairs.csv> <experiment.csv>
//! frost diagram  <dataset.csv> <gold-pairs.csv> <experiment.csv> [samples]
//! frost compare  <dataset.csv> <gold-pairs.csv> <experiment.csv>...
//! frost venn     <dataset.csv> <gold-pairs.csv> <experiment.csv>...
//! frost match    <dataset.csv> [threshold]
//! frost sample   <store-dir> [scale]
//! frost snapshot save <store-dir> <file.frostb>
//! frost snapshot load <file.frostb> [export-dir]
//! frost serve    <store.frostb | store-dir> [port]
//! frost get      [--timing] <url>...
//! frost herd     <host:port> <connections> [probe-target]
//! frost import   <host:port[,host:port...]> <dataset> <name> <experiment.csv>
//! frost promote  <host:port>
//! ```
//!
//! Datasets are CSV with an `id` column; gold standards and experiments
//! are `id1,id2[,similarity]` pair lists (§3.1.1, §5.1). Store
//! directories are the CSV layout of `frost_storage::persist`;
//! `snapshot save/load` convert between that interchange format and
//! the binary `FROSTB` at-rest format, and `serve` starts the `frostd`
//! HTTP server on either. `import` uploads an experiment pair list to
//! a running server (`POST /experiments`), which journals it to the
//! WAL when serving a snapshot; a comma-separated authority list is
//! an ordered failover list — a replica's `Frost-Primary` hint and
//! unreachable endpoints re-point the upload. `promote` flips a
//! replica into a primary (`POST /replication/promote`), the manual
//! failover step after a primary is lost. `get --timing` reports
//! client-side
//! per-request latency (connection reuse, time to first byte, total)
//! on stderr, leaving the response bodies on stdout untouched.

use frost::core::dataset::CsvOptions;
use frost::core::diagram::{DiagramEngine, MetricDiagram};
use frost::core::metrics::confusion::ConfusionMatrix;
use frost::core::metrics::pair::PairMetric;
use frost::core::profiling::DatasetProfile;
use frost::storage::import::{
    export_experiment, import_experiment, import_gold_pairs, DatasetImporter,
};
use std::process::ExitCode;

/// A parsed CLI invocation.
#[derive(Debug, PartialEq)]
enum Command {
    Profile {
        dataset: String,
    },
    Evaluate {
        dataset: String,
        gold: String,
        experiment: String,
    },
    Diagram {
        dataset: String,
        gold: String,
        experiment: String,
        samples: usize,
    },
    Compare {
        dataset: String,
        gold: String,
        experiments: Vec<String>,
    },
    Venn {
        dataset: String,
        gold: String,
        experiments: Vec<String>,
    },
    Match {
        dataset: String,
        threshold: f64,
    },
    Sample {
        dir: String,
        scale: f64,
    },
    SnapshotSave {
        store_dir: String,
        file: String,
    },
    SnapshotLoad {
        file: String,
        export: Option<String>,
    },
    Serve {
        store: String,
        port: u16,
    },
    Get {
        urls: Vec<String>,
        timing: bool,
    },
    Herd {
        authority: String,
        connections: usize,
        probe: String,
    },
    Import {
        authority: String,
        dataset: String,
        name: String,
        file: String,
    },
    Promote {
        authority: String,
    },
}

const USAGE: &str = "\
usage:
  frost profile  <dataset.csv>
  frost evaluate <dataset.csv> <gold-pairs.csv> <experiment.csv>
  frost diagram  <dataset.csv> <gold-pairs.csv> <experiment.csv> [samples]
  frost compare  <dataset.csv> <gold-pairs.csv> <experiment.csv>...
  frost venn     <dataset.csv> <gold-pairs.csv> <experiment.csv>...
  frost match    <dataset.csv> [threshold]
  frost sample   <store-dir> [scale]
  frost snapshot save <store-dir> <file.frostb>
  frost snapshot load <file.frostb> [export-dir]
  frost serve    <store.frostb | store-dir> [port]
  frost get      [--timing] <url>...
  frost herd     <host:port> <connections> [probe-target]
  frost import   <host:port[,host:port...]> <dataset> <name> <experiment.csv>
  frost promote  <host:port>
";

fn parse_args(args: &[String]) -> Result<Command, String> {
    let cmd = args.first().ok_or_else(|| USAGE.to_string())?;
    match (cmd.as_str(), &args[1..]) {
        ("profile", [dataset]) => Ok(Command::Profile {
            dataset: dataset.clone(),
        }),
        ("evaluate", [dataset, gold, experiment]) => Ok(Command::Evaluate {
            dataset: dataset.clone(),
            gold: gold.clone(),
            experiment: experiment.clone(),
        }),
        ("diagram", [dataset, gold, experiment, rest @ ..]) if rest.len() <= 1 => {
            let samples = match rest.first() {
                Some(s) => s
                    .parse::<usize>()
                    .map_err(|_| format!("bad sample count {s:?}"))?,
                None => 20,
            };
            if samples < 2 {
                return Err("samples must be at least 2".into());
            }
            Ok(Command::Diagram {
                dataset: dataset.clone(),
                gold: gold.clone(),
                experiment: experiment.clone(),
                samples,
            })
        }
        ("compare", [dataset, gold, experiments @ ..]) if !experiments.is_empty() => {
            Ok(Command::Compare {
                dataset: dataset.clone(),
                gold: gold.clone(),
                experiments: experiments.to_vec(),
            })
        }
        ("venn", [dataset, gold, experiments @ ..]) if !experiments.is_empty() => {
            Ok(Command::Venn {
                dataset: dataset.clone(),
                gold: gold.clone(),
                experiments: experiments.to_vec(),
            })
        }
        ("match", [dataset, rest @ ..]) if rest.len() <= 1 => {
            let threshold = match rest.first() {
                Some(t) => t
                    .parse::<f64>()
                    .map_err(|_| format!("bad threshold {t:?}"))?,
                None => 0.8,
            };
            Ok(Command::Match {
                dataset: dataset.clone(),
                threshold,
            })
        }
        ("sample", [dir, rest @ ..]) if rest.len() <= 1 => {
            let scale = match rest.first() {
                Some(s) => {
                    let v = s.parse::<f64>().map_err(|_| format!("bad scale {s:?}"))?;
                    if !v.is_finite() || v <= 0.0 {
                        return Err("scale must be positive".into());
                    }
                    v
                }
                None => 0.1,
            };
            Ok(Command::Sample {
                dir: dir.clone(),
                scale,
            })
        }
        ("snapshot", [sub, store_dir, file]) if sub == "save" => Ok(Command::SnapshotSave {
            store_dir: store_dir.clone(),
            file: file.clone(),
        }),
        ("snapshot", [sub, file, rest @ ..]) if sub == "load" && rest.len() <= 1 => {
            Ok(Command::SnapshotLoad {
                file: file.clone(),
                export: rest.first().map(|s| s.to_string()),
            })
        }
        ("serve", [store, rest @ ..]) if rest.len() <= 1 => {
            let port = match rest.first() {
                Some(p) => p.parse::<u16>().map_err(|_| format!("bad port {p:?}"))?,
                None => 7878,
            };
            Ok(Command::Serve {
                store: store.clone(),
                port,
            })
        }
        ("get", rest) if !rest.is_empty() => {
            let timing = rest[0] == "--timing";
            let urls = if timing { &rest[1..] } else { rest };
            if urls.is_empty() {
                return Err(USAGE.to_string());
            }
            Ok(Command::Get {
                urls: urls.to_vec(),
                timing,
            })
        }
        ("herd", [authority, connections, rest @ ..]) if rest.len() <= 1 => {
            let connections = connections
                .parse::<usize>()
                .map_err(|_| format!("bad connection count {connections:?}"))?;
            if connections == 0 {
                return Err("connection count must be positive".into());
            }
            Ok(Command::Herd {
                authority: authority.clone(),
                connections,
                probe: rest
                    .first()
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "/healthz".to_string()),
            })
        }
        ("import", [authority, dataset, name, file]) => Ok(Command::Import {
            authority: authority.clone(),
            dataset: dataset.clone(),
            name: name.clone(),
            file: file.clone(),
        }),
        ("promote", [authority]) => Ok(Command::Promote {
            authority: authority.clone(),
        }),
        _ => Err(USAGE.to_string()),
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Display labels for the experiment files: the file name, so output
/// is stable regardless of where the fixtures live — except when two
/// arguments share a file name (`runA/exp.csv runB/exp.csv`), which
/// falls back to the full path for the colliding entries so every
/// Venn-region label stays unambiguous.
fn labels_of(paths: &[String]) -> Vec<String> {
    let file_names: Vec<String> = paths
        .iter()
        .map(|path| {
            std::path::Path::new(path)
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.clone())
        })
        .collect();
    file_names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            if file_names.iter().filter(|other| *other == name).count() > 1 {
                paths[i].clone()
            } else {
                name.clone()
            }
        })
        .collect()
}

/// Imports a dataset, gold standard and experiment list, then renders
/// either the `compare` region listing or the `venn` table. Both only
/// print region sizes, so every set (the gold set last, under the
/// `<gold>` label) is built once as a roaring set and the regions are
/// counted in one merge, never built.
fn run_venn_view(
    importer: &DatasetImporter,
    dataset: &str,
    gold: &str,
    experiments: &[String],
    table: bool,
) -> Result<(), String> {
    use frost::core::dataset::{RoaringPairSet, MAX_VENN_SETS};

    if experiments.len() >= MAX_VENN_SETS {
        let max = MAX_VENN_SETS - 1;
        return Err(format!(
            "at most {max} experiments can be compared ({MAX_VENN_SETS} sets with the gold standard)"
        ));
    }
    let ds = importer
        .import("dataset", &read(dataset)?)
        .map_err(|e| e.to_string())?;
    let truth =
        import_gold_pairs(&ds, &read(gold)?, CsvOptions::comma()).map_err(|e| e.to_string())?;
    let mut sets: Vec<RoaringPairSet> = Vec::with_capacity(experiments.len() + 1);
    for (i, path) in experiments.iter().enumerate() {
        let exp = import_experiment(&format!("exp-{i}"), &ds, &read(path)?, CsvOptions::comma())
            .map_err(|e| e.to_string())?;
        sets.push(exp.roaring_pair_set());
    }
    sets.push(truth.roaring_pair_set());
    let mut names = labels_of(experiments);
    names.push("<gold>".into());

    let regions = frost::core::explore::setops::venn_counts(&sets.iter().collect::<Vec<_>>());
    if table {
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        print!("{}", frost::core::report::venn_table(&regions, &name_refs));
    } else {
        for (membership, count) in regions {
            let members: Vec<&str> = names
                .iter()
                .enumerate()
                .filter(|&(i, _)| membership & (1 << i) != 0)
                .map(|(_, n)| n.as_str())
                .collect();
            println!("{count:>7} pairs exactly in: {}", members.join(" ∩ "));
        }
    }
    Ok(())
}

fn run(command: Command) -> Result<(), String> {
    let importer = DatasetImporter::standard();
    match command {
        Command::Profile { dataset } => {
            let ds = importer
                .import("dataset", &read(&dataset)?)
                .map_err(|e| e.to_string())?;
            let p = DatasetProfile::without_truth(&ds);
            println!("records:           {}", p.tuple_count);
            println!("attributes:        {}", p.schema_complexity);
            println!("sparsity:          {:.4}", p.sparsity);
            println!("textuality:        {:.4}", p.textuality);
            for (name, sp) in ds.schema().attributes().iter().zip(&p.attribute_sparsity) {
                println!("  sparsity[{name}] = {sp:.4}");
            }
        }
        Command::Evaluate {
            dataset,
            gold,
            experiment,
        } => {
            let ds = importer
                .import("dataset", &read(&dataset)?)
                .map_err(|e| e.to_string())?;
            let truth = import_gold_pairs(&ds, &read(&gold)?, CsvOptions::comma())
                .map_err(|e| e.to_string())?;
            let exp =
                import_experiment("experiment", &ds, &read(&experiment)?, CsvOptions::comma())
                    .map_err(|e| e.to_string())?;
            let matrix = ConfusionMatrix::from_experiment(&exp, &truth, ds.len());
            println!(
                "TP {}  FP {}  FN {}  TN {}",
                matrix.true_positives,
                matrix.false_positives,
                matrix.false_negatives,
                matrix.true_negatives
            );
            for metric in PairMetric::ALL {
                println!("{metric}: {:.4}", metric.compute(&matrix));
            }
        }
        Command::Diagram {
            dataset,
            gold,
            experiment,
            samples,
        } => {
            let ds = importer
                .import("dataset", &read(&dataset)?)
                .map_err(|e| e.to_string())?;
            let truth = import_gold_pairs(&ds, &read(&gold)?, CsvOptions::comma())
                .map_err(|e| e.to_string())?;
            let exp =
                import_experiment("experiment", &ds, &read(&experiment)?, CsvOptions::comma())
                    .map_err(|e| e.to_string())?;
            println!("threshold,recall,precision");
            for (t, r, p) in MetricDiagram::precision_recall().compute(
                DiagramEngine::Optimized,
                ds.len(),
                &truth,
                &exp,
                samples,
            ) {
                println!("{t},{r:.4},{p:.4}");
            }
        }
        Command::Compare {
            dataset,
            gold,
            experiments,
        } => run_venn_view(&importer, &dataset, &gold, &experiments, false)?,
        Command::Venn {
            dataset,
            gold,
            experiments,
        } => run_venn_view(&importer, &dataset, &gold, &experiments, true)?,
        Command::Match { dataset, threshold } => {
            let ds = importer
                .import("dataset", &read(&dataset)?)
                .map_err(|e| e.to_string())?;
            // A generic matcher over every attribute, token blocking on
            // all attributes.
            let pipeline = frost::matchers::pipeline::MatchingPipeline {
                name: "frost-cli".into(),
                preparer: Some(frost::matchers::prepare::Preparer::standard()),
                blocker: Box::new(frost::matchers::blocking::TokenBlocking {
                    attributes: ds.schema().attributes().to_vec(),
                    max_token_frequency: 100,
                }),
                model: Box::new(
                    frost::matchers::decision::threshold::WeightedAverage::uniform(
                        ds.schema().attributes().iter().map(|a| {
                            frost::matchers::features::Comparator::new(
                                a.clone(),
                                frost::matchers::similarity::Measure::TokenJaccard,
                            )
                        }),
                        threshold,
                    ),
                ),
                clustering: frost::matchers::pipeline::ClusteringMethod::TransitiveClosure,
            };
            let run = pipeline.run(&ds);
            print!(
                "{}",
                export_experiment(&ds, &run.experiment, CsvOptions::comma())
            );
        }
        Command::Sample { dir, scale } => {
            // The preinstalled datasets + two synthetic experiments
            // each, written as a CSV store directory — the sample
            // store the snapshot and serving docs/CI work against.
            let mut store = frost::preinstalled_store(scale);
            for name in store.dataset_names() {
                let truth = store
                    .gold_standard(&name)
                    .map_err(|e| e.to_string())?
                    .clone();
                let records = store.dataset(&name).map_err(|e| e.to_string())?.len();
                let matches = (records / 2).max(4);
                for (i, fraction) in [(1usize, 0.9), (2usize, 0.6)] {
                    let exp = frost::datagen::experiments::synthetic_experiment(
                        format!("{name}-run{i}"),
                        &truth,
                        matches,
                        fraction,
                        42 + i as u64,
                    );
                    store
                        .add_experiment(&name, exp, None)
                        .map_err(|e| e.to_string())?;
                }
            }
            frost::storage::persist::save(&store, &dir).map_err(|e| e.to_string())?;
            println!(
                "wrote sample store to {dir}: {} dataset(s), {} experiment(s)",
                store.dataset_names().len(),
                store.experiment_names(None).len()
            );
        }
        Command::SnapshotSave { store_dir, file } => {
            let store = frost::storage::persist::load(&store_dir).map_err(|e| e.to_string())?;
            frost::storage::snapshot::save(&store, &file).map_err(|e| e.to_string())?;
            let bytes = std::fs::metadata(&file).map(|m| m.len()).unwrap_or(0);
            println!(
                "wrote {file}: {} dataset(s), {} experiment(s), {bytes} bytes",
                store.dataset_names().len(),
                store.experiment_names(None).len()
            );
        }
        Command::SnapshotLoad { file, export } => {
            let store = frost::storage::snapshot::load(&file).map_err(|e| e.to_string())?;
            println!("loaded {file}");
            for name in store.dataset_names() {
                let ds = store.dataset(&name).map_err(|e| e.to_string())?;
                let gold = if store.gold_standard(&name).is_ok() {
                    "with gold"
                } else {
                    "no gold"
                };
                println!("  dataset {name}: {} record(s), {gold}", ds.len());
            }
            for name in store.experiment_names(None) {
                let stored = store.experiment(&name).map_err(|e| e.to_string())?;
                println!(
                    "  experiment {name} on {}: {} pair(s)",
                    stored.dataset,
                    stored.experiment.len()
                );
            }
            if let Some(dir) = export {
                frost::storage::persist::save(&store, &dir).map_err(|e| e.to_string())?;
                println!("exported CSV store to {dir}");
            }
        }
        Command::Serve { store, port } => {
            frost_server::run_daemon(
                &store,
                "127.0.0.1",
                port,
                frost_server::ServeOptions::default(),
                frost::storage::FsyncPolicy::Always,
            )?;
        }
        Command::Get { urls, timing } => {
            // Consecutive URLs to the same authority share one
            // keep-alive connection — `frost get url1 url2 …` is a
            // multi-request sequence, not N cold connections.
            let mut connection: Option<(String, frost_server::client::Connection)> = None;
            for url in &urls {
                let (authority, target) = frost_server::client::split_url(url)?;
                let reusable = matches!(&connection, Some((a, _)) if a == authority);
                if !reusable {
                    connection = Some((
                        authority.to_string(),
                        frost_server::client::Connection::open(authority)?,
                    ));
                }
                let conn = &mut connection.as_mut().expect("connection just ensured").1;
                let (status, body) = conn.get(target)?;
                println!("{body}");
                // Timing goes to stderr so stdout stays exactly the
                // response bodies (scripts pipe it).
                if timing {
                    if let Some(t) = conn.last_timing() {
                        eprintln!(
                            "timing {url}: status={status} reused={} \
                             ttfb_ms={:.3} total_ms={:.3}",
                            t.reused,
                            t.ttfb.as_secs_f64() * 1e3,
                            t.total.as_secs_f64() * 1e3
                        );
                    }
                }
                if status >= 400 {
                    return Err(format!("HTTP {status}"));
                }
            }
        }
        Command::Herd {
            authority,
            connections,
            probe,
        } => {
            // The CI smoke gate: hold a mass of idle keep-alive
            // connections open against a running frostd, prove an
            // active probe still completes through the event loop,
            // then keep the herd open until stdin closes — the driver
            // runs its own traffic while the idle mass sits here.
            let mut herd = frost_server::client::IdleHerd::open(&authority, connections)?;
            println!("herd: {} idle connection(s) open", herd.len());
            let (status, body) = herd.probe(herd.len() - 1, &probe)?;
            println!("probe {probe}: HTTP {status}");
            println!("{body}");
            if status >= 400 {
                return Err(format!("HTTP {status}"));
            }
            println!("herd: holding until stdin closes");
            let mut sink = String::new();
            let _ = std::io::Read::read_to_string(&mut std::io::stdin(), &mut sink);
            println!("herd: released");
        }
        Command::Import {
            authority,
            dataset,
            name,
            file,
        } => {
            let csv = read(&file)?;
            // A comma-separated authority is an ordered failover
            // list: the upload prefers the first reachable endpoint
            // and follows a replica's Frost-Primary hint.
            let endpoints: Vec<String> = authority.split(',').map(str::to_string).collect();
            let mut conn = frost_server::client::Connection::open_failover(
                &endpoints,
                frost_server::client::RetryPolicy::default(),
            )?;
            let target = format!("/experiments?dataset={dataset}&name={name}");
            let first_authority = conn.authority().to_string();
            let (mut status, mut body) = conn.post(&target, csv.as_bytes())?;
            if status == 503 && conn.authority() != first_authority {
                // A replica declined the write and its Frost-Primary
                // hint re-pointed the connection: the first node never
                // applied anything, so one retry is safe.
                (status, body) = conn.post(&target, csv.as_bytes())?;
            }
            println!("{body}");
            if status >= 400 {
                return Err(format!("HTTP {status}"));
            }
        }
        Command::Promote { authority } => {
            let mut conn = frost_server::client::Connection::open(&authority)?;
            let (status, body) = conn.post("/replication/promote", &[])?;
            println!("{body}");
            if status >= 400 {
                return Err(format!("HTTP {status}"));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_profile() {
        assert_eq!(
            parse_args(&s(&["profile", "d.csv"])).unwrap(),
            Command::Profile {
                dataset: "d.csv".into()
            }
        );
    }

    #[test]
    fn parse_evaluate_and_diagram() {
        assert!(matches!(
            parse_args(&s(&["evaluate", "d.csv", "g.csv", "e.csv"])).unwrap(),
            Command::Evaluate { .. }
        ));
        let d = parse_args(&s(&["diagram", "d.csv", "g.csv", "e.csv", "50"])).unwrap();
        assert_eq!(
            d,
            Command::Diagram {
                dataset: "d.csv".into(),
                gold: "g.csv".into(),
                experiment: "e.csv".into(),
                samples: 50
            }
        );
        // Default sample count.
        assert!(matches!(
            parse_args(&s(&["diagram", "d.csv", "g.csv", "e.csv"])).unwrap(),
            Command::Diagram { samples: 20, .. }
        ));
        assert!(parse_args(&s(&["diagram", "d.csv", "g.csv", "e.csv", "1"])).is_err());
        assert!(parse_args(&s(&["diagram", "d.csv", "g.csv", "e.csv", "x"])).is_err());
    }

    #[test]
    fn parse_compare_and_match() {
        let c = parse_args(&s(&["compare", "d.csv", "g.csv", "a.csv", "b.csv"])).unwrap();
        assert!(matches!(c, Command::Compare { experiments, .. } if experiments.len() == 2));
        assert!(parse_args(&s(&["compare", "d.csv", "g.csv"])).is_err());
        let v = parse_args(&s(&["venn", "d.csv", "g.csv", "a.csv"])).unwrap();
        assert!(matches!(v, Command::Venn { experiments, .. } if experiments.len() == 1));
        assert!(parse_args(&s(&["venn", "d.csv", "g.csv"])).is_err());
        assert!(matches!(
            parse_args(&s(&["match", "d.csv"])).unwrap(),
            Command::Match { threshold, .. } if (threshold - 0.8).abs() < 1e-12
        ));
        assert!(parse_args(&s(&["match", "d.csv", "abc"])).is_err());
    }

    #[test]
    fn labels_shorten_unique_names_and_keep_colliding_paths() {
        let paths = s(&["runA/exp.csv", "runB/exp.csv", "other.csv"]);
        assert_eq!(
            labels_of(&paths),
            s(&["runA/exp.csv", "runB/exp.csv", "other.csv"])
        );
        let distinct = s(&["runA/e1.csv", "runB/e2.csv"]);
        assert_eq!(labels_of(&distinct), s(&["e1.csv", "e2.csv"]));
    }

    #[test]
    fn parse_herd() {
        assert_eq!(
            parse_args(&s(&["herd", "127.0.0.1:7878", "500"])).unwrap(),
            Command::Herd {
                authority: "127.0.0.1:7878".into(),
                connections: 500,
                probe: "/healthz".into(),
            }
        );
        assert_eq!(
            parse_args(&s(&["herd", "127.0.0.1:7878", "100", "/stats"])).unwrap(),
            Command::Herd {
                authority: "127.0.0.1:7878".into(),
                connections: 100,
                probe: "/stats".into(),
            }
        );
        assert!(parse_args(&s(&["herd", "127.0.0.1:7878", "0"])).is_err());
        assert!(parse_args(&s(&["herd", "127.0.0.1:7878", "abc"])).is_err());
        assert!(parse_args(&s(&["herd", "127.0.0.1:7878"])).is_err());
    }

    #[test]
    fn parse_get_timing() {
        assert_eq!(
            parse_args(&s(&["get", "http://h:1/a", "http://h:1/b"])).unwrap(),
            Command::Get {
                urls: s(&["http://h:1/a", "http://h:1/b"]),
                timing: false,
            }
        );
        assert_eq!(
            parse_args(&s(&["get", "--timing", "http://h:1/a"])).unwrap(),
            Command::Get {
                urls: s(&["http://h:1/a"]),
                timing: true,
            }
        );
        // --timing alone has no URL to fetch.
        assert!(parse_args(&s(&["get", "--timing"])).is_err());
        assert!(parse_args(&s(&["get"])).is_err());
    }

    #[test]
    fn parse_garbage_is_usage() {
        assert!(parse_args(&s(&[])).is_err());
        assert!(parse_args(&s(&["bogus"])).is_err());
        assert!(parse_args(&s(&["profile"])).is_err());
    }

    /// Writes the fixture files once per test into a unique directory.
    fn fixture(tag: &str) -> (std::path::PathBuf, String, String, String) {
        let dir = std::env::temp_dir().join(format!("frost-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ds = dir.join("ds.csv");
        let gold = dir.join("gold.csv");
        let exp = dir.join("exp.csv");
        std::fs::write(
            &ds,
            "id,name,city\na,Ann Smith,Berlin\nb,Anne Smith,Berlin\nc,Bob Jones,Potsdam\nd,Bobby Jones,Potsdam\n",
        )
        .unwrap();
        std::fs::write(&gold, "id1,id2\na,b\nc,d\n").unwrap();
        std::fs::write(&exp, "id1,id2,similarity\na,b,0.9\na,c,0.4\n").unwrap();
        (
            dir.clone(),
            ds.to_string_lossy().into_owned(),
            gold.to_string_lossy().into_owned(),
            exp.to_string_lossy().into_owned(),
        )
    }

    #[test]
    fn run_profile_evaluate_diagram_compare() {
        let (dir, ds, gold, exp) = fixture("run");
        run(Command::Profile {
            dataset: ds.clone(),
        })
        .unwrap();
        run(Command::Evaluate {
            dataset: ds.clone(),
            gold: gold.clone(),
            experiment: exp.clone(),
        })
        .unwrap();
        run(Command::Diagram {
            dataset: ds.clone(),
            gold: gold.clone(),
            experiment: exp.clone(),
            samples: 3,
        })
        .unwrap();
        run(Command::Compare {
            dataset: ds.clone(),
            gold: gold.clone(),
            experiments: vec![exp.clone()],
        })
        .unwrap();
        run(Command::Venn {
            dataset: ds.clone(),
            gold,
            experiments: vec![exp],
        })
        .unwrap();
        run(Command::Match {
            dataset: ds,
            threshold: 0.4,
        })
        .unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn run_reports_missing_files_and_bad_content() {
        let err = run(Command::Profile {
            dataset: "/nonexistent/x.csv".into(),
        })
        .unwrap_err();
        assert!(err.contains("cannot read"));

        let (dir, ds, _, _) = fixture("bad");
        let bad_gold = dir.join("bad_gold.csv");
        std::fs::write(&bad_gold, "id1,id2\na,zzz\n").unwrap();
        let err = run(Command::Evaluate {
            dataset: ds,
            gold: bad_gold.to_string_lossy().into_owned(),
            experiment: "/nonexistent/e.csv".into(),
        })
        .unwrap_err();
        assert!(err.contains("unknown record"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
