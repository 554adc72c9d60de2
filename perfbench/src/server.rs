//! Running the real `frostd` binary: spawn, readiness, memory, stop.

use frost_server::client::Connection;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a daemon may take to bind, load and become ready.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// One running `frostd` process.
pub struct Daemon {
    child: Child,
    /// `host:port` the daemon bound.
    pub addr: String,
    /// Drains the daemon's stdout so it can never block on a full pipe.
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `frostd <store> --addr 127.0.0.1 --port 0 <extra…>` and
    /// waits for the bound address on its stdout. Daemon stderr goes to
    /// `log`.
    pub fn spawn(
        frostd: &Path,
        store: &Path,
        extra: &[String],
        log: &Path,
    ) -> Result<Daemon, String> {
        let log =
            std::fs::File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let mut child = Command::new(frostd)
            .arg(store)
            .args(["--addr", "127.0.0.1", "--port", "0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", frostd.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = std::sync::mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("frostd listening on http://") {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.trim().to_string());
                    }
                }
            }
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        match rx.recv_timeout(READY_TIMEOUT) {
            Ok(addr) => daemon.addr = addr,
            Err(_) => {
                daemon.stop();
                return Err("frostd did not report its address".into());
            }
        }
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Polls `GET /readyz` until it answers 200.
    pub fn wait_ready(&self) -> Result<(), String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if let Ok(mut conn) = Connection::open(&self.addr) {
                if let Ok((200, _)) = conn.get("/readyz") {
                    return Ok(());
                }
            }
            if Instant::now() > deadline {
                return Err(format!("frostd at {} never became ready", self.addr));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The process's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line".to_string())
    }

    /// Kills the process and waits for it and its stdout drain to end.
    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}
