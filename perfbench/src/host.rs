//! Host provenance and process memory.

use std::process::Command;

/// The host and load shape a result was measured under.
#[derive(Debug, Clone)]
pub struct Host {
    /// `nproc` (falls back to `available_parallelism` where absent).
    pub nproc: usize,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// `NTC_THREADS` as the program under test sees it.
    pub ntc_threads: usize,
    /// Generator threads (each owns one connection at a time).
    pub gen_threads: usize,
    /// Concurrent client connections.
    pub connections: usize,
    /// Server worker shards.
    pub server_workers: usize,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Host {
    /// Probes the host and fixes the load shape: two generator threads and
    /// connections, capped at `nproc`; `NTC_THREADS` and server workers at
    /// `nproc`.
    pub fn probe() -> Host {
        let available_parallelism =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let nproc = command_line("nproc", &[])
            .and_then(|s| s.parse().ok())
            .unwrap_or(available_parallelism);
        let gen = nproc.min(2);
        Host {
            nproc,
            available_parallelism,
            ntc_threads: nproc,
            gen_threads: gen,
            connections: gen,
            server_workers: nproc,
        }
    }

    /// Refuses a load shape that would oversubscribe the host: the
    /// generator may not use more threads or connections than `nproc`.
    pub fn check(&self) -> Result<(), String> {
        if self.gen_threads > self.nproc || self.connections > self.nproc {
            return Err(format!(
                "generator wants {} threads and {} connections on a host with nproc = {}",
                self.gen_threads, self.connections, self.nproc
            ));
        }
        Ok(())
    }

    /// The provenance record printed with every result.
    pub fn provenance_json(&self) -> String {
        let commit = command_line("git", &["rev-parse", "HEAD"])
            .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
        let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
        format!(
            "{{\"nproc\":{},\"available_parallelism\":{},\"NTC_THREADS\":{},\"gen_threads\":{},\"connections\":{},\"server_workers\":{},\"commit\":\"{}\",\"rustc\":\"{}\"}}",
            self.nproc,
            self.available_parallelism,
            self.ntc_threads,
            self.gen_threads,
            self.connections,
            self.server_workers,
            commit.replace('"', "'"),
            rustc.replace('"', "'"),
        )
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversubscribed_generators_are_refused() {
        let mut host = Host::probe();
        assert!(host.check().is_ok());
        host.connections = host.nproc + 1;
        assert!(host.check().is_err());
        host.connections = 1;
        host.gen_threads = host.nproc + 1;
        assert!(host.check().is_err());
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
