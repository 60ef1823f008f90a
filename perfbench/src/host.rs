//! Readers for the `/proc` counters the benchmark measures from
//! outside the program: process CPU, peak RSS, context switches and
//! threads, plus the host-noise record (steal ticks, load average,
//! core count) stored with every run.

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` times (USER_HZ; 100 on
/// every Linux ABI this runs on).
const TICKS_PER_S: f64 = 100.0;

/// CPU and scheduling counters of one process at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Peak resident set (VmHWM), MB.
    pub hwm_mb: f64,
    /// Voluntary context switches summed over threads.
    pub vol_cs: u64,
    /// Involuntary context switches summed over threads.
    pub invol_cs: u64,
    /// Live threads.
    pub threads: u64,
}

impl ProcSample {
    /// User + system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// `utime`/`stime` (fields 14 and 15) of a `/proc/<pid>/stat` line.
/// The command name may contain spaces, so fields are counted after
/// its closing parenthesis.
pub fn parse_stat_times(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state).
    Some((f.get(11)?.parse().ok()?, f.get(12)?.parse().ok()?))
}

/// One `key: value` field of a `/proc/<pid>/status` file, as u64 (the
/// unit suffix, if any, is dropped).
pub fn status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|l| {
        let v = l.strip_prefix(key)?.strip_prefix(':')?;
        v.split_whitespace().next()?.parse().ok()
    })
}

/// Context switches of this process, ended threads included:
/// `(voluntary, involuntary)` from `getrusage(RUSAGE_SELF)`. Per-task
/// `/proc` counters lose the threads a run has already joined.
pub fn self_ctx_switches() -> (u64, u64) {
    /// The C `struct rusage` of 64-bit Linux: two `timeval`s, then 14
    /// `long`s, of which the last two are `ru_nvcsw` and `ru_nivcsw`.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        longs: [i64; 14],
    }
    const _: () = assert!(std::mem::size_of::<Rusage>() == 144);
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value with the layout of the C
    // `struct rusage` on 64-bit Linux (checked by size above), and
    // getrusage writes only within the struct it is given.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return (0, 0);
    }
    (ru.longs[12] as u64, ru.longs[13] as u64)
}

/// Sample process `pid` (`"self"` for this process, whose context
/// switches then include threads that have ended).
pub fn sample(pid: &str) -> ProcSample {
    let mut s = ProcSample::default();
    if let Some((u, k)) = fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|t| parse_stat_times(&t))
    {
        s.user_s = u as f64 / TICKS_PER_S;
        s.sys_s = k as f64 / TICKS_PER_S;
    }
    if let Ok(st) = fs::read_to_string(format!("/proc/{pid}/status")) {
        s.hwm_mb = status_field(&st, "VmHWM").unwrap_or(0) as f64 / 1024.0;
        s.threads = status_field(&st, "Threads").unwrap_or(0);
    }
    if pid == "self" {
        (s.vol_cs, s.invol_cs) = self_ctx_switches();
    } else if let Ok(dir) = fs::read_dir(format!("/proc/{pid}/task")) {
        for t in dir.flatten() {
            if let Ok(st) = fs::read_to_string(t.path().join("status")) {
                s.vol_cs += status_field(&st, "voluntary_ctxt_switches").unwrap_or(0);
                s.invol_cs += status_field(&st, "nonvoluntary_ctxt_switches").unwrap_or(0);
            }
        }
    }
    s
}

/// Aggregate CPU tick counters of the `cpu` line of `/proc/stat`:
/// `(total, steal)`.
pub fn cpu_ticks() -> (u64, u64) {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    parse_cpu_line(text.lines().next().unwrap_or(""))
}

/// `(total, steal)` of one `cpu ...` line: user nice system idle iowait
/// irq softirq steal (guest time is already inside user).
pub fn parse_cpu_line(line: &str) -> (u64, u64) {
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|x| x.parse().ok())
        .collect();
    (v.iter().sum(), v.get(7).copied().unwrap_or(0))
}

/// Host noise over one run: share of CPU ticks stolen by the
/// hypervisor, 1-minute load average at the end, usable cores.
#[derive(Debug, Clone, Copy)]
pub struct HostNoise {
    /// Steal ticks / all ticks over the run.
    pub steal_share: f64,
    /// 1-minute load average at the end of the run.
    pub loadavg_1m: f64,
    /// Cores this process may run on.
    pub nproc: usize,
}

/// Start a host-noise window; [`NoiseWindow::finish`] closes it.
pub struct NoiseWindow {
    start: (u64, u64),
}

impl NoiseWindow {
    /// Open the window now.
    pub fn open() -> Self {
        NoiseWindow { start: cpu_ticks() }
    }

    /// Close the window and read load average and core count.
    pub fn finish(&self) -> HostNoise {
        let (total, steal) = cpu_ticks();
        let dt = total.saturating_sub(self.start.0).max(1);
        let loadavg_1m = fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        HostNoise {
            steal_share: steal.saturating_sub(self.start.1) as f64 / dt as f64,
            loadavg_1m,
            nproc: nproc(),
        }
    }
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_times_survive_spaces_in_the_command_name() {
        let line = "4242 (scale wired) S 1 2 3 4 5 6 7 8 9 10 321 45 0 0 20 0 3 0";
        assert_eq!(parse_stat_times(line), Some((321, 45)));
    }

    #[test]
    fn status_fields_drop_units() {
        let st = "Name:\tx\nVmHWM:\t  2048 kB\nThreads:\t3\n";
        assert_eq!(status_field(st, "VmHWM"), Some(2048));
        assert_eq!(status_field(st, "Threads"), Some(3));
        assert_eq!(status_field(st, "VmRSS"), None);
    }

    #[test]
    fn own_context_switches_count_ended_threads() {
        let (before, _) = self_ctx_switches();
        std::thread::spawn(|| {
            for _ in 0..50 {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        })
        .join()
        .expect("sleeper thread");
        let (after, _) = self_ctx_switches();
        assert!(after >= before + 50, "{before} -> {after}");
    }

    #[test]
    fn cpu_line_sums_eight_fields_and_picks_steal() {
        assert_eq!(parse_cpu_line("cpu  10 1 5 80 2 0 1 3 7 0"), (102, 3));
    }
}
