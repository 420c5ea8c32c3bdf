//! Per-thread CPU and peak RSS of the server, read from `/proc`.

use std::fs;

/// One thread's identity and CPU time.
#[derive(Clone, Debug, PartialEq)]
pub struct ThreadCpu {
    pub name: String,
    /// Time on CPU, nanoseconds.
    pub cpu_ns: u64,
    /// `utime + stime`, clock ticks.
    pub ticks: u64,
}

/// The fields of `/proc/<pid>/task/<tid>/stat` the benchmark uses.
#[derive(Clone, Debug, PartialEq)]
pub struct Stat {
    pub comm: String,
    /// `utime` and `stime`, in clock ticks.
    pub utime: u64,
    pub stime: u64,
}

/// Parse a `stat` line. The command name is the text between the
/// first `(` and the *last* `)`: a thread may name itself with spaces
/// or parentheses, so splitting on whitespace would misread it.
pub fn parse_stat(line: &str) -> Option<Stat> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let comm = line[open + 1..close].to_string();
    // After the name: state(3) ppid(4) … utime(14) stime(15); field 3
    // is the first token here.
    let rest: Vec<&str> = line[close + 1..].split_whitespace().collect();
    let field = |n: usize| rest.get(n - 3)?.parse::<u64>().ok();
    Some(Stat {
        comm,
        utime: field(14)?,
        stime: field(15)?,
    })
}

/// Clock ticks per second for `utime`/`stime`. Linux reports them in
/// `USER_HZ`, which is 100 on every mainstream architecture.
const NS_PER_TICK: u64 = 1_000_000_000 / 100;

/// Every thread of `pid` with its CPU time. `schedstat` (nanoseconds
/// on CPU) is used where the kernel provides it; otherwise
/// `utime + stime` from `stat`, at clock-tick resolution.
pub fn threads(pid: u32) -> Vec<ThreadCpu> {
    let Ok(dir) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let path = entry.path();
        let Some(stat) = fs::read_to_string(path.join("stat"))
            .ok()
            .and_then(|s| parse_stat(&s))
        else {
            continue;
        };
        let sched = fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
        let ticks = stat.utime + stat.stime;
        out.push(ThreadCpu {
            name: stat.comm,
            cpu_ns: sched.unwrap_or(ticks * NS_PER_TICK),
            ticks,
        });
    }
    out
}

/// Server CPU, grouped the way the layer metrics need it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuSplit {
    /// Every thread, including exited ones.
    pub total_ns: u64,
    pub reactor_ns: u64,
    pub workers_ns: u64,
    pub sampler_ns: u64,
}

impl CpuSplit {
    /// Split live `threads`; `process_ticks` is the whole process's
    /// `utime + stime`. Live threads count at `schedstat` precision;
    /// exited threads, which only the process total still holds, at
    /// clock-tick precision.
    pub fn of(threads: &[ThreadCpu], process_ticks: u64) -> CpuSplit {
        let mut s = CpuSplit::default();
        let mut live_ticks = 0;
        for t in threads {
            s.total_ns += t.cpu_ns;
            live_ticks += t.ticks;
            if t.name == "tpn-reactor" {
                s.reactor_ns += t.cpu_ns;
            } else if t.name.starts_with("tpn-worker-") {
                s.workers_ns += t.cpu_ns;
            } else if t.name == "tpn-sampler" {
                s.sampler_ns += t.cpu_ns;
            }
        }
        s.total_ns += process_ticks.saturating_sub(live_ticks) * NS_PER_TICK;
        s
    }

    pub fn since(self, before: CpuSplit) -> CpuSplit {
        CpuSplit {
            total_ns: self.total_ns.saturating_sub(before.total_ns),
            reactor_ns: self.reactor_ns.saturating_sub(before.reactor_ns),
            workers_ns: self.workers_ns.saturating_sub(before.workers_ns),
            sampler_ns: self.sampler_ns.saturating_sub(before.sampler_ns),
        }
    }
}

/// `utime + stime` of the whole process, clock ticks. Unlike a sum
/// over `task/`, it keeps the time of threads that have exited (a
/// sweep's short-lived evaluation threads).
pub fn process_ticks(pid: u32) -> Option<u64> {
    let stat = parse_stat(&fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)?;
    Some(stat.utime + stat.stime)
}

/// Peak resident set (`VmHWM`) of `pid`, in bytes.
pub fn peak_rss_bytes(pid: u32) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line["VmHWM:".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAIL: &str = "S 1 2 3 0 -1 4194368 7 0 0 0 120 35 0 0 20 0 7 0 2143322 423325696 1511";

    #[test]
    fn plain_thread_name() {
        let s = parse_stat(&format!("21855 (tpn-reactor) {TAIL}")).unwrap();
        assert_eq!(s.comm, "tpn-reactor");
        assert_eq!((s.utime, s.stime), (120, 35));
    }

    #[test]
    fn name_with_spaces_and_parentheses() {
        for name in [
            "a b",
            "x) (y",
            "worker (1)",
            ") ",
            "((",
            "tpn-worker-3) S 9 9",
        ] {
            let s = parse_stat(&format!("42 ({name}) {TAIL}")).unwrap();
            assert_eq!(s.comm, name);
            assert_eq!((s.utime, s.stime), (120, 35), "name {name:?}");
        }
    }

    #[test]
    fn truncated_or_garbled_lines_are_refused() {
        assert_eq!(parse_stat("42 (x) S 1 2"), None);
        assert_eq!(parse_stat("no parentheses at all"), None);
        assert_eq!(parse_stat(")( backwards"), None);
    }

    #[test]
    fn split_groups_by_thread_name() {
        let t = |name: &str, cpu_ns| ThreadCpu {
            name: name.to_string(),
            cpu_ns,
            ticks: 1,
        };
        let threads = [
            t("tpn", 1),
            t("tpn-reactor", 10),
            t("tpn-worker-0", 100),
            t("tpn-worker-1", 200),
            t("tpn-sampler", 1000),
        ];
        let s = CpuSplit::of(&threads, 5);
        assert_eq!(s.total_ns, 1311);
        assert_eq!((s.reactor_ns, s.workers_ns, s.sampler_ns), (10, 300, 1000));
        // Two ticks more in the process than in its live threads: the
        // CPU of threads that have exited.
        assert_eq!(CpuSplit::of(&threads, 7).total_ns, 1311 + 2 * NS_PER_TICK);
    }

    #[test]
    fn vm_hwm_in_bytes() {
        let status = "Name:\ttpn\nVmPeak:\t  9 kB\nVmHWM:\t    6204 kB\nVmRSS:\t 6000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(6204 * 1024));
        assert_eq!(parse_vm_hwm("Name:\ttpn\n"), None);
    }
}
