//! Process counters of the benchmark's own process, read from
//! `/proc/self`.

/// CPU and fault counters from `/proc/self/stat`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcStat {
    /// Minor page faults.
    pub minflt: u64,
    /// User CPU time, in clock ticks.
    pub utime: u64,
    /// System CPU time, in clock ticks.
    pub stime: u64,
}

impl ProcStat {
    /// Reads the counters now.
    ///
    /// # Panics
    ///
    /// If `/proc/self/stat` is missing or malformed: the benchmark runs on
    /// Linux only.
    pub fn read() -> ProcStat {
        let text = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
        parse_stat(&text).expect("/proc/self/stat has the documented layout")
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: ProcStat) -> ProcStat {
        ProcStat {
            minflt: self.minflt - earlier.minflt,
            utime: self.utime - earlier.utime,
            stime: self.stime - earlier.stime,
        }
    }

    /// These counters plus `other`'s.
    pub fn plus(self, other: ProcStat) -> ProcStat {
        ProcStat {
            minflt: self.minflt + other.minflt,
            utime: self.utime + other.utime,
            stime: self.stime + other.stime,
        }
    }

    /// System time as a share of all CPU time (0 when no tick elapsed).
    pub fn sys_share(self) -> f64 {
        let total = self.utime + self.stime;
        if total == 0 {
            0.0
        } else {
            self.stime as f64 / total as f64
        }
    }
}

/// Parses the line of `/proc/<pid>/stat`. The command name (field 2) may
/// hold spaces and parentheses, so fields are counted after its last `)`.
pub fn parse_stat(text: &str) -> Option<ProcStat> {
    let rest = &text[text.rfind(')')? + 1..];
    // After the name, field 3 (state) is index 0: minflt is field 10,
    // utime field 14, stime field 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let at = |field: usize| fields.get(field - 3)?.parse::<u64>().ok();
    Some(ProcStat {
        minflt: at(10)?,
        utime: at(14)?,
        stime: at(15)?,
    })
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
///
/// # Panics
///
/// If `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("/proc/self/status reports VmHWM");
    kb / 1024.0
}
