//! The process's own CPU time and peak memory, read from `/proc/self`.

use std::time::Instant;

/// Kernel clock ticks per second of `/proc/self/stat`'s time fields. Fixed
/// at 100 on every Linux architecture this benchmark runs on (`USER_HZ`).
pub const TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU ticks of the whole process (all threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    pub utime: u64,
    pub stime: u64,
}

impl CpuTicks {
    pub fn total(&self) -> u64 {
        self.utime + self.stime
    }

    /// Ticks spent since `earlier`.
    pub fn since(&self, earlier: &CpuTicks) -> CpuTicks {
        CpuTicks {
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
        }
    }

    pub fn secs(&self) -> f64 {
        self.total() as f64 / TICKS_PER_SEC
    }
}

/// Parses fields 14 (`utime`) and 15 (`stime`) of a `/proc/<pid>/stat`
/// line. The command name (field 2) may itself hold spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<CpuTicks> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is 11 fields further on.
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some(CpuTicks { utime, stime })
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/<pid>/status`,
/// in kB.
pub fn parse_vm_hwm_kb(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

pub fn cpu_ticks() -> CpuTicks {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .expect("/proc/self/stat is readable and well-formed")
}

pub fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .expect("/proc/self/status carries VmHWM");
    kb as f64 / 1024.0
}

/// One instant with the CPU ticks spent up to it.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub at: Instant,
    pub cpu: CpuTicks,
}

impl Mark {
    pub fn now() -> Self {
        Mark {
            at: Instant::now(),
            cpu: cpu_ticks(),
        }
    }

    /// Wall seconds from `earlier` to this mark.
    pub fn secs_since(&self, earlier: &Mark) -> f64 {
        self.at.duration_since(earlier.at).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        let line = "4242 (brisa bench) worker) R 1 4242 4242 0 -1 4194304 \
                    1201 0 0 0 317 58 0 0 20 0 3 0 123456 1000000 2500 \
                    18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(
            parse_stat(line),
            Some(CpuTicks {
                utime: 317,
                stime: 58
            })
        );
        assert_eq!(parse_stat("no parenthesis here"), None);
        assert_eq!(parse_stat("1 (x) R 1 2 3"), None);
    }

    #[test]
    fn tick_arithmetic() {
        let a = CpuTicks {
            utime: 100,
            stime: 40,
        };
        let b = CpuTicks {
            utime: 250,
            stime: 90,
        };
        let d = b.since(&a);
        assert_eq!((d.utime, d.stime, d.total()), (150, 50, 200));
        assert_eq!(d.secs(), 2.0);
    }

    #[test]
    fn vm_hwm_line_is_found_among_the_others() {
        let status = "Name:\tbrisa-benchmark\nVmPeak:\t  900000 kB\n\
                      VmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 1 kB\n"), None);
    }

    #[test]
    fn this_process_is_readable() {
        let before = cpu_ticks();
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_ticks().total() >= before.total());
    }
}
