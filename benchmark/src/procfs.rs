//! CPU time and peak memory of this process, read from `/proc/self`.
//!
//! The parsers are pure functions over the file text so they can be tested
//! without a `/proc`; only [`cpu_seconds`] and [`peak_rss_mib`] touch the
//! filesystem.

use std::fs;

/// Kernel clock ticks per second as exposed through `/proc` (`USER_HZ`).
/// Linux fixes it at 100 on every architecture this harness runs on; reading
/// it properly needs `sysconf`, i.e. `libc` and `unsafe`.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of all threads of the process, from the text of
/// `/proc/<pid>/stat`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // The second field is the command in parentheses and may itself contain
    // spaces and parentheses; every later field is after the *last* ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// Peak resident set size in MiB, from the text of `/proc/<pid>/status`.
pub fn parse_peak_rss_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_ascii_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kib / 1024.0)
}

/// CPU seconds consumed by this process so far.
///
/// # Panics
///
/// Panics when `/proc/self/stat` is missing or malformed: the harness cannot
/// report `cpu_s` without it and must not report a made-up value.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_cpu_seconds(&stat).expect("/proc/self/stat has utime and stime fields")
}

/// Peak resident set size of this process so far, MiB.
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line (see [`cpu_seconds`]).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_peak_rss_mib(&status).expect("/proc/self/status has a VmHWM line in kB")
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (pdsat bench) x) R 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                        731 19 0 0 20 0 3 0 5678 123456789 2345 18446744073709551615 1 1 0 0 0";

    #[test]
    fn cpu_time_survives_a_hostile_command_name() {
        // utime 731 + stime 19 ticks = 7.5 s.
        assert_eq!(parse_cpu_seconds(STAT), Some(7.5));
    }

    #[test]
    fn malformed_stat_is_rejected_not_guessed() {
        assert_eq!(parse_cpu_seconds("no parenthesis here"), None);
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2 3"), None);
        assert_eq!(
            parse_cpu_seconds("1 (x) R 1 2 3 4 5 6 7 8 9 10 eleven 12"),
            None
        );
    }

    #[test]
    fn peak_rss_is_converted_to_mib() {
        let status = "Name:\tx\nVmPeak:\t  999999 kB\nVmHWM:\t   52224 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_peak_rss_mib(status), Some(51.0));
        assert_eq!(parse_peak_rss_mib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_peak_rss_mib("VmHWM:\t 12 pages\n"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
