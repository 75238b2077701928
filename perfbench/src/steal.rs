//! Host time with the hypervisor's share taken out.
//!
//! The benchmark runs on the virtual CPUs of a shared host. When the host
//! is oversubscribed it runs other guests on those CPUs, and the guest
//! kernel counts that time as *steal*: the benchmark's threads were ready
//! but did not run. Steal comes in phases of minutes and can double a
//! run's wall time, which no median inside one run removes.
//!
//! The process CPU clock does not count steal (the scheduler charges tasks
//! from its steal-free task clock), and `/proc/stat` counts the steal. Over
//! an interval in which the benchmark's threads ran for `C` CPU seconds
//! while `S` seconds were stolen from the guest's CPUs, the threads made
//! progress for the share `C / (C + S)` of the time they held a CPU. Host
//! times are scaled by that share: the wall time the interval would have
//! taken without steal, if steal slowed every running thread alike. Idle
//! virtual CPUs accrue no steal, and the benchmark is the only busy process
//! in its guest, so all the steal counted is the benchmark's.

use std::time::Instant;

/// The unit of the tick counts in `/proc` (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// One reading of the wall clock, the process CPU clock and the steal
/// counter.
#[derive(Clone, Copy)]
pub struct Reading {
    wall: Instant,
    cpu_s: f64,
    steal_s: f64,
}

impl Reading {
    pub fn now() -> Self {
        Self {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
            steal_s: guest_steal_s(),
        }
    }

    /// The interval from `self` to now.
    pub fn elapsed(&self) -> Interval {
        let now = Self::now();
        Interval {
            wall_s: now.wall.duration_since(self.wall).as_secs_f64(),
            cpu_s: now.cpu_s - self.cpu_s,
            steal_s: now.steal_s - self.steal_s,
        }
    }
}

/// Wall, process CPU and stolen seconds over one or more intervals.
#[derive(Clone, Copy, Default)]
pub struct Interval {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub steal_s: f64,
}

impl Interval {
    /// The share of their CPU time the threads were not robbed of:
    /// `C / (C + S)`, 1 when nothing was stolen (or nothing could be read).
    pub fn run_share(&self) -> f64 {
        let (c, s) = (self.cpu_s.max(0.0), self.steal_s.max(0.0));
        if s == 0.0 || c + s == 0.0 {
            1.0
        } else {
            c / (c + s)
        }
    }

    pub fn add(&mut self, other: &Interval) {
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
        self.steal_s += other.steal_s;
    }
}

/// User plus system CPU seconds of this process, every thread included
/// (also the scoped worker threads that have ended); 0 if unreadable.
fn process_cpu_s() -> f64 {
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 1..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        })
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

/// Seconds stolen from all of the guest's CPUs since boot; 0 if unreadable.
fn guest_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_share_removes_the_stolen_part() {
        let i = Interval {
            wall_s: 4.0,
            cpu_s: 3.0,
            steal_s: 1.0,
        };
        assert_eq!(i.run_share(), 0.75);
        assert_eq!(Interval::default().run_share(), 1.0);
    }

    #[test]
    fn counters_read_and_advance() {
        let start = Reading::now();
        let mut x = 0u64;
        while start.wall.elapsed().as_secs_f64() < 0.05 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let i = start.elapsed();
        assert!(i.wall_s >= 0.05 && i.cpu_s >= 0.0 && i.steal_s >= 0.0);
        assert!((0.0..=1.0).contains(&i.run_share()));
    }
}
