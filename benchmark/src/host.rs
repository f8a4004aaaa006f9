//! The host under the benchmark: the process's CPU time, and reference
//! work whose time says how fast the host runs CPU work at the moment.
//!
//! On a shared host the speed of CPU work drifts, from one second to the
//! next and over minutes, by up to 2x. Each end-to-end time is therefore
//! reported with its CPU part rescaled to a reference host speed, using
//! reference work timed next to it; the rest of the time (waiting on
//! timers, sockets and thread wake-ups) is kept as measured. The reference
//! work runs none of the program's code, so a change to the program
//! cannot move it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// A fixed piece of reference work. Different kinds of CPU work follow
/// different parts of the host's drift, so each workload is rescaled by
/// the kind its ops do most.
///
/// On a 2-vCPU Xeon VM, over 15 s windows, each op timed right next to
/// the heap work varied 2-6 % between windows against 16-22 % as
/// measured, for every `edit_check` card; next to the arithmetic work,
/// 12-21 %. An explicit russian cards solve is the other way round: 3 %
/// next to the arithmetic work, 12 % next to the heap work, 5 % as
/// measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// Build a hash map of 20 000 small tuple keys from empty, then make
    /// and free 50 000 small heap objects: allocation, hashing and short
    /// dependent loads, like symbolic lint's BDD work and JSON handling.
    Heap,
    /// A chain of 1 000 000 dependent xorshift steps touching no memory,
    /// like the explicit solver's word-at-a-time bitset loops.
    Alu,
}

impl Reference {
    pub fn name(self) -> &'static str {
        match self {
            Reference::Heap => "heap",
            Reference::Alu => "alu",
        }
    }

    /// Its median time on a quiet 2-vCPU Xeon VM, ms: the host speed that
    /// rescaled times are reported at.
    pub fn nominal_ms(self) -> f64 {
        match self {
            Reference::Heap => 2.0,
            Reference::Alu => 2.4,
        }
    }

    /// Run it once, timed, ms.
    pub fn time_ms(self) -> f64 {
        let start = Instant::now();
        match self {
            Reference::Heap => {
                let mut map: std::collections::HashMap<(u32, u32, u32), u32> = Default::default();
                let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
                for i in 0..20_000u32 {
                    x = xorshift(x);
                    let key = (
                        x as u32 % 5000,
                        (x >> 20) as u32 % 5000,
                        (x >> 40) as u32 % 64,
                    );
                    let len = map.len() as u32;
                    black_box(*map.entry(key).or_insert(len ^ i));
                }
                black_box(map.len());
                drop(map);
                let mut kept = Vec::with_capacity(50);
                for i in 0..50_000u64 {
                    let b = Box::new([i; 4]);
                    if i % 1000 == 0 {
                        kept.push(b);
                    } else {
                        black_box(&b);
                    }
                }
                black_box(kept.len());
            }
            Reference::Alu => {
                let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
                for _ in 0..1_000_000 {
                    x = xorshift(x);
                }
                black_box(x);
            }
        }
        start.elapsed().as_secs_f64() * 1e3
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// CPU time used so far by all of this process's threads, exited ones
/// included, µs: `CLOCK_PROCESS_CPUTIME_ID`, which the standard library
/// does not expose.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu_us() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call, laid
    // out as the 64-bit Linux C library declares it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.sec as f64 * 1e6 + ts.nsec as f64 / 1e3
    } else {
        0.0
    }
}

/// Elsewhere no CPU time is read, so no time is rescaled.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_cpu_us() -> f64 {
    0.0
}

/// Wall time and process CPU time of one stretch of work, µs, and how
/// much slower than nominal the host ran CPU work around it.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub wall_us: f64,
    pub cpu_us: f64,
    pub slowdown: f64,
}

impl Cost {
    /// The wall time with its CPU part run at the nominal host speed; the
    /// rest is kept as measured. CPU time beyond the wall time (threads
    /// working at once) counts as the whole wall time.
    pub fn at_ref_us(self) -> f64 {
        self.wall_us - self.cpu_us.min(self.wall_us) * (1.0 - 1.0 / self.slowdown)
    }
}

/// The start of a stretch of work whose [`Cost`] is wanted.
pub struct Stopwatch {
    wall: Instant,
    cpu_us: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        let cpu_us = process_cpu_us();
        Stopwatch {
            wall: Instant::now(),
            cpu_us,
        }
    }

    /// The cost so far, with the host taken to run at nominal speed
    /// until the caller knows better.
    pub fn cost(&self) -> Cost {
        let wall_us = self.wall.elapsed().as_secs_f64() * 1e6;
        Cost {
            wall_us,
            cpu_us: (process_cpu_us() - self.cpu_us).max(0.0),
            slowdown: 1.0,
        }
    }
}

/// How often a client times its reference work between ops.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// One client's timings of its reference work: before its first op,
/// between ops whenever [`PROBE_EVERY`] has passed, and after its last.
/// Each op is rescaled by the probes taken just before and just after it.
pub struct Probes {
    reference: Reference,
    /// Each timing, ms, in order.
    pub ms: Vec<f64>,
    last: Instant,
}

impl Probes {
    /// Start with one timing.
    pub fn new(reference: Reference) -> Probes {
        let mut p = Probes {
            reference,
            ms: Vec::new(),
            last: Instant::now(),
        };
        p.take();
        p
    }

    pub fn take(&mut self) {
        self.ms.push(self.reference.time_ms());
        self.last = Instant::now();
    }

    pub fn take_if_due(&mut self) {
        if self.last.elapsed() >= PROBE_EVERY {
            self.take();
        }
    }

    /// The index of the latest timing.
    pub fn latest(&self) -> usize {
        self.ms.len() - 1
    }

    /// How much slower than nominal the host ran between timing `k` and
    /// the one after it (timing `k` alone when none follows).
    pub fn slowdown_after(&self, k: usize) -> f64 {
        let after = self.ms.get(k + 1).unwrap_or(&self.ms[k]);
        (self.ms[k] + after) / 2.0 / self.reference.nominal_ms()
    }
}

/// Stolen CPU seconds so far, summed over CPUs: the `steal` column of
/// `/proc/stat`, in USER_HZ ticks (100 per second on Linux).
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: u64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks as f64 / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_cpu_part_is_rescaled() {
        let c = Cost {
            wall_us: 100.0,
            cpu_us: 40.0,
            slowdown: 1.0,
        };
        assert_eq!(c.at_ref_us(), 100.0);
        assert_eq!(Cost { slowdown: 2.0, ..c }.at_ref_us(), 80.0);
        // CPU time past the wall time (two threads busy) is the whole op.
        let both = Cost {
            cpu_us: 180.0,
            slowdown: 2.0,
            ..c
        };
        assert_eq!(both.at_ref_us(), 50.0);
    }

    #[test]
    fn cpu_time_counts_work_on_this_thread() {
        let start = Stopwatch::start();
        black_box(Reference::Alu.time_ms());
        let c = start.cost();
        assert!(c.cpu_us > 0.5 * c.wall_us, "{c:?}");
    }
}
