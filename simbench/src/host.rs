//! Host fingerprint, timed-build hygiene and process memory.

use std::time::Duration;

use ssq_arbiter::CounterPolicy;
use ssq_core::{Policy, QosSwitch, SwitchConfig};
use ssq_types::Geometry;

use crate::output::json_string;

/// Where a result was measured. Results with different fingerprints
/// are not comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Logical cores available to the process.
    pub cores: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// The compiler that built this binary.
    pub rustc: String,
    /// Build profile (`release` or `debug`).
    pub profile: String,
}

impl Fingerprint {
    /// The running host's fingerprint.
    #[must_use]
    pub fn current() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Fingerprint {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            rustc: env!("SIMBENCH_RUSTC_VERSION").to_owned(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_owned(),
        }
    }

    /// The fingerprint as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"cpu\": {}, \"rustc\": {}, \"profile\": {}}}",
            self.cores,
            json_string(&self.cpu),
            json_string(&self.rustc),
            json_string(&self.profile)
        )
    }
}

/// Refuses to time a build that is not the one users run: debug
/// assertions on, or the switch's cycle-phase profiler compiled in
/// (`QosSwitch::prof_report()` is `Some`, which feature unification
/// with the `prof`-enabled tooling crates would cause).
///
/// # Errors
///
/// Returns the reason the build is unfit for timing.
pub fn check_timed_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to time a build with debug assertions on; use --release".to_owned());
    }
    let geometry = Geometry::new(2, 128).map_err(|e| e.to_string())?;
    let config = SwitchConfig::builder(geometry)
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .build()
        .map_err(|e| e.to_string())?;
    let switch = QosSwitch::new(config).map_err(|e| e.to_string())?;
    if switch.prof_report().is_some() {
        return Err(
            "refusing to time a build with the `prof` feature compiled into ssq-core".to_owned(),
        );
    }
    Ok(())
}

/// `clock_gettime(2)` from the C library the standard library already
/// links.
mod ffi {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
}

/// CPU time consumed by the calling thread. Timing with it rather than
/// the wall clock keeps a run's figures free of the time the thread
/// spent descheduled while other processes used the core.
#[must_use]
fn thread_cpu_time() -> Duration {
    let mut ts = ffi::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of
    // the call, and CLOCK_THREAD_CPUTIME_ID is a clock every Linux
    // kernel provides.
    let rc = unsafe { ffi::clock_gettime(ffi::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(
        u64::try_from(ts.tv_sec).unwrap_or(0),
        u32::try_from(ts.tv_nsec).unwrap_or(0),
    )
}

/// A stopwatch on the calling thread's CPU time.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer(Duration);

impl CpuTimer {
    /// Starts timing.
    #[must_use]
    pub fn start() -> Self {
        CpuTimer(thread_cpu_time())
    }

    /// CPU time since [`CpuTimer::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        thread_cpu_time().saturating_sub(self.0)
    }
}

/// Nominal CPU time of one [`ContentionProbe::sample`] on a quiet host
/// (this repository's 2-core reference VM reads 1.07–1.15 ms when its
/// neighbours are idle).
pub const PROBE_NOMINAL_S: f64 = 0.0011;

/// A fixed kernel whose speed tracks how much execution bandwidth other
/// tenants of the host take from the core the benchmark runs on.
///
/// Its speed cannot depend on the simulator: it is benchmark code that
/// shares nothing with the model.
///
/// On a shared VM the simulator's throughput swings by ±15–30 % from one
/// second to the next. Eight independent multiply chains — throughput
/// bound, so slowed by a busy sibling hyperthread — swing with it: over
/// 90 s of `r8-policies-recorded` repetitions their times correlated
/// 0.93 with the simulator's, with the same 15 % spread, where a
/// cache-bound walk correlated 0.75 and a latency-bound loop barely
/// moved. Each timed run is scaled by the probe read around it, which
/// cut the repetition-to-repetition spread of throughput from 15 % to
/// 5 % there.
#[derive(Debug, Clone, Copy, Default)]
pub struct ContentionProbe {
    state: [u64; 8],
}

impl ContentionProbe {
    /// Rounds of the eight chains per sample.
    const ROUNDS: u64 = 400_000;

    /// A probe.
    #[must_use]
    pub fn new() -> Self {
        ContentionProbe {
            state: [1, 2, 3, 4, 5, 6, 7, 8],
        }
    }

    /// CPU seconds of one fixed round of work.
    pub fn sample(&mut self) -> f64 {
        let timer = CpuTimer::start();
        let mut chains = self.state;
        for i in 0..Self::ROUNDS {
            for (j, x) in chains.iter_mut().enumerate() {
                *x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(i ^ j as u64);
            }
        }
        self.state = std::hint::black_box(chains);
        timer.elapsed().as_secs_f64()
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let t = CpuTimer::start();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(t.elapsed() > Duration::ZERO);
    }

    #[test]
    fn contention_probe_takes_time() {
        let mut probe = ContentionProbe::new();
        assert!(probe.sample() > 0.0);
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
