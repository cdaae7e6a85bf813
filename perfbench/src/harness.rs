//! Shared plumbing: the pinned reference, output checks, metric
//! collection, the timed repeat loop, and host facts.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::{Duration, Instant};

/// The seed whose outputs `reference.txt` pins. Other seeds are checked
/// for determinism (every pass equals the first) instead.
pub const DEFAULT_SEED: u64 = 1;

/// Pinned outputs, one `key value` pair per line (`#` starts a comment).
pub struct Reference {
    values: BTreeMap<String, String>,
}

impl Reference {
    pub fn parse(text: &str) -> Reference {
        let values = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| match l.split_once(' ') {
                Some((k, v)) => (k.to_string(), v.trim().to_string()),
                None => (l.to_string(), String::new()),
            })
            .collect();
        Reference { values }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }
}

/// Counts checked operations and the ones whose output mismatched.
/// A mismatch is reported on stderr and counted; it never aborts the run.
pub struct Checks {
    reference: Reference,
    pub ops: u64,
    pub failed: u64,
}

impl Checks {
    pub fn new(reference: Reference) -> Checks {
        Checks {
            reference,
            ops: 0,
            failed: 0,
        }
    }

    /// Records one operation whose outputs passed every check in `ok`.
    pub fn op(&mut self, what: &str, ok: bool) {
        self.ops += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}");
        }
    }

    /// True when `got` equals the pinned value under `key`. A missing
    /// key is a mismatch, so nothing goes unpinned by accident.
    pub fn pinned(&self, key: &str, got: impl Display) -> bool {
        let got = got.to_string();
        match self.reference.get(key) {
            Some(want) if want == got => true,
            want => {
                eprintln!("perfbench: {key}: got {got:?}, reference {want:?}");
                false
            }
        }
    }

    /// `ok`, logging `what` when it is false.
    pub fn holds(&self, what: &str, ok: bool) -> bool {
        if !ok {
            eprintln!("perfbench: does not hold: {what}");
        }
        ok
    }

    /// True when `got` equals `want`; logs the difference otherwise.
    pub fn same<T: PartialEq + std::fmt::Debug>(&self, what: &str, got: &T, want: &T) -> bool {
        let ok = got == want;
        if !ok {
            eprintln!("perfbench: {what} differs:\n  got  {got:?}\n  want {want:?}");
        }
        ok
    }
}

/// Samples of each named metric; a metric's reported value is the
/// median of its samples.
#[derive(Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn add(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|xs| median(xs))
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }
}

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Calls `pass(i)` for `i = 0, 1, ...`: always `min_passes` times, then
/// again while one more pass, as long as the slowest so far, still ends
/// within `budget` of the first pass's start.
pub fn repeat_for(budget: Duration, min_passes: usize, mut pass: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut slowest = Duration::ZERO;
    let mut i = 0;
    loop {
        if i >= min_passes && start.elapsed() + slowest > budget {
            return i;
        }
        let t = Instant::now();
        pass(i);
        slowest = slowest.max(t.elapsed());
        i += 1;
    }
}

/// How long a workload repeats a short set-up to time it, so that the
/// median of many samples is reported.
pub const SETUP_SECONDS: Duration = Duration::from_millis(500);

/// Calls `once()` back to back at least three times, then again until
/// [`SETUP_SECONDS`] are spent, and adds the seconds of each call, in
/// nominal seconds (see [`HostClock`]), to `setup_s`. The calls share
/// one span, so no reading comes between two calls to evict their data
/// from cache; with `ticking` SIGALRM takes readings part-way, and each
/// call's seconds leave out those that fell inside it. What a call
/// returns is dropped untimed.
pub fn time_setup<T>(
    samples: &mut Samples,
    clock: &mut HostClock,
    ticking: bool,
    mut once: impl FnMut() -> T,
) {
    let span = if ticking {
        clock.span_ticking()
    } else {
        clock.span()
    };
    let mut raw = Vec::new();
    while raw.len() < 3 || span.start.elapsed() < SETUP_SECONDS {
        let paused = kernel::counters().2;
        let t = Instant::now();
        let built = once();
        raw.push(t.elapsed().as_secs_f64() - (kernel::counters().2 - paused));
        drop(built);
    }
    let secs = span.end();
    for r in raw {
        samples.add("setup_s", r * secs.nominal / secs.raw);
    }
}

/// Mean seconds of one calibration unit on a quiet host (one 2.1 GHz
/// Xeon vCPU whose neighbours are idle). A host factor of 1 means the
/// host runs at that speed.
const NOMINAL_UNIT_S: f64 = 0.75e-3;

/// Least time one reading takes, and its share of the span it closes
/// when that is longer.
const CALIBRATE_MIN_S: f64 = 4e-3;
const CALIBRATE_SHARE: f64 = 0.02;

/// How often a span takes a reading part-way. A span of seconds would
/// otherwise be judged only by the host's speed at its two ends, while
/// the load on the host changes every few seconds.
const TICK: Duration = Duration::from_millis(100);

/// The calibration kernel's state. It is global so that the SIGALRM
/// handler can run it: atomics with relaxed ordering, no locks, no
/// allocation, so the handler is async-signal-safe.
mod kernel {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::time::Instant;

    /// 4 MiB: larger than a core's private caches, so the kernel also
    /// feels last-level cache and memory contention.
    pub const WORDS: usize = 1 << 19;
    static BUF: [AtomicU64; WORDS] = [const { AtomicU64::new(0) }; WORDS];
    static STATE: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);

    /// Readings taken part-way through spans: count, sum of the
    /// readings (as f64 bits) and nanoseconds the work stood paused.
    pub static TICKS: AtomicU64 = AtomicU64::new(0);
    pub static TICK_SUM: AtomicU64 = AtomicU64::new(0);
    pub static PAUSED_NS: AtomicU64 = AtomicU64::new(0);

    /// One unit: a branchy integer loop on an L1-sized table, then
    /// random read-modify-writes over the 4 MiB buffer.
    fn unit() {
        let mut x = STATE.load(Relaxed);
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut table = [0u32; 4096];
        let mut acc = 0u64;
        for i in 0..150_000u32 {
            let r = next();
            let j = (r as usize) & 4095;
            table[j] = table[j].wrapping_add(i);
            acc = acc.wrapping_add(u64::from(table[(r >> 20) as usize & 4095]));
            if acc & 1 == 0 {
                acc = acc.rotate_left(3);
            }
        }
        for _ in 0..60_000 {
            let slot = &BUF[(next() as usize) & (WORDS - 1)];
            acc = acc.wrapping_add(slot.load(Relaxed));
            slot.store(acc, Relaxed);
        }
        STATE.store(next() ^ std::hint::black_box(acc), Relaxed);
    }

    /// Runs units for at least `min_s` seconds; returns their mean
    /// slowdown against the nominal unit time. An untimed read of the
    /// whole buffer and an untimed unit first bring the kernel's data
    /// and code back into cache, so that a reading does not depend on
    /// how much of them the timed work evicted.
    pub fn calibrate(min_s: f64) -> f64 {
        let min_s = min_s.max(super::CALIBRATE_MIN_S);
        let warm = BUF
            .iter()
            .fold(0u64, |a, w| a.wrapping_add(w.load(Relaxed)));
        std::hint::black_box(warm);
        unit();
        let start = Instant::now();
        let mut units = 0u32;
        while units == 0 || start.elapsed().as_secs_f64() < min_s {
            unit();
            units += 1;
        }
        start.elapsed().as_secs_f64() / f64::from(units) / super::NOMINAL_UNIT_S
    }

    /// Takes one reading part-way through a span and adds it to the
    /// tick counters. Only one thread at a time takes readings.
    pub fn tick() {
        let t = Instant::now();
        let reading = calibrate(0.0);
        let ns = t.elapsed().as_nanos() as u64;
        let sum = f64::from_bits(TICK_SUM.load(Relaxed)) + reading;
        TICK_SUM.store(sum.to_bits(), Relaxed);
        TICKS.fetch_add(1, Relaxed);
        PAUSED_NS.fetch_add(ns, Relaxed);
    }

    /// The tick counters now: count, sum, paused seconds.
    pub fn counters() -> (u64, f64, f64) {
        (
            TICKS.load(Relaxed),
            f64::from_bits(TICK_SUM.load(Relaxed)),
            PAUSED_NS.load(Relaxed) as f64 * 1e-9,
        )
    }
}

#[repr(C)]
struct ITimerVal {
    interval: [i64; 2],
    value: [i64; 2],
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
}

const SIGALRM: i32 = 14;
const ITIMER_REAL: i32 = 0;

extern "C" fn on_alarm(_signum: i32) {
    kernel::tick();
}

/// Starts (`on`) or stops SIGALRM every [`TICK`].
fn alarm(on: bool) {
    let us = if on { TICK.as_micros() as i64 } else { 0 };
    let t = ITimerVal {
        interval: [0, us],
        value: [0, us],
    };
    // SAFETY: `t` is a live `struct itimerval` (two timevals of two
    // longs); the old value is not asked for.
    let rc = unsafe { setitimer(ITIMER_REAL, &t, std::ptr::null_mut()) };
    assert_eq!(rc, 0, "setitimer failed");
}

/// A timed span's seconds: as measured less the pauses for readings
/// part-way (`raw`), and in nominal seconds (`nominal`).
#[derive(Clone, Copy, Default)]
pub struct Secs {
    pub raw: f64,
    pub nominal: f64,
    /// Seconds the span's work stood paused for readings.
    pub paused: f64,
}

/// Host-speed calibration. The benchmark shares a machine whose speed
/// drifts by up to 2x, within seconds and over minutes, as other tenants
/// load its cores, caches and memory. So each timed span is judged
/// against a fixed calibration kernel run on the same CPU: readings
/// open and close the span, and more are taken every [`TICK`] while the
/// span's work stands still. The span's host factor is the mean of its
/// readings (the opening and closing ones at half weight), each reading
/// being the kernel's slowdown against [`NOMINAL_UNIT_S`]. Its seconds
/// over the factor are its nominal seconds: the time the span would
/// take on the quiet host. The kernel is this file's own code and never
/// calls the repository, so a change of the program moves the spans,
/// not the factors.
pub struct HostClock {
    last: f64,
}

impl HostClock {
    /// Installs the SIGALRM handler, warms the kernel up and takes the
    /// first reading.
    pub fn new() -> HostClock {
        // SAFETY: `on_alarm` is an `extern "C" fn(i32)` that only runs
        // the allocation- and lock-free kernel.
        unsafe { signal(SIGALRM, on_alarm) };
        kernel::calibrate(0.05);
        HostClock {
            last: kernel::calibrate(0.0),
        }
    }

    /// MiB the calibration buffer keeps resident: to be taken off this
    /// process's peak RSS, which is meant to be the program's.
    pub fn resident_mb(&self) -> f64 {
        (kernel::WORDS * 8) as f64 / f64::from(1 << 20)
    }

    /// The latest host factor reading.
    pub fn reading(&self) -> f64 {
        self.last
    }

    /// Starts a span whose work calls [`Span::tick`] where it can stand
    /// still (between simulator rounds; while a child is stopped).
    pub fn span(&mut self) -> Span<'_> {
        self.start(false)
    }

    /// Starts a span that SIGALRM interrupts for each reading. For work
    /// on this thread only: other threads would run on meanwhile.
    pub fn span_ticking(&mut self) -> Span<'_> {
        self.start(true)
    }

    fn start(&mut self, ticking: bool) -> Span<'_> {
        let at = kernel::counters();
        let now = Instant::now();
        if ticking {
            alarm(true);
        }
        Span {
            clock: self,
            ticking,
            start: now,
            last_tick: now,
            at,
        }
    }
}

/// A timed span; see [`HostClock`].
pub struct Span<'c> {
    clock: &'c mut HostClock,
    ticking: bool,
    start: Instant,
    last_tick: Instant,
    /// The tick counters when the span started.
    at: (u64, f64, f64),
}

impl Span<'_> {
    /// True once a reading is due.
    pub fn due(&self) -> bool {
        self.last_tick.elapsed() >= TICK
    }

    /// Takes a reading if one is due. The span's work must stand still
    /// meanwhile; the reading's time is left out of the span.
    pub fn tick(&mut self) {
        if self.due() {
            kernel::tick();
            self.last_tick = Instant::now();
        }
    }

    /// Ends the span and takes the closing reading.
    pub fn end(self) -> Secs {
        let elapsed = self.start.elapsed().as_secs_f64();
        if self.ticking {
            alarm(false);
        }
        let (n, sum, paused) = kernel::counters();
        let (n, sum, paused) = (n - self.at.0, sum - self.at.1, paused - self.at.2);
        let raw = elapsed - paused;
        let close = kernel::calibrate(raw * CALIBRATE_SHARE);
        let factor = (self.clock.last / 2.0 + sum + close / 2.0) / (n + 1) as f64;
        self.clock.last = close;
        Secs {
            raw,
            nominal: raw / factor,
            paused,
        }
    }
}

/// 64-bit FNV-1a, for pinning byte outputs in `reference.txt`.
pub fn fnv64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size in MiB (`VmHWM`) of process `pid`, or of this
/// process for `None`; `None` when it cannot be read (the process is
/// gone). Unlike getrusage's `ru_maxrss`, it is the peak of the running
/// program only, not of the process that spawned it before exec.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
