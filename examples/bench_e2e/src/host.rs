//! The host: clocks and procfs readings, the speedometer that states a
//! duration at the reference host's speed, agent pinning, and the noise
//! sentinels that let an A/A disagreement be attributed to the machine
//! instead of the code.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// The benchmark's clock: nanoseconds on the library's trace timebase,
/// so benchmark spans line up with `Cluster::chrome_trace()` events.
pub fn now() -> u64 {
    elga::trace::now_nanos()
}

/// Milliseconds between two `now()` readings.
pub fn ms(from: u64, to: u64) -> f64 {
    to.saturating_sub(from) as f64 / 1e6
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// A CPU-time clock in nanoseconds; 0 if the clock cannot be read.
fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the
    // duration of the call, which writes nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the program under test in milliseconds: every thread of
/// the process (exited ones included) except the speedometer's.
/// procfs reports CPU in 10 ms ticks, too coarse for one cycle; the
/// CPU clocks have nanosecond resolution.
pub fn cpu_ms() -> f64 {
    let probe = SPEEDOMETER
        .get()
        .map_or(0, |s| s.cpu_ns.load(Ordering::Relaxed));
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID).saturating_sub(probe) as f64 / 1e6
}

/// Pin every agent thread (`elga-agent-N`, the library's thread name)
/// to core `(N - 1) mod nproc`: one agent per core, as ElGA deploys
/// them. Left to itself the guest's scheduler stacks both agents on
/// one core for seconds at a time (they wake each other, and a waker
/// pulls its wakee over), and a cycle then takes 1.6 times as long with
/// the other core idle: 11–13 % of `trickle_ring` cycles, in clumps, so
/// a run's median depended on how many clumps it met. Call again after
/// every join: a new agent is a new thread.
pub fn pin_agents() {
    let n = nproc() as u64;
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for entry in dir.flatten() {
        let Ok(comm) = std::fs::read_to_string(entry.path().join("comm")) else {
            continue;
        };
        let agent = comm.trim().strip_prefix("elga-agent-");
        let Some(idx) = agent.and_then(|s| s.parse::<u64>().ok()) else {
            continue;
        };
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let mask = 1u64 << ((idx + n - 1) % n).min(63);
        // SAFETY: `mask` is a valid 8-byte CPU set for the duration of
        // the call, which only reads it. A failure (the thread just
        // ended) leaves that thread unpinned.
        unsafe { sched_setaffinity(tid, 8, &mask) };
    }
}

/// Nanoseconds one speedometer operation takes on the reference host
/// when nothing else runs on its hardware, near enough (quiet runs
/// read 0.94–1.02 of it). It only fixes the scale: every run of every
/// commit is divided by the same constant.
pub const SPEED_REF_NS_PER_OP: f64 = 2.65;
/// Operations per speedometer reading (about 35 us) and the pause
/// between readings: the probe keeps one core busy under 2 % of the
/// time.
const SPEED_OPS: u64 = 12_000;
const SPEED_PERIOD: Duration = Duration::from_millis(2);
/// `/proc/stat` is read every this many readings (about 100 ms), and a
/// duration's steal is taken over at least `STEAL_SPAN_NS` around it:
/// the file counts in 10 ms ticks.
const TICKS_EVERY: u64 = 50;
const STEAL_SPAN_NS: u64 = 500_000_000;

/// How fast the host runs right now.
///
/// The two vCPUs of the reference host share their hardware with
/// other guests, and what those leave over changes by 20–60 % from one
/// second to the next and from one minute to the next (README.md, "The
/// host"): every timing, CPU time included, follows it. A thread of
/// the benchmark's own therefore times the same small piece of work —
/// independent read-modify-writes scattered over 256 KiB, bound by
/// issue width and the core's own caches, which is what a neighbour on
/// the sibling hardware thread takes away — every 2 ms for as long as
/// the process lives. `slowdown(from, to)` is the median reading of an
/// interval over `SPEED_REF_NS_PER_OP`: 1.0 on a quiet host. Dividing
/// a duration by the slowdown of its own interval states it, to first
/// order, at the reference host's speed. The
/// probe's code is the benchmark's, so no change to the library moves
/// it.
pub struct Speedometer {
    /// `(start of the reading, ns per operation)`, in time order.
    readings: Mutex<Vec<(u64, f32)>>,
    /// `(time, cpu_ticks())` every `TICKS_EVERY` readings.
    ticks: Mutex<Vec<(u64, (u64, u64))>>,
    /// CPU time the probe thread has used.
    cpu_ns: AtomicU64,
    stop: AtomicBool,
    thread: Mutex<Option<JoinHandle<()>>>,
}

static SPEEDOMETER: OnceLock<Arc<Speedometer>> = OnceLock::new();

/// Start the speedometer thread (once per process).
pub fn speedometer_start() {
    let meter = SPEEDOMETER.get_or_init(|| {
        Arc::new(Speedometer {
            readings: Mutex::new(Vec::new()),
            ticks: Mutex::new(Vec::new()),
            cpu_ns: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            thread: Mutex::new(None),
        })
    });
    let mut slot = meter.thread.lock().expect("speedometer lock");
    if slot.is_some() {
        return;
    }
    let m = Arc::clone(meter);
    let spawned = std::thread::Builder::new()
        .name("bench-speedometer".to_string())
        .spawn(move || {
            const MUL: u64 = 0xBF58_476D_1CE4_E5B9;
            let mut table = vec![0u64; 32 * 1024];
            let mut h = 0x9E37_79B9_7F4A_7C15u64;
            for reading in 0u64.. {
                if m.stop.load(Ordering::Relaxed) {
                    break;
                }
                if reading % TICKS_EVERY == 0 {
                    let at = (now(), cpu_ticks());
                    m.ticks.lock().expect("speedometer lock").push(at);
                }
                std::thread::sleep(SPEED_PERIOD);
                let t0 = now();
                for _ in 0..SPEED_OPS {
                    h = h.wrapping_mul(MUL).wrapping_add(1);
                    let slot = (h >> 40) as usize % table.len();
                    table[slot] = table[slot].wrapping_add(h);
                }
                black_box(&mut table);
                let ns_per_op = (now() - t0) as f32 / SPEED_OPS as f32;
                m.readings
                    .lock()
                    .expect("speedometer lock")
                    .push((t0, ns_per_op));
                m.cpu_ns
                    .store(cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID), Ordering::Relaxed);
            }
        });
    *slot = spawned.ok();
}

/// Stop the speedometer thread and wait for it to end.
pub fn speedometer_stop() {
    let Some(meter) = SPEEDOMETER.get() else {
        return;
    };
    meter.stop.store(true, Ordering::Relaxed);
    let handle = meter.thread.lock().expect("speedometer lock").take();
    if let Some(h) = handle {
        let _ = h.join();
    }
}

/// The host's slowdown over `[from, to]` on the benchmark clock: the
/// median speedometer reading started in the interval (widened to the
/// nearest readings until there are five) over the reference, over the
/// share of its busy time the guest was not stolen from around the
/// interval. 1.0 when the speedometer is not running.
pub fn slowdown(from: u64, to: u64) -> f64 {
    const MIN_READINGS: usize = 5;
    let Some(meter) = SPEEDOMETER.get() else {
        return 1.0;
    };
    let readings = meter.readings.lock().expect("speedometer lock");
    let mut lo = readings.partition_point(|r| r.0 < from);
    let mut hi = readings.partition_point(|r| r.0 <= to);
    while hi - lo < MIN_READINGS && (lo > 0 || hi < readings.len()) {
        // Take the neighbour nearer in time.
        let before = lo
            .checked_sub(1)
            .map(|i| from.saturating_sub(readings[i].0));
        let after = readings.get(hi).map(|r| r.0.saturating_sub(to));
        match (before, after) {
            (Some(b), Some(a)) if b <= a => lo -= 1,
            (Some(_), None) => lo -= 1,
            _ => hi += 1,
        }
    }
    let ns: Vec<f64> = readings[lo..hi].iter().map(|r| f64::from(r.1)).collect();
    if ns.is_empty() {
        return 1.0;
    }
    let speed = median(&ns) / SPEED_REF_NS_PER_OP;

    // The median reading does not see a vCPU that is taken away
    // altogether for a while (a reading that meets that is an outlier),
    // so steal is counted from the hypervisor's own books.
    let ticks = meter.ticks.lock().expect("speedometer lock");
    let first = ticks
        .partition_point(|t| t.0 <= from.saturating_sub(STEAL_SPAN_NS))
        .saturating_sub(1);
    let last = ticks
        .partition_point(|t| t.0 < to + STEAL_SPAN_NS)
        .min(ticks.len().saturating_sub(1));
    let stolen = match (ticks.get(first), ticks.get(last)) {
        (Some(a), Some(b)) => steal_share(a.1, b.1).min(0.5),
        _ => 0.0,
    };
    speed / (1.0 - stolen)
}

/// Cap glibc at two malloc arenas (one per core of the reference
/// host). With the default of eight per core every thread gets its own
/// arena and peak RSS depends on which thread freed what where: it
/// read 112–141 MiB for identical `bulk_rmat` runs, against 79–81 MiB
/// with two arenas and no measurable change in any timing.
pub fn cap_malloc_arenas() {
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only stores a tunable of the allocator; it is
    // called first thing in `main`, before any other thread exists.
    unsafe { mallopt(M_ARENA_MAX, MALLOC_ARENAS) };
}

/// Part of the system-under-test configuration; every run reports it.
pub const MALLOC_ARENAS: i32 = 2;

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide `(not idle, steal)` CPU ticks from the first line of
/// `/proc/stat`: steal is time a vCPU had work and the hypervisor ran
/// someone else, and it is part of the first number too.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal [guest ...]:
    // guest time is already inside user time.
    let at = |i: usize| ticks.get(i).copied().unwrap_or(0);
    (at(0) + at(1) + at(2) + at(5) + at(6) + at(7), at(7))
}

/// Steal as a share of the time the guest was not idle, between two
/// `cpu_ticks()` readings.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    to.1.saturating_sub(from.1) as f64 / to.0.saturating_sub(from.0).max(1) as f64
}

/// Per-thread `(on-cpu ns, run-queue wait ns)` from
/// `/proc/self/task/*/schedstat`.
pub fn sched_snapshot() -> HashMap<u64, (u64, u64)> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        // A thread may exit between readdir and read.
        let Ok(s) = std::fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        let mut f = s.split_whitespace().map(|x| x.parse::<u64>().unwrap_or(0));
        if let (Some(run), Some(wait)) = (f.next(), f.next()) {
            out.insert(tid, (run, wait));
        }
    }
    out
}

/// Run-queue wait as a share of on-CPU time, over the threads alive in
/// both snapshots (short-lived query threads are not seen).
pub fn runq_wait_share(a: &HashMap<u64, (u64, u64)>, b: &HashMap<u64, (u64, u64)>) -> f64 {
    let (mut run, mut wait) = (0u64, 0u64);
    for (tid, &(r1, w1)) in b {
        if let Some(&(r0, w0)) = a.get(tid) {
            run += r1.saturating_sub(r0);
            wait += w1.saturating_sub(w0);
        }
    }
    if run == 0 {
        0.0
    } else {
        wait as f64 / run as f64
    }
}

/// Commit of a git checkout at the current directory, read from the
/// files (no process is started); `unknown` outside a checkout.
pub fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.len() >= 12 && rev.bytes().all(|b| b.is_ascii_hexdigit()) {
        rev[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

/// The mean of the fastest 5 % of a sample (at least one value): what
/// the code does when left alone, since interference only ever adds
/// time. A ledger and info-line row; nothing is gated on it (it rests
/// on a handful of samples and cannot see a slower typical cycle). 0
/// for an empty sample.
pub fn floor(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = (v.len() / 20).max(1);
    v[..k].iter().sum::<f64>() / k as f64
}

/// Median of a sample (NaN-free input); 0 for an empty one.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile `q` in `[0, 1]`; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if q == 0.5 && v.len().is_multiple_of(2) {
        return (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0;
    }
    let idx = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}
