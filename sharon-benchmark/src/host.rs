//! What the rig asks of the host: process CPU time, per-task run-queue
//! waits, and a fixed calibration kernel that witnesses the host's speed.

use std::collections::HashMap;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc `M_TRIM_THRESHOLD` and `M_MMAP_THRESHOLD`.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

/// Keep freed memory in the process: never trim the heap, and serve
/// allocations of up to 1 GiB from it instead of from fresh mappings.
///
/// Without this every pass returns its 60-170 MB to the kernel and faults
/// them in again, and on this host class a first touch is served by the
/// hypervisor at a price that moves by the minute: identical
/// `lr-disorder-sharded` passes spent 0.09-1.6 s of 1.6 s in page faults.
/// With it the warm-up pass faults the heap in once and a timed pass takes
/// about 20 faults. `peak_mem_mb` counts requested bytes and is unaffected.
pub fn retain_heap() {
    // SAFETY: `mallopt` takes two integers and only changes tunables of
    // the C allocator, which is what `System` allocates from.
    let ok = unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 && mallopt(M_MMAP_THRESHOLD, 1 << 30) == 1
    };
    assert!(ok, "mallopt refused the heap-retention tunables");
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process so far, live or
/// joined, in nanoseconds. `/proc/self/stat` has the same figure at 10 ms
/// resolution, too coarse to subtract two passes and divide by the events.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which refers to a live, properly aligned local of the C layout
    // (two 64-bit fields on every 64-bit Linux target); the clock id is a
    // constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// `(run_ns, wait_ns)` per live task of this process, from
/// `/proc/self/task/<tid>/schedstat`. Empty where the file does not exist.
pub fn task_schedstats() -> HashMap<u64, (u64, u64)> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        let mut fields = text.split_whitespace().map(str::parse::<u64>);
        if let (Some(Ok(run)), Some(Ok(wait))) = (fields.next(), fields.next()) {
            out.insert(tid, (run, wait));
        }
    }
    out
}

/// Share of `run + wait` that the tasks alive at `after` spent waiting for
/// a core since `before` (tasks born in between start from zero).
pub fn runqueue_wait_share(
    before: &HashMap<u64, (u64, u64)>,
    after: &HashMap<u64, (u64, u64)>,
) -> f64 {
    let (mut run, mut wait) = (0u64, 0u64);
    for (tid, &(r1, w1)) in after {
        let (r0, w0) = before.get(tid).copied().unwrap_or((0, 0));
        run += r1.saturating_sub(r0);
        wait += w1.saturating_sub(w0);
    }
    if run + wait == 0 {
        0.0
    } else {
        wait as f64 / (run + wait) as f64
    }
}

/// Fastest of five runs of a fixed hash-scatter over 8 MiB (a table larger
/// than the caches of this host class), in nanoseconds. It touches no
/// engine code, so a run whose `calib_ns` is off was measured on a
/// different or busier host, whatever the engine metrics say.
pub fn calibration_ns() -> u64 {
    const WORDS: usize = 1 << 20; // 8 MiB of u64
    const STEPS: usize = 1 << 22;
    let mut table = vec![0u64; WORDS];
    let mut best = u64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & (WORDS - 1);
            table[slot] = table[slot].wrapping_add(x);
        }
        std::hint::black_box(&mut table);
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    best
}

/// The `q`-quantile (0..=1) of `samples` by nearest rank on a sorted copy.
/// Panics on an empty slice: every caller has at least one sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * (v.len() - 1) as f64).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// Median of `samples`; 0 when there are none (a layer the workload does
/// not exercise).
pub fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        quantile(samples, 0.5)
    }
}
