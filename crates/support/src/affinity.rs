//! Vendored `sched_setaffinity` shim: pin the calling thread to one
//! CPU, with a loud no-op fallback on hosts that cannot.
//!
//! `std::thread` has no affinity API and the workspace vendors all of
//! its dependencies (no `libc` crate), so this module declares the one
//! glibc symbol it needs directly. `support` is the single crate in
//! the workspace where `unsafe` is allowed (see `mem`, `spsc`); the
//! safety argument is local and small: we pass glibc a correctly
//! sized, fully initialized, stack-owned CPU mask and never retain
//! pointers past the call.
//!
//! Why pinning matters here: the ring-fed shard workers of the
//! detached-thread online runtime (`ThreadedCaesar::with_pinning`)
//! want shard→core placement so each worker's cache working set — its
//! eviction accumulator and its ring's consumer-side lines — stays
//! resident on one L1/L2 instead of migrating with the scheduler. On a
//! host without real parallelism (or a non-Linux OS)
//! pinning is useless-to-harmful, so [`pin_current_thread`] degrades
//! to a no-op that warns **once** rather than failing the build or the
//! run: placement is an optimization, never a correctness dependency.

use std::sync::atomic::{AtomicBool, Ordering};

/// Outcome of a pin request, for callers that want to surface
/// placement in diagnostics (the bench harness logs it; the ingest
/// paths ignore it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinOutcome {
    /// The calling thread is now bound to the requested CPU.
    Pinned(usize),
    /// The host cannot pin (non-Linux, or the syscall refused — e.g.
    /// the CPU is outside the process's cpuset). The thread runs
    /// wherever the scheduler likes; a one-time warning was printed.
    Unsupported,
}

/// One warning per process, not one per worker thread: a 64-shard
/// build on a macOS laptop should say "no pinning" once, not 64 times.
static WARNED: AtomicBool = AtomicBool::new(false);

fn warn_once(reason: &str) {
    if !WARNED.swap(true, Ordering::Relaxed) {
        eprintln!("support::affinity: thread pinning unavailable ({reason}); running unpinned");
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// Matches glibc's `cpu_set_t`: a 1024-bit mask (128 bytes) laid
    /// out as machine words. 1024 CPUs is the glibc compile-time
    /// default; hosts beyond that need the dynamically-sized API,
    /// which nothing in this workspace's deployment range requires.
    pub const CPU_SET_WORDS: usize = 1024 / (8 * core::mem::size_of::<usize>());

    #[repr(C)]
    pub struct CpuSet {
        pub bits: [usize; CPU_SET_WORDS],
    }

    extern "C" {
        /// glibc wrapper over the `sched_setaffinity` syscall. With
        /// `pid == 0` it applies to the **calling thread** (glibc
        /// passes the thread's TID), which is exactly the semantics a
        /// per-worker pin wants.
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
}

/// Bind the calling thread to `cpu` (a logical CPU index as the kernel
/// numbers them). Returns [`PinOutcome::Unsupported`] — after warning
/// once per process — when the host has no affinity API or rejects the
/// request; it never panics and never blocks.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(cpu: usize) -> PinOutcome {
    let mut set = sys::CpuSet { bits: [0; sys::CPU_SET_WORDS] };
    let word_bits = 8 * core::mem::size_of::<usize>();
    if cpu >= sys::CPU_SET_WORDS * word_bits {
        warn_once("requested CPU index exceeds the 1024-bit cpu_set_t");
        return PinOutcome::Unsupported;
    }
    set.bits[cpu / word_bits] |= 1usize << (cpu % word_bits);
    // SAFETY: `set` is a fully initialized, correctly sized (`repr(C)`,
    // 128-byte) mask that outlives the call; pid 0 targets the calling
    // thread; glibc only reads `cpusetsize` bytes through the pointer.
    let rc = unsafe { sys::sched_setaffinity(0, core::mem::size_of::<sys::CpuSet>(), &set) };
    if rc == 0 {
        PinOutcome::Pinned(cpu)
    } else {
        warn_once("sched_setaffinity returned an error for this CPU");
        PinOutcome::Unsupported
    }
}

/// Non-Linux fallback: no affinity syscall to make. Warns once, then
/// quietly lets every subsequent call through as a no-op.
#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_cpu: usize) -> PinOutcome {
    warn_once("no sched_setaffinity on this OS");
    PinOutcome::Unsupported
}

/// Pin the calling thread for shard `shard` of a `shards`-wide build:
/// shard *i* goes to CPU `i % host_parallelism()`, so shard count may
/// exceed core count without requesting nonexistent CPUs. The standard
/// placement for both the stream build's ring-fed workers and the
/// threaded online runtime's workers.
pub fn pin_shard(shard: usize, _shards: usize) -> PinOutcome {
    let cores = crate::par::host_parallelism();
    if cores <= 1 {
        // One hardware thread: pinning changes nothing and the syscall
        // noise would only alarm. Quietly a no-op, no warning — this is
        // the expected state on small CI hosts, not a surprise.
        return PinOutcome::Unsupported;
    }
    pin_current_thread(shard % cores)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_current_thread_is_pinned_or_loud_noop() {
        // Cannot assert which outcome on an arbitrary host — only that
        // the call returns (no hang, no panic) and is coherent.
        match pin_current_thread(0) {
            PinOutcome::Pinned(cpu) => assert_eq!(cpu, 0),
            PinOutcome::Unsupported => {}
        }
    }

    #[test]
    fn out_of_range_cpu_is_rejected_not_ub() {
        assert_eq!(pin_current_thread(1 << 20), PinOutcome::Unsupported);
    }

    #[test]
    fn pin_shard_wraps_shard_over_cores() {
        // shard index far beyond any real core count must still map
        // into range (or no-op on a 1-core host) — never panic.
        let _ = pin_shard(97, 128);
    }

    #[test]
    fn pinned_thread_still_computes() {
        // Whatever the outcome, the thread keeps working afterwards.
        let handle = std::thread::spawn(|| {
            let _ = pin_shard(1, 4);
            (0..1000u64).sum::<u64>()
        });
        assert_eq!(handle.join().unwrap(), 499_500);
    }
}
