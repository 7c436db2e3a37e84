//! Fixed-capacity lock-free single-producer/single-consumer ring.
//!
//! The online ingest engine's transport: the engine's `offer` path
//! (one producer) hands each shard lane's worker (one consumer) its
//! flow subsequence over a bounded ring instead of a
//! `std::sync::mpsc` channel. The design is the classic Lamport queue with the two
//! standard refinements high-throughput SPSC queues use:
//!
//! * **cache-line-padded head/tail** ([`CachePadded`]) so the
//!   producer's tail store and the consumer's head store never
//!   false-share one line (the dominant cost of a naive ring);
//! * **batched acquire/release with position caching**: each side
//!   keeps a local copy of the *other* side's index and only re-loads
//!   the shared atomic when its cached view says the ring is
//!   full/empty, so a `push`/`pop` is typically one `Release` store
//!   plus plain loads — no RMW instructions anywhere. The batch ops
//!   ([`Producer::push_slice`], [`Consumer::pop_batch`]) amortize even
//!   that store over many items.
//!
//! Memory ordering argument: the producer writes the slot *then*
//! publishes it with a `Release` store of `tail`; the consumer
//! `Acquire`-loads `tail` before reading the slot, which gives the
//! happens-before edge for the payload. Symmetrically, the consumer
//! reads the slot *then* `Release`-stores `head`; the producer
//! `Acquire`-loads `head` before overwriting a slot. Indices increase
//! monotonically (they never wrap modulo capacity — a `u64`-style
//! monotonic `usize` cannot overflow in any realistic run), so
//! "full" is exactly `tail - head == capacity` and "empty" is
//! `tail == head`.
//!
//! This module contains `unsafe` (the slot array is `UnsafeCell<
//! MaybeUninit<T>>`); `support` is the one crate in the workspace
//! allowed to (see `mem`). The safety argument is local: the producer
//! only writes slots in `head + capacity > i >= tail` (unpublished),
//! the consumer only reads slots in `head <= i < tail` (published and
//! not yet consumed), and the `Producer`/`Consumer` handles are unique
//! (not `Clone`), so each slot has exactly one writer and one reader
//! with a Release/Acquire edge between them.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads and aligns a value to 128 bytes — two x86 cache lines, because
/// adjacent-line prefetchers pull pairs of lines and would otherwise
/// re-introduce false sharing between logically separate hot words.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// The shared ring state. Owned by an `Arc` held from both endpoints.
struct Ring<T> {
    /// Slot storage; length is `cap_mask + 1` (a power of two).
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// `buf.len() - 1`; slot of position `i` is `i & cap_mask`.
    cap_mask: usize,
    /// Logical capacity as requested by the caller (`<= buf.len()`):
    /// the ring reports full at `tail - head == capacity`, so
    /// `with_capacity(1)` really is a one-element ring even though the
    /// storage is rounded to a power of two.
    capacity: usize,
    /// Next position the consumer will read. Written by the consumer
    /// (Release), read by the producer (Acquire).
    head: CachePadded<AtomicUsize>,
    /// Next position the producer will write. Written by the producer
    /// (Release), read by the consumer (Acquire).
    tail: CachePadded<AtomicUsize>,
    /// Set when the producer is dropped or seals the ring.
    closed: AtomicBool,
}

// SAFETY: the ring transfers `T` values across threads (producer
// writes, consumer reads, Release/Acquire edge in between), which is
// exactly the `T: Send` contract. No `&T` is ever shared concurrently.
unsafe impl<T: Send> Sync for Ring<T> {}
unsafe impl<T: Send> Send for Ring<T> {}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Exclusive access here (last Arc owner): drop any values that
        // were produced but never consumed.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for i in head..tail {
            let slot = self.buf[i & self.cap_mask].get();
            // SAFETY: positions in `head..tail` hold initialized values
            // nobody consumed; we have `&mut self`, so no other reader.
            unsafe { (*slot).assume_init_drop() };
        }
    }
}

/// The producing endpoint of an SPSC ring. Not `Clone`: single
/// producer by construction.
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
    /// Local (uncontended) copy of our own `tail`.
    tail: usize,
    /// Cached view of the consumer's `head`; refreshed only when the
    /// cached view says the ring is full.
    head_cache: usize,
}

/// The consuming endpoint of an SPSC ring. Not `Clone`: single
/// consumer by construction.
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
    /// Local copy of our own `head`.
    head: usize,
    /// Cached view of the producer's `tail`; refreshed only when the
    /// cached view says the ring is empty.
    tail_cache: usize,
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("spsc::Producer")
            .field("capacity", &self.ring.capacity)
            .finish_non_exhaustive()
    }
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("spsc::Consumer")
            .field("capacity", &self.ring.capacity)
            .finish_non_exhaustive()
    }
}

/// Create a bounded SPSC ring holding at most `capacity` in-flight
/// items (`capacity >= 1`; storage rounds up to a power of two but the
/// in-flight bound is exact).
///
/// # Panics
/// Panics if `capacity == 0`.
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    try_ring(capacity).expect("spsc ring too large to allocate")
}

/// [`ring`], or `None` when the storage size overflows or the
/// allocator refuses it: for capacities that come from outside the
/// program. The storage is reserved, not written.
///
/// # Panics
/// Panics if `capacity == 0`.
pub fn try_ring<T: Send>(capacity: usize) -> Option<(Producer<T>, Consumer<T>)> {
    assert!(capacity >= 1, "spsc ring needs capacity >= 1");
    let storage = capacity.checked_next_power_of_two()?;
    let mut buf: Vec<UnsafeCell<MaybeUninit<T>>> = Vec::new();
    buf.try_reserve_exact(storage).ok()?;
    // SAFETY: the capacity is reserved, and a slot is an uninitialized
    // `MaybeUninit`, which needs no initialization. No slot is written,
    // so an unused ring costs address space, not memory.
    unsafe { buf.set_len(storage) };
    let buf = buf.into_boxed_slice();
    let ring = Arc::new(Ring {
        buf,
        cap_mask: storage - 1,
        capacity,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        closed: AtomicBool::new(false),
    });
    Some((
        Producer { ring: Arc::clone(&ring), tail: 0, head_cache: 0 },
        Consumer { ring, head: 0, tail_cache: 0 },
    ))
}

/// Adaptive wait for a peer — the blocking pop, or a producer facing a
/// full ring: brief on-core
/// spinning first (the common case: the peer is one store away), then
/// yields to the scheduler so a single-hardware-thread host makes
/// progress instead of burning the peer's timeslice.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Fresh backoff (starts at the cheapest wait).
    pub fn new() -> Self {
        Self::default()
    }

    /// Wait once, escalating from `spin_loop` hints to
    /// `thread::yield_now`.
    ///
    /// On a single-hardware-thread host the spin phase is skipped
    /// outright: the peer can only make progress once we give up the
    /// core, so every spin cycle is time *added* to the wait.
    pub fn wait(&mut self) {
        if self.step < 6 && crate::par::host_parallelism() > 1 {
            for _ in 0..(1 << self.step) {
                std::hint::spin_loop();
            }
            self.step += 1;
        } else {
            std::thread::yield_now();
        }
    }

    /// Reset to the cheap end after progress was made.
    pub fn reset(&mut self) {
        self.step = 0;
    }
}

impl<T: Send> Producer<T> {
    /// The ring's in-flight bound.
    pub fn capacity(&self) -> usize {
        self.ring.capacity
    }

    /// Free slots according to the (possibly stale) cached view,
    /// refreshing the view from the consumer only when the cached view
    /// cannot satisfy a request for `want` slots. The cached view is a
    /// lower bound (the consumer's real `head` only moves forward), so
    /// skipping the refresh is always safe — it just under-reports.
    #[inline]
    fn free_slots_for(&mut self, want: usize) -> usize {
        let free = self.ring.capacity - (self.tail - self.head_cache);
        if free >= want.max(1) {
            return free;
        }
        self.head_cache = self.ring.head.0.load(Ordering::Acquire);
        self.ring.capacity - (self.tail - self.head_cache)
    }

    /// Free slots, refreshing the cached view when it reads zero.
    #[inline]
    fn free_slots(&mut self) -> usize {
        self.free_slots_for(1)
    }

    /// Write `v` into the (known-free) slot at `self.tail` and publish
    /// it.
    #[inline]
    fn write(&mut self, v: T) {
        let slot = self.ring.buf[self.tail & self.ring.cap_mask].get();
        // SAFETY: `free_slots() > 0` established `tail - head <
        // capacity`, so this slot is unpublished (producer-owned), and
        // we are the only producer.
        unsafe { (*slot).write(v) };
        self.tail += 1;
        self.ring.tail.0.store(self.tail, Ordering::Release);
    }

    /// Non-blocking push. Returns `Err(v)` when the ring is full.
    #[inline]
    pub fn try_push(&mut self, v: T) -> Result<(), T> {
        if self.free_slots() == 0 {
            return Err(v);
        }
        self.write(v);
        Ok(())
    }

    /// Seal the ring from the producer side **without** consuming the
    /// endpoint: sets the close flag so a blocking consumer loop
    /// ([`Consumer::pop_batch_blocking`]) terminates once it drains the
    /// already-published prefix. The supervised
    /// threaded runtime's failover path needs exactly this shape — stop
    /// a (possibly wedged) worker's intake while keeping the producer
    /// handle alive to account for what was in flight. Pushing after a
    /// seal is permitted but pointless: a well-behaved consumer treats
    /// closed-and-drained as final and will never see the new items.
    pub fn seal(&mut self) {
        self.ring.closed.store(true, Ordering::Release);
    }

    /// Items currently published but unconsumed, from the producer's
    /// exact view of its own tail and a fresh `Acquire` load of the
    /// consumer's head. Unlike [`Producer::try_push`]'s cached check
    /// this always refreshes, so it is an exact snapshot at the moment
    /// of the load (the consumer may of course drain more immediately
    /// after).
    pub fn in_flight(&mut self) -> usize {
        self.head_cache = self.ring.head.0.load(Ordering::Acquire);
        self.tail - self.head_cache
    }

    /// Push as many items from `src` as currently fit, with **at most
    /// one** head acquire and **one** tail release for the whole batch.
    /// Returns how many were pushed (a prefix of `src`). The head is
    /// re-acquired only when the cached view cannot fit all of `src`,
    /// so a full-slice push is never truncated by cache staleness.
    pub fn push_slice(&mut self, src: &[T]) -> usize
    where
        T: Copy,
    {
        let n = self.free_slots_for(src.len()).min(src.len());
        for (i, &v) in src[..n].iter().enumerate() {
            let pos = self.tail + i;
            let slot = self.ring.buf[pos & self.ring.cap_mask].get();
            // SAFETY: `pos < tail + free_slots()`, i.e. within the
            // producer-owned unpublished range; single producer.
            unsafe { (*slot).write(v) };
        }
        if n > 0 {
            self.tail += n;
            self.ring.tail.0.store(self.tail, Ordering::Release);
        }
        n
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.ring.closed.store(true, Ordering::Release);
    }
}

impl<T: Send> Consumer<T> {
    /// True once the producer endpoint has been dropped or has sealed
    /// the ring ([`Producer::seal`]). Items already
    /// published are still poppable; drain until [`Consumer::is_empty`]
    /// before treating the stream as finished.
    pub fn is_closed(&self) -> bool {
        self.ring.closed.load(Ordering::Acquire)
    }

    /// True when no published item is waiting (refreshes the cached
    /// producer index).
    pub fn is_empty(&mut self) -> bool {
        self.available() == 0
    }

    /// Published items waiting, refreshing the cached view from the
    /// producer only when the cached view cannot satisfy a request for
    /// `want` items. Like the producer's free-slot cache, the cached
    /// view only under-reports, never over-reports.
    #[inline]
    fn available_for(&mut self, want: usize) -> usize {
        let avail = self.tail_cache - self.head;
        if avail >= want.max(1) {
            return avail;
        }
        self.tail_cache = self.ring.tail.0.load(Ordering::Acquire);
        self.tail_cache - self.head
    }

    /// Published items waiting, refreshing the cached view when it
    /// reads empty.
    #[inline]
    fn available(&mut self) -> usize {
        self.available_for(1)
    }

    /// Non-blocking pop.
    #[inline]
    pub fn try_pop(&mut self) -> Option<T> {
        if self.available() == 0 {
            return None;
        }
        let slot = self.ring.buf[self.head & self.ring.cap_mask].get();
        // SAFETY: `head < tail` (published, unconsumed) and we are the
        // only consumer; the Acquire load of `tail` in `available`
        // ordered the producer's slot write before this read.
        let v = unsafe { (*slot).assume_init_read() };
        self.head += 1;
        self.ring.head.0.store(self.head, Ordering::Release);
        Some(v)
    }

    /// Pop up to `max` items into `out`, with **at most one** tail
    /// acquire and **one** head release for the whole batch. Returns
    /// how many were appended. The tail is re-acquired only when the
    /// cached view holds fewer than `max` items, so a full-batch drain
    /// is never truncated by cache staleness.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let n = self.available_for(max).min(max);
        out.reserve(n);
        for i in 0..n {
            let pos = self.head + i;
            let slot = self.ring.buf[pos & self.ring.cap_mask].get();
            // SAFETY: positions `head..head + n <= tail` are published
            // and unconsumed; single consumer; ordering as in try_pop.
            out.push(unsafe { (*slot).assume_init_read() });
        }
        if n > 0 {
            self.head += n;
            self.ring.head.0.store(self.head, Ordering::Release);
        }
        n
    }

    /// Blocking batch pop for a streaming consumer loop: waits (spin,
    /// then yield) until items arrive, fills `out` with up to `max` of
    /// them, and returns 0 only when the producer is gone (or sealed
    /// the ring) **and** the ring is fully drained — the ring
    /// equivalent of iterating a closed channel.
    pub fn pop_batch_blocking(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let mut backoff = Backoff::new();
        loop {
            let n = self.pop_batch(out, max);
            if n > 0 {
                return n;
            }
            // Check closed *after* an empty observation: the producer
            // publishes items before closing, so closed + empty is
            // final. (Ordering: `closed` is stored Release on drop or
            // seal and loaded Acquire here, after the failed tail
            // refresh.)
            if self.is_closed() && self.is_empty() {
                return 0;
            }
            backoff.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_roundtrip_within_capacity() {
        let (mut tx, mut rx) = ring::<u64>(8);
        for i in 0..8 {
            tx.try_push(i).expect("fits");
        }
        assert!(tx.try_push(99).is_err(), "9th push must report full");
        for i in 0..8 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn capacity_is_exact_even_when_storage_rounds_up() {
        // Capacity 5 rounds storage to 8 but the in-flight bound must
        // stay 5.
        let (mut tx, mut rx) = ring::<u32>(5);
        for i in 0..5 {
            tx.try_push(i).expect("fits");
        }
        assert!(tx.try_push(5).is_err());
        assert_eq!(rx.try_pop(), Some(0));
        tx.try_push(5).expect("one slot freed");
        assert!(tx.try_push(6).is_err());
        assert_eq!(tx.capacity(), 5);
    }

    #[test]
    fn capacity_one_ping_pongs() {
        let (mut tx, mut rx) = ring::<u8>(1);
        for round in 0..100u8 {
            tx.try_push(round).expect("empty ring");
            assert!(tx.try_push(255).is_err(), "capacity 1 is full");
            assert_eq!(rx.try_pop(), Some(round));
        }
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_rejected() {
        let _ = ring::<u8>(0);
    }

    #[test]
    fn batch_push_pop_preserve_order() {
        let (mut tx, mut rx) = ring::<u64>(16);
        let src: Vec<u64> = (0..10).collect();
        assert_eq!(tx.push_slice(&src), 10);
        assert_eq!(tx.push_slice(&src), 6, "only 6 slots left");
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 12), 12);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1]);
        out.clear();
        assert_eq!(rx.pop_batch(&mut out, 100), 4);
        assert_eq!(out, vec![2, 3, 4, 5]);
        assert_eq!(rx.pop_batch(&mut out, 100), 0);
    }

    #[test]
    fn closed_and_drained_terminates_consumer() {
        let (mut tx, mut rx) = ring::<u64>(4);
        tx.try_push(1).expect("fits");
        tx.try_push(2).expect("fits");
        drop(tx);
        assert!(rx.is_closed());
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch_blocking(&mut out, 8), 2, "published items survive close");
        assert_eq!(out, vec![1, 2]);
        assert_eq!(rx.pop_batch_blocking(&mut out, 8), 0, "closed + drained");
    }

    #[test]
    fn unconsumed_items_are_dropped_with_the_ring() {
        // Drop counting through Arc strong counts.
        let marker = Arc::new(());
        let (mut tx, rx) = ring::<Arc<()>>(4);
        for _ in 0..3 {
            tx.try_push(Arc::clone(&marker)).expect("fits");
        }
        assert_eq!(Arc::strong_count(&marker), 4);
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&marker), 1, "ring dropped its 3");
    }

    #[test]
    fn producer_dropped_mid_slice_delivers_exact_prefix() {
        // A producer that dies between two push_slice calls (or after a
        // truncated one) must leave the consumer with *exactly* the
        // published prefix — no phantom items, no lost ones.
        let (mut tx, mut rx) = ring::<u64>(8);
        let src: Vec<u64> = (0..20).collect();
        let pushed = tx.push_slice(&src);
        assert_eq!(pushed, 8, "truncated to capacity");
        drop(tx); // "crash" mid-stream
        assert!(rx.is_closed());
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch_blocking(&mut out, 100), 8);
        assert_eq!(out, src[..8], "exact published prefix, in order");
        assert_eq!(rx.pop_batch_blocking(&mut out, 100), 0, "closed + drained");
    }

    #[test]
    fn loss_accounting_is_exact_under_full_backpressure() {
        // 40k packets against a tiny ring with a consumer that only
        // drains every 64th offer: every packet is either delivered or
        // counted as shed, with zero slack.
        let (mut tx, mut rx) = ring::<u64>(16);
        let total = 40_000u64;
        let mut shed = 0u64;
        let mut delivered = 0u64;
        let mut checksum = 0u64;
        let mut buf = Vec::new();
        for i in 0..total {
            match tx.try_push(i) {
                Ok(()) => {}
                Err(_) => shed += 1,
            }
            if i % 64 == 0 {
                buf.clear();
                let n = rx.pop_batch(&mut buf, 8);
                delivered += n as u64;
                checksum += buf.iter().sum::<u64>();
            }
        }
        drop(tx);
        loop {
            buf.clear();
            let n = rx.pop_batch_blocking(&mut buf, 64);
            if n == 0 {
                break;
            }
            delivered += n as u64;
            checksum += buf.iter().sum::<u64>();
        }
        assert_eq!(delivered + shed, total, "exact conservation");
        assert!(shed > 0, "the tiny ring must have shed under this load");
        assert!(checksum > 0);
    }

    #[test]
    fn cross_thread_stream_conserves_everything() {
        // 100k u64s through a small ring: slice pushes backing off on
        // a full ring against a blocking batch consumer; sum and order
        // must survive exactly.
        let (mut tx, mut rx) = ring::<u64>(64);
        let n = 100_000u64;
        std::thread::scope(|s| {
            s.spawn(move || {
                let src: Vec<u64> = (0..n).collect();
                let mut rest = &src[..];
                let mut backoff = Backoff::new();
                while !rest.is_empty() {
                    let pushed = tx.push_slice(rest);
                    rest = &rest[pushed..];
                    if pushed == 0 {
                        backoff.wait();
                    } else {
                        backoff.reset();
                    }
                }
            });
            let mut expected = 0u64;
            let mut buf = Vec::with_capacity(256);
            loop {
                buf.clear();
                if rx.pop_batch_blocking(&mut buf, 256) == 0 {
                    break;
                }
                for &v in &buf {
                    assert_eq!(v, expected, "order violated");
                    expected += 1;
                }
            }
            assert_eq!(expected, n, "every item delivered exactly once");
        });
    }

    #[test]
    fn sealed_ring_terminates_consumer_after_exact_prefix() {
        // seal() must behave like a producer drop for the consumer —
        // published items drain, then the stream ends — while the
        // producer handle stays alive for post-mortem accounting.
        let (mut tx, mut rx) = ring::<u64>(8);
        for i in 0..5 {
            tx.try_push(i).expect("fits");
        }
        tx.seal();
        assert!(rx.is_closed(), "seal raises the close flag");
        assert_eq!(tx.in_flight(), 5, "producer still sees its backlog");
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch_blocking(&mut out, 100), 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4], "exact sealed prefix");
        assert_eq!(rx.pop_batch_blocking(&mut out, 100), 0, "sealed + drained is final");
        assert_eq!(tx.in_flight(), 0, "drain visible from the producer");
    }

    #[test]
    fn seal_unblocks_a_parked_consumer() {
        // A consumer parked in pop_batch_blocking on an empty ring must
        // wake and terminate when the producer seals from its own
        // thread (the failover path: supervisor seals a lane whose
        // worker is waiting for input that will never come).
        let (mut tx, mut rx) = ring::<u64>(4);
        let waiter = std::thread::spawn(move || {
            let mut out = Vec::new();
            rx.pop_batch_blocking(&mut out, 16)
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        tx.seal();
        assert_eq!(waiter.join().expect("consumer exits"), 0);
    }

    #[test]
    fn producer_in_flight_tracks_push_and_pop() {
        let (mut tx, mut rx) = ring::<u64>(4);
        assert_eq!(tx.in_flight(), 0);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        assert_eq!(tx.in_flight(), 2);
        assert_eq!(rx.try_pop(), Some(1));
        assert_eq!(tx.in_flight(), 1, "fresh head load sees the pop");
    }

    #[test]
    fn backoff_escalates_and_resets() {
        let mut b = Backoff::new();
        for _ in 0..10 {
            b.wait(); // must not hang or panic past the spin phase
        }
        b.reset();
        b.wait();
    }

    #[test]
    fn stale_index_caches_do_not_truncate_batches() {
        // Regression: after many single push/pop round trips the
        // producer's cached head (and the consumer's cached tail) lag
        // far behind reality. A whole-slice push into an actually-empty
        // ring — and a full-batch pop of what was pushed — must still
        // complete in one call, not be truncated to the stale view.
        let (mut tx, mut rx) = ring::<u64>(1024);
        for i in 0..700u64 {
            tx.try_push(i).unwrap();
            assert_eq!(rx.try_pop(), Some(i));
        }
        // Ring is empty, but tx.head_cache is ~700 stale.
        let chunk: Vec<u64> = (0..1024).collect();
        assert_eq!(tx.push_slice(&chunk), 1024, "full-capacity push");
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 1024), 1024, "full-capacity pop");
        assert_eq!(out, chunk);
    }
}
