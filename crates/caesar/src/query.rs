//! Chunk-parallel batch query engine (§3.2 at scale).
//!
//! The per-call query path (`Caesar::estimate`) is convenient but pays,
//! per flow: two heap allocations (`indices()` + the gathered counter
//! `Vec`), re-validation of the estimator parameters, and recomputation
//! of every flow-independent floating-point constant. Sweeping an
//! entire flow table — the common offline workload ("estimate all 2k
//! flows") — multiplies that overhead by the population.
//!
//! This engine evaluates CSM/MLM over a *batch* of flows with
//!
//! * **batched index generation** — one stack buffer per worker,
//!   zero allocations per flow, with a software prefetch of the `k`
//!   counter lines between index generation and the gather whenever
//!   the counter array is big enough to spill the core-private caches
//!   (on L2-resident arrays — every paper geometry — the hints are
//!   pure overhead and are compiled out, see `PREFETCH_BYTES_MIN`);
//! * **prepared estimator kernels** ([`csm::Prepared`] /
//!   [`mlm::Prepared`]) with all constants hoisted once per sweep and
//!   the batch loop monomorphized per estimator;
//! * **contiguous chunk parallelism** over [`support::par`] scoped
//!   threads.
//!
//! A double-buffered one-flow-lookahead variant (generate flow `i+1`'s
//! indices and prefetch its counters while estimating flow `i`) was
//! measured ~2× *slower* per flow at the paper geometries: the SRAM
//! array fits in L2, so the lookahead bookkeeping (buffer parity,
//! extra live state) dwarfs the memory latency it hides. The simple
//! fill → prefetch → gather → estimate loop wins; revisit only with an
//! LLC-sized `L`.
//!
//! Determinism: per-flow estimation is a *pure* function of the frozen
//! counter array (no RNG anywhere in the query phase), the prepared
//! kernels are bit-identical to the per-call estimators by
//! construction, and chunking is order-preserving — so the output is
//! **bit-identical to the sequential path at every thread count**
//! (pinned by `tests/hotpath_equivalence.rs`). Requested thread counts
//! are resolved against `available_parallelism()` so a 4-way sweep on a
//! 1-core host degrades to the batch kernel instead of paying spawn
//! latency for no concurrency.

use crate::config::{CaesarConfig, Estimator};
use crate::estimator::{csm, mlm, Estimate, EstimateParams, LANES};
use hashkit::{KCounterMap, K_MAX};
use support::par::par_map_threads;

/// Read-only view of a frozen counter array — everything the query
/// phase reads from the two counter-array flavors ([`crate::Caesar`]'s
/// `CounterArray`, the sharded engines' `AtomicCounterArray`).
pub trait CounterView: Sync {
    /// Read counter `idx`.
    fn get(&self, idx: usize) -> u64;
    /// Best-effort software prefetch of counter `idx`'s storage word.
    fn prefetch(&self, idx: usize);
    /// Total units offered to the array (`n` for the estimators).
    fn total_added(&self) -> u64;
    /// Saturating adds that lost precision over the array's lifetime.
    fn saturation_events(&self) -> u64;
    /// The clamp value a saturated counter sits at.
    fn clamp_value(&self) -> u64;
}

impl CounterView for crate::sram::CounterArray {
    #[inline]
    fn get(&self, idx: usize) -> u64 {
        crate::sram::CounterArray::get(self, idx)
    }
    #[inline]
    fn prefetch(&self, idx: usize) {
        crate::sram::CounterArray::prefetch(self, idx)
    }
    fn total_added(&self) -> u64 {
        crate::sram::CounterArray::total_added(self)
    }
    fn saturation_events(&self) -> u64 {
        self.stats().saturations
    }
    fn clamp_value(&self) -> u64 {
        self.max_value()
    }
}

impl CounterView for crate::atomic_sram::AtomicCounterArray {
    #[inline]
    fn get(&self, idx: usize) -> u64 {
        crate::atomic_sram::AtomicCounterArray::get(self, idx)
    }
    #[inline]
    fn prefetch(&self, idx: usize) {
        crate::atomic_sram::AtomicCounterArray::prefetch(self, idx)
    }
    fn total_added(&self) -> u64 {
        crate::atomic_sram::AtomicCounterArray::total_added(self)
    }
    fn saturation_events(&self) -> u64 {
        self.saturations()
    }
    fn clamp_value(&self) -> u64 {
        self.max_value()
    }
}

/// The query phase (§3.2) of every CAESAR engine: read the flow's `k`
/// counters, remove the `n/L` sharing noise, apply CSM or MLM.
///
/// An engine supplies four things — its configuration, its flow→counter
/// map, the counter array it answers from, and (for the online
/// runtimes) the exact ingest-loss ratio of a flow's shard — and the
/// default methods are the whole query surface, identical for
/// [`crate::Caesar`], [`crate::ConcurrentCaesar`],
/// [`crate::OnlineCaesar`] and [`crate::ThreadedCaesar`].
///
/// ```
/// use caesar::{Caesar, CaesarConfig, Estimator, SketchRead};
/// let mut sketch = Caesar::new(CaesarConfig { cache_entries: 64, entry_capacity: 8,
///                                             counters: 1024, k: 3,
///                                             ..CaesarConfig::default() });
/// sketch.record_batch(&[7; 100]);
/// sketch.finish();
/// let batch = sketch.estimate_all_threads(&[7], Estimator::Csm, 2);
/// assert_eq!(batch[0].value.to_bits(), sketch.estimate(7, Estimator::Csm).value.to_bits());
/// assert!(!sketch.query_health(7).is_degraded());
/// ```
pub trait SketchRead {
    /// The counter array queries read.
    type Counters: CounterView;

    /// The configuration in use.
    fn config(&self) -> &CaesarConfig;

    /// The flow → `k` counter index map.
    fn kmap(&self) -> &KCounterMap;

    /// The query-visible counter array.
    fn counters(&self) -> &Self::Counters;

    /// Exact ingest-loss ratio, `(dropped + quarantined) / offered`,
    /// of the shard `flow` routes to; `0.0` for loss-free sketches.
    fn loss_fraction(&self, _flow: u64) -> f64 {
        0.0
    }

    /// The estimator parameters at the current (visible) state.
    fn params(&self) -> EstimateParams {
        let cfg = self.config();
        EstimateParams {
            k: cfg.k,
            y: cfg.entry_capacity,
            counters: cfg.counters,
            total_packets: self.counters().total_added(),
        }
    }

    /// Query with an explicit estimator. On a [`crate::Caesar`], call
    /// `finish` first or residual cache contents are missing from the
    /// estimate; the online runtimes answer from the last merge.
    fn estimate(&self, flow: u64, estimator: Estimator) -> Estimate {
        let params = self.params();
        with_row(self.kmap(), self.counters(), flow, |w| estimate_row(w, &params, estimator))
    }

    /// Estimated size of `flow` under the configured estimator,
    /// clamped to physically possible (non-negative) sizes.
    fn query(&self, flow: u64) -> f64 {
        self.estimate(flow, self.config().estimator).clamped()
    }

    /// Batch query: evaluate `estimator` for every flow in `flows` with
    /// the zero-alloc batch engine, sequentially. Bit-identical to
    /// per-flow [`SketchRead::estimate`].
    fn estimate_all(&self, flows: &[u64], estimator: Estimator) -> Vec<Estimate> {
        self.estimate_all_threads(flows, estimator, 1)
    }

    /// [`SketchRead::estimate_all`] with up to `threads` workers
    /// (resolved against the host's parallelism). Output order matches
    /// `flows`; bit-identical at every thread count.
    fn estimate_all_threads(
        &self,
        flows: &[u64],
        estimator: Estimator,
        threads: usize,
    ) -> Vec<Estimate> {
        estimate_all(self.kmap(), self.counters(), &self.params(), estimator, flows, threads)
    }

    /// Clamped default-estimator sizes for a whole flow table — the
    /// batch counterpart of [`SketchRead::query`].
    fn query_all(&self, flows: &[u64]) -> Vec<f64> {
        self.estimate_all(flows, self.config().estimator)
            .into_iter()
            .map(|e| e.clamped())
            .collect()
    }

    /// Health-annotated default-estimator query: the estimate plus
    /// saturation flags and the flow's shard loss ratio folded into a
    /// confidence score (see [`QueryHealth`]). On a merged cluster view
    /// the saturation includes every contributing node's.
    fn query_health(&self, flow: u64) -> QueryHealth {
        query_health(
            self.kmap(),
            self.counters(),
            &self.params(),
            self.config().estimator,
            flow,
            self.loss_fraction(flow),
        )
    }
}

/// A health-annotated estimate: the value plus everything a consumer
/// needs to judge whether it can be trusted.
///
/// Two degradation sources are surfaced:
///
/// * **Saturation bias.** A counter stuck at its clamp value has lost
///   mass, so CSM/MLM under-estimate every flow mapped onto it.
///   `saturation_events` is the array-wide tally;
///   `saturated_counters` counts how many of *this flow's* `k`
///   counters currently sit at the clamp.
/// * **Ingest loss.** Packets shed by backpressure or quarantined by a
///   worker fault never reached the sketch. `loss_fraction` is the
///   exact per-shard loss ratio the online runtime accounts
///   (`(dropped + quarantined) / offered`), `0.0` for offline sketches.
///
/// `confidence = (1 − loss_fraction) · (1 − saturated_counters / k)`
/// — a [0, 1] heuristic that is 1.0 exactly when neither source is
/// present (not a calibrated probability; see DESIGN §4f).
#[derive(Debug, Clone, Copy)]
pub struct QueryHealth {
    /// The estimate itself (value + variance).
    pub estimate: Estimate,
    /// Array-wide saturating-add events.
    pub saturation_events: u64,
    /// How many of the flow's `k` counters sit at the clamp value.
    pub saturated_counters: usize,
    /// Exact ingest-loss ratio for the flow's shard (0.0 offline).
    pub loss_fraction: f64,
    /// Combined [0, 1] trust score (see above).
    pub confidence: f64,
}

impl QueryHealth {
    /// True when either degradation source is present — the estimate
    /// should be consumed with its `confidence`, not at face value.
    pub fn is_degraded(&self) -> bool {
        self.saturated_counters > 0 || self.saturation_events > 0 || self.loss_fraction > 0.0
    }
}

fn estimate_row(w: &[u64], params: &EstimateParams, estimator: Estimator) -> Estimate {
    match estimator {
        Estimator::Csm => csm::estimate(w, params),
        Estimator::Mlm => mlm::estimate(w, params),
    }
}

/// Gather `flow`'s `k` counter values (read from `view`) into a
/// stack row and hand it to `f` — no allocation for `k <= K_MAX`;
/// larger `k` takes a cold heap row.
fn with_row<V: CounterView, T>(
    kmap: &KCounterMap,
    view: &V,
    flow: u64,
    f: impl FnOnce(&[u64]) -> T,
) -> T {
    let k = kmap.k();
    if k > K_MAX {
        let w: Vec<u64> = kmap.indices(flow).into_iter().map(|i| view.get(i)).collect();
        return f(&w);
    }
    let mut idx = [0usize; K_MAX];
    kmap.fill_indices(flow, &mut idx[..k]);
    let mut w = [0u64; K_MAX];
    for (dst, &i) in w.iter_mut().zip(&idx[..k]) {
        *dst = view.get(i);
    }
    f(&w[..k])
}

/// Health-annotated single-flow query kernel behind
/// [`SketchRead::query_health`]. `loss_fraction` is the exact
/// ingest-loss ratio of the flow's shard (`0.0` for loss-free
/// sketches).
///
/// # Panics
/// Panics on invalid `params` or `loss_fraction` outside `[0, 1]`.
pub(crate) fn query_health<V: CounterView>(
    kmap: &KCounterMap,
    view: &V,
    params: &EstimateParams,
    estimator: Estimator,
    flow: u64,
    loss_fraction: f64,
) -> QueryHealth {
    assert!(
        (0.0..=1.0).contains(&loss_fraction),
        "loss_fraction must be in [0, 1]"
    );
    let clamp = view.clamp_value();
    let (estimate, saturated_counters) = with_row(kmap, view, flow, |w| {
        (estimate_row(w, params, estimator), w.iter().filter(|&&v| v >= clamp).count())
    });
    let k = kmap.k().max(1);
    let confidence =
        (1.0 - loss_fraction) * (1.0 - saturated_counters as f64 / k as f64);
    QueryHealth {
        estimate,
        saturation_events: view.saturation_events(),
        saturated_counters,
        loss_fraction,
        confidence,
    }
}

/// A prepared per-flow estimator kernel. Sealed to the two prepared
/// estimators; exists so the batch loops monomorphize per estimator
/// (full inlining of the float chains) instead of branching on an enum
/// for every flow.
trait BatchKernel: Copy + Sync {
    fn eval(&self, w: &[u64]) -> Estimate;

    /// Lane form: evaluate [`LANES`] flows at once from their gathered
    /// counter rows, `w[r][lane]` = counter `r` of the chunk's flow
    /// `lane`. The per-flow reduction (sum / Σw²) runs round-major so
    /// each lane accumulates in the exact scalar order; the float tail
    /// is the estimator's `estimate_lanes` kernel. Lane `i` of the
    /// output is bit-identical to `eval` on flow `i`'s row.
    fn eval_lanes<const KC: usize>(&self, w: &[[u64; LANES]; KC]) -> [Estimate; LANES];
}

impl BatchKernel for csm::Prepared {
    #[inline(always)]
    fn eval(&self, w: &[u64]) -> Estimate {
        self.estimate(w)
    }

    #[inline(always)]
    fn eval_lanes<const KC: usize>(&self, w: &[[u64; LANES]; KC]) -> [Estimate; LANES] {
        let mut sums = [0u64; LANES];
        for row in w {
            for lane in 0..LANES {
                sums[lane] += row[lane];
            }
        }
        // Exact convert of the scalar kernel's u64 sum; done here so
        // the kernel proper is a pure float chain (see estimate_lanes).
        let mut sums_f = [0f64; LANES];
        for lane in 0..LANES {
            sums_f[lane] = sums[lane] as f64;
        }
        let (value, variance) = self.estimate_lanes(&sums_f);
        let mut out = [Estimate { value: 0.0, variance: 0.0 }; LANES];
        for lane in 0..LANES {
            out[lane] = Estimate { value: value[lane], variance: variance[lane] };
        }
        out
    }
}

impl BatchKernel for mlm::Prepared {
    #[inline(always)]
    fn eval(&self, w: &[u64]) -> Estimate {
        self.estimate(w)
    }

    #[inline(always)]
    fn eval_lanes<const KC: usize>(&self, w: &[[u64; LANES]; KC]) -> [Estimate; LANES] {
        let mut sum_sq = [0f64; LANES];
        for row in w {
            for lane in 0..LANES {
                let wf = row[lane] as f64;
                sum_sq[lane] += wf * wf;
            }
        }
        self.estimate_lanes(&sum_sq)
    }
}

/// Resolve a requested worker count against the host: more OS threads
/// than hardware threads only adds spawn/switch latency (the work is
/// CPU-bound), so cap at the memoized
/// [`host_parallelism`](support::par::host_parallelism) — the
/// un-memoized probe re-reads sysfs/procfs per call under cgroup CPU
/// quotas (~10 µs measured), which was several ns/flow of pure
/// syscall overhead when paid per sweep. Chunking does not affect
/// results, only scheduling — outputs are bit-identical at any width.
fn resolve_threads(requested: usize) -> usize {
    requested.clamp(1, support::par::host_parallelism())
}

/// Batch query kernel behind [`SketchRead::estimate_all_threads`]:
/// evaluate `estimator` for every flow in `flows` against the frozen
/// counters in `view`, using up to `threads` workers (resolved against
/// the host's parallelism). Output order matches `flows`; results are
/// bit-identical to calling the per-flow estimator sequentially.
///
/// # Panics
/// Panics on invalid `params`.
pub(crate) fn estimate_all<V: CounterView>(
    kmap: &KCounterMap,
    view: &V,
    params: &EstimateParams,
    estimator: Estimator,
    flows: &[u64],
    threads: usize,
) -> Vec<Estimate> {
    // Monomorphize the whole sweep per estimator: the per-flow float
    // chains inline into the batch loop instead of dispatching through
    // an enum 2k times.
    match estimator {
        Estimator::Csm => run_all(kmap, view, csm::Prepared::new(params), params.k, flows, threads),
        Estimator::Mlm => run_all(kmap, view, mlm::Prepared::new(params), params.k, flows, threads),
    }
}

fn run_all<V: CounterView, K: BatchKernel>(
    kmap: &KCounterMap,
    view: &V,
    kernel: K,
    k: usize,
    flows: &[u64],
    threads: usize,
) -> Vec<Estimate> {
    if k > K_MAX {
        // Cold fallback for pathological geometries: no stack buffers,
        // but still one prepared kernel for the whole sweep.
        let mut idx = vec![0usize; k];
        let mut w = vec![0u64; k];
        return flows
            .iter()
            .map(|&f| {
                kmap.fill_indices(f, &mut idx);
                for (dst, &i) in w.iter_mut().zip(idx.iter()) {
                    *dst = view.get(i);
                }
                kernel.eval(&w)
            })
            .collect();
    }
    let threads = resolve_threads(threads);
    if threads <= 1 || flows.len() < 2 {
        return batch_dispatch(kmap, view, kernel, k, flows);
    }
    // Contiguous chunks, one per worker; order-preserving reassembly
    // keeps the output bit-identical at any width.
    let chunks: Vec<&[u64]> = flows.chunks(flows.len().div_ceil(threads)).collect();
    let per_chunk = par_map_threads(&chunks, threads, |c| {
        batch_dispatch(kmap, view, kernel, k, c)
    });
    let mut out = Vec::with_capacity(flows.len());
    for mut part in per_chunk {
        out.append(&mut part);
    }
    out
}

/// Prefetch hints only pay once the counter array spills out of the
/// core-private cache levels; at every paper geometry (`L·8` ≲ 200 KiB)
/// the array is L2-resident and the hint instructions are pure
/// overhead (~2 ns/flow at `k = 3`, measured). Issue them only when
/// the resident counter bytes exceed this threshold.
const PREFETCH_BYTES_MIN: usize = 1 << 20;

/// Route the paper's `k ∈ [1, 8]` range to const-generic loops (index
/// fill, gather and the kernel's counter sum all fully unroll — the
/// runtime-`k` form costs ~2× at `k = 3`); anything larger takes the
/// generic kernel. Prefetching is resolved once per chunk from the
/// counter array's resident size (`PREFETCH_BYTES_MIN`) and lifted
/// to a const generic so the L2-resident case carries no per-flow
/// hint instructions. Same loads and arithmetic either way, so
/// outputs are bit-identical.
fn batch_dispatch<V: CounterView, K: BatchKernel>(
    kmap: &KCounterMap,
    view: &V,
    kernel: K,
    k: usize,
    flows: &[u64],
) -> Vec<Estimate> {
    if kmap.l().saturating_mul(8) >= PREFETCH_BYTES_MIN {
        batch_dispatch_pf::<V, K, true>(kmap, view, kernel, k, flows)
    } else {
        batch_dispatch_pf::<V, K, false>(kmap, view, kernel, k, flows)
    }
}

fn batch_dispatch_pf<V: CounterView, K: BatchKernel, const PF: bool>(
    kmap: &KCounterMap,
    view: &V,
    kernel: K,
    k: usize,
    flows: &[u64],
) -> Vec<Estimate> {
    match k {
        1 => batch_fixed::<V, K, 1, PF>(kmap, view, kernel, flows),
        2 => batch_fixed::<V, K, 2, PF>(kmap, view, kernel, flows),
        3 => batch_fixed::<V, K, 3, PF>(kmap, view, kernel, flows),
        4 => batch_fixed::<V, K, 4, PF>(kmap, view, kernel, flows),
        5 => batch_fixed::<V, K, 5, PF>(kmap, view, kernel, flows),
        6 => batch_fixed::<V, K, 6, PF>(kmap, view, kernel, flows),
        7 => batch_fixed::<V, K, 7, PF>(kmap, view, kernel, flows),
        8 => batch_fixed::<V, K, 8, PF>(kmap, view, kernel, flows),
        _ => batch_kernel::<V, K, PF>(kmap, view, kernel, k, flows),
    }
}

/// [`batch_kernel`] with `k` lifted to a const generic, restructured
/// into [`LANES`]-wide chunks: one batch index fill per chunk
/// ([`KCounterMap::fill_indices_batch`] — four independent hash
/// chains), a round-major gather into the `[[u64; LANES]; KC]` SoA
/// rows, and the estimator's lane kernel over the chunk. The `< LANES`
/// tail takes the scalar fill → gather → eval loop. Both paths are
/// bit-identical per flow (the lane kernels pin this), so chunking is
/// unobservable in the output.
fn batch_fixed<V: CounterView, K: BatchKernel, const KC: usize, const PF: bool>(
    kmap: &KCounterMap,
    view: &V,
    kernel: K,
    flows: &[u64],
) -> Vec<Estimate> {
    debug_assert_eq!(kmap.k(), KC);
    let mut out = Vec::with_capacity(flows.len());
    let mut chunks = flows.chunks_exact(LANES);
    for chunk in chunks.by_ref() {
        let mut bases = [0u64; LANES];
        for lane in 0..LANES {
            bases[lane] = kmap.base_hash(chunk[lane]);
        }
        // Fused candidate + gather rounds: round r's four counter loads
        // issue while round r+1's hash multiplies run, so the (L2)
        // load latency overlaps the arithmetic instead of serializing
        // behind the full index fill.
        let mut rows = [[0usize; KC]; LANES];
        let mut w = [[0u64; LANES]; KC];
        for r in 0..KC {
            let mut idx = [0usize; LANES];
            for lane in 0..LANES {
                idx[lane] = kmap.candidate(bases[lane], r as u64);
            }
            if PF {
                for &i in &idx {
                    view.prefetch(i);
                }
            }
            for lane in 0..LANES {
                rows[lane][r] = idx[lane];
                w[r][lane] = view.get(idx[lane]);
            }
        }
        // Rare repair: a lane whose first KC candidates collided gets
        // the canonical duplicate-skip row (bit-identical to the
        // scalar path) and a re-gather of its column.
        for lane in 0..LANES {
            if has_lane_duplicate(&rows[lane]) {
                kmap.fill_indices_from_base(bases[lane], &mut rows[lane]);
                for r in 0..KC {
                    w[r][lane] = view.get(rows[lane][r]);
                }
            }
        }
        out.extend_from_slice(&kernel.eval_lanes(&w));
    }
    let mut idx = [0usize; KC];
    let mut w = [0u64; KC];
    for &flow in chunks.remainder() {
        kmap.fill_indices(flow, &mut idx);
        if PF {
            for &i in &idx {
                view.prefetch(i);
            }
        }
        for (dst, &i) in w.iter_mut().zip(idx.iter()) {
            *dst = view.get(i);
        }
        out.push(kernel.eval(&w));
    }
    out
}

/// The per-worker batch kernel: stack-buffered index generation, a
/// prefetch hint per counter line between index generation and the
/// gather when the array is large enough for hints to pay, zero
/// allocations beyond the output vector.
fn batch_kernel<V: CounterView, K: BatchKernel, const PF: bool>(
    kmap: &KCounterMap,
    view: &V,
    kernel: K,
    k: usize,
    flows: &[u64],
) -> Vec<Estimate> {
    debug_assert!(k <= K_MAX);
    let mut out = Vec::with_capacity(flows.len());
    let mut idx = [0usize; K_MAX];
    let mut w = [0u64; K_MAX];
    for &flow in flows {
        kmap.fill_indices(flow, &mut idx);
        if PF {
            // Hint all k lines before the first dependent load so the
            // (independent) fetches overlap instead of serializing.
            for &i in &idx[..k] {
                view.prefetch(i);
            }
        }
        for (dst, &i) in w[..k].iter_mut().zip(idx[..k].iter()) {
            *dst = view.get(i);
        }
        out.push(kernel.eval(&w[..k]));
    }
    out
}

/// Pairwise duplicate scan over one candidate row (`KC <= 8`, fully
/// unrolled, branch-free).
#[inline(always)]
fn has_lane_duplicate<const KC: usize>(row: &[usize; KC]) -> bool {
    let mut dup = false;
    for i in 1..KC {
        for j in 0..i {
            dup |= row[i] == row[j];
        }
    }
    dup
}

/// Asm-shape anchor for the CSM lane kernel: a standalone, non-inlined
/// instantiation of [`csm::Prepared::estimate_lanes`] that
/// `scripts/check.sh --simd-smoke` disassembles (`--emit=asm`) and
/// greps for packed-double instructions, so a toolchain bump that
/// silently de-vectorizes the lane kernels fails the check instead of
/// shipping. Not used by the hot path (which inlines the kernel); kept
/// `pub` so the symbol always reaches the object file.
#[inline(never)]
pub fn asm_probe_csm_lanes(
    prep: &csm::Prepared,
    sums_f: &[f64; LANES],
) -> ([f64; LANES], [f64; LANES]) {
    prep.estimate_lanes(sums_f)
}

/// Asm-shape anchor for the MLM lane kernel (packed `sqrtpd` et al.);
/// see [`asm_probe_csm_lanes`].
#[inline(never)]
pub fn asm_probe_mlm_lanes(prep: &mlm::Prepared, sum_sq: &[f64; LANES]) -> [Estimate; LANES] {
    prep.estimate_lanes(sum_sq)
}

/// Asm-shape anchor for the batch-hash candidate pass
/// ([`KCounterMap::fill_indices_lanes`] at the paper's default `k = 3`):
/// the guard greps for packed 64-bit lane arithmetic in the mix chains.
#[inline(never)]
pub fn asm_probe_fill_lanes_k3(
    kmap: &KCounterMap,
    flows: &[u64; LANES],
    out: &mut [[usize; 3]; LANES],
) {
    kmap.fill_indices_lanes(flows, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sram::CounterArray;

    fn setup() -> (KCounterMap, CounterArray, EstimateParams) {
        let params = EstimateParams { k: 3, y: 54, counters: 512, total_packets: 40_000 };
        let kmap = KCounterMap::new(params.k, params.counters, 0xFEED);
        let mut sram = CounterArray::new(params.counters, 32);
        let mut x = 1u64;
        for _ in 0..40_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            sram.add((x >> 33) as usize % 512, 1);
        }
        (kmap, sram, params)
    }

    #[test]
    fn batch_matches_per_call_bit_exactly_at_any_width() {
        let (kmap, sram, params) = setup();
        let flows: Vec<u64> = (0..1000u64).map(hashkit::mix::mix64).collect();
        for estimator in [Estimator::Csm, Estimator::Mlm] {
            let reference: Vec<Estimate> = flows
                .iter()
                .map(|&f| {
                    let w: Vec<u64> =
                        kmap.indices(f).into_iter().map(|i| sram.get(i)).collect();
                    match estimator {
                        Estimator::Csm => csm::estimate(&w, &params),
                        Estimator::Mlm => mlm::estimate(&w, &params),
                    }
                })
                .collect();
            for threads in [1usize, 2, 4, 16] {
                let batch = estimate_all(&kmap, &sram, &params, estimator, &flows, threads);
                assert_eq!(batch.len(), reference.len());
                for (i, (a, b)) in reference.iter().zip(&batch).enumerate() {
                    assert_eq!(
                        a.value.to_bits(),
                        b.value.to_bits(),
                        "{estimator:?} t={threads} flow#{i}"
                    );
                    assert_eq!(a.variance.to_bits(), b.variance.to_bits());
                }
            }
        }
    }

    #[test]
    fn query_health_flags_saturation_on_all_array_flavors() {
        let params = EstimateParams { k: 3, y: 8, counters: 64, total_packets: 3_000 };
        let kmap = KCounterMap::new(params.k, params.counters, 0xFEED);
        let flow = 0xABCDu64;
        let idx = kmap.indices(flow);

        // Plain array: saturate one of the flow's counters (4-bit).
        let mut plain = CounterArray::new(params.counters, 4);
        plain.add(idx[0], 1_000);
        let h = query_health(&kmap, &plain, &params, Estimator::Csm, flow, 0.0);
        assert!(h.saturation_events > 0);
        assert_eq!(h.saturated_counters, 1);
        assert!(h.is_degraded());
        assert!((h.confidence - (1.0 - 1.0 / 3.0)).abs() < 1e-12);

        // Atomic-striped array.
        let atomic = crate::atomic_sram::AtomicCounterArray::new(params.counters, 4);
        atomic.add(idx[0], 1_000);
        let h = query_health(&kmap, &atomic, &params, Estimator::Mlm, flow, 0.0);
        assert!(h.saturation_events > 0);
        assert_eq!(h.saturated_counters, 1);
    }

    #[test]
    fn query_health_clean_sketch_has_full_confidence() {
        let (kmap, sram, params) = setup();
        let h = query_health(&kmap, &sram, &params, Estimator::Csm, 42, 0.0);
        assert_eq!(h.saturated_counters, 0);
        assert_eq!(h.saturation_events, 0);
        assert!(!h.is_degraded());
        assert_eq!(h.confidence, 1.0);
        // The annotated estimate is bit-identical to the plain query.
        let w: Vec<u64> = kmap.indices(42).into_iter().map(|i| sram.get(i)).collect();
        let reference = csm::estimate(&w, &params);
        assert_eq!(h.estimate.value.to_bits(), reference.value.to_bits());
        // Loss folds in multiplicatively.
        let lossy = query_health(&kmap, &sram, &params, Estimator::Csm, 42, 0.25);
        assert!((lossy.confidence - 0.75).abs() < 1e-12);
        assert!(lossy.is_degraded());
    }

    #[test]
    fn empty_and_single_flow_batches() {
        let (kmap, sram, params) = setup();
        assert!(estimate_all(&kmap, &sram, &params, Estimator::Csm, &[], 4).is_empty());
        let one = estimate_all(&kmap, &sram, &params, Estimator::Mlm, &[42], 4);
        assert_eq!(one.len(), 1);
    }
}
