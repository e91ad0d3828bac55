//! The `bam::array<T>` programming abstraction (paper §3.5).
//!
//! `BamArray<T>` gives GPU kernels an array interface over data that lives on
//! storage: element reads consult the software cache, coalesce accesses
//! across the lanes of a warp, and issue storage I/O only on misses; element
//! writes go through the write-back cache. The warp-level entry point
//! ([`BamArray::gather_warp`]) mirrors the overloaded subscript operator of
//! the CUDA implementation, which performs its coalescing at warp scope.
//!
//! Elements are copied straight out of the pinned cache line in GPU memory
//! through stack buffers, so the hit path makes no heap allocation:
//! [`BamArray::read`], [`BamArray::gather_warp`] and [`BamArray::write`]
//! allocate nothing, and [`BamArray::read_run`] allocates only the `Vec` it
//! returns. A [`Pod`] wider than a stack buffer falls back to a heap buffer
//! of its own size.

use std::sync::Arc;

use bam_gpu_sim::exec::WarpCtx;
use bam_gpu_sim::warp::{group_iter, match_any, WARP_SIZE};
use bam_mem::{ByteRegion, DevAddr, Pod};

use crate::error::BamError;
use crate::system::SystemInner;

/// A storage-backed array of `T`, accessed on demand by GPU threads.
///
/// Created with [`crate::BamSystem::create_array`]; cloning is cheap and
/// clones refer to the same storage.
#[derive(Clone)]
pub struct BamArray<T: Pod> {
    inner: Arc<SystemInner>,
    /// Byte offset of element 0 within the logical storage namespace.
    base: u64,
    len: u64,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Pod> std::fmt::Debug for BamArray<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BamArray")
            .field("base", &self.base)
            .field("len", &self.len)
            .field("elem_bytes", &T::SIZE)
            .finish()
    }
}

impl<T: Pod> BamArray<T> {
    pub(crate) fn new(inner: Arc<SystemInner>, base: u64, len: u64) -> Self {
        Self {
            inner,
            base,
            len,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte offset of element 0 within the storage namespace (diagnostics).
    pub fn base_offset(&self) -> u64 {
        self.base
    }

    fn check(&self, idx: u64) -> Result<(), BamError> {
        if idx >= self.len {
            return Err(BamError::IndexOutOfBounds {
                index: idx,
                len: self.len,
            });
        }
        Ok(())
    }

    /// Checks that the `count > 0` elements from `start` are all in bounds
    /// and returns the index one past the last. An end that overflows `u64`
    /// is reported as index `u64::MAX`.
    fn check_run(&self, start: u64, count: u64) -> Result<u64, BamError> {
        self.check(start)?;
        let last = start
            .checked_add(count - 1)
            .ok_or(BamError::IndexOutOfBounds {
                index: u64::MAX,
                len: self.len,
            })?;
        self.check(last)?;
        Ok(last + 1)
    }

    #[inline]
    fn line_of(&self, idx: u64) -> (u64, u64) {
        let byte = self.base + idx * T::SIZE as u64;
        (byte / self.inner.line_bytes, byte % self.inner.line_bytes)
    }

    /// Preloads the array contents onto the SSDs (host-side initialization,
    /// the equivalent of writing the dataset file before running).
    ///
    /// # Errors
    ///
    /// Propagates media errors.
    pub fn preload(&self, values: &[T]) -> Result<(), BamError> {
        assert!(values.len() as u64 <= self.len, "preload larger than array");
        let mut bytes = vec![0u8; values.len() * T::SIZE];
        for (out, v) in bytes.chunks_exact_mut(T::SIZE).zip(values) {
            v.to_bytes(out);
        }
        self.inner.preload_bytes(self.base, &bytes)
    }

    /// Reads element `idx` from a single GPU thread (no warp coalescing).
    ///
    /// # Errors
    ///
    /// Returns [`BamError::IndexOutOfBounds`] or a storage failure.
    pub fn read(&self, idx: u64) -> Result<T, BamError> {
        self.check(idx)?;
        self.inner.metrics.record_requested_bytes(T::SIZE as u64);
        let (line, offset) = self.line_of(idx);
        self.inner
            .with_line(line, |region, base| load(region, base + offset))
    }

    /// Writes element `idx` from a single GPU thread. The data goes through
    /// the write-back cache (or straight to storage in uncached mode).
    ///
    /// # Errors
    ///
    /// Returns [`BamError::IndexOutOfBounds`] or a storage failure.
    pub fn write(&self, idx: u64, value: T) -> Result<(), BamError> {
        self.check(idx)?;
        self.inner.metrics.record_requested_bytes(T::SIZE as u64);
        let (line, offset) = self.line_of(idx);
        with_scratch::<ELEM_STACK_BYTES, _>(T::SIZE, |buf| {
            value.to_bytes(buf);
            self.inner.write_line_range(line, offset, buf)
        })
    }

    /// Warp-coalesced gather: every active lane with `Some(index)` reads that
    /// element; lanes accessing the same cache line share a single probe and
    /// a single storage request, led by the lowest lane of each group
    /// (§3.4's `__match_any_sync` coalescer).
    ///
    /// # Errors
    ///
    /// Returns the first error encountered by any group leader.
    pub fn gather_warp(
        &self,
        warp: &WarpCtx,
        indices: &[Option<u64>; WARP_SIZE],
    ) -> Result<[Option<T>; WARP_SIZE], BamError> {
        let mut out: [Option<T>; WARP_SIZE] = [None; WARP_SIZE];
        // Validate up front so errors do not depend on group iteration order.
        for idx in indices.iter().flatten() {
            self.check(*idx)?;
        }
        if !self.inner.coalescing {
            for lane in 0..WARP_SIZE {
                if warp.is_active(lane) {
                    if let Some(idx) = indices[lane] {
                        out[lane] = Some(self.read(idx)?);
                    }
                }
            }
            return Ok(out);
        }

        // Build the per-lane cache-line keys for match_any; lanes with no
        // access are excluded from the participation mask.
        let mut keys = [u64::MAX; WARP_SIZE];
        let mut participate: u32 = 0;
        for lane in 0..WARP_SIZE {
            if warp.is_active(lane) {
                if let Some(idx) = indices[lane] {
                    keys[lane] = self.line_of(idx).0;
                    participate |= 1 << lane;
                }
            }
        }
        if participate == 0 {
            return Ok(out);
        }
        let masks = match_any(&keys, participate);
        for (leader, mask) in group_iter(&masks, participate) {
            let line = keys[leader];
            let lanes_in_group = mask.count_ones() as u64;
            self.inner
                .metrics
                .record_requested_bytes(T::SIZE as u64 * lanes_in_group);
            if lanes_in_group > 1 {
                self.inner.metrics.record_coalesced(lanes_in_group - 1);
            }
            // The leader performs the single probe on behalf of the group and
            // the line stays pinned while every member lane copies its
            // element out (broadcast via shared memory in the prototype).
            self.inner.with_line(line, |region, base| {
                for lane in 0..WARP_SIZE {
                    if mask & (1 << lane) != 0 {
                        let idx = indices[lane].expect("participating lane has an index");
                        out[lane] = Some(load(region, base + self.line_of(idx).1));
                    }
                }
            })?;
        }
        Ok(out)
    }

    /// Reads `count` consecutive elements starting at `start`, reusing each
    /// cache-line reference for every element it covers (the "cache line
    /// reference reuse" optimization of §3.5 that Figure 8's *Optimized*
    /// configuration exploits for neighbour lists).
    ///
    /// Each line's run is copied out in stack-buffer chunks, one
    /// [`ByteRegion::read_bytes`] per chunk, and decoded in place; the
    /// returned `Vec` is the only allocation.
    ///
    /// # Errors
    ///
    /// Returns [`BamError::IndexOutOfBounds`] (also when `start + count`
    /// overflows) or a storage failure.
    pub fn read_run(&self, start: u64, count: u64) -> Result<Vec<T>, BamError> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let end = self.check_run(start, count)?;
        self.inner
            .metrics
            .record_requested_bytes(T::SIZE as u64 * count);
        let mut result = Vec::with_capacity(count as usize);
        // Elements per copy: as many as fit the stack chunk, or one element
        // (through the heap fallback) when it alone is wider.
        let per_chunk = (RUN_STACK_BYTES / T::SIZE).max(1);
        with_scratch::<RUN_STACK_BYTES, _>(per_chunk * T::SIZE, |chunk| {
            let mut idx = start;
            while idx < end {
                let (line, offset) = self.line_of(idx);
                // Elements remaining in this line.
                let elems_in_line =
                    ((self.inner.line_bytes - offset) / T::SIZE as u64).min(end - idx);
                self.inner.with_line(line, |region, base| {
                    let mut addr = base + offset;
                    let mut left = elems_in_line as usize;
                    while left > 0 {
                        let n = left.min(per_chunk);
                        let bytes = &mut chunk[..n * T::SIZE];
                        region.read_bytes(addr, bytes);
                        result.extend(bytes.chunks_exact(T::SIZE).map(T::from_bytes));
                        addr += bytes.len() as u64;
                        left -= n;
                    }
                })?;
                if elems_in_line > 1 {
                    self.inner.metrics.record_reuse();
                }
                idx += elems_in_line;
            }
            Ok(result)
        })
    }

    /// Prefetches the cache lines covering `count` elements starting at
    /// `start`, without copying any element out.
    ///
    /// This is one of the "higher-level abstractions" §3.5 anticipates being
    /// built over `bam::array`: a kernel that knows its upcoming access
    /// window can warm the cache early and overlap the storage latency with
    /// unrelated compute. Returns the number of lines that actually missed
    /// (and were therefore fetched from storage).
    ///
    /// # Errors
    ///
    /// Returns [`BamError::IndexOutOfBounds`] (also when `start + count`
    /// overflows) or a storage failure. In uncached mode prefetching is a
    /// no-op and returns 0.
    pub fn prefetch(&self, start: u64, count: u64) -> Result<u64, BamError> {
        if count == 0 {
            return Ok(0);
        }
        let end = self.check_run(start, count)?;
        if self.inner.cache.is_none() {
            return Ok(0);
        }
        let misses_before = self.inner.metrics.snapshot().cache_misses;
        let first_line = self.line_of(start).0;
        let last_line = self.line_of(end - 1).0;
        for line in first_line..=last_line {
            // Acquire and immediately release: the line lands in a slot and
            // stays there until evicted, exactly like a touched-but-unpinned
            // line.
            self.inner.with_line(line, |_, _| ())?;
        }
        Ok(self.inner.metrics.snapshot().cache_misses - misses_before)
    }

    /// Writes `values` to consecutive elements starting at `start`, reusing
    /// line references (used by the vectorAdd output array).
    ///
    /// Each line's run is encoded into one stack buffer (a heap buffer on
    /// lines wider than it) and written as one journalled range.
    ///
    /// # Errors
    ///
    /// Returns [`BamError::IndexOutOfBounds`] (also when the run's end
    /// overflows) or a storage failure.
    pub fn write_run(&self, start: u64, values: &[T]) -> Result<(), BamError> {
        if values.is_empty() {
            return Ok(());
        }
        let count = values.len() as u64;
        self.check_run(start, count)?;
        self.inner
            .metrics
            .record_requested_bytes(T::SIZE as u64 * count);
        let longest = (values.len() * T::SIZE).min(self.inner.line_bytes as usize);
        with_scratch::<LINE_STACK_BYTES, _>(longest, |buf| {
            let mut idx = start;
            let mut rest = values;
            while !rest.is_empty() {
                let (line, offset) = self.line_of(idx);
                let elems_in_line =
                    (((self.inner.line_bytes - offset) / T::SIZE as u64) as usize).min(rest.len());
                let (run, tail) = rest.split_at(elems_in_line);
                let bytes = &mut buf[..elems_in_line * T::SIZE];
                for (out, v) in bytes.chunks_exact_mut(T::SIZE).zip(run) {
                    v.to_bytes(out);
                }
                self.inner.write_line_range(line, offset, bytes)?;
                idx += elems_in_line as u64;
                rest = tail;
            }
            Ok(())
        })
    }
}

/// Bytes of the stack buffer one element is copied through. Every primitive
/// `Pod` fits; a wider `Pod` falls back to a heap buffer.
const ELEM_STACK_BYTES: usize = 16;

/// Bytes of the stack buffer [`BamArray::read_run`] copies a line's run
/// through, one chunk at a time.
const RUN_STACK_BYTES: usize = 1024;

/// Bytes of the stack buffer [`BamArray::write_run`] encodes a line's run
/// into. The run must be one journalled write, so it is not chunked; runs
/// on lines wider than this fall back to a heap buffer.
const LINE_STACK_BYTES: usize = 4096;

/// Runs `f` on a zeroed `len`-byte buffer: a slice of an `N`-byte stack
/// array when `len <= N`, otherwise a heap buffer (the fallback for data
/// wider than the stack buffer).
fn with_scratch<const N: usize, R>(len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
    if len <= N {
        f(&mut [0u8; N][..len])
    } else {
        f(&mut vec![0u8; len])
    }
}

/// Copies the element at `addr` out of `region` through a stack buffer.
fn load<T: Pod>(region: &ByteRegion, addr: DevAddr) -> T {
    with_scratch::<ELEM_STACK_BYTES, _>(T::SIZE, |buf| {
        region.read_bytes(addr, buf);
        T::from_bytes(buf)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BamConfig;
    use crate::system::BamSystem;
    use bam_gpu_sim::{GpuExecutor, GpuSpec};

    fn system() -> BamSystem {
        BamSystem::new(BamConfig::test_scale()).unwrap()
    }

    #[test]
    fn read_write_roundtrip_single_thread() {
        let sys = system();
        let arr = sys.create_array::<u64>(1000).unwrap();
        arr.preload(&(0..1000u64).collect::<Vec<_>>()).unwrap();
        assert_eq!(arr.read(0).unwrap(), 0);
        assert_eq!(arr.read(999).unwrap(), 999);
        arr.write(500, 123_456).unwrap();
        assert_eq!(arr.read(500).unwrap(), 123_456);
        assert!(arr.read(1000).is_err());
    }

    #[test]
    fn preload_then_gather_via_warps() {
        let sys = system();
        let arr = sys.create_array::<u32>(4096).unwrap();
        let data: Vec<u32> = (0..4096u32).map(|i| i * 3).collect();
        arr.preload(&data).unwrap();

        let exec = GpuExecutor::with_workers(GpuSpec::a100_80gb(), 4);
        let arr_ref = &arr;
        let errors = std::sync::atomic::AtomicUsize::new(0);
        exec.launch(4096, |warp| {
            let mut indices = [None; WARP_SIZE];
            for (lane, tid) in warp.lanes() {
                indices[lane] = Some(tid as u64);
            }
            match arr_ref.gather_warp(warp, &indices) {
                Ok(vals) => {
                    for (lane, tid) in warp.lanes() {
                        assert_eq!(vals[lane], Some(tid as u32 * 3));
                    }
                }
                Err(_) => {
                    errors.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
        });
        assert_eq!(errors.load(std::sync::atomic::Ordering::Relaxed), 0);
        let m = sys.metrics();
        assert!(m.cache_hits + m.cache_misses > 0);
        assert!(
            m.coalesced_accesses > 0,
            "consecutive tids in a warp share cache lines"
        );
    }

    #[test]
    fn read_run_reuses_lines() {
        let sys = system();
        let arr = sys.create_array::<u64>(512).unwrap();
        arr.preload(&(0..512u64).map(|i| i * 7).collect::<Vec<_>>())
            .unwrap();
        let vals = arr.read_run(10, 200).unwrap();
        assert_eq!(vals.len(), 200);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(*v, (10 + i as u64) * 7);
        }
        let m = sys.metrics();
        // 200 contiguous u64 span ~25 512-byte lines: far fewer probes than
        // elements.
        assert!(m.probe_attempts < 60, "probes {}", m.probe_attempts);
        assert!(m.reused_references > 0);
    }

    #[test]
    fn write_run_then_read_back() {
        let sys = system();
        let arr = sys.create_array::<f64>(300).unwrap();
        arr.preload(&vec![0.0f64; 300]).unwrap();
        let values: Vec<f64> = (0..100).map(|i| i as f64 / 3.0).collect();
        arr.write_run(50, &values).unwrap();
        let back = arr.read_run(50, 100).unwrap();
        assert_eq!(back, values);
    }

    #[test]
    fn prefetch_warms_the_cache() {
        let sys = system();
        let arr = sys.create_array::<u64>(2048).unwrap();
        arr.preload(&(0..2048u64).collect::<Vec<_>>()).unwrap();
        // Prefetch a window; subsequent reads of that window are all hits.
        let fetched = arr.prefetch(0, 512).unwrap();
        assert!(fetched > 0);
        let before = sys.metrics();
        for i in 0..512u64 {
            assert_eq!(arr.read(i).unwrap(), i);
        }
        let after = sys.metrics();
        assert_eq!(
            after.cache_misses, before.cache_misses,
            "prefetched window must hit"
        );
        // Prefetching again fetches nothing new.
        assert_eq!(arr.prefetch(0, 512).unwrap(), 0);
        // Out-of-bounds prefetch is rejected.
        assert!(arr.prefetch(2000, 100).is_err());
    }

    #[test]
    fn prefetch_is_a_noop_without_a_cache() {
        let mut cfg = BamConfig::test_scale();
        cfg.use_cache = false;
        let sys = BamSystem::new(cfg).unwrap();
        let arr = sys.create_array::<u64>(256).unwrap();
        arr.preload(&(0..256u64).collect::<Vec<_>>()).unwrap();
        assert_eq!(arr.prefetch(0, 256).unwrap(), 0);
        assert_eq!(sys.metrics().read_requests, 0);
    }

    fn out_of_bounds(r: Result<impl std::fmt::Debug, BamError>) -> bool {
        matches!(r, Err(BamError::IndexOutOfBounds { .. }))
    }

    #[test]
    fn read_run_rejects_a_count_that_overflows_the_index() {
        let sys = system();
        let arr = sys.create_array::<u64>(64).unwrap();
        assert!(out_of_bounds(arr.read_run(5, u64::MAX)));
        assert!(out_of_bounds(arr.read_run(5, u64::MAX - 4)));
        assert!(out_of_bounds(arr.read_run(60, 5)));
        assert_eq!(arr.read_run(60, 4).unwrap().len(), 4);
        assert_eq!(
            sys.metrics().bytes_requested,
            32,
            "rejected runs cost nothing"
        );
    }

    #[test]
    fn write_run_rejects_a_run_past_the_end() {
        let sys = system();
        let arr = sys.create_array::<u64>(64).unwrap();
        assert!(out_of_bounds(arr.write_run(63, &[1, 2])));
        assert!(out_of_bounds(arr.write_run(u64::MAX, &[1])));
        assert_eq!(sys.metrics().journal_appends, 0, "nothing was written");
        arr.write_run(62, &[1, 2]).unwrap();
        assert_eq!(arr.read_run(62, 2).unwrap(), vec![1, 2]);
    }

    #[test]
    fn prefetch_rejects_a_count_that_overflows_the_index() {
        let sys = system();
        let arr = sys.create_array::<u64>(64).unwrap();
        assert!(out_of_bounds(arr.prefetch(5, u64::MAX)));
        assert_eq!(sys.metrics().probe_attempts, 0);
        let mut cfg = BamConfig::test_scale();
        cfg.use_cache = false;
        let uncached = BamSystem::new(cfg).unwrap();
        let arr = uncached.create_array::<u64>(64).unwrap();
        assert!(
            out_of_bounds(arr.prefetch(5, u64::MAX)),
            "bounds are checked even where prefetch is a no-op"
        );
        assert_eq!(arr.prefetch(0, 64).unwrap(), 0);
    }

    #[test]
    fn uncached_mode_still_returns_correct_data() {
        let mut cfg = BamConfig::test_scale();
        cfg.use_cache = false;
        let sys = BamSystem::new(cfg).unwrap();
        let arr = sys.create_array::<u32>(256).unwrap();
        arr.preload(&(0..256u32).collect::<Vec<_>>()).unwrap();
        for idx in [0u64, 17, 128, 255] {
            assert_eq!(arr.read(idx).unwrap(), idx as u32);
        }
        arr.write(10, 999).unwrap();
        assert_eq!(arr.read(10).unwrap(), 999);
        // Every access became a storage request (no cache to absorb them).
        let m = sys.metrics();
        assert!(m.read_requests >= 5);
        assert_eq!(m.cache_hits, 0);
    }

    #[test]
    fn coalescing_disabled_still_correct() {
        let mut cfg = BamConfig::test_scale();
        cfg.warp_coalescing = false;
        let sys = BamSystem::new(cfg).unwrap();
        let arr = sys.create_array::<u32>(1024).unwrap();
        arr.preload(&(0..1024u32).collect::<Vec<_>>()).unwrap();
        let exec = GpuExecutor::with_workers(GpuSpec::a100_80gb(), 2);
        let arr_ref = &arr;
        exec.launch(1024, |warp| {
            let mut indices = [None; WARP_SIZE];
            for (lane, tid) in warp.lanes() {
                indices[lane] = Some(tid as u64);
            }
            let vals = arr_ref.gather_warp(warp, &indices).unwrap();
            for (lane, tid) in warp.lanes() {
                assert_eq!(vals[lane], Some(tid as u32));
            }
        });
        assert_eq!(sys.metrics().coalesced_accesses, 0);
    }
}
