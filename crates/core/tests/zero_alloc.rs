//! The hit path allocates nothing per element.
//!
//! A counting global allocator tallies the heap allocations each test
//! thread makes. On a warmed cache with the journal off, `read`,
//! `gather_warp` and `write` make none, and `read_run` makes exactly one:
//! the `Vec` it returns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bam_core::{BamArray, BamConfig, BamSystem};
use bam_gpu_sim::{WarpCtx, WARP_SIZE};
use bam_mem::Pod;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to the system allocator unchanged; the only
// addition is a bump of a thread-local counter, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations this thread makes while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// A system whose cache holds the whole array, with every line fetched.
fn warmed<T: Pod>(len: u64, coalescing: bool) -> (BamSystem, BamArray<T>) {
    let sys = BamSystem::new(BamConfig {
        use_journal: false,
        warp_coalescing: coalescing,
        ..BamConfig::test_scale()
    })
    .unwrap();
    let arr = sys.create_array::<T>(len).unwrap();
    assert!(len * T::SIZE as u64 <= sys.config().cache_bytes);
    arr.prefetch(0, len).unwrap();
    (sys, arr)
}

fn hit_path_allocates_only_the_run_vec<T: Pod + Default>() {
    let len = 4096;
    for coalescing in [true, false] {
        let (sys, arr) = warmed::<T>(len, coalescing);
        let misses = sys.metrics().cache_misses;

        let (n, _) = allocations(|| {
            for i in 0..len {
                std::hint::black_box(arr.read(i).unwrap());
            }
        });
        assert_eq!(n, 0, "read: {} bytes", T::SIZE);

        let (n, _) = allocations(|| {
            for i in (0..len).step_by(3) {
                arr.write(i, T::default()).unwrap();
            }
        });
        assert_eq!(n, 0, "write: {} bytes", T::SIZE);

        let warp = WarpCtx {
            warp_id: 0,
            base_thread: 0,
            active: u32::MAX,
        };
        let (n, _) = allocations(|| {
            for base in (0..len).step_by(97) {
                let mut indices = [None; WARP_SIZE];
                for (lane, idx) in indices.iter_mut().enumerate() {
                    *idx = Some((base + lane as u64 * 13) % len);
                }
                std::hint::black_box(arr.gather_warp(&warp, &indices).unwrap());
            }
        });
        assert_eq!(n, 0, "gather_warp: {} bytes", T::SIZE);

        for (start, count) in [(0, len), (1, 1), (5, 300), (len - 700, 700)] {
            let (n, run) = allocations(|| arr.read_run(start, count).unwrap());
            assert_eq!(run.len() as u64, count);
            assert_eq!(n, 1, "read_run({start}, {count}): {} bytes", T::SIZE);
        }
        assert_eq!(sys.metrics().cache_misses, misses, "every access hit");
    }
}

#[test]
fn u8_hit_path_is_allocation_free() {
    hit_path_allocates_only_the_run_vec::<u8>();
}

#[test]
fn u32_hit_path_is_allocation_free() {
    hit_path_allocates_only_the_run_vec::<u32>();
}

#[test]
fn u64_hit_path_is_allocation_free() {
    hit_path_allocates_only_the_run_vec::<u64>();
}
