//! Differential test of the element path.
//!
//! Every `BamArray` entry point — `read`, `read_run`, `gather_warp`,
//! `write` and `write_run` — runs one fixed single-threaded script for
//! {cached, uncached} × {coalescing on, off} × {`u8`, `u16`, `u32`, `u64`,
//! and a 2 KiB `Pod` wider than any stack buffer the element path copies
//! through}. Every value is checked against a host model, and the exact
//! `MetricsSnapshot` counts of each case are pinned, so a change to the
//! copy path cannot silently change a hit, miss, I/O, byte or journal
//! count.

use std::fmt::Debug;

use bam_core::{BamArray, BamConfig, BamSystem, MetricsSnapshot};
use bam_gpu_sim::{WarpCtx, WARP_SIZE};
use bam_mem::Pod;

/// Line size of every case: wide enough for two `Wide` elements.
const LINE: u64 = 4096;
/// Lines each array spans; the cache holds fewer, so the script evicts.
const ARRAY_LINES: u64 = 6;

/// An element type with a deterministic value per seed.
trait Elem: Pod + PartialEq + Debug {
    fn make(seed: u64) -> Self;
}

macro_rules! elem {
    ($($t:ty),*) => {$(
        impl Elem for $t {
            fn make(seed: u64) -> Self {
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) as $t
            }
        }
    )*};
}
elem!(u8, u16, u32, u64);

/// A 2 KiB element: wider than every stack buffer, so it takes the heap
/// fallback of each copy.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Wide([u64; 256]);

impl Pod for Wide {
    const SIZE: usize = 2048;
    fn to_bytes(&self, out: &mut [u8]) {
        for (chunk, w) in out.chunks_exact_mut(8).zip(&self.0) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
    }
    fn from_bytes(bytes: &[u8]) -> Self {
        let mut words = [0u64; 256];
        for (w, chunk) in words.iter_mut().zip(bytes.chunks_exact(8)) {
            *w = u64::from_le_bytes(chunk.try_into().unwrap());
        }
        Wide(words)
    }
}

impl Elem for Wide {
    fn make(seed: u64) -> Self {
        let mut words = [0u64; 256];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u64::make(seed ^ ((i as u64) << 40));
        }
        Wide(words)
    }
}

fn system(cached: bool, coalescing: bool) -> BamSystem {
    BamSystem::new(BamConfig {
        cache_line_bytes: LINE,
        cache_bytes: 4 * LINE,
        use_cache: cached,
        warp_coalescing: coalescing,
        ..BamConfig::test_scale()
    })
    .unwrap()
}

/// The runs `read_run` and `write_run` exercise: the whole array, one
/// starting mid-word, one crossing two line boundaries from the last
/// element of a line, and one in the second half.
fn runs(len: u64, per_line: u64) -> [(u64, u64); 4] {
    [
        (0, len),
        (1, len - 2),
        (per_line - 1, per_line + 2),
        (len / 2 + 1, len / 3),
    ]
}

/// One warp's gather: lanes 4..8 are inactive (their indices are valid but
/// must come back `None`), every fifth lane has no index, and lanes repeat
/// lines and exact elements.
fn gather_once<T: Elem>(arr: &BamArray<T>, model: &[T], salt: u64) {
    let len = model.len() as u64;
    let warp = WarpCtx {
        warp_id: 0,
        base_thread: 0,
        active: !0xF0,
    };
    let mut indices = [None; WARP_SIZE];
    for (lane, idx) in indices.iter_mut().enumerate() {
        if lane % 5 != 0 {
            // Pairs of lanes share an element; neighbours share lines.
            *idx = Some((lane as u64 / 2 * 131 + salt) % len);
        }
    }
    let out = arr.gather_warp(&warp, &indices).unwrap();
    for lane in 0..WARP_SIZE {
        let want = match indices[lane] {
            Some(idx) if warp.is_active(lane) => Some(model[idx as usize]),
            _ => None,
        };
        assert_eq!(out[lane], want, "lane {lane}");
    }
}

/// Runs the script on one system and returns its metrics.
fn script<T: Elem>(sys: &BamSystem) -> MetricsSnapshot {
    let per_line = LINE / T::SIZE as u64;
    let len = ARRAY_LINES * per_line;
    let arr = sys.create_array::<T>(len).unwrap();
    let mut model: Vec<T> = (0..len).map(T::make).collect();
    arr.preload(&model).unwrap();

    for i in 0..40u64 {
        let idx = i * 7919 % len;
        assert_eq!(arr.read(idx).unwrap(), model[idx as usize], "read {idx}");
    }
    for (start, count) in runs(len, per_line) {
        let got = arr.read_run(start, count).unwrap();
        assert_eq!(got, model[start as usize..(start + count) as usize]);
    }
    gather_once(&arr, &model, 0);
    gather_once(&arr, &model, per_line / 2 + 3);

    for i in 0..12u64 {
        let idx = (i * 2654435761 + 5) % len;
        let v = T::make(1_000_000 + i);
        arr.write(idx, v).unwrap();
        model[idx as usize] = v;
    }
    for (r, (start, count)) in runs(len, per_line).into_iter().enumerate() {
        let values: Vec<T> = (0..count)
            .map(|i| T::make(((r as u64 + 2) << 32) | i))
            .collect();
        arr.write_run(start, &values).unwrap();
        model[start as usize..(start + count) as usize].copy_from_slice(&values);
    }
    gather_once(&arr, &model, 7);
    for i in 0..20u64 {
        let idx = i * 104_729 % len;
        assert_eq!(arr.read(idx).unwrap(), model[idx as usize], "re-read {idx}");
    }
    sys.flush().unwrap();
    assert_eq!(arr.read_run(0, len).unwrap(), model, "after flush");
    sys.metrics()
}

/// The pinned counts of one case, in this order: cache hits, misses,
/// evictions, write-backs, probe attempts, coalesced accesses, reused
/// references, read requests, write requests, bytes read, bytes written,
/// bytes requested, storage retries, journal appends, journal bytes.
type Counts = [u64; 15];

fn counts(m: &MetricsSnapshot) -> Counts {
    [
        m.cache_hits,
        m.cache_misses,
        m.cache_evictions,
        m.cache_writebacks,
        m.probe_attempts,
        m.coalesced_accesses,
        m.reused_references,
        m.read_requests,
        m.write_requests,
        m.bytes_read,
        m.bytes_written,
        m.bytes_requested,
        m.storage_retries,
        m.journal_appends,
        m.journal_bytes,
    ]
}

/// Runs `T`'s script in all four configurations and checks each against
/// `pinned`, indexed `[cached, uncached] × [coalescing on, off]`.
fn check<T: Elem>(name: &str, pinned: [Counts; 4]) {
    let mut got = Vec::new();
    for cached in [true, false] {
        for coalescing in [true, false] {
            got.push(counts(&script::<T>(&system(cached, coalescing))));
        }
    }
    assert_eq!(got, pinned, "{name}: metrics moved");
}

#[test]
fn u8_elements() {
    check::<u8>("u8", PINNED_U8);
}

#[test]
fn u16_elements() {
    check::<u16>("u16", PINNED_U16);
}

#[test]
fn u32_elements() {
    check::<u32>("u32", PINNED_U32);
}

#[test]
fn u64_elements() {
    check::<u64>("u64", PINNED_U64);
}

#[test]
fn elements_wider_than_the_stack_buffers() {
    check::<Wide>("Wide", PINNED_WIDE);
}

#[test]
fn write_run_on_lines_wider_than_its_stack_buffer() {
    // 16 KiB lines: a whole-line run is encoded through the heap fallback
    // and still lands as one journalled write per line.
    let sys = BamSystem::new(BamConfig {
        cache_line_bytes: 16 * 1024,
        cache_bytes: 4 * 16 * 1024,
        gpu_memory_bytes: 16 << 20,
        ..BamConfig::test_scale()
    })
    .unwrap();
    let arr = sys.create_array::<u32>(4 * 4096).unwrap();
    arr.preload(&vec![0u32; 4 * 4096]).unwrap();
    let values: Vec<u32> = (0..2 * 4096 + 10).map(|i| i * 3 + 1).collect();
    arr.write_run(4090, &values).unwrap();
    assert_eq!(arr.read_run(4090, values.len() as u64).unwrap(), values);
    // 6 + 4096 + 4096 + 4 elements: four lines, four records.
    assert_eq!(sys.metrics().journal_appends, 4, "one record per line");
}

// The script's counts. They follow from which lines each access touches,
// never from how the bytes are copied, so the copy path must not move them.
const PINNED_U8: [Counts; 4] = [
    // cached, coalescing
    [
        58, 59, 55, 24, 117, 63, 21, 59, 48, 241664, 196608, 147594, 0, 78, 65196,
    ],
    // cached, no coalescing
    [
        121, 59, 55, 24, 180, 0, 21, 59, 48, 241664, 196608, 147594, 0, 78, 65196,
    ],
    // uncached, coalescing
    [
        0, 0, 0, 0, 0, 63, 21, 105, 60, 430080, 245760, 147594, 0, 0, 0,
    ],
    // uncached, no coalescing
    [
        0, 0, 0, 0, 0, 0, 21, 168, 60, 688128, 245760, 147594, 0, 0, 0,
    ],
];

const PINNED_U16: [Counts; 4] = [
    // cached, coalescing
    [
        58, 60, 56, 23, 118, 62, 21, 60, 46, 245760, 188416, 147732, 0, 76, 65112,
    ],
    // cached, no coalescing
    [
        120, 60, 56, 23, 180, 0, 21, 60, 46, 245760, 188416, 147732, 0, 76, 65112,
    ],
    // uncached, coalescing
    [
        0, 0, 0, 0, 0, 62, 21, 106, 60, 434176, 245760, 147732, 0, 0, 0,
    ],
    // uncached, no coalescing
    [
        0, 0, 0, 0, 0, 0, 21, 168, 60, 688128, 245760, 147732, 0, 0, 0,
    ],
];

const PINNED_U32: [Counts; 4] = [
    // cached, coalescing
    [
        60, 61, 57, 14, 121, 59, 21, 61, 28, 249856, 114688, 148008, 0, 58, 64272,
    ],
    // cached, no coalescing
    [
        119, 61, 57, 14, 180, 0, 21, 61, 28, 249856, 114688, 148008, 0, 58, 64272,
    ],
    // uncached, coalescing
    [
        0, 0, 0, 0, 0, 59, 21, 109, 60, 446464, 245760, 148008, 0, 0, 0,
    ],
    // uncached, no coalescing
    [
        0, 0, 0, 0, 0, 0, 21, 168, 60, 688128, 245760, 148008, 0, 0, 0,
    ],
];

const PINNED_U64: [Counts; 4] = [
    // cached, coalescing
    [
        27, 100, 96, 24, 127, 53, 21, 100, 48, 409600, 196608, 148560, 0, 78, 65280,
    ],
    // cached, no coalescing
    [
        80, 100, 96, 24, 180, 0, 21, 100, 48, 409600, 196608, 148560, 0, 78, 65280,
    ],
    // uncached, coalescing
    [
        0, 0, 0, 0, 0, 53, 21, 115, 60, 471040, 245760, 148560, 0, 0, 0,
    ],
    // uncached, no coalescing
    [
        0, 0, 0, 0, 0, 0, 21, 168, 60, 688128, 245760, 148560, 0, 0, 0,
    ],
];

const PINNED_WIDE: [Counts; 4] = [
    // cached, coalescing
    [
        60, 72, 68, 22, 132, 48, 18, 72, 44, 294912, 180224, 430080, 0, 74, 89568,
    ],
    // cached, no coalescing
    [
        115, 65, 61, 14, 180, 0, 18, 65, 28, 266240, 114688, 430080, 0, 58, 88800,
    ],
    // uncached, coalescing
    [
        0, 0, 0, 0, 0, 48, 18, 120, 60, 491520, 245760, 430080, 0, 0, 0,
    ],
    // uncached, no coalescing
    [
        0, 0, 0, 0, 0, 0, 18, 168, 60, 688128, 245760, 430080, 0, 0, 0,
    ],
];
