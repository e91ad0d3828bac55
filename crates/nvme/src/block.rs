//! The SSD media: a sparse, thread-safe block store.

use std::collections::HashMap;

use parking_lot::RwLock;

use crate::error::NvmeError;
use crate::Lba;

/// Blocks per extent in the sparse map. Extents are allocated lazily on first
/// write so that multi-terabyte namespaces cost nothing until used.
const BLOCKS_PER_EXTENT: u64 = 256;

/// One contiguous piece of a block range, as [`BlockStore::read_extents`]
/// yields it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaRun<'a> {
    /// Bytes of a resident extent.
    Data(&'a [u8]),
    /// This many bytes of never-written blocks, which read as zeroes.
    Zeroes(usize),
}

impl MediaRun<'_> {
    /// Length of the run in bytes.
    pub fn len(&self) -> usize {
        match self {
            MediaRun::Data(bytes) => bytes.len(),
            MediaRun::Zeroes(len) => *len,
        }
    }

    /// Whether the run is empty (never true for a run the store yields).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A sparse block store modelling the SSD's media.
///
/// Reads of never-written blocks return zeroes, like a freshly formatted
/// namespace. All operations are thread-safe; concurrent writers to the same
/// block are serialized per extent.
///
/// # Examples
///
/// ```
/// use bam_nvme_sim::BlockStore;
/// let store = BlockStore::new(512, 1 << 20);
/// store.write_blocks(10, &[7u8; 1024]).unwrap();
/// let mut out = vec![0u8; 1024];
/// store.read_blocks(10, &mut out).unwrap();
/// assert!(out.iter().all(|&b| b == 7));
/// ```
pub struct BlockStore {
    block_size: usize,
    num_blocks: u64,
    extents: RwLock<HashMap<u64, Box<[u8]>>>,
}

impl std::fmt::Debug for BlockStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockStore")
            .field("block_size", &self.block_size)
            .field("num_blocks", &self.num_blocks)
            .field("resident_extents", &self.extents.read().len())
            .finish()
    }
}

impl BlockStore {
    /// Creates a store of `num_blocks` blocks of `block_size` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero or `num_blocks` is zero.
    pub fn new(block_size: usize, num_blocks: u64) -> Self {
        assert!(
            block_size > 0 && num_blocks > 0,
            "block store dimensions must be non-zero"
        );
        Self {
            block_size,
            num_blocks,
            extents: RwLock::new(HashMap::new()),
        }
    }

    /// Logical block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Total number of logical blocks.
    pub fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.num_blocks * self.block_size as u64
    }

    /// Number of bytes of media actually resident in memory (for tests and
    /// memory accounting).
    pub fn resident_bytes(&self) -> u64 {
        self.extents.read().len() as u64 * BLOCKS_PER_EXTENT * self.block_size as u64
    }

    fn check_range(&self, slba: Lba, nblocks: u64) -> Result<(), NvmeError> {
        if slba.checked_add(nblocks).map(|end| end <= self.num_blocks) != Some(true) {
            return Err(NvmeError::LbaOutOfRange {
                slba,
                nblocks,
                capacity: self.num_blocks,
            });
        }
        Ok(())
    }

    /// Splits the byte range of `nblocks` blocks from `slba` into its
    /// per-extent pieces, calling `piece(extent_id, offset_in_extent, len)`
    /// for each, in order.
    fn for_each_piece(&self, slba: Lba, nblocks: u64, mut piece: impl FnMut(u64, usize, usize)) {
        let mut lba = slba;
        let end = slba + nblocks;
        while lba < end {
            let extent_id = lba / BLOCKS_PER_EXTENT;
            let first = lba % BLOCKS_PER_EXTENT;
            let blocks = (BLOCKS_PER_EXTENT - first).min(end - lba);
            piece(
                extent_id,
                first as usize * self.block_size,
                blocks as usize * self.block_size,
            );
            lba += blocks;
        }
    }

    /// Visits the media bytes of `nblocks` blocks starting at `slba`, in
    /// order, as one [`MediaRun`] per extent the range touches: a slice of
    /// the resident extent, or a length of never-written (zero) bytes. This
    /// is the controller's DMA source; no bytes are copied here.
    ///
    /// # Errors
    ///
    /// Returns [`NvmeError::LbaOutOfRange`] if the range exceeds the
    /// namespace; `visit` is then never called.
    pub fn read_extents(
        &self,
        slba: Lba,
        nblocks: u64,
        mut visit: impl FnMut(MediaRun<'_>),
    ) -> Result<(), NvmeError> {
        self.check_range(slba, nblocks)?;
        let extents = self.extents.read();
        self.for_each_piece(slba, nblocks, |extent_id, offset, len| {
            visit(match extents.get(&extent_id) {
                Some(extent) => MediaRun::Data(&extent[offset..offset + len]),
                None => MediaRun::Zeroes(len),
            });
        });
        Ok(())
    }

    /// Hands `fill` the media bytes of `nblocks` blocks starting at `slba`,
    /// in order, as one mutable slice per extent the range touches,
    /// allocating never-written extents (zeroed) first. This is the
    /// controller's DMA destination. Bytes of a slice that `fill` leaves
    /// alone keep their media contents.
    ///
    /// # Errors
    ///
    /// Returns [`NvmeError::LbaOutOfRange`] if the range exceeds the
    /// namespace; `fill` is then never called.
    pub fn write_extents(
        &self,
        slba: Lba,
        nblocks: u64,
        mut fill: impl FnMut(&mut [u8]),
    ) -> Result<(), NvmeError> {
        self.check_range(slba, nblocks)?;
        let extent_bytes = BLOCKS_PER_EXTENT as usize * self.block_size;
        let mut extents = self.extents.write();
        self.for_each_piece(slba, nblocks, |extent_id, offset, len| {
            let extent = extents
                .entry(extent_id)
                .or_insert_with(|| vec![0u8; extent_bytes].into_boxed_slice());
            fill(&mut extent[offset..offset + len]);
        });
        Ok(())
    }

    /// The block count of a whole-block buffer of `len` bytes.
    fn whole_blocks(&self, len: usize) -> Result<u64, NvmeError> {
        if !len.is_multiple_of(self.block_size) {
            return Err(NvmeError::UnalignedBuffer {
                len,
                block_size: self.block_size,
            });
        }
        Ok((len / self.block_size) as u64)
    }

    /// Reads whole blocks starting at `slba` into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`NvmeError::LbaOutOfRange`] if the range exceeds the
    /// namespace, or [`NvmeError::UnalignedBuffer`] if `buf` is not a whole
    /// number of blocks.
    pub fn read_blocks(&self, slba: Lba, buf: &mut [u8]) -> Result<(), NvmeError> {
        let nblocks = self.whole_blocks(buf.len())?;
        let mut pos = 0usize;
        self.read_extents(slba, nblocks, |run| {
            let dst = &mut buf[pos..pos + run.len()];
            match run {
                MediaRun::Data(bytes) => dst.copy_from_slice(bytes),
                MediaRun::Zeroes(_) => dst.fill(0),
            }
            pos += run.len();
        })
    }

    /// Writes whole blocks starting at `slba` from `data`.
    ///
    /// # Errors
    ///
    /// Returns [`NvmeError::LbaOutOfRange`] if the range exceeds the
    /// namespace, or [`NvmeError::UnalignedBuffer`] if `data` is not a whole
    /// number of blocks.
    pub fn write_blocks(&self, slba: Lba, data: &[u8]) -> Result<(), NvmeError> {
        let nblocks = self.whole_blocks(data.len())?;
        let mut pos = 0usize;
        self.write_extents(slba, nblocks, |dst| {
            dst.copy_from_slice(&data[pos..pos + dst.len()]);
            pos += dst.len();
        })
    }

    /// The blocks covering `len` bytes at `byte_offset`: the first LBA, the
    /// block count, and the offset of `byte_offset` within the first block.
    fn covering_blocks(
        &self,
        byte_offset: u64,
        len: usize,
    ) -> Result<(Lba, u64, usize), NvmeError> {
        let bs = self.block_size as u64;
        let first_lba = byte_offset / bs;
        let last_lba = (byte_offset + len as u64 - 1) / bs;
        let nblocks = last_lba - first_lba + 1;
        self.check_range(first_lba, nblocks)?;
        Ok((first_lba, nblocks, (byte_offset - first_lba * bs) as usize))
    }

    /// Writes an arbitrary byte range (not necessarily block aligned) at byte
    /// offset `byte_offset`. Convenience for loading datasets onto the media.
    ///
    /// # Errors
    ///
    /// Returns [`NvmeError::LbaOutOfRange`] if the range exceeds capacity.
    pub fn write_bytes(&self, byte_offset: u64, data: &[u8]) -> Result<(), NvmeError> {
        if data.is_empty() {
            return Ok(());
        }
        let (first_lba, nblocks, start) = self.covering_blocks(byte_offset, data.len())?;
        // Copy only the overlap of each extent slice with the data; the
        // covering blocks' other bytes keep their media contents.
        let end = start + data.len();
        let mut pos = 0usize;
        self.write_extents(first_lba, nblocks, |dst| {
            let (lo, hi) = (start.max(pos), end.min(pos + dst.len()));
            dst[lo - pos..hi - pos].copy_from_slice(&data[lo - start..hi - start]);
            pos += dst.len();
        })
    }

    /// Reads an arbitrary byte range at byte offset `byte_offset`.
    ///
    /// # Errors
    ///
    /// Returns [`NvmeError::LbaOutOfRange`] if the range exceeds capacity.
    pub fn read_bytes(&self, byte_offset: u64, buf: &mut [u8]) -> Result<(), NvmeError> {
        if buf.is_empty() {
            return Ok(());
        }
        let (first_lba, nblocks, start) = self.covering_blocks(byte_offset, buf.len())?;
        let end = start + buf.len();
        let mut pos = 0usize;
        self.read_extents(first_lba, nblocks, |run| {
            let (lo, hi) = (start.max(pos), end.min(pos + run.len()));
            let dst = &mut buf[lo - start..hi - start];
            match run {
                MediaRun::Data(bytes) => dst.copy_from_slice(&bytes[lo - pos..hi - pos]),
                MediaRun::Zeroes(_) => dst.fill(0),
            }
            pos += run.len();
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_blocks_read_zero() {
        let s = BlockStore::new(512, 1024);
        let mut buf = vec![0xFFu8; 512];
        s.read_blocks(100, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_read_roundtrip_across_extents() {
        let s = BlockStore::new(512, 4096);
        let data: Vec<u8> = (0..512 * 600).map(|i| (i % 251) as u8).collect();
        // Spans more than one 256-block extent.
        s.write_blocks(200, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        s.read_blocks(200, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn out_of_range_rejected() {
        let s = BlockStore::new(512, 16);
        let mut buf = vec![0u8; 512 * 2];
        assert!(matches!(
            s.read_blocks(15, &mut buf),
            Err(NvmeError::LbaOutOfRange { .. })
        ));
        assert!(matches!(
            s.write_blocks(16, &buf),
            Err(NvmeError::LbaOutOfRange { .. })
        ));
    }

    #[test]
    fn unaligned_buffer_rejected() {
        let s = BlockStore::new(512, 16);
        let mut buf = vec![0u8; 100];
        assert!(matches!(
            s.read_blocks(0, &mut buf),
            Err(NvmeError::UnalignedBuffer { .. })
        ));
    }

    #[test]
    fn byte_granular_io() {
        let s = BlockStore::new(512, 1024);
        let data = [9u8; 1000];
        s.write_bytes(300, &data).unwrap();
        let mut out = [0u8; 1000];
        s.read_bytes(300, &mut out).unwrap();
        assert_eq!(out, data);
        // Neighbouring bytes untouched.
        let mut b = [0u8; 1];
        s.read_bytes(299, &mut b).unwrap();
        assert_eq!(b[0], 0);
    }

    #[test]
    fn read_extents_yields_one_run_per_extent() {
        let s = BlockStore::new(512, 4096);
        s.write_blocks(255, &[3u8; 512]).unwrap();
        let mut runs = Vec::new();
        s.read_extents(254, 260, |run| {
            runs.push(match run {
                MediaRun::Data(bytes) => (true, bytes.len()),
                MediaRun::Zeroes(len) => (false, len),
            })
        })
        .unwrap();
        assert_eq!(
            runs,
            vec![(true, 2 * 512), (false, 256 * 512), (false, 2 * 512)]
        );
        let mut called = false;
        assert!(matches!(
            s.read_extents(4000, 97, |_| called = true),
            Err(NvmeError::LbaOutOfRange { .. })
        ));
        assert!(!called, "a rejected range yields nothing");
    }

    #[test]
    fn byte_granular_io_across_extents_keeps_neighbours() {
        let s = BlockStore::new(512, 4096);
        s.write_blocks(255, &[0xEEu8; 2 * 512]).unwrap();
        let data: Vec<u8> = (0..700).map(|i| (i % 200) as u8).collect();
        let at = 256 * 512 - 300;
        s.write_bytes(at, &data).unwrap();
        let mut out = vec![0u8; 1000];
        s.read_bytes(at - 100, &mut out).unwrap();
        assert!(out[..100].iter().all(|&b| b == 0xEE));
        assert_eq!(out[100..800], data);
        assert!(out[800..912].iter().all(|&b| b == 0xEE));
        assert!(
            out[912..].iter().all(|&b| b == 0),
            "block 257 was never written"
        );
    }

    #[test]
    fn sparse_storage_is_lazy() {
        let s = BlockStore::new(512, 1 << 30); // "512 GiB" namespace
        assert_eq!(s.resident_bytes(), 0);
        s.write_blocks(12345, &[1u8; 512]).unwrap();
        assert!(s.resident_bytes() <= 256 * 512);
        assert_eq!(s.capacity_bytes(), 512u64 << 30);
    }
}
