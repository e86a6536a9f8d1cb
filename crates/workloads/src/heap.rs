//! A simulated persistent heap: byte-addressable paged storage plus a
//! bump allocator.
//!
//! Workload data structures store their *real* bytes here (keys, pointers,
//! node contents), so inserts, lookups, rebalances and swaps genuinely
//! execute — the emitted store trace is the true memory behaviour of the
//! structure, not a synthetic approximation.

/// Page size of the backing store (an implementation detail, not the
/// architectural page size).
const PAGE: usize = 4096;

/// Alignment of every allocation. Using 16 keeps adjacent small nodes in
/// the same cache block, like a real PM allocator's small-object classes.
const ALIGN: u64 = 16;

/// A byte-addressable persistent heap with a bump allocator.
///
/// The bytes live in 4 KiB pages held in a dense table indexed from the
/// heap's base page: a lookup is one subtraction and one index, and a
/// page is materialized (zeroed) on its first write. The heap grows page
/// by page, never as one contiguous buffer: growing the table moves page
/// pointers, never page contents.
///
/// # Example
///
/// ```
/// use thoth_workloads::PersistentHeap;
///
/// let mut h = PersistentHeap::new(0x1000_0000);
/// let p = h.alloc(64);
/// h.write_u64(p, 0xdead_beef);
/// assert_eq!(h.read_u64(p), 0xdead_beef);
/// ```
#[derive(Debug, Clone)]
pub struct PersistentHeap {
    base: u64,
    brk: u64,
    /// Page number of `base`: entry `i` of `pages` backs page
    /// `base_page + i`.
    base_page: u64,
    /// Backing pages; `None` until first written.
    pages: Vec<Option<Box<[u8]>>>,
}

impl PersistentHeap {
    /// Creates an empty heap whose allocations start at `base`.
    #[must_use]
    pub fn new(base: u64) -> Self {
        PersistentHeap {
            base,
            brk: base,
            base_page: base / PAGE as u64,
            pages: Vec::new(),
        }
    }

    /// First address of the heap.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// One past the highest allocated address.
    #[must_use]
    pub fn brk(&self) -> u64 {
        self.brk
    }

    /// Total bytes allocated so far.
    #[must_use]
    pub fn allocated(&self) -> u64 {
        self.brk - self.base
    }

    /// Allocates `size` bytes (16-byte aligned), returning the address.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn alloc(&mut self, size: u64) -> u64 {
        assert!(size > 0, "zero-sized allocation");
        let addr = self.brk;
        let size = size.div_ceil(ALIGN) * ALIGN;
        self.brk += size;
        addr
    }

    /// The page table index of the page holding `addr`, or `None` below
    /// the heap's base page.
    fn slot(&self, addr: u64) -> Option<usize> {
        let page = (addr / PAGE as u64).checked_sub(self.base_page)?;
        usize::try_from(page).ok()
    }

    /// The materialized page behind page table index `i`, if any.
    fn page(&self, i: usize) -> Option<&[u8]> {
        self.pages.get(i)?.as_deref()
    }

    /// The page holding `addr`, materialized (zeroed) if it was not.
    ///
    /// # Panics
    ///
    /// Panics if `addr` lies below the heap's base page.
    fn page_mut(&mut self, addr: u64) -> &mut [u8] {
        let i = self.slot(addr).expect("write below the heap's base page");
        if i >= self.pages.len() {
            self.pages.resize_with(i + 1, || None);
        }
        self.pages[i].get_or_insert_with(|| vec![0u8; PAGE].into_boxed_slice())
    }

    /// Fills `out` with the bytes at `addr` (untouched bytes read as
    /// zero). [`Self::read`] wraps it; [`Self::read_u64`] falls back to
    /// it for a word that straddles two pages.
    pub fn read_into(&self, addr: u64, out: &mut [u8]) {
        let mut done = 0;
        while done < out.len() {
            let a = addr + done as u64;
            let off = (a % PAGE as u64) as usize;
            let take = (out.len() - done).min(PAGE - off);
            let dst = &mut out[done..done + take];
            match self.slot(a).and_then(|i| self.page(i)) {
                Some(page) => dst.copy_from_slice(&page[off..off + take]),
                None => dst.fill(0),
            }
            done += take;
        }
    }

    /// Reads `len` bytes at `addr` into a new buffer (untouched bytes
    /// read as zero).
    #[must_use]
    pub fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_into(addr, &mut out);
        out
    }

    /// Writes `bytes` at `addr`, materializing the pages it touches.
    ///
    /// # Panics
    ///
    /// Panics if the range starts below the heap's base page.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) {
        let mut done = 0;
        while done < bytes.len() {
            let a = addr + done as u64;
            let off = (a % PAGE as u64) as usize;
            let take = (bytes.len() - done).min(PAGE - off);
            self.page_mut(a)[off..off + take].copy_from_slice(&bytes[done..done + take]);
            done += take;
        }
    }

    /// Reads a little-endian `u64` at `addr`: an inline 8-byte load when
    /// the word lies inside one page.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let off = (addr % PAGE as u64) as usize;
        if off > PAGE - 8 {
            let mut word = [0u8; 8];
            self.read_into(addr, &mut word);
            return u64::from_le_bytes(word);
        }
        self.slot(addr)
            .and_then(|i| self.page(i))
            .map_or(0, |page| {
                u64::from_le_bytes(page[off..off + 8].try_into().expect("8 bytes"))
            })
    }

    /// Writes a little-endian `u64` at `addr`: an inline 8-byte store
    /// when the word lies inside one page.
    ///
    /// # Panics
    ///
    /// Panics if `addr` lies below the heap's base page.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        let off = (addr % PAGE as u64) as usize;
        if off > PAGE - 8 {
            self.write(addr, &v.to_le_bytes());
        } else {
            self.page_mut(addr)[off..off + 8].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Number of materialized backing pages (memory footprint check).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_monotonic_and_aligned() {
        let mut h = PersistentHeap::new(0x1000);
        let a = h.alloc(10);
        let b = h.alloc(1);
        let c = h.alloc(100);
        assert_eq!(a, 0x1000);
        assert_eq!(b, 0x1010, "10 rounds to 16");
        assert_eq!(c, 0x1020);
        assert!(a.is_multiple_of(16) && b.is_multiple_of(16) && c.is_multiple_of(16));
        assert_eq!(h.allocated(), 0x20 + 112);
    }

    #[test]
    fn read_write_roundtrip_within_page() {
        let mut h = PersistentHeap::new(0);
        h.write(100, b"hello");
        assert_eq!(h.read(100, 5), b"hello");
        assert_eq!(h.read(99, 1), [0], "neighbours untouched");
    }

    #[test]
    fn read_write_across_page_boundary() {
        let mut h = PersistentHeap::new(0);
        let addr = PAGE as u64 - 3;
        h.write(addr, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(h.read(addr, 6), [1, 2, 3, 4, 5, 6]);
        assert_eq!(h.resident_pages(), 2);
    }

    #[test]
    fn untouched_reads_zero() {
        let h = PersistentHeap::new(0);
        assert_eq!(h.read(12345, 16), vec![0; 16]);
        assert_eq!(h.read_u64(999), 0);
    }

    #[test]
    fn pages_are_indexed_from_the_base_page() {
        let base = 0x1000_0000 + 37 * 128; // not page-aligned
        let mut h = PersistentHeap::new(base);
        let p = h.alloc(3 * PAGE as u64);
        h.write(p + 2 * PAGE as u64, &[7; 8]);
        assert_eq!(h.resident_pages(), 1, "only the written page exists");
        let mut buf = [1u8; 16];
        h.read_into(p + 2 * PAGE as u64 - 8, &mut buf);
        assert_eq!(buf, [0, 0, 0, 0, 0, 0, 0, 0, 7, 7, 7, 7, 7, 7, 7, 7]);
        assert_eq!(h.read_u64(base - PAGE as u64), 0, "below the base");
    }

    #[test]
    #[should_panic(expected = "below the heap's base page")]
    fn write_below_the_base_page_panics() {
        let mut h = PersistentHeap::new(0x10_0000);
        h.write(0x10_0000 - PAGE as u64, &[1]);
    }

    #[test]
    fn u64_helpers() {
        let mut h = PersistentHeap::new(0);
        h.write_u64(8, u64::MAX);
        h.write_u64(16, 0x0102_0304_0506_0708);
        assert_eq!(h.read_u64(8), u64::MAX);
        assert_eq!(h.read_u64(16), 0x0102_0304_0506_0708);
        // A word straddling a page boundary takes the byte path both ways.
        let edge = PAGE as u64 - 3;
        h.write_u64(edge, 0x1122_3344_5566_7788);
        assert_eq!(h.read_u64(edge), 0x1122_3344_5566_7788);
        assert_eq!(h.read(edge, 8), 0x1122_3344_5566_7788u64.to_le_bytes());
        assert_eq!(h.read_u64(PAGE as u64 - 8), 0x6677_8800_0000_0000);
        assert_eq!(h.resident_pages(), 2);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_alloc_panics() {
        PersistentHeap::new(0).alloc(0);
    }
}
