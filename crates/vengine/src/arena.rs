//! Flat simulated memory.
//!
//! All tensors live in one byte-addressed arena so that the cache simulator
//! sees *real* addresses: the paper's conflict misses (Section 5.2) depend on
//! the byte distance between consecutive scalar accesses, which is a property
//! of the blocked tensor layouts. Allocations are page-aligned to keep base
//! addresses realistic and reproducible.
//!
//! Every allocation is recorded as a [`Region`] so the trace facility and
//! the `lsv-analyze` bounds sanitizer can map any address back to the tensor
//! it belongs to (or prove it belongs to none).
//!
//! A timing-only run needs the addresses but never the values, so its arena
//! is *data-free* (see [`Arena::for_mode`]): same bases, same regions, no
//! backing memory.

use crate::core::ExecutionMode;

/// Alignment of every allocation (a 4 KiB page).
pub const PAGE_BYTES: u64 = 4096;

/// One recorded allocation: the extent a tensor occupies in the arena.
#[derive(Debug, Clone)]
pub struct Region {
    /// First byte address of the allocation.
    pub base: u64,
    /// Allocated size in bytes.
    pub bytes: u64,
    /// Human-readable tag (e.g. `"act 2x128x28x28 cb=32"`).
    pub label: String,
}

impl Region {
    /// One past the last allocated byte.
    pub fn end(&self) -> u64 {
        self.base + self.bytes
    }

    /// Whether `addr` lies inside this region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// Byte-addressed f32 memory.
///
/// Addresses handed out by [`Arena::alloc`] are byte offsets; element
/// accessors divide by 4. The arena never frees — convolution runs allocate
/// their operand tensors once.
///
/// A *backed* arena ([`Arena::new`]) holds every allocated element,
/// zero-initialized. A *data-free* arena ([`Arena::for_mode`] with
/// [`ExecutionMode::TimingOnly`]) hands out the same bases and records the
/// same regions but holds no element at all, so its memory does not grow
/// with the tensors; any read or write on it panics, naming the region.
#[derive(Debug, Default, Clone)]
pub struct Arena {
    /// Backing store; stays empty when `data_free`.
    data: Vec<f32>,
    data_free: bool,
    next: u64,
    regions: Vec<Region>,
}

impl Arena {
    /// Empty backed arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty arena for a run in `mode`: backed for
    /// [`ExecutionMode::Functional`], data-free for
    /// [`ExecutionMode::TimingOnly`], whose cores never move data.
    pub fn for_mode(mode: ExecutionMode) -> Self {
        Self {
            data_free: !mode.is_functional(),
            ..Self::default()
        }
    }

    /// Allocate `elems` f32 elements (zero-initialized when backed); returns
    /// the base byte address (page aligned).
    pub fn alloc(&mut self, elems: usize) -> u64 {
        self.alloc_labeled(elems, "anon")
    }

    /// Like [`Arena::alloc`], tagging the allocation so diagnostics can name
    /// the tensor an address belongs to.
    pub fn alloc_labeled(&mut self, elems: usize, label: &str) -> u64 {
        let base = self.next.next_multiple_of(PAGE_BYTES);
        let end_elems = base as usize / 4 + elems;
        if !self.data_free && self.data.len() < end_elems {
            self.data.resize(end_elems, 0.0);
        }
        self.next = (end_elems as u64) * 4;
        self.regions.push(Region {
            base,
            bytes: (elems * 4) as u64,
            label: label.to_string(),
        });
        base
    }

    /// Total bytes currently backed (0 for a data-free arena).
    pub fn len_bytes(&self) -> u64 {
        self.data.len() as u64 * 4
    }

    /// All recorded allocations, in allocation (= ascending base) order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Index of the allocation containing `addr`, if any. Addresses in the
    /// page-alignment gap between two allocations belong to none.
    pub fn region_of(&self, addr: u64) -> Option<u32> {
        // Regions are sorted by base: find the last region starting at or
        // before `addr` and check containment.
        let i = self.regions.partition_point(|r| r.base <= addr);
        if i == 0 {
            return None;
        }
        let r = &self.regions[i - 1];
        r.contains(addr).then_some((i - 1) as u32)
    }

    #[cold]
    #[inline(never)]
    fn bad_access(&self, what: &str, addr: u64, bytes: u64) -> ! {
        let (fault, overrun) = if self.data_free {
            ("touches a data-free (timing-only) arena", "")
        } else {
            ("is out of bounds", " but overrunning it")
        };
        let where_ = match self.region_of(addr) {
            Some(i) => {
                let r = &self.regions[i as usize];
                format!(
                    "inside region #{i} `{}` [{:#x}, {:#x}){overrun}",
                    r.label,
                    r.base,
                    r.end()
                )
            }
            None => "outside every allocation".to_string(),
        };
        panic!(
            "arena {what} of {bytes} bytes at address {addr:#x} {fault}: \
             arena holds {} bytes across {} allocations; the access is {where_}",
            self.len_bytes(),
            self.regions.len()
        );
    }

    #[inline]
    fn check(&self, what: &str, addr: u64, len: usize) {
        assert!(
            addr.is_multiple_of(4),
            "unaligned arena {what}: address {addr:#x} is not 4-byte aligned"
        );
        let end = (addr / 4) as usize + len;
        if end > self.data.len() {
            self.bad_access(what, addr, (len * 4) as u64);
        }
    }

    /// Read one element at byte address `addr`.
    ///
    /// # Panics
    /// Panics with the address and the surrounding allocation if `addr` is
    /// not 4-byte aligned or out of bounds.
    #[inline]
    pub fn read(&self, addr: u64) -> f32 {
        self.check("read", addr, 1);
        self.data[(addr / 4) as usize]
    }

    /// Write one element at byte address `addr`.
    ///
    /// # Panics
    /// Panics with the address and the surrounding allocation if `addr` is
    /// not 4-byte aligned or out of bounds.
    #[inline]
    pub fn write(&mut self, addr: u64, v: f32) {
        self.check("write", addr, 1);
        self.data[(addr / 4) as usize] = v;
    }

    /// Borrow `len` elements starting at byte address `addr`.
    ///
    /// # Panics
    /// Panics with the address, length and surrounding allocation if the
    /// range is unaligned or out of bounds.
    #[inline]
    pub fn slice(&self, addr: u64, len: usize) -> &[f32] {
        self.check("slice", addr, len);
        let i = (addr / 4) as usize;
        &self.data[i..i + len]
    }

    /// Mutably borrow `len` elements starting at byte address `addr`.
    ///
    /// # Panics
    /// Panics with the address, length and surrounding allocation if the
    /// range is unaligned or out of bounds.
    #[inline]
    pub fn slice_mut(&mut self, addr: u64, len: usize) -> &mut [f32] {
        self.check("slice_mut", addr, len);
        let i = (addr / 4) as usize;
        &mut self.data[i..i + len]
    }

    /// Copy a host slice into the arena at `addr`.
    pub fn store_slice(&mut self, addr: u64, src: &[f32]) {
        self.slice_mut(addr, src.len()).copy_from_slice(src);
    }

    /// Copy `len` elements out of the arena into a fresh vector.
    pub fn load_vec(&self, addr: u64, len: usize) -> Vec<f32> {
        self.slice(addr, len).to_vec()
    }

    /// Fill `len` elements starting at `addr` with a value.
    pub fn fill(&mut self, addr: u64, len: usize, v: f32) {
        self.slice_mut(addr, len).fill(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_page_aligned_and_disjoint() {
        let mut a = Arena::new();
        let x = a.alloc(10);
        let y = a.alloc(3);
        let z = a.alloc(5000);
        assert_eq!(x % PAGE_BYTES, 0);
        assert_eq!(y % PAGE_BYTES, 0);
        assert_eq!(z % PAGE_BYTES, 0);
        assert!(y >= x + 40);
        assert!(z >= y + 12);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut a = Arena::new();
        let base = a.alloc(4);
        a.write(base + 8, 3.5);
        assert_eq!(a.read(base + 8), 3.5);
        assert_eq!(a.read(base), 0.0, "zero initialized");
    }

    #[test]
    fn slice_copy_roundtrip() {
        let mut a = Arena::new();
        let base = a.alloc(6);
        a.store_slice(base, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.load_vec(base + 4, 2), vec![2.0, 3.0]);
        a.fill(base, 3, 9.0);
        assert_eq!(a.load_vec(base, 4), vec![9.0, 9.0, 9.0, 4.0]);
    }

    #[test]
    fn regions_map_addresses_back_to_allocations() {
        let mut a = Arena::new();
        let x = a.alloc_labeled(16, "src");
        let y = a.alloc_labeled(8, "dst");
        assert_eq!(a.regions().len(), 2);
        assert_eq!(a.region_of(x), Some(0));
        assert_eq!(a.region_of(x + 63), Some(0), "within the 16-elem extent");
        assert_eq!(a.region_of(x + 64), None, "first byte past the extent");
        assert_eq!(a.region_of(y + 4), Some(1));
        assert_eq!(a.region_of(y + 8 * 4), None);
        assert_eq!(a.regions()[1].label, "dst");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_names_the_allocation_state() {
        let mut a = Arena::new();
        let base = a.alloc_labeled(4, "tiny");
        a.read(base + 10 * PAGE_BYTES);
    }

    #[test]
    fn data_free_arena_hands_out_the_same_addresses_and_regions() {
        let sizes = [
            (10, "src"),
            (3, "wei"),
            (5000, "dst"),
            (0, "empty"),
            (1, "tail"),
        ];
        let mut backed = Arena::for_mode(ExecutionMode::Functional);
        let mut free = Arena::for_mode(ExecutionMode::TimingOnly);
        for &(elems, label) in &sizes {
            assert_eq!(
                backed.alloc_labeled(elems, label),
                free.alloc_labeled(elems, label)
            );
        }
        let extents = |a: &Arena| {
            a.regions()
                .iter()
                .map(|r| (r.base, r.bytes, r.label.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(extents(&backed), extents(&free));
        let probe = backed.regions()[2].base + 40;
        assert_eq!(backed.region_of(probe), free.region_of(probe));
        assert!(backed.len_bytes() >= backed.regions()[4].end());
        assert_eq!(free.len_bytes(), 0, "a data-free arena backs nothing");
    }

    #[test]
    #[should_panic(expected = "read of 4 bytes at address 0x1000 touches a data-free \
                               (timing-only) arena: arena holds 0 bytes across 2 \
                               allocations; the access is inside region #1 `dst`")]
    fn data_free_read_names_the_region() {
        let mut a = Arena::for_mode(ExecutionMode::TimingOnly);
        a.alloc_labeled(16, "src");
        let dst = a.alloc_labeled(16, "dst");
        a.read(dst);
    }

    #[test]
    #[should_panic(expected = "write of 4 bytes at address 0x8 touches a data-free \
                               (timing-only) arena: arena holds 0 bytes across 1 \
                               allocations; the access is inside region #0 `src`")]
    fn data_free_write_names_the_region() {
        let mut a = Arena::for_mode(ExecutionMode::TimingOnly);
        let src = a.alloc_labeled(16, "src");
        a.write(src + 8, 1.0);
    }

    #[test]
    #[should_panic(expected = "not 4-byte aligned")]
    fn unaligned_read_is_described() {
        let mut a = Arena::new();
        let base = a.alloc(4);
        a.read(base + 2);
    }
}
