//! The flat functional memory shared by every model.
//!
//! `MainMemory` is a sparse, page-granular byte store. Host models, the NDP
//! executor and workload generators all read and write the same instance, so
//! functional results are exact regardless of which timing model ran the
//! code. Atomic read-modify-write helpers back the RISC-V AMO instructions
//! and the scratchpad/L2 atomic units.

use std::collections::HashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Sparse functional byte store with 4 KiB pages.
///
/// Reads of never-written memory return zeros, matching freshly-allocated
/// device memory.
///
/// # Example
///
/// ```
/// use m2ndp_mem::MainMemory;
/// let mut m = MainMemory::new();
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u32(0x2000), 0); // untouched memory reads zero
/// ```
#[derive(Debug, Default, Clone)]
pub struct MainMemory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl MainMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads `buf.len()` bytes starting at `addr`. Addresses wrap at the
    /// top of the 64-bit space, as kernel address arithmetic does.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let cur = addr.wrapping_add(done as u64);
            let off = (cur & (PAGE_SIZE as u64 - 1)) as usize;
            let n = (PAGE_SIZE - off).min(buf.len() - done);
            match self.pages.get(&(cur >> PAGE_SHIFT)) {
                Some(p) => buf[done..done + n].copy_from_slice(&p[off..off + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
        }
    }

    /// Writes `data` starting at `addr`, wrapping like [`Self::read_bytes`].
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let mut done = 0usize;
        while done < data.len() {
            let cur = addr.wrapping_add(done as u64);
            let off = (cur & (PAGE_SIZE as u64 - 1)) as usize;
            let n = (PAGE_SIZE - off).min(data.len() - done);
            self.page_mut(cur)[off..off + n].copy_from_slice(&data[done..done + n]);
            done += n;
        }
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        let mut b = [0u8; 1];
        self.read_bytes(addr, &mut b);
        b[0]
    }

    /// Reads a little-endian u16.
    pub fn read_u16(&self, addr: u64) -> u16 {
        let mut b = [0u8; 2];
        self.read_bytes(addr, &mut b);
        u16::from_le_bytes(b)
    }

    /// Reads a little-endian u32.
    pub fn read_u32(&self, addr: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Reads an f32.
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Reads an f64.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        self.write_bytes(addr, &[v]);
    }

    /// Writes a little-endian u16.
    pub fn write_u16(&mut self, addr: u64, v: u16) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Writes a little-endian u32.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Writes an f32.
    pub fn write_f32(&mut self, addr: u64, v: f32) {
        self.write_u32(addr, v.to_bits());
    }

    /// Writes an f64.
    pub fn write_f64(&mut self, addr: u64, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    /// Atomic 32-bit add; returns the old value.
    pub fn amo_add_u32(&mut self, addr: u64, v: u32) -> u32 {
        let old = self.read_u32(addr);
        self.write_u32(addr, old.wrapping_add(v));
        old
    }

    /// Atomic 64-bit add; returns the old value.
    pub fn amo_add_u64(&mut self, addr: u64, v: u64) -> u64 {
        let old = self.read_u64(addr);
        self.write_u64(addr, old.wrapping_add(v));
        old
    }

    /// Atomic 64-bit signed min; returns the old value.
    pub fn amo_min_i64(&mut self, addr: u64, v: i64) -> i64 {
        let old = self.read_u64(addr) as i64;
        self.write_u64(addr, old.min(v) as u64);
        old
    }

    /// Atomic 32-bit signed min; returns the old value.
    pub fn amo_min_i32(&mut self, addr: u64, v: i32) -> i32 {
        let old = self.read_u32(addr) as i32;
        self.write_u32(addr, old.min(v) as u32);
        old
    }

    /// Atomic f32 add (used by SLS/PageRank accumulations); returns old.
    pub fn amo_add_f32(&mut self, addr: u64, v: f32) -> f32 {
        let old = self.read_f32(addr);
        self.write_f32(addr, old + v);
        old
    }

    /// Atomic f64 add; returns old.
    pub fn amo_add_f64(&mut self, addr: u64, v: f64) -> f64 {
        let old = self.read_f64(addr);
        self.write_f64(addr, old + v);
        old
    }

    /// Atomic 64-bit swap; returns the old value.
    pub fn amo_swap_u64(&mut self, addr: u64, v: u64) -> u64 {
        let old = self.read_u64(addr);
        self.write_u64(addr, v);
        old
    }

    /// Number of touched pages (memory footprint of the simulation itself).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = MainMemory::new();
        assert_eq!(m.read_u64(0xdead_0000), 0);
    }

    #[test]
    fn cross_page_read_write() {
        let mut m = MainMemory::new();
        let addr = (1 << PAGE_SHIFT) - 3; // straddles a page boundary
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn accesses_wrap_at_the_top_of_the_address_space() {
        let mut m = MainMemory::new();
        m.write_u64(u64::MAX - 3, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(u64::MAX - 3), 0x1122_3344_5566_7788);
        assert_eq!(m.read_u32(0), 0x1122_3344);
    }

    #[test]
    fn widths_are_little_endian_consistent() {
        let mut m = MainMemory::new();
        m.write_u32(16, 0xa1b2_c3d4);
        assert_eq!(m.read_u8(16), 0xd4);
        assert_eq!(m.read_u16(16), 0xc3d4);
        assert_eq!(m.read_u8(19), 0xa1);
    }

    #[test]
    fn float_round_trips() {
        let mut m = MainMemory::new();
        m.write_f32(0, 3.5);
        m.write_f64(8, -2.25);
        assert_eq!(m.read_f32(0), 3.5);
        assert_eq!(m.read_f64(8), -2.25);
    }

    #[test]
    fn amo_add_returns_old() {
        let mut m = MainMemory::new();
        m.write_u64(0, 10);
        assert_eq!(m.amo_add_u64(0, 5), 10);
        assert_eq!(m.read_u64(0), 15);
    }

    #[test]
    fn amo_min_keeps_smaller() {
        let mut m = MainMemory::new();
        m.write_u64(0, 100u64);
        m.amo_min_i64(0, 42);
        assert_eq!(m.read_u64(0), 42);
        m.amo_min_i64(0, 99);
        assert_eq!(m.read_u64(0), 42);
    }

    #[test]
    fn amo_f32_accumulates() {
        let mut m = MainMemory::new();
        m.write_f32(0, 1.0);
        m.amo_add_f32(0, 2.5);
        assert_eq!(m.read_f32(0), 3.5);
    }

    #[test]
    fn bulk_round_trip() {
        let mut m = MainMemory::new();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        m.write_bytes(12345, &data);
        let mut back = vec![0u8; data.len()];
        m.read_bytes(12345, &mut back);
        assert_eq!(data, back);
    }
}
