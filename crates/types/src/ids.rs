//! Identifier newtypes: sockets, chassis, cores, pages, regions, addresses.

use core::fmt;

use crate::{BLOCK_SIZE, PAGE_SIZE, REGION_PAGES, SOCKETS_PER_CHASSIS};

/// Identifies one CPU socket in the multi-socket system.
///
/// Sockets are numbered `0..num_sockets`; socket `s` belongs to chassis
/// `s / 4` (see [`SocketId::chassis`]).
///
/// # Examples
///
/// ```
/// use starnuma_types::SocketId;
/// let s = SocketId::new(7);
/// assert_eq!(s.index(), 7);
/// assert_eq!(s.chassis().index(), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SocketId(u16);

impl SocketId {
    /// Creates a socket identifier from its index.
    pub const fn new(index: u16) -> Self {
        SocketId(index)
    }

    /// Returns the zero-based socket index.
    pub const fn index(self) -> u16 {
        self.0
    }

    /// Returns the chassis this socket belongs to (four sockets per chassis).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "validated topologies have at most 1024 sockets (SN101), so socket / 4 fits u8"
    )]
    pub const fn chassis(self) -> ChassisId {
        ChassisId((self.0 as usize / SOCKETS_PER_CHASSIS) as u8)
    }

    /// Returns `true` if `self` and `other` live in the same chassis.
    pub const fn same_chassis(self, other: SocketId) -> bool {
        self.chassis().0 == other.chassis().0
    }

    /// Iterates over all sockets of an `n`-socket system.
    pub fn all(n: usize) -> impl Iterator<Item = SocketId> {
        (0..u16::try_from(n).unwrap_or(u16::MAX)).map(SocketId)
    }
}

impl fmt::Debug for SocketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl fmt::Display for SocketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "socket {}", self.0)
    }
}

impl From<SocketId> for usize {
    fn from(s: SocketId) -> usize {
        s.0 as usize
    }
}

/// Identifies one four-socket chassis.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChassisId(u8);

impl ChassisId {
    /// Creates a chassis identifier from its index.
    pub const fn new(index: u8) -> Self {
        ChassisId(index)
    }

    /// Returns the zero-based chassis index.
    pub const fn index(self) -> u8 {
        self.0
    }

    /// Returns the sockets housed in this chassis.
    pub fn sockets(self) -> impl Iterator<Item = SocketId> {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SOCKETS_PER_CHASSIS is the constant 4"
        )]
        let per = SOCKETS_PER_CHASSIS as u16;
        let base = u16::from(self.0) * per;
        (base..base + per).map(SocketId)
    }
}

impl fmt::Debug for ChassisId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

impl fmt::Display for ChassisId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chassis {}", self.0)
    }
}

/// Identifies one core, globally across the system.
///
/// Core `c` of an `k`-cores-per-socket system belongs to socket `c / k`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(u32);

impl CoreId {
    /// Creates a core identifier from its global index.
    pub const fn new(index: u32) -> Self {
        CoreId(index)
    }

    /// Returns the zero-based global core index.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Returns the socket this core belongs to, given `cores_per_socket`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "core / cores-per-socket is a socket index, far below 2^16"
    )]
    pub const fn socket(self, cores_per_socket: usize) -> SocketId {
        SocketId((self.0 as usize / cores_per_socket) as u16)
    }
}

impl fmt::Debug for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core {}", self.0)
    }
}

/// A physical byte address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates a physical address from a raw byte address.
    pub const fn new(addr: u64) -> Self {
        PhysAddr(addr)
    }

    /// Returns the raw byte address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the 4 KiB page containing this address.
    pub const fn page(self) -> PageId {
        PageId(self.0 / PAGE_SIZE as u64)
    }

    /// Returns the 64 B cache block containing this address.
    pub const fn block(self) -> BlockAddr {
        BlockAddr(self.0 / BLOCK_SIZE as u64)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PhysAddr({:#x})", self.0)
    }
}

impl From<u64> for PhysAddr {
    fn from(a: u64) -> Self {
        PhysAddr(a)
    }
}

/// Identifies one 4 KiB page (a page frame number).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(u64);

impl PageId {
    /// Creates a page identifier from a page frame number.
    pub const fn new(pfn: u64) -> Self {
        PageId(pfn)
    }

    /// Returns the page frame number.
    pub const fn pfn(self) -> u64 {
        self.0
    }

    /// Returns the monitored 512 KiB region containing this page.
    pub const fn region(self) -> RegionId {
        RegionId(self.0 / REGION_PAGES as u64)
    }

    /// Returns the base physical address of this page.
    pub const fn base_addr(self) -> PhysAddr {
        PhysAddr(self.0 * PAGE_SIZE as u64)
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page{:#x}", self.0)
    }
}

/// Identifies one 512 KiB monitored region (128 consecutive pages, §IV-C).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RegionId(u64);

impl RegionId {
    /// Creates a region identifier from its index.
    pub const fn new(index: u64) -> Self {
        RegionId(index)
    }

    /// Returns the zero-based region index.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Returns the first page of this region.
    pub const fn first_page(self) -> PageId {
        PageId(self.0 * REGION_PAGES as u64)
    }

    /// Iterates over the 128 pages of this region.
    pub fn pages(self) -> impl Iterator<Item = PageId> {
        let base = self.0 * REGION_PAGES as u64;
        (base..base + REGION_PAGES as u64).map(PageId)
    }
}

impl fmt::Debug for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region{:#x}", self.0)
    }
}

/// Identifies one 64 B cache block (a block frame number).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Creates a block address from a block frame number.
    pub const fn new(bfn: u64) -> Self {
        BlockAddr(bfn)
    }

    /// Returns the block frame number.
    pub const fn bfn(self) -> u64 {
        self.0
    }

    /// Returns the page containing this block.
    pub const fn page(self) -> PageId {
        PageId(self.0 * BLOCK_SIZE as u64 / PAGE_SIZE as u64)
    }

    /// Returns the base physical address of this block.
    pub const fn base_addr(self) -> PhysAddr {
        PhysAddr(self.0 * BLOCK_SIZE as u64)
    }
}

impl fmt::Debug for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block{:#x}", self.0)
    }
}

/// Where a page (or a block's home) physically lives: a socket's local DRAM
/// or the CXL memory pool.
///
/// This is the central placement type of the reproduction: migration
/// decisions produce a `Location`, routing consumes one.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Location {
    /// The local DRAM of the given socket.
    Socket(SocketId),
    /// The CXL-attached shared memory pool.
    Pool,
}

impl Location {
    /// Returns the socket if this location is socket-attached memory.
    pub fn socket(self) -> Option<SocketId> {
        match self {
            Location::Socket(s) => Some(s),
            Location::Pool => None,
        }
    }

    /// Returns `true` if this location is the memory pool.
    pub const fn is_pool(self) -> bool {
        matches!(self, Location::Pool)
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Socket(s) => write!(f, "{s}"),
            Location::Pool => write!(f, "memory pool"),
        }
    }
}

impl From<SocketId> for Location {
    fn from(s: SocketId) -> Self {
        Location::Socket(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_chassis_mapping() {
        assert_eq!(SocketId::new(0).chassis(), ChassisId::new(0));
        assert_eq!(SocketId::new(3).chassis(), ChassisId::new(0));
        assert_eq!(SocketId::new(4).chassis(), ChassisId::new(1));
        assert_eq!(SocketId::new(15).chassis(), ChassisId::new(3));
        assert!(SocketId::new(1).same_chassis(SocketId::new(2)));
        assert!(!SocketId::new(3).same_chassis(SocketId::new(4)));
    }

    #[test]
    fn chassis_sockets_roundtrip() {
        for c in 0..4u8 {
            for s in ChassisId::new(c).sockets() {
                assert_eq!(s.chassis(), ChassisId::new(c));
            }
        }
        assert_eq!(ChassisId::new(2).sockets().count(), 4);
    }

    #[test]
    fn core_to_socket() {
        assert_eq!(CoreId::new(0).socket(4), SocketId::new(0));
        assert_eq!(CoreId::new(7).socket(4), SocketId::new(1));
        assert_eq!(CoreId::new(63).socket(4), SocketId::new(15));
        assert_eq!(CoreId::new(27).socket(28), SocketId::new(0));
    }

    #[test]
    fn addr_page_block_region() {
        let a = PhysAddr::new(2 * 4096 + 100);
        assert_eq!(a.page(), PageId::new(2));
        assert_eq!(a.block(), BlockAddr::new((2 * 4096 + 100) / 64));
        assert_eq!(a.block().page(), PageId::new(2));
        assert_eq!(PageId::new(127).region(), RegionId::new(0));
        assert_eq!(PageId::new(128).region(), RegionId::new(1));
        assert_eq!(RegionId::new(3).first_page(), PageId::new(384));
        assert_eq!(RegionId::new(1).pages().count(), 128);
        for p in RegionId::new(5).pages() {
            assert_eq!(p.region(), RegionId::new(5));
        }
    }

    #[test]
    fn page_base_addr_roundtrip() {
        let p = PageId::new(42);
        assert_eq!(p.base_addr().page(), p);
        let b = BlockAddr::new(1000);
        assert_eq!(b.base_addr().block(), b);
    }

    #[test]
    fn location_helpers() {
        let l = Location::Socket(SocketId::new(3));
        assert_eq!(l.socket(), Some(SocketId::new(3)));
        assert!(!l.is_pool());
        assert!(Location::Pool.is_pool());
        assert_eq!(Location::Pool.socket(), None);
        assert_eq!(
            Location::from(SocketId::new(1)),
            Location::Socket(SocketId::new(1))
        );
    }

    #[test]
    fn display_and_debug_nonempty() {
        assert_eq!(format!("{:?}", SocketId::new(2)), "S2");
        assert_eq!(format!("{}", Location::Pool), "memory pool");
        assert!(!format!("{:?}", PageId::new(0)).is_empty());
        assert!(!format!("{:?}", PhysAddr::new(0)).is_empty());
    }

    #[test]
    fn socket_all_iterates() {
        let all: Vec<_> = SocketId::all(16).collect();
        assert_eq!(all.len(), 16);
        assert_eq!(all[0], SocketId::new(0));
        assert_eq!(all[15], SocketId::new(15));
    }
}
