//! Memory-access records: the unit of work flowing through the simulator.

use core::fmt;

use crate::{CoreId, PhysAddr};

/// Whether a memory operation reads or writes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessType {
    /// A load (read) operation.
    Read,
    /// A store (write) operation.
    Write,
}

impl AccessType {
    /// Returns `true` for [`AccessType::Write`].
    pub const fn is_write(self) -> bool {
        matches!(self, AccessType::Write)
    }
}

impl fmt::Display for AccessType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessType::Read => f.write_str("read"),
            AccessType::Write => f.write_str("write"),
        }
    }
}

/// One memory access in a trace: which core touched which address, tagged
/// with the issuing core's dynamic instruction count (paper §IV-A1).
///
/// # Examples
///
/// ```
/// use starnuma_types::{AccessType, CoreId, MemAccess, PhysAddr};
///
/// let a = MemAccess::new(CoreId::new(3), PhysAddr::new(0x1000), AccessType::Write, 42);
/// assert!(a.kind.is_write());
/// assert_eq!(a.icount, 42);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemAccess {
    /// The core that issued the access.
    pub core: CoreId,
    /// The physical address touched.
    pub addr: PhysAddr,
    /// Read or write.
    pub kind: AccessType,
    /// The issuing core's dynamic instruction count at the time of the access.
    pub icount: u64,
}

impl MemAccess {
    /// Creates a memory access record.
    pub const fn new(core: CoreId, addr: PhysAddr, kind: AccessType, icount: u64) -> Self {
        MemAccess {
            core,
            addr,
            kind,
            icount,
        }
    }
}

/// A read/write mixture expressed as the fraction of accesses that are reads.
///
/// # Examples
///
/// ```
/// use starnuma_types::RwMix;
/// let mix = RwMix::new(0.5);
/// assert_eq!(mix.read_fraction(), 0.5);
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct RwMix(f64);

impl RwMix {
    /// All accesses are reads.
    pub const READ_ONLY: RwMix = RwMix(1.0);

    /// Creates a mix from the fraction of reads in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `read_fraction` is outside `[0, 1]`.
    pub fn new(read_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&read_fraction),
            "read fraction must be in [0, 1], got {read_fraction}"
        );
        RwMix(read_fraction)
    }

    /// Returns the fraction of accesses that are reads.
    pub const fn read_fraction(self) -> f64 {
        self.0
    }
}

impl Default for RwMix {
    /// Defaults to a 2:1 read:write mix, typical of the paper's workloads.
    fn default() -> Self {
        RwMix(2.0 / 3.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_type_predicates() {
        assert!(AccessType::Write.is_write());
        assert!(!AccessType::Read.is_write());
        assert_eq!(AccessType::Read.to_string(), "read");
    }

    #[test]
    fn mem_access_fields() {
        let a = MemAccess::new(CoreId::new(1), PhysAddr::new(64), AccessType::Read, 7);
        assert_eq!(a.core, CoreId::new(1));
        assert_eq!(a.addr.raw(), 64);
        assert_eq!(a.icount, 7);
    }

    #[test]
    fn rw_mix_fractions() {
        let m = RwMix::new(0.75);
        assert!((m.read_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(RwMix::READ_ONLY.read_fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "read fraction must be in [0, 1]")]
    fn rw_mix_rejects_out_of_range() {
        let _ = RwMix::new(1.5);
    }
}
