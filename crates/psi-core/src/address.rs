//! Logical memory areas and addresses.
//!
//! The PSI allocates its four stacks and the heap to *independent
//! logical address spaces* called areas (§2.1). A logical address is
//! therefore (process, area, offset); the cache indexes on its raw
//! encoding and `psi-mem` stores words per (process, area).

use std::fmt;

/// Number of distinct memory areas.
pub const AREA_COUNT: usize = 5;

/// One of the PSI's five logical memory areas (§2.1).
///
/// The heap holds instruction code and rewritable heap vectors and is
/// shared by all processes; the four stacks are per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Area {
    /// Instruction code and heap vectors; shared by all processes.
    Heap = 0,
    /// Local variables of clause activations.
    LocalStack = 1,
    /// Variables appearing in compound terms (structure-copy target).
    GlobalStack = 2,
    /// 10-word control frames: environments and choice points.
    ControlStack = 3,
    /// Addresses of variables to unbind on backtracking.
    TrailStack = 4,
}

impl Area {
    /// All areas in index order.
    pub const ALL: [Area; AREA_COUNT] = [
        Area::Heap,
        Area::LocalStack,
        Area::GlobalStack,
        Area::ControlStack,
        Area::TrailStack,
    ];

    /// The dense index of the area (0..[`AREA_COUNT`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Decodes an area from its dense index.
    pub fn from_index(index: usize) -> Option<Area> {
        Area::ALL.get(index).copied()
    }

    /// Short column label used by the table generators.
    pub fn label(self) -> &'static str {
        match self {
            Area::Heap => "heap",
            Area::LocalStack => "local",
            Area::GlobalStack => "global",
            Area::ControlStack => "control",
            Area::TrailStack => "trail",
        }
    }
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Identifier of a PSI process (§2.1: "concurrent execution of
/// multiple processes ... stack areas for each program are allocated
/// to independent logical spaces").
///
/// Two bits of the logical address select the process, so at most four
/// processes exist simultaneously; this matches what the WINDOW
/// workload needs (user process + I/O service processes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(u8);

impl ProcessId {
    /// The initial user process.
    pub const ZERO: ProcessId = ProcessId(0);
    /// Maximum number of simultaneous processes.
    pub const MAX_PROCESSES: usize = 4;

    /// Creates a process id.
    ///
    /// # Panics
    ///
    /// Panics if `id >= 4` (the address format reserves two bits).
    pub fn new(id: u8) -> ProcessId {
        assert!(
            (id as usize) < Self::MAX_PROCESSES,
            "process id {id} out of range"
        );
        ProcessId(id)
    }

    /// The raw id.
    pub fn get(self) -> u8 {
        self.0
    }

    /// Dense index, for per-process tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A 32-bit logical address: process (2 bits) | area (3 bits) |
/// word offset (27 bits).
///
/// ```
/// use psi_core::{Address, Area, ProcessId};
/// let a = Address::new(ProcessId::new(1), Area::TrailStack, 123);
/// assert_eq!(a.area(), Area::TrailStack);
/// assert_eq!(a.offset(), 123);
/// assert_eq!(a.process().get(), 1);
/// assert_eq!(a.offset_by(2).offset(), 125);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Address(u32);

const OFFSET_BITS: u32 = 27;
const OFFSET_MASK: u32 = (1 << OFFSET_BITS) - 1;
const AREA_SHIFT: u32 = OFFSET_BITS;
const PROC_SHIFT: u32 = OFFSET_BITS + 3;

impl Address {
    /// Builds a logical address.
    ///
    /// # Panics
    ///
    /// Panics if `offset` does not fit in 27 bits.
    pub fn new(process: ProcessId, area: Area, offset: u32) -> Address {
        assert!(offset <= OFFSET_MASK, "offset {offset} out of range");
        Address(((process.get() as u32) << PROC_SHIFT) | ((area as u32) << AREA_SHIFT) | offset)
    }

    /// Address in the shared heap area (the heap belongs to process 0's
    /// address space but is shared by convention).
    pub fn heap(offset: u32) -> Address {
        Address::new(ProcessId::ZERO, Area::Heap, offset)
    }

    /// The process field.
    pub fn process(self) -> ProcessId {
        ProcessId((self.0 >> PROC_SHIFT) as u8 & 0b11)
    }

    /// The area field.
    pub fn area(self) -> Area {
        Area::from_index(((self.0 >> AREA_SHIFT) & 0b111) as usize)
            .expect("address encodes a valid area by construction")
    }

    /// The word offset inside the area.
    pub fn offset(self) -> u32 {
        self.0 & OFFSET_MASK
    }

    /// The raw 32-bit encoding (what travels on the simulated address
    /// bus and what the cache indexes on).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds an address from its raw encoding.
    ///
    /// Returns `None` if the area field is invalid.
    pub fn from_raw(raw: u32) -> Option<Address> {
        Area::from_index(((raw >> AREA_SHIFT) & 0b111) as usize)?;
        Some(Address(raw))
    }

    /// The address `delta` words beyond this one (same process, same
    /// area).
    ///
    /// # Panics
    ///
    /// Panics if the result overflows the 27-bit offset.
    pub fn offset_by(self, delta: u32) -> Address {
        Address::new(self.process(), self.area(), self.offset() + delta)
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{:#x}", self.process(), self.area(), self.offset())
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_index_roundtrip() {
        for area in Area::ALL {
            assert_eq!(Area::from_index(area.index()), Some(area));
        }
        assert_eq!(Area::from_index(5), None);
    }

    #[test]
    fn address_fields_roundtrip() {
        for p in 0..4u8 {
            for area in Area::ALL {
                for offset in [0u32, 1, 7, 1 << 20, OFFSET_MASK] {
                    let a = Address::new(ProcessId::new(p), area, offset);
                    assert_eq!(a.process().get(), p);
                    assert_eq!(a.area(), area);
                    assert_eq!(a.offset(), offset);
                    assert_eq!(Address::from_raw(a.raw()), Some(a));
                }
            }
        }
    }

    /// `from_raw` over the whole 3-bit area field: the five valid
    /// encodings decode to their area, and the three invalid encodings
    /// (5, 6, 7) are rejected — for every process and representative
    /// offset, so a flipped area bit in a persisted trace can never
    /// resurface as a different valid address.
    #[test]
    fn from_raw_covers_all_eight_area_encodings() {
        for p in 0..4u32 {
            for offset in [0u32, 1, OFFSET_MASK] {
                for area_bits in 0..8u32 {
                    let raw = (p << PROC_SHIFT) | (area_bits << AREA_SHIFT) | offset;
                    match Address::from_raw(raw) {
                        Some(a) => {
                            assert!(
                                (area_bits as usize) < AREA_COUNT,
                                "invalid area {area_bits} decoded"
                            );
                            assert_eq!(a.area().index(), area_bits as usize);
                            assert_eq!(a.process().get(), p as u8);
                            assert_eq!(a.offset(), offset);
                            assert_eq!(a.raw(), raw);
                        }
                        None => assert!(
                            (area_bits as usize) >= AREA_COUNT,
                            "valid area {area_bits} rejected"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_offset_panics() {
        let _ = Address::new(ProcessId::ZERO, Area::Heap, OFFSET_MASK + 1);
    }

    #[test]
    fn offset_arithmetic() {
        let a = Address::new(ProcessId::ZERO, Area::LocalStack, 100);
        assert_eq!(a.offset_by(5).offset(), 105);
    }

    #[test]
    fn distinct_areas_have_distinct_raw_spaces() {
        let a = Address::new(ProcessId::ZERO, Area::LocalStack, 0);
        let b = Address::new(ProcessId::ZERO, Area::GlobalStack, 0);
        assert_ne!(a.raw(), b.raw());
        let c = Address::new(ProcessId::new(1), Area::LocalStack, 0);
        assert_ne!(a.raw(), c.raw());
    }
}
