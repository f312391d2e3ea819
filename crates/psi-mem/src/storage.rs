//! Word storage for every (process, area) pair.

use psi_core::{Address, Area, ProcessId, PsiError, Result, Word, AREA_COUNT};

/// Default growth limit per area, in words.
const DEFAULT_AREA_LIMIT: usize = 1 << 24;

/// Raw word storage for the five areas of up to four processes.
///
/// Storage grows on demand (writes one past the end extend the area,
/// which is how stack pushes materialize); reads beyond the written
/// extent are errors, catching interpreter bugs early.
#[derive(Debug, Clone)]
pub struct Memory {
    areas: Vec<Vec<Word>>, // indexed by process * AREA_COUNT + area
    limit: usize,
}

impl Memory {
    /// Creates an empty memory with the default per-area growth limit.
    pub fn new() -> Memory {
        Memory::with_limit(DEFAULT_AREA_LIMIT)
    }

    /// Creates an empty memory with an explicit per-area limit in
    /// words. Exceeding the limit raises
    /// [`PsiError::StackOverflow`].
    pub fn with_limit(limit: usize) -> Memory {
        Memory {
            areas: vec![Vec::new(); ProcessId::MAX_PROCESSES * AREA_COUNT],
            limit,
        }
    }

    #[inline]
    fn slot(&self, addr: Address) -> usize {
        addr.process().index() * AREA_COUNT + addr.area().index()
    }

    /// Reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`PsiError::OutOfArea`] if `addr` is beyond the written
    /// extent of its area.
    #[inline]
    pub fn read(&self, addr: Address) -> Result<Word> {
        let area = &self.areas[self.slot(addr)];
        match area.get(addr.offset() as usize) {
            Some(&w) => Ok(w),
            None => Err(Self::out_of_area(addr)),
        }
    }

    /// Cold error constructor, kept out of the inlined read path (the
    /// `format!` machinery would otherwise bloat every call site).
    #[cold]
    #[inline(never)]
    fn out_of_area(addr: Address) -> PsiError {
        PsiError::OutOfArea {
            access: format!("read {addr}"),
        }
    }

    /// Writes `word` at `addr`, growing the area if `addr` is at or
    /// past the current extent.
    ///
    /// # Errors
    ///
    /// Returns [`PsiError::StackOverflow`] if growth would exceed the
    /// configured limit.
    #[inline]
    pub fn write(&mut self, addr: Address, word: Word) -> Result<()> {
        let slot = self.slot(addr);
        let area = &mut self.areas[slot];
        let off = addr.offset() as usize;
        if let Some(cell) = area.get_mut(off) {
            *cell = word;
            Ok(())
        } else if off == area.len() && off < self.limit {
            // Write exactly at the extent: a stack push. Hot — every
            // trail/stack push lands here — so it stays inline.
            area.push(word);
            Ok(())
        } else {
            self.write_grow(addr, word)
        }
    }

    /// Out-of-line slow half of [`Memory::write`]: a write past the
    /// extent with a gap (materializes the undef cells in between) or
    /// one that exceeds the configured limit.
    #[cold]
    #[inline(never)]
    fn write_grow(&mut self, addr: Address, word: Word) -> Result<()> {
        let limit = self.limit;
        let slot = self.slot(addr);
        let area = &mut self.areas[slot];
        let off = addr.offset() as usize;
        if off >= limit {
            return Err(PsiError::StackOverflow {
                area: addr.area().label(),
                limit,
            });
        }
        area.resize(off + 1, Word::undef());
        area[off] = word;
        Ok(())
    }

    /// The written extent of `area` for `process`, in words.
    pub fn extent(&self, process: ProcessId, area: Area) -> u32 {
        self.areas[process.index() * AREA_COUNT + area.index()].len() as u32
    }

    /// Truncates `area` of `process` to `len` words (stack pop en
    /// masse, used when backtracking discards stack tops).
    pub fn truncate(&mut self, process: ProcessId, area: Area, len: u32) {
        let a = &mut self.areas[process.index() * AREA_COUNT + area.index()];
        if (len as usize) < a.len() {
            a.truncate(len as usize);
        }
    }
}

impl Default for Memory {
    fn default() -> Memory {
        Memory::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(area: Area, off: u32) -> Address {
        Address::new(ProcessId::ZERO, area, off)
    }

    #[test]
    fn write_then_read() {
        let mut m = Memory::new();
        let a = addr(Area::Heap, 10);
        m.write(a, Word::int(42)).unwrap();
        assert_eq!(m.read(a).unwrap().int_value(), Some(42));
        // Cells below the write exist but are undef.
        assert!(m.read(addr(Area::Heap, 5)).unwrap().is_undef());
    }

    #[test]
    fn read_beyond_extent_is_error() {
        let m = Memory::new();
        assert!(matches!(
            m.read(addr(Area::LocalStack, 0)),
            Err(PsiError::OutOfArea { .. })
        ));
    }

    #[test]
    fn areas_are_independent() {
        let mut m = Memory::new();
        m.write(addr(Area::LocalStack, 0), Word::int(1)).unwrap();
        m.write(addr(Area::GlobalStack, 0), Word::int(2)).unwrap();
        let other = Address::new(ProcessId::new(1), Area::LocalStack, 0);
        assert!(m.read(other).is_err(), "processes are independent too");
        assert_eq!(
            m.read(addr(Area::LocalStack, 0)).unwrap().int_value(),
            Some(1)
        );
        assert_eq!(
            m.read(addr(Area::GlobalStack, 0)).unwrap().int_value(),
            Some(2)
        );
    }

    #[test]
    fn limit_is_enforced() {
        let mut m = Memory::with_limit(16);
        assert!(m.write(addr(Area::TrailStack, 15), Word::nil()).is_ok());
        assert!(matches!(
            m.write(addr(Area::TrailStack, 16), Word::nil()),
            Err(PsiError::StackOverflow {
                area: "trail",
                limit: 16
            })
        ));
    }

    #[test]
    fn truncate_pops() {
        let mut m = Memory::new();
        for i in 0..8 {
            m.write(addr(Area::ControlStack, i), Word::int(i as i32))
                .unwrap();
        }
        m.truncate(ProcessId::ZERO, Area::ControlStack, 3);
        assert_eq!(m.extent(ProcessId::ZERO, Area::ControlStack), 3);
        assert!(m.read(addr(Area::ControlStack, 3)).is_err());
        assert_eq!(
            m.read(addr(Area::ControlStack, 2)).unwrap().int_value(),
            Some(2)
        );
    }
}
