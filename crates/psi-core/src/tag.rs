//! The 8-bit tag part of a PSI word.

use std::fmt;

/// The 8-bit tag of a PSI machine word.
///
/// Tags are split in two groups, mirroring the PSI instruction code
/// (§2.1): *runtime* tags describe values living on the stacks and
/// heap vectors, and *code* tags appear only inside machine-resident
/// clause code in the heap area.
///
/// ```
/// use psi_core::Tag;
/// assert!(Tag::List.is_pointer());
/// assert!(Tag::CodeList.is_code());
/// assert!(!Tag::Int.is_pointer());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Tag {
    // ------------------------------------------------------- runtime tags
    /// Unbound variable cell.
    Undef = 0x00,
    /// Bound reference to another cell.
    Ref = 0x01,
    /// Atom; data part is a [`SymbolId`](crate::SymbolId).
    Atom = 0x02,
    /// 32-bit signed integer.
    Int = 0x03,
    /// The empty list `[]`.
    Nil = 0x04,
    /// Pointer to a two-word cons cell `(car, cdr)`.
    List = 0x05,
    /// Pointer to a structure block: a functor word followed by the
    /// argument words.
    Vect = 0x06,
    /// Functor word heading a structure block: symbol id (24 bits) and
    /// arity (8 bits) packed in the data part.
    Functor = 0x07,
    /// Pointer to a rewritable heap vector (header word + elements),
    /// living in the shared heap area. Only the WINDOW workload uses
    /// these, exactly as the paper notes in §4.2.
    HeapVect = 0x08,

    // ---------------------------------------------------------- code tags
    /// Clause header word (arity + number of local variable slots).
    ClauseHead = 0x10,
    /// First occurrence of a local variable; data = slot index.
    FirstVar = 0x11,
    /// Subsequent occurrence of a local variable; data = slot index.
    LocalVar = 0x12,
    /// Singleton ("void") variable in a clause head.
    Void = 0x13,
    /// Static list skeleton in code; data = heap offset of the two
    /// skeleton words.
    CodeList = 0x14,
    /// Static structure skeleton in code; data = heap offset of the
    /// functor word.
    CodeVect = 0x15,
    /// Up to four 8-bit arguments packed into one word to save memory
    /// (§2.1 "up to four 8-bit arguments are packed into one word").
    Packed = 0x16,
    /// Goal header word; data = predicate table index and argument
    /// count.
    Goal = 0x17,
    /// Built-in predicate goal header; data = builtin id and argument
    /// count.
    BuiltinGoal = 0x18,
    /// Cut goal marker.
    CutGoal = 0x19,
    /// End-of-body sentinel.
    EndBody = 0x1A,

    // ------------------------------------------------------- control tags
    /// Word inside a 10-word control frame (environment or choice
    /// point).
    Ctl = 0x20,
    /// Trail stack entry: address of a cell to reset on backtracking.
    TrailRef = 0x21,
}

impl Tag {
    /// All tags, in declaration order. Useful for exhaustive tests.
    pub const ALL: [Tag; 20] = [
        Tag::Undef,
        Tag::Ref,
        Tag::Atom,
        Tag::Int,
        Tag::Nil,
        Tag::List,
        Tag::Vect,
        Tag::Functor,
        Tag::HeapVect,
        Tag::ClauseHead,
        Tag::FirstVar,
        Tag::LocalVar,
        Tag::Void,
        Tag::CodeList,
        Tag::CodeVect,
        Tag::Packed,
        Tag::Goal,
        Tag::BuiltinGoal,
        Tag::CutGoal,
        Tag::EndBody,
    ];

    /// Decodes a tag from its 8-bit encoding.
    ///
    /// Returns `None` for byte values that do not name a tag.
    pub fn from_u8(byte: u8) -> Option<Tag> {
        Some(match byte {
            0x00 => Tag::Undef,
            0x01 => Tag::Ref,
            0x02 => Tag::Atom,
            0x03 => Tag::Int,
            0x04 => Tag::Nil,
            0x05 => Tag::List,
            0x06 => Tag::Vect,
            0x07 => Tag::Functor,
            0x08 => Tag::HeapVect,
            0x10 => Tag::ClauseHead,
            0x11 => Tag::FirstVar,
            0x12 => Tag::LocalVar,
            0x13 => Tag::Void,
            0x14 => Tag::CodeList,
            0x15 => Tag::CodeVect,
            0x16 => Tag::Packed,
            0x17 => Tag::Goal,
            0x18 => Tag::BuiltinGoal,
            0x19 => Tag::CutGoal,
            0x1A => Tag::EndBody,
            0x20 => Tag::Ctl,
            0x21 => Tag::TrailRef,
            _ => return None,
        })
    }

    /// Returns the 8-bit encoding of the tag.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Is this tag a pointer into simulated memory (its data part is an
    /// [`Address`](crate::Address))?
    pub fn is_pointer(self) -> bool {
        matches!(
            self,
            Tag::Ref | Tag::List | Tag::Vect | Tag::HeapVect | Tag::TrailRef
        )
    }

    /// Is this a code-only tag (appears only in machine-resident clause
    /// code)?
    pub fn is_code(self) -> bool {
        (self as u8) >= 0x10 && (self as u8) < 0x20
    }

    /// Is this an atom tag?
    pub fn is_atom(self) -> bool {
        self == Tag::Atom
    }

    /// Is this tag an atomic (non-compound, non-variable) value?
    pub fn is_atomic_value(self) -> bool {
        matches!(self, Tag::Atom | Tag::Int | Tag::Nil)
    }

    /// The 3-bit tag used for *packed* 8-bit operands. The PSI packs a
    /// 3-bit tag inside each 8-bit packed operand (§4.4, branch op
    /// `case (irn)`); we expose the mapping used by the code generator.
    pub fn packed_tag(self) -> Option<u8> {
        Some(match self {
            Tag::Atom => 0,
            Tag::Int => 1,
            Tag::Nil => 2,
            Tag::FirstVar => 3,
            Tag::LocalVar => 4,
            Tag::Void => 5,
            _ => return None,
        })
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Tag::Undef => "undef",
            Tag::Ref => "ref",
            Tag::Atom => "atom",
            Tag::Int => "int",
            Tag::Nil => "nil",
            Tag::List => "list",
            Tag::Vect => "vect",
            Tag::Functor => "functor",
            Tag::HeapVect => "heap-vect",
            Tag::ClauseHead => "clause-head",
            Tag::FirstVar => "first-var",
            Tag::LocalVar => "local-var",
            Tag::Void => "void",
            Tag::CodeList => "code-list",
            Tag::CodeVect => "code-vect",
            Tag::Packed => "packed",
            Tag::Goal => "goal",
            Tag::BuiltinGoal => "builtin-goal",
            Tag::CutGoal => "cut-goal",
            Tag::EndBody => "end-body",
            Tag::Ctl => "ctl",
            Tag::TrailRef => "trail-ref",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_tags() {
        for tag in Tag::ALL {
            assert_eq!(Tag::from_u8(tag.as_u8()), Some(tag), "{tag}");
        }
        // control tags too
        assert_eq!(Tag::from_u8(0x20), Some(Tag::Ctl));
        assert_eq!(Tag::from_u8(0x21), Some(Tag::TrailRef));
    }

    #[test]
    fn unknown_bytes_are_rejected() {
        assert_eq!(Tag::from_u8(0xFF), None);
        assert_eq!(Tag::from_u8(0x0F), None);
        assert_eq!(Tag::from_u8(0x30), None);
    }

    #[test]
    fn pointer_classification() {
        assert!(Tag::Ref.is_pointer());
        assert!(Tag::List.is_pointer());
        assert!(Tag::Vect.is_pointer());
        assert!(Tag::HeapVect.is_pointer());
        assert!(!Tag::Atom.is_pointer());
        assert!(!Tag::Int.is_pointer());
        assert!(!Tag::Undef.is_pointer());
    }

    #[test]
    fn code_classification() {
        for tag in [
            Tag::ClauseHead,
            Tag::FirstVar,
            Tag::LocalVar,
            Tag::Void,
            Tag::CodeList,
            Tag::CodeVect,
            Tag::Packed,
            Tag::Goal,
            Tag::BuiltinGoal,
            Tag::CutGoal,
            Tag::EndBody,
        ] {
            assert!(tag.is_code(), "{tag}");
        }
        for tag in [Tag::Undef, Tag::Ref, Tag::Atom, Tag::Int, Tag::Nil] {
            assert!(!tag.is_code(), "{tag}");
        }
    }

    #[test]
    fn packed_tags_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for tag in Tag::ALL {
            if let Some(p) = tag.packed_tag() {
                assert!(p < 8, "packed tag must fit in 3 bits");
                assert!(seen.insert(p), "duplicate packed tag for {tag}");
            }
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn display_is_nonempty() {
        for tag in Tag::ALL {
            assert!(!tag.to_string().is_empty());
        }
    }
}
