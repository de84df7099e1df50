//! Memory-reference trace records.

/// Kind of memory reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// A load (read). LLC misses issue `GetS`.
    Load,
    /// A store (write). The hierarchy fetches on write miss (Table IV) and
    /// acquires write permission via `GetX`.
    Store,
}

/// One memory reference of a core's instruction stream.
///
/// `inst_gap` is the number of non-memory instructions executed since the
/// previous memory reference of the same core; the timing model charges
/// them at the base CPI. This stands in for the instruction stream of the
/// trace-driven simulator (DESIGN.md substitution #2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Issuing core (0-based).
    pub core: u8,
    /// Load or store.
    pub op: Op,
    /// Byte address.
    pub addr: u64,
    /// Non-memory instructions preceding this reference.
    pub inst_gap: u32,
}

impl Access {
    /// Convenience constructor for a load with no instruction gap.
    pub fn load(core: u8, addr: u64) -> Self {
        Access {
            core,
            op: Op::Load,
            addr,
            inst_gap: 0,
        }
    }

    /// Convenience constructor for a store with no instruction gap.
    pub fn store(core: u8, addr: u64) -> Self {
        Access {
            core,
            op: Op::Store,
            addr,
            inst_gap: 0,
        }
    }

    /// Number of instructions this record accounts for (the gap plus the
    /// memory instruction itself).
    pub fn instructions(&self) -> u64 {
        u64::from(self.inst_gap) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let a = Access {
            inst_gap: 9,
            ..Access::load(2, 0x80)
        };
        assert_eq!(a.core, 2);
        assert_eq!(a.op, Op::Load);
        assert_eq!(a.instructions(), 10);
        assert_eq!(Access::store(0, 0).op, Op::Store);
    }
}
