//! Typed identifiers for every level of the topology hierarchy.
//!
//! Each identifier is a transparent `u32` index into the corresponding level
//! of a [`Topology`](crate::Topology). Newtypes keep a CCX index from being
//! used where a core index is expected — a real hazard in placement code that
//! juggles five kinds of index at once.

use core::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// The identifier as a plain index.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }

        impl From<$name> for u32 {
            fn from(v: $name) -> u32 {
                v.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// A logical CPU (hardware thread), the unit of scheduling.
    CpuId,
    "cpu"
);
id_type!(
    /// A physical core; holds one or two SMT threads.
    CoreId,
    "core"
);
id_type!(
    /// A core complex: the set of cores sharing one L3 cache slice.
    CcxId,
    "ccx"
);
id_type!(
    /// A core complex die (chiplet); contains one or more CCXs.
    CcdId,
    "ccd"
);
id_type!(
    /// A NUMA node: a memory domain with uniform local latency.
    NumaId,
    "numa"
);
id_type!(
    /// A physical socket (package).
    SocketId,
    "skt"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_types() {
        // This is a compile-time property; spot-check the conversions.
        let c = CpuId::from(3u32);
        assert_eq!(u32::from(c), 3);
        assert_eq!(c.index(), 3);
        assert_eq!(c.to_string(), "cpu3");
        assert_eq!(CcxId(7).to_string(), "ccx7");
        assert_eq!(SocketId(1).to_string(), "skt1");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(CpuId(1) < CpuId(2));
        assert_eq!(CoreId::default(), CoreId(0));
    }
}
