//! Collective communication operations.
//!
//! * [`basic`] — the supporting cast (barrier, bcast, gather(v), scatterv,
//!   reduce, allreduce, allgather, alltoall) used by the PETSc layer's
//!   setup phases;
//! * [`allgatherv`] — `MPI_Allgatherv` with the baseline ring algorithm and
//!   the paper's outlier-aware recursive-doubling / dissemination designs
//!   (§4.2.1);
//! * [`alltoallw`] — `MPI_Alltoallw` with the baseline round-robin schedule
//!   and the paper's three-bin (zero-exempt, small-first) design (§4.2.2).

pub mod allgatherv;
pub mod alltoallw;
pub mod basic;
pub mod neighbor;
pub mod scan;

pub use allgatherv::AllgathervAlgorithm;
pub use alltoallw::{AlltoallwPlan, AlltoallwSchedule, WPeer};
pub use neighbor::NeighborExchange;

use ncd_simnet::Tag;

/// Identifiers keeping different collectives' wire traffic apart.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CollOp {
    Barrier = 1,
    Bcast = 2,
    Gather = 3,
    Scatter = 4,
    Reduce = 5,
    Allgatherv = 6,
    Alltoallw = 7,
    Alltoall = 8,
}

/// Tags in the collective range: bit 31 set, op in bits 24..31, phase in
/// the low bits. Per-(source, tag) FIFO matching plus distinct phases make
/// consecutive collectives safe without a sequence number.
pub(crate) fn coll_tag(op: CollOp, phase: u32) -> Tag {
    debug_assert!(phase < 1 << 24);
    Tag(0x8000_0000 | ((op as u32) << 24) | phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_distinct_per_op_and_phase() {
        let a = coll_tag(CollOp::Barrier, 0);
        let b = coll_tag(CollOp::Barrier, 1);
        let c = coll_tag(CollOp::Bcast, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert!(a.0 & 0x8000_0000 != 0);
    }
}
