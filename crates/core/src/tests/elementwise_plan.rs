//! The element-wise transfer planner the ORB used before strided plans:
//! walk every index, ask both templates for its owner, coalesce maximal runs
//! of constant `(src, dst)`. O(len) and allocation-heavy, but obviously
//! right — kept as the oracle the strided planner is checked against.

use crate::dist::Distribution;

/// Elements `[start, start + count)` move from thread `src` to thread `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ElemPiece {
    pub start: u64,
    pub count: u64,
    pub src: usize,
    pub dst: usize,
}

/// The plan as maximal runs, ascending by global index.
pub(crate) fn plan_elementwise(
    len: u64,
    src_dist: &Distribution,
    src_n: usize,
    dst_dist: &Distribution,
    dst_n: usize,
) -> Vec<ElemPiece> {
    let mut pieces: Vec<ElemPiece> = Vec::new();
    for idx in 0..len {
        let src = src_dist.owner(len, src_n, idx);
        let dst = dst_dist.owner(len, dst_n, idx);
        match pieces.last_mut() {
            Some(p) if p.src == src && p.dst == dst => p.count += 1,
            _ => pieces.push(ElemPiece { start: idx, count: 1, src, dst }),
        }
    }
    pieces
}
