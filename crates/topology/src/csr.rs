//! Flat (compressed-sparse-row) adjacency for a [`SweepDag`].
//!
//! The validated [`SweepDag`] stores its relations as `Vec<Vec<Pos>>` — fine
//! for construction and validation, but a guard sweep over N=10⁵–10⁶
//! positions chases one heap pointer per position per relation. `CsrDag`
//! repacks the predecessor/successor/ownership relations into offset+data
//! pairs of `u32` so the hot loops walk three contiguous arrays, and keeps
//! the sink predicate as a flat bitmap. It is a pure view: building one
//! never re-validates, and every accessor agrees with the `SweepDag` it was
//! built from (checked by the round-trip tests).

use crate::sweep::{Pid, Pos, SweepDag};

/// One relation in CSR form: the targets of `i` are `dat[off[i]..off[i+1]]`.
#[derive(Debug, Clone)]
struct Csr {
    off: Vec<u32>,
    dat: Vec<u32>,
}

impl Csr {
    fn from_rows<'a>(rows: impl ExactSizeIterator<Item = &'a [Pos]>) -> Csr {
        let n = rows.len();
        let mut off = Vec::with_capacity(n + 1);
        let mut dat = Vec::new();
        off.push(0u32);
        for row in rows {
            for &x in row {
                dat.push(u32::try_from(x).expect("position id exceeds u32"));
            }
            off.push(u32::try_from(dat.len()).expect("adjacency exceeds u32"));
        }
        Csr { off, dat }
    }

    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        &self.dat[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// Cache-linear adjacency view of a [`SweepDag`], for the sweep program's
/// guard evaluation. Position/process ids are `u32` (a millionfold sweep
/// still fits with room to spare), halving the bytes the guards pull.
#[derive(Debug, Clone)]
pub struct CsrDag {
    preds: Csr,
    succs: Csr,
    positions_of: Csr,
    owner: Vec<u32>,
    sink_flag: Vec<bool>,
    sinks: Vec<u32>,
    num_processes: usize,
    critical_path: usize,
}

impl CsrDag {
    pub fn new(dag: &SweepDag) -> CsrDag {
        let p = dag.num_positions();
        let preds = Csr::from_rows((0..p).map(|pos| dag.preds(pos)));
        let succs = Csr::from_rows((0..p).map(|pos| dag.succs(pos)));
        let positions_of =
            Csr::from_rows((0..dag.num_processes()).map(|pid| dag.positions_of(pid)));
        let owner = (0..p)
            .map(|pos| u32::try_from(dag.owner(pos)).expect("pid exceeds u32"))
            .collect();
        let sink_flag = (0..p).map(|pos| dag.is_sink(pos)).collect();
        let sinks = dag
            .sinks()
            .iter()
            .map(|&s| u32::try_from(s).expect("position id exceeds u32"))
            .collect();
        CsrDag {
            preds,
            succs,
            positions_of,
            owner,
            sink_flag,
            sinks,
            num_processes: dag.num_processes(),
            critical_path: dag.critical_path(),
        }
    }

    pub const ROOT: Pos = SweepDag::ROOT;

    #[inline]
    pub fn num_positions(&self) -> usize {
        self.owner.len()
    }

    #[inline]
    pub fn num_processes(&self) -> usize {
        self.num_processes
    }

    #[inline]
    pub fn owner(&self, pos: Pos) -> Pid {
        self.owner[pos] as Pid
    }

    /// Positions owned by a process, ascending (as in the source DAG).
    #[inline]
    pub fn positions_of(&self, pid: Pid) -> &[u32] {
        self.positions_of.row(pid)
    }

    /// Predecessors read by `pos` (for the root: the sinks).
    #[inline]
    pub fn preds(&self, pos: Pos) -> &[u32] {
        self.preds.row(pos)
    }

    /// Successors that read `pos` (for a sink: includes the root).
    #[inline]
    pub fn succs(&self, pos: Pos) -> &[u32] {
        self.succs.row(pos)
    }

    #[inline]
    pub fn sinks(&self) -> &[u32] {
        &self.sinks
    }

    #[inline]
    pub fn is_sink(&self, pos: Pos) -> bool {
        self.sink_flag[pos]
    }

    #[inline]
    pub fn critical_path(&self) -> usize {
        self.critical_path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_round_trips(dag: &SweepDag) {
        let csr = CsrDag::new(dag);
        assert_eq!(csr.num_positions(), dag.num_positions());
        assert_eq!(csr.num_processes(), dag.num_processes());
        assert_eq!(csr.critical_path(), dag.critical_path());
        let sinks: Vec<usize> = csr.sinks().iter().map(|&s| s as usize).collect();
        assert_eq!(sinks, dag.sinks());
        for pos in 0..dag.num_positions() {
            assert_eq!(csr.owner(pos), dag.owner(pos));
            assert_eq!(csr.is_sink(pos), dag.is_sink(pos));
            let preds: Vec<usize> = csr.preds(pos).iter().map(|&q| q as usize).collect();
            assert_eq!(preds, dag.preds(pos));
            let succs: Vec<usize> = csr.succs(pos).iter().map(|&q| q as usize).collect();
            assert_eq!(succs, dag.succs(pos));
        }
        for pid in 0..dag.num_processes() {
            let ps: Vec<usize> = csr.positions_of(pid).iter().map(|&q| q as usize).collect();
            assert_eq!(ps, dag.positions_of(pid));
        }
    }

    #[test]
    fn ring_round_trips() {
        assert_round_trips(&SweepDag::ring(7).unwrap());
    }

    #[test]
    fn tree_round_trips() {
        assert_round_trips(&SweepDag::tree(13, 2).unwrap());
    }

    #[test]
    fn two_ring_round_trips() {
        assert_round_trips(&SweepDag::two_ring(4, 5).unwrap());
    }

    #[test]
    fn double_tree_round_trips() {
        assert_round_trips(&SweepDag::double_tree(11, 2).unwrap());
    }
}
