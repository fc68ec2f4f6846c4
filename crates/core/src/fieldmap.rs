//! The general exchange algorithm engine (paper Definitions 10–11).
//!
//! Every data rearrangement in the paper is a permutation of the roles of
//! the `m` matrix-address dimensions: which dimensions select the real
//! processor and which select the local (virtual-processor) address. A
//! [`FieldMap`] records the current role assignment; a [`MappedMatrix`]
//! couples it with per-node data and supports the three primitive moves:
//!
//! * [`MappedMatrix::exchange_real_virt`] — swap a real dimension with a
//!   virtual one: a distance-1 exchange of half of every node's data
//!   (one step of the standard/general exchange algorithm);
//! * [`MappedMatrix::swap_real_real`] — swap two real dimensions: the
//!   affected nodes relocate their whole array over a distance-2 path
//!   (Lemma 6's relocation); one (g, f) pair of the SPT algorithm;
//! * [`MappedMatrix::permute_virt`] — reassign virtual dimensions: local
//!   data movement (a shuffle of the local array), charged as copy time.
//!
//! Composing these primitives yields the one-dimensional transpose, the
//! §6.2 conversion algorithms, bit-reversal and every dimension
//! permutation — with the cost model charged exactly as the paper
//! analyzes each.
//!
//! # Charged primitives, one composed move
//!
//! A chain of primitives is one permutation of the matrix-address bits,
//! and a storage reinterpretation is done "implicitly by indirect
//! addressing" (§5). So a primitive only updates the role map and makes
//! exactly the claims a payload-carrying run would — the same rounds and
//! `(source, dimension, elements)` in the same order, through
//! [`SimNet::charge`] and [`SimNet::local_copy`], every net check with
//! its panic text. The elements stay where they were when the matrix was
//! built, in arrays it owns or borrows from the caller's [`DistMatrix`],
//! until reading them out runs the one composed move
//! ([`MappedMatrix::to_buffers`]) on the calling thread.

use std::borrow::Cow;

use cubeaddr::NodeId;
use cubecomm::BufferPolicy;
use cubelayout::{DistMatrix, Encoding, Layout};
use cubesim::SimNet;

/// [`BufferPolicy`] under the name the `perfbench` harness imports.
pub use cubecomm::BufferPolicy as SendPolicy;

/// Where the bits of the matrix address currently live: node address bits
/// (`real`) and local address bits (`virt`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FieldMap {
    /// `real[i]` = matrix-address dimension encoded by node-address bit `i`.
    real: Vec<u32>,
    /// `virt[j]` = matrix-address dimension encoded by local-address bit `j`.
    virt: Vec<u32>,
}

impl FieldMap {
    /// Builds a map from explicit role vectors.
    ///
    /// # Panics
    /// Unless `real ∪ virt` is a permutation of `0..(real.len()+virt.len())`.
    #[track_caller]
    pub fn new(real: Vec<u32>, virt: Vec<u32>) -> Self {
        let m = real.len() + virt.len();
        cubeaddr::check_dims(m as u32);
        let mut seen = vec![false; m];
        for &d in real.iter().chain(&virt) {
            assert!((d as usize) < m && !seen[d as usize], "roles are not a permutation");
            seen[d as usize] = true;
        }
        FieldMap { real, virt }
    }

    /// Derives the map from a binary-encoded [`Layout`].
    ///
    /// # Panics
    /// If any subfield uses Gray encoding (a Gray re-encoding is not a
    /// dimension-role permutation).
    #[track_caller]
    pub fn from_layout(layout: &Layout) -> Self {
        for g in layout.row_field().groups().iter().chain(layout.col_field().groups()) {
            assert_eq!(
                g.encoding,
                Encoding::Binary,
                "FieldMap requires binary encodings; convert Gray fields explicitly"
            );
        }
        let q = layout.q();
        // Node address = (row_proc || col_proc); both fields pack their
        // member dims in ascending order.
        let mut real: Vec<u32> = layout.col_field().dims().iter().collect();
        real.extend(layout.row_field().dims().iter().map(|d| d + q));
        // Local address = (vrow || vcol), vcol low.
        let mut virt: Vec<u32> = layout.col_field().dims().complement(q).iter().collect();
        virt.extend(layout.row_field().dims().complement(layout.p()).iter().map(|d| d + q));
        FieldMap::new(real, virt)
    }

    /// Number of real (node) dimensions.
    pub fn n(&self) -> u32 {
        self.real.len() as u32
    }

    /// Number of virtual (local) dimensions.
    pub fn vp(&self) -> u32 {
        self.virt.len() as u32
    }

    /// Total matrix-address bits.
    pub fn m(&self) -> u32 {
        self.n() + self.vp()
    }

    /// The matrix dimension behind node bit `i`.
    pub fn real_dim(&self, i: u32) -> u32 {
        self.real[i as usize]
    }

    /// The matrix dimension behind local bit `j`.
    pub fn virt_dim(&self, j: u32) -> u32 {
        self.virt[j as usize]
    }

    /// Finds the current role of matrix dimension `d`.
    pub fn locate(&self, d: u32) -> Role {
        if let Some(i) = self.real.iter().position(|&x| x == d) {
            Role::Real(i as u32)
        } else if let Some(j) = self.virt.iter().position(|&x| x == d) {
            Role::Virt(j as u32)
        } else {
            panic!("matrix dimension {d} outside this {}-bit map", self.m());
        }
    }

    /// Placement of the element with matrix address `w`.
    pub fn place(&self, w: u64) -> (NodeId, u64) {
        let mut node = 0u64;
        for (i, &d) in self.real.iter().enumerate() {
            node |= ((w >> d) & 1) << i;
        }
        let mut local = 0u64;
        for (j, &d) in self.virt.iter().enumerate() {
            local |= ((w >> d) & 1) << j;
        }
        (NodeId(node), local)
    }

    /// Inverse of [`FieldMap::place`].
    pub fn element_at(&self, node: NodeId, local: u64) -> u64 {
        let mut w = 0u64;
        for (i, &d) in self.real.iter().enumerate() {
            w |= ((node.bits() >> i) & 1) << d;
        }
        for (j, &d) in self.virt.iter().enumerate() {
            w |= ((local >> j) & 1) << d;
        }
        w
    }
}

/// Role of a matrix-address dimension in a [`FieldMap`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// Node-address bit position.
    Real(u32),
    /// Local-address bit position.
    Virt(u32),
}

/// A distributed data set governed by a [`FieldMap`].
///
/// The elements stay where they were when the matrix was built, placed
/// by its origin map; the primitives charge the net and update the
/// current map, and reading the data out moves it once (see the module
/// doc).
#[derive(Clone, Debug)]
pub struct MappedMatrix<'a, T: Clone> {
    /// The current role map.
    map: FieldMap,
    /// The role map the stored arrays are placed by.
    origin: FieldMap,
    /// `data[node][local]` under `origin`: adopted, or borrowed from the
    /// caller.
    data: Vec<Cow<'a, [T]>>,
}

impl<'a, T: Copy> MappedMatrix<'a, T> {
    /// Adopts existing per-node buffers (placement must already agree
    /// with `map`). Panics on shape mismatch.
    #[track_caller]
    pub fn from_buffers(map: FieldMap, data: Vec<Vec<T>>) -> Self {
        MappedMatrix::adopt(map, data.into_iter().map(Cow::Owned).collect())
    }

    /// Reads `m`'s per-node arrays in place, without copying them
    /// (placement must already agree with `map`). Panics on shape
    /// mismatch.
    #[track_caller]
    pub fn from_dist(map: FieldMap, m: &'a DistMatrix<T>) -> Self {
        let num = m.layout().num_nodes() as u64;
        MappedMatrix::adopt(map, (0..num).map(|x| Cow::Borrowed(m.node(NodeId(x)))).collect())
    }

    #[track_caller]
    fn adopt(map: FieldMap, data: Vec<Cow<'a, [T]>>) -> Self {
        let (n, vp) = (map.n(), map.vp());
        assert!(
            data.len() == 1 << n,
            "a map of {n} real dimensions needs {} node arrays, got {}",
            1usize << n,
            data.len()
        );
        for (x, d) in data.iter().enumerate() {
            assert!(
                d.len() == 1 << vp,
                "node {x} holds {} elements, the map's {vp} virtual dimensions need {}",
                d.len(),
                1usize << vp
            );
        }
        MappedMatrix { origin: map.clone(), map, data }
    }

    /// The current role map.
    pub fn map(&self) -> &FieldMap {
        &self.map
    }

    /// Staging elements held between primitives (a `perfbench` footprint
    /// stat): none, since the primitives move no data.
    pub fn pool_capacity_elems(&self) -> usize {
        0
    }

    /// Swaps real dimension position `i` with virtual position `j` — one
    /// step of the general exchange algorithm (distance-1 communication
    /// across cube dimension `i`, one-port legal): every node sends half
    /// of its data.
    ///
    /// The outgoing elements occupy `2^{vp-j-1}` contiguous runs of `2^j`
    /// elements in the local array; `policy` decides how the runs become
    /// messages (§8.1): one message with no copy charged (`Ideal`), one
    /// message per run, each in a round of its own (`Unbuffered`), or
    /// runs shorter than `min_direct` gathered into one message, copy
    /// charged on both the gather and the scatter side (`Buffered`).
    ///
    /// Panics if `i` or `j` is outside the map, naming it and its bound.
    #[track_caller]
    pub fn exchange_real_virt(
        &mut self,
        net: &mut SimNet<Vec<T>>,
        i: u32,
        j: u32,
        policy: BufferPolicy,
    ) {
        let (n, vp) = (self.map.n(), self.map.vp());
        assert!(i < n, "exchange of real position {i}: the map has {n} real dimensions");
        assert!(j < vp, "exchange of virtual position {j}: the map has {vp} virtual dimensions");
        let (half, run) = (1usize << (vp - 1), 1usize << j);
        let num = self.data.len() as u64;
        // One message of the whole half per node, or one synchronized
        // sub-round per run.
        let (rounds, elems) = match policy {
            BufferPolicy::Ideal => (1, half),
            BufferPolicy::Buffered { min_direct } if run < min_direct => {
                // Gather at the sender; the scatter on arrival is charged
                // symmetrically at the same node (its own gather covers
                // its send; its scatter covers its receive).
                for x in 0..num {
                    net.local_copy(NodeId(x), half);
                }
                (1, half)
            }
            _ => (half / run, run),
        };
        for _ in 0..rounds {
            for x in 0..num {
                net.charge(NodeId(x), i, elems);
            }
            net.finish_round();
        }
        std::mem::swap(&mut self.map.real[i as usize], &mut self.map.virt[j as usize]);
    }

    /// Swaps real dimension positions `i1` and `i2`: the nodes whose two
    /// address bits differ relocate their entire local array over a
    /// distance-2 path (first across `i1`, then `i2`) — Lemma 6's
    /// real/real exchange, two one-port rounds, charged in source-node
    /// order as the flight executor charges a relocation. Panics if `i1`
    /// or `i2` is outside the map, naming it and its bound, or if they are
    /// equal.
    #[track_caller]
    pub fn swap_real_real(&mut self, net: &mut SimNet<Vec<T>>, i1: u32, i2: u32) {
        let n = self.map.n();
        for i in [i1, i2] {
            assert!(i < n, "swap of real position {i}: the map has {n} real dimensions");
        }
        assert!(i1 != i2, "swap of real position {i1} with itself");
        assert!(
            self.data.len() == net.num_nodes(),
            "swap on a net of {} nodes: the map has {}",
            net.num_nodes(),
            self.data.len()
        );
        let per = 1usize << self.map.vp();
        let num = self.data.len() as u64;
        let moves = |x: &u64| ((x >> i1) ^ (x >> i2)) & 1 == 1;
        for x in (0..num).filter(moves) {
            net.charge(NodeId(x), i1, per);
        }
        net.finish_round();
        for x in (0..num).filter(moves) {
            net.charge(NodeId(x).neighbor(i1), i2, per);
        }
        net.finish_round();
        self.map.real.swap(i1 as usize, i2 as usize);
    }

    /// Re-labels the virtual dimensions without charging any cost: local
    /// bit `j` of the new map reads matrix dimension `virt[perm[j]]` of
    /// the old one.
    ///
    /// This models a change of *storage interpretation* ("implicitly by
    /// indirect addressing", §5): it is free in the model and on the host
    /// alike, since only the map changes. Use
    /// [`MappedMatrix::permute_virt`] when the rearrangement should be
    /// charged as an explicit copy.
    /// Panics unless `perm` is a permutation of the virtual positions.
    #[track_caller]
    pub fn relabel_virt(&mut self, perm: &[u32]) {
        self.apply_virt_perm(perm);
    }

    /// Applies a permutation of the virtual dimensions: local bit `j` of
    /// the new map reads matrix dimension `virt[perm[j]]` of the old one.
    /// Explicit local data movement: unless `perm` is the identity, every
    /// node is charged a full-array copy. Panics as
    /// [`MappedMatrix::relabel_virt`] does.
    #[track_caller]
    pub fn permute_virt(&mut self, net: &mut SimNet<Vec<T>>, perm: &[u32]) {
        if self.apply_virt_perm(perm) {
            let per = 1usize << self.map.vp();
            for x in 0..self.data.len() as u64 {
                net.local_copy(NodeId(x), per);
            }
        }
    }

    /// Shared implementation: permutes the map's virtual roles; returns
    /// true when the permutation was not the identity.
    #[track_caller]
    fn apply_virt_perm(&mut self, perm: &[u32]) -> bool {
        let vp = self.map.vp();
        assert!(
            perm.len() as u32 == vp,
            "permutation of {} virtual positions: the map has {vp} virtual dimensions",
            perm.len()
        );
        // vp ≤ MAX_DIMS < 64: one bit per position.
        let seen = perm.iter().fold(0u64, |seen, &jo| seen | 1u64.checked_shl(jo).unwrap_or(0));
        assert!(
            seen == (1u64 << vp) - 1,
            "{perm:?} is not a permutation of the {vp} virtual positions"
        );
        if perm.iter().enumerate().all(|(j, &p)| j as u32 == p) {
            return false;
        }
        self.map.virt = perm.iter().map(|&jo| self.map.virt[jo as usize]).collect();
        true
    }

    /// Rearranges the data until its role map equals `target`, using a
    /// greedy plan: bring each target real dimension into place (by a
    /// real/virt exchange or a real/real swap), then fix the virtual
    /// ordering with one local permutation.
    ///
    /// Returns the number of communication steps used (exchanges count 1,
    /// swaps 2).
    #[track_caller]
    pub fn rearrange_to(
        &mut self,
        net: &mut SimNet<Vec<T>>,
        target: &FieldMap,
        policy: BufferPolicy,
    ) -> usize {
        let (n, vp) = (self.map.n(), self.map.vp());
        assert!(
            (n, vp) == (target.n(), target.vp()),
            "rearrange to a map of {} real and {} virtual dimensions: this map has {n} and {vp}",
            target.n(),
            target.vp()
        );
        let mut steps = 0;
        for i in 0..target.n() {
            let want = target.real_dim(i);
            match self.map.locate(want) {
                Role::Real(cur) if cur == i => {}
                Role::Real(cur) => {
                    self.swap_real_real(net, i, cur);
                    steps += 2;
                }
                Role::Virt(j) => {
                    self.exchange_real_virt(net, i, j, policy);
                    steps += 1;
                }
            }
        }
        // Local fix-up of the virtual ordering.
        let perm: Vec<u32> = (0..target.vp())
            .map(|jn| match self.map.locate(target.virt_dim(jn)) {
                Role::Virt(jo) => jo,
                Role::Real(_) => unreachable!("real roles already fixed"),
            })
            .collect();
        self.permute_virt(net, &perm);
        debug_assert_eq!(&self.map, target);
        steps
    }
}

impl<T: Copy + Default> MappedMatrix<'_, T> {
    /// Builds the matrix by evaluating `f(w)` for every matrix address.
    pub fn from_fn(map: FieldMap, mut f: impl FnMut(u64) -> T) -> Self {
        let num = cubeaddr::num_nodes(map.n());
        let per = 1usize << map.vp();
        let mut data = vec![vec![T::default(); per]; num];
        for w in 0..(1u64 << map.m()) {
            let (node, local) = map.place(w);
            data[node.index()][local as usize] = f(w);
        }
        MappedMatrix::from_buffers(map, data)
    }

    /// Consumes into per-node buffers (node order) placed by the current
    /// map: the stored arrays themselves when the map never changed,
    /// else [`MappedMatrix::to_buffers`].
    pub fn into_buffers(self) -> Vec<Vec<T>> {
        if self.map == self.origin {
            return self.data.into_iter().map(Cow::into_owned).collect();
        }
        self.to_buffers()
    }

    /// Per-node buffers (node order) placed by the current map, written
    /// by one permutation of the address bits, from the build-time map to
    /// the current one, run per source node.
    ///
    /// The destination's low `t` local bits whose dimensions are local at
    /// the source too span *runs* of `2^t` elements. One local
    /// permutation into a scratch shared by all source nodes brings those
    /// bits to the bottom in destination order (a rotation of the local
    /// address runs on the register-tiled
    /// [`crate::local::transpose_flat_blocked_into`]); then each run is
    /// one block copy. Source nodes and runs are taken in the order their
    /// bits land in the destination, so the sources that fill one
    /// destination page follow each other. When a source node bit feeds
    /// the destination's local bit 0, `t = 0` and a run is one element.
    pub fn to_buffers(&self) -> Vec<Vec<T>> {
        compose_move(&self.origin, &self.map, &self.data)
    }
}

/// [`MappedMatrix::to_buffers`]: writes `data`, placed by `from`, into
/// fresh arrays placed by `to`. The scratch permutation keeps the bits
/// above the run ascending, so it is a rotation whenever the run bits
/// sit at the top of the source's local address, in order.
fn compose_move<T: Copy + Default>(
    from: &FieldMap,
    to: &FieldMap,
    data: &[Cow<'_, [T]>],
) -> Vec<Vec<T>> {
    let vp = from.vp();
    let per = 1usize << vp;
    let local_at_source = |d: u32| match from.locate(d) {
        Role::Virt(j) => Some(j),
        Role::Real(_) => None,
    };
    let mut perm: Vec<u32> = to.virt.iter().map_while(|&d| local_at_source(d)).collect();
    let run = 1usize << perm.len();
    let above_run = perm.len() as u32..vp;
    let rest: Vec<u32> = (0..vp).filter(|j| !perm.contains(j)).collect();
    perm.extend(rest);
    let plan = perm.iter().enumerate().any(|(k, &j)| k as u32 != j).then(|| PermPlan::build(&perm));
    // Bit of a dimension in the destination's address `node << vp |
    // local`; `(landing bit, source bit)` pairs are sorted by it.
    let landing = |d: u32| match to.locate(d) {
        Role::Real(i) => vp + i,
        Role::Virt(j) => j,
    };
    let mut sources: Vec<(u32, u32)> =
        (0..from.n()).map(|b| (landing(from.real[b as usize]), b)).collect();
    let mut high: Vec<(u32, u32)> =
        above_run.map(|k| (landing(from.virt[perm[k as usize] as usize]), k)).collect();
    sources.sort_unstable();
    high.sort_unstable();
    let (low_half, high_half) = high.split_at(high.len() / 2);
    let (inner, outer) = (deposits(low_half), deposits(high_half));

    let mut out: Vec<Vec<T>> = (0..data.len()).map(|_| vec![T::default(); per]).collect();
    let mut scratch = Vec::new();
    for (x, base) in deposits(&sources) {
        let src: &[T] = match &plan {
            Some(plan) => {
                plan.apply(&data[x], &mut scratch);
                &scratch
            }
            None => &data[x],
        };
        for &(s_hi, g_hi) in &outer {
            for &(s_lo, g_lo) in &inner {
                let (s, g) = (s_hi | s_lo, base | g_hi | g_lo);
                let (y, l) = ((g >> vp) as usize, g as usize & (per - 1));
                out[y][l..l + run].copy_from_slice(&src[s..s + run]);
            }
        }
    }
    out
}

/// The `(source offset, destination address)` pairs spanned by `bits`
/// (`(destination bit, source bit)`, ascending by destination bit), in
/// ascending destination order.
fn deposits(bits: &[(u32, u32)]) -> Vec<(usize, u64)> {
    let mut table = vec![(0usize, 0u64)];
    for &(g, s) in bits {
        let len = table.len();
        for e in 0..len {
            let (so, go) = table[e];
            table.push((so | 1 << s, go | 1 << g));
        }
    }
    table
}

/// Precomputed, node-independent realization of a local-address
/// permutation, shared by every source node in [`compose_move`].
enum PermPlan {
    /// The permutation rotates the local address by `a` positions
    /// (`perm[j] = (j + a) mod vp`): equivalent to transposing the local
    /// array viewed as a row-major `rows × cols` matrix, dispatched to the
    /// tiled kernel of [`crate::local`].
    Transpose {
        /// `2^{vp-a}` rows of the equivalent local matrix.
        rows: usize,
        /// `2^a` columns.
        cols: usize,
    },
    /// The permutation fixes the low `log2(run)` local bits: the new
    /// array is a sequence of `run`-element block moves reading these old
    /// start offsets in order.
    Runs {
        /// Old-array start offset of each block, in new-array order.
        starts: Vec<u32>,
        /// Block length in elements.
        run: usize,
    },
    /// General case: `new[l] = old[table[l]]`, one shared relocation
    /// table.
    Gather {
        /// Old-array index read for each new-array index.
        table: Vec<u32>,
    },
}

impl PermPlan {
    /// Classifies `perm` (not the identity) into the cheapest realization.
    fn build(perm: &[u32]) -> PermPlan {
        let vp = perm.len() as u32;
        let per = 1usize << vp;
        // The element at old local l lands at the new local whose bit jn
        // is l's bit perm[jn]; inverted, new index l reads old index
        // gather(l) with bit perm[jn] = l's bit jn.
        let gather = |l: usize| -> usize {
            let mut g = 0usize;
            for (jn, &jo) in perm.iter().enumerate() {
                g |= ((l >> jn) & 1) << jo;
            }
            g
        };
        if let Some(a) =
            (1..vp).find(|&a| perm.iter().enumerate().all(|(jn, &jo)| jo == (jn as u32 + a) % vp))
        {
            return PermPlan::Transpose { rows: 1usize << (vp - a), cols: 1usize << a };
        }
        let fixed = perm.iter().enumerate().take_while(|&(jn, &jo)| jn as u32 == jo).count();
        let run = 1usize << fixed;
        if run > 1 {
            let starts = (0..per / run).map(|b| gather(b * run) as u32).collect();
            return PermPlan::Runs { starts, run };
        }
        PermPlan::Gather { table: (0..per).map(|l| gather(l) as u32).collect() }
    }

    /// Fills `fresh` (cleared first, capacity reused) with the
    /// permutation of `old`.
    fn apply<T: Copy>(&self, old: &[T], fresh: &mut Vec<T>) {
        fresh.clear();
        match self {
            PermPlan::Transpose { rows, cols } => {
                crate::local::transpose_flat_blocked_into(old, *rows, *cols, 64, fresh);
            }
            PermPlan::Runs { starts, run } => {
                fresh.reserve(old.len());
                for &s in starts {
                    fresh.extend_from_slice(&old[s as usize..s as usize + run]);
                }
            }
            PermPlan::Gather { table } => {
                fresh.extend(table.iter().map(|&g| old[g as usize]));
            }
        }
    }
}

/// Builds the label matrix for a map (element `w` carries value `w`).
pub fn label_mapped(map: FieldMap) -> MappedMatrix<'static, u64> {
    MappedMatrix::<u64>::from_fn(map, |w| w)
}

/// Asserts that `m`'s labels agree with its role map: the element at
/// every (node, local) position of the data read out is the address the
/// map says lives there. Returns the first mismatch as
/// `(node, local, found)`.
pub fn check_labels(m: &MappedMatrix<'_, u64>) -> Option<(u64, u64, u64)> {
    for (x, arr) in m.to_buffers().iter().enumerate() {
        for (l, &found) in arr.iter().enumerate() {
            let (x, l) = (x as u64, l as u64);
            if found != m.map().element_at(NodeId(x), l) {
                return Some((x, l, found));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesim::{MachineParams, PortMode};

    fn unit_net(n: u32) -> SimNet<Vec<u64>> {
        SimNet::new(n, MachineParams::unit(PortMode::OnePort))
    }

    fn map_2_2() -> FieldMap {
        // m = 4: real = dims {0, 1}, virt = dims {2, 3}.
        FieldMap::new(vec![0, 1], vec![2, 3])
    }

    #[test]
    fn place_element_roundtrip() {
        let map = FieldMap::new(vec![2, 0], vec![3, 1]);
        for w in 0..16u64 {
            let (x, l) = map.place(w);
            assert_eq!(map.element_at(x, l), w);
        }
        // Spot check: w = 0b1101 → node bits (w2, w0) = (1, 1) → node 0b11;
        // local bits (w3, w1) = (1, 0) → local 0b01.
        assert_eq!(map.place(0b1101), (NodeId(0b11), 0b01));
    }

    #[test]
    fn from_layout_agrees_with_layout() {
        use cubelayout::{Assignment, Direction};
        for layout in [
            Layout::one_dim(3, 3, Direction::Cols, 2, Assignment::Cyclic, Encoding::Binary),
            Layout::one_dim(2, 4, Direction::Rows, 2, Assignment::Consecutive, Encoding::Binary),
            Layout::square(3, 3, 2, Assignment::Cyclic, Encoding::Binary),
            Layout::square(2, 2, 1, Assignment::Consecutive, Encoding::Binary),
        ] {
            let map = FieldMap::from_layout(&layout);
            for (u, v) in layout.elements() {
                let w = cubeaddr::concat(u, v, layout.q());
                let pl = layout.place(u, v);
                assert_eq!(map.place(w), (pl.node, pl.local), "layout {layout:?} w={w:#b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "binary encodings")]
    fn gray_layout_rejected() {
        use cubelayout::Assignment;
        let l = Layout::square(2, 2, 1, Assignment::Cyclic, Encoding::Gray);
        let _ = FieldMap::from_layout(&l);
    }

    #[test]
    fn exchange_real_virt_preserves_labels() {
        for policy in [
            BufferPolicy::Ideal,
            BufferPolicy::Unbuffered,
            BufferPolicy::Buffered { min_direct: 2 },
        ] {
            let mut m = label_mapped(map_2_2());
            let mut net = unit_net(2);
            m.exchange_real_virt(&mut net, 0, 1, policy);
            assert_eq!(m.map().real_dim(0), 3);
            assert_eq!(m.map().virt_dim(1), 0);
            assert_eq!(check_labels(&m), None, "policy {policy:?}");
            net.finalize();
        }
    }

    #[test]
    fn exchange_moves_half_the_data() {
        let mut m = label_mapped(map_2_2());
        let mut net = unit_net(2);
        m.exchange_real_virt(&mut net, 1, 0, BufferPolicy::Ideal);
        let r = net.finalize();
        assert_eq!(r.rounds, 1);
        // Each node sent half of its 4 elements.
        assert_eq!(r.critical_elems, 2);
        assert_eq!(r.total_elems, 2 * 4);
    }

    #[test]
    fn swap_real_real_distance_two() {
        let mut m = label_mapped(map_2_2());
        let mut net = unit_net(2);
        m.swap_real_real(&mut net, 0, 1);
        assert_eq!(check_labels(&m), None);
        let r = net.finalize();
        assert_eq!(r.rounds, 2);
        // Half the nodes (01 and 10) moved their full arrays.
        assert_eq!(r.total_elems, 2 * 4 * 2); // 2 nodes × 4 elems × 2 hops
    }

    #[test]
    fn permute_virt_local_only() {
        let mut m = label_mapped(map_2_2());
        let mut net = unit_net(2);
        m.permute_virt(&mut net, &[1, 0]);
        assert_eq!(m.map().virt_dim(0), 3);
        assert_eq!(check_labels(&m), None);
        net.finish_round();
        let r = net.finalize();
        assert_eq!(r.total_elems, 0);
    }

    /// Footprint gate (a deterministic budget in the sense of ROADMAP
    /// item 4): a permutation is charged, not staged — the matrix holds
    /// no buffer between primitives.
    #[test]
    fn permutation_holds_no_buffer() {
        let vp = 12u32;
        let rotation: Vec<u32> = (6..vp).chain(0..6).collect();
        let mut m = label_mapped(FieldMap::new(vec![0, 1, 2], (3..3 + vp).collect()));
        let mut net = SimNet::new(3, MachineParams::unit(PortMode::OnePort).with_t_copy(0.5));
        m.permute_virt(&mut net, &rotation);
        assert_eq!(m.pool_capacity_elems(), 0, "staging held after a permutation");
        assert_eq!(check_labels(&m), None);
        net.finish_round();
        assert!(net.finalize().copy_time > 0.0, "the model still charges the copy");
    }

    /// Footprint gate, as above: an exchange that sends every run as its
    /// own message charges one sub-round per run and holds no message
    /// buffer.
    #[test]
    fn direct_exchange_holds_no_buffer() {
        let (n, vp, j) = (3u32, 12u32, 7u32);
        let (per, run) = (1usize << vp, 1usize << j);
        assert_eq!(per / (2 * run), 16, "runs per node");
        let mut m = label_mapped(FieldMap::new((0..n).collect(), (n..n + vp).collect()));
        let mut net = unit_net(n);
        let rotation: Vec<u32> = (6..vp).chain(0..6).collect();
        m.permute_virt(&mut net, &rotation);
        m.exchange_real_virt(&mut net, 1, j, BufferPolicy::Buffered { min_direct: run });
        assert_eq!(m.pool_capacity_elems(), 0, "staging held after an exchange");
        assert_eq!(check_labels(&m), None);
        assert_eq!(net.finalize().rounds, 16, "one sub-round per run");
    }

    #[test]
    #[should_panic(expected = "exchange of real position 2: the map has 2 real dimensions")]
    fn exchange_names_its_real_position() {
        label_mapped(map_2_2()).exchange_real_virt(&mut unit_net(2), 2, 0, BufferPolicy::Ideal);
    }

    #[test]
    #[should_panic(expected = "exchange of virtual position 5: the map has 2 virtual dimensions")]
    fn exchange_names_its_virtual_position() {
        label_mapped(map_2_2()).exchange_real_virt(&mut unit_net(2), 0, 5, BufferPolicy::Ideal);
    }

    #[test]
    #[should_panic(expected = "swap of real position 3: the map has 2 real dimensions")]
    fn swap_names_its_real_position() {
        label_mapped(map_2_2()).swap_real_real(&mut unit_net(2), 0, 3);
    }

    #[test]
    #[should_panic(expected = "swap of real position 1 with itself")]
    fn swap_with_itself_rejected() {
        label_mapped(map_2_2()).swap_real_real(&mut unit_net(2), 1, 1);
    }

    #[test]
    #[should_panic(expected = "a map of 2 real dimensions needs 4 node arrays, got 3")]
    fn from_buffers_names_its_node_count() {
        MappedMatrix::from_buffers(map_2_2(), vec![vec![0u64; 4]; 3]);
    }

    #[test]
    #[should_panic(expected = "node 2 holds 3 elements, the map's 2 virtual dimensions need 4")]
    fn from_buffers_names_a_short_node() {
        let mut data = vec![vec![0u64; 4]; 4];
        data[2].pop();
        MappedMatrix::from_buffers(map_2_2(), data);
    }

    #[test]
    #[should_panic(expected = "swap on a net of 8 nodes: the map has 4")]
    fn swap_names_a_net_of_another_size() {
        label_mapped(map_2_2()).swap_real_real(&mut unit_net(3), 0, 1);
    }

    #[test]
    #[should_panic(
        expected = "rearrange to a map of 3 real and 1 virtual dimensions: this map has 2 and 2"
    )]
    fn rearrange_names_a_map_of_another_shape() {
        let target = FieldMap::new(vec![0, 1, 2], vec![3]);
        label_mapped(map_2_2()).rearrange_to(&mut unit_net(2), &target, BufferPolicy::Ideal);
    }

    #[test]
    #[should_panic(expected = "[1, 1] is not a permutation of the 2 virtual positions")]
    fn permute_virt_rejects_a_non_permutation() {
        label_mapped(map_2_2()).permute_virt(&mut unit_net(2), &[1, 1]);
    }

    #[test]
    #[should_panic(
        expected = "permutation of 3 virtual positions: the map has 2 virtual dimensions"
    )]
    fn permute_virt_rejects_a_permutation_of_another_length() {
        label_mapped(map_2_2()).permute_virt(&mut unit_net(2), &[0, 1, 2]);
    }

    #[test]
    fn identity_permute_virt_free() {
        let mut m = label_mapped(map_2_2());
        let mut net = unit_net(2);
        m.permute_virt(&mut net, &[0, 1]);
        net.finish_round();
        assert_eq!(net.finalize().copy_time, 0.0);
    }

    #[test]
    fn rearrange_to_arbitrary_map() {
        // 3 real + 3 virt dims; scramble everything.
        let start = FieldMap::new(vec![0, 1, 2], vec![3, 4, 5]);
        let target = FieldMap::new(vec![5, 0, 4], vec![2, 3, 1]);
        let mut m = label_mapped(start);
        let mut net: SimNet<Vec<u64>> = SimNet::new(3, MachineParams::unit(PortMode::OnePort));
        let steps = m.rearrange_to(&mut net, &target, BufferPolicy::Ideal);
        assert_eq!(check_labels(&m), None);
        assert_eq!(m.map(), &target);
        assert!(steps <= 6, "{steps} steps");
        net.finalize();
    }

    #[test]
    fn corollary4_one_element_per_node_transpose() {
        // N = PQ = 2^m processors (no virtual dimensions): the transpose
        // is m/2 exchanges, each over distance two (Corollary 4) — the
        // lower bound of Corollary 2.
        let m_bits = 6u32;
        let start = FieldMap::new((0..m_bits).collect(), vec![]);
        let target =
            FieldMap::new((0..m_bits).map(|i| (i + m_bits / 2) % m_bits).collect(), vec![]);
        let mut mm = label_mapped(start);
        let mut net: SimNet<Vec<u64>> = SimNet::new(m_bits, MachineParams::unit(PortMode::OnePort));
        let steps = mm.rearrange_to(&mut net, &target, BufferPolicy::Ideal);
        assert_eq!(check_labels(&mm), None);
        // m/2 real/real swaps, 2 rounds each.
        assert_eq!(steps, m_bits as usize);
        let r = net.finalize();
        assert_eq!(r.rounds, m_bits as usize);
        // Every element traverses its two dimensions: Hamming((u‖v),(v‖u))
        // = 2 per swap (Lemma 5).
        assert!(r.total_elems > 0);
    }

    #[test]
    fn standard_exchange_transpose_via_rearrange() {
        // 1D transpose, p = q = 2, n = 2, consecutive columns: real dims
        // before = {v1, v0} (w-dims 3, 2... for column-consecutive with
        // q = 2, n = 2 the column dims are {0,1} shifted — use cyclic for
        // simplicity): real before = {0, 1}; after the transpose the real
        // dims are the u-dims {2, 3}.
        let before = FieldMap::new(vec![0, 1], vec![2, 3]);
        let after = FieldMap::new(vec![2, 3], vec![0, 1]);
        let mut m = label_mapped(before);
        let mut net = unit_net(2);
        let steps = m.rearrange_to(&mut net, &after, BufferPolicy::Ideal);
        assert_eq!(steps, 2); // n exchange steps.
        assert_eq!(check_labels(&m), None);
        let r = net.finalize();
        assert_eq!(r.rounds, 2);
        // T = n(M/2·t_c + τ) with M = 4: 2·(2 + 1) = 6.
        assert_eq!(r.time, 6.0);
    }
}
