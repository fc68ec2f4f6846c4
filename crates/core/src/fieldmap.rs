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
//!   (Lemma 6); one (g, f) pair of the SPT algorithm;
//! * [`MappedMatrix::permute_virt`] — reassign virtual dimensions: pure
//!   local data movement (a shuffle of the local array), charged as copy
//!   time.
//!
//! Composing these primitives yields the one-dimensional transpose, the
//! §6.2 conversion algorithms, bit-reversal and every dimension
//! permutation — with the cost model charged exactly as the paper
//! analyzes each.
//!
//! # The block-move data plane
//!
//! The simulated *costs* are those of the paper's model, but the
//! simulator's own wall-clock time is dominated by how the primitives
//! move host memory. Each primitive touches every element once, through
//! a working set that fits a second-level cache:
//!
//! * **Streamed sub-rounds.** The half of a node's array that an
//!   exchange moves is `2^{vp-j-1}` *contiguous runs* of `2^j` elements.
//!   When each run is its own message (unbuffered sends, or runs of at
//!   least `min_direct`), sub-round `r` reads and writes only run `r` of
//!   every node, so one set of `num` message buffers is filled, sent,
//!   drained, copied into place and reused for sub-round `r + 1`: live
//!   message memory is `num × run` elements, not half the matrix. When
//!   the runs are gathered into one message per node, gather and scatter
//!   are block moves — fixed-size array copies for runs shorter than a
//!   cache line.
//! * **Rotating scratch.** A virtual-dimension permutation is
//!   node-independent, so its realization (`PermPlan`: a local transpose
//!   for address rotations, a list of block-move start offsets for
//!   run-preserving permutations, a relocation table otherwise) is
//!   computed once, and every node's array is written out of place into
//!   one scratch buffer that then trades places with it — the array a
//!   node gives up is the next node's scratch. Staging is one node-sized,
//!   cache-hot buffer instead of one per node.
//! * **Register tile.** Rotations go through
//!   [`crate::local::transpose_flat_blocked_into`], whose 8×8 register
//!   tile reads and writes whole cache lines.
//!
//! Everything runs on the calling thread, like the [`SimNet`] whose
//! cost accounting it feeds: a node's gather, scatter or permutation is
//! a memory-bound copy, and forking those loops over worker threads
//! measured no gain on the workload they dominate. A round reaches the
//! net through the staged [`SimNet::send_batch`] / [`SimNet::drain_dim`]
//! commit.

use cubeaddr::NodeId;
use cubelayout::{Encoding, Layout};
use cubesim::{BufferPool, SimNet};

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

/// Send policy for [`MappedMatrix::exchange_real_virt`], mirroring
/// [`cubecomm::BufferPolicy`] at the memory-layout level: the outgoing
/// half of the local array at virtual position `j` consists of contiguous
/// runs of `2^j` elements.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SendPolicy {
    /// One message, no copy charged (the idealized complexity model).
    Ideal,
    /// One message per `2^j`-element run.
    Unbuffered,
    /// Runs shorter than `min_direct` elements are gathered (copy charged
    /// on both the gather and the scatter side); longer runs go directly.
    Buffered {
        /// Minimum run length sent without buffering.
        min_direct: usize,
    },
}

/// A distributed data set governed by a [`FieldMap`].
#[derive(Debug)]
pub struct MappedMatrix<T> {
    map: FieldMap,
    /// `data[node][local]`.
    data: Vec<Vec<T>>,
    /// Message buffers and permutation scratch, recycled from one
    /// primitive to the next. Empty until a primitive first needs
    /// staging; clones start empty.
    pool: BufferPool<T>,
}

impl<T: Copy> Clone for MappedMatrix<T> {
    fn clone(&self) -> Self {
        MappedMatrix { map: self.map.clone(), data: self.data.clone(), pool: BufferPool::new() }
    }
}

impl<T: Copy + Default> MappedMatrix<T> {
    /// Builds the matrix by evaluating `f(w)` for every matrix address.
    pub fn from_fn(map: FieldMap, mut f: impl FnMut(u64) -> T) -> Self {
        let num = cubeaddr::num_nodes(map.n());
        let per = 1usize << map.vp();
        let mut data = vec![vec![T::default(); per]; num];
        for w in 0..(1u64 << map.m()) {
            let (node, local) = map.place(w);
            data[node.index()][local as usize] = f(w);
        }
        MappedMatrix { map, data, pool: BufferPool::new() }
    }
}

impl<T: Copy> MappedMatrix<T> {
    /// Adopts existing per-node buffers (placement must already agree
    /// with `map`).
    ///
    /// # Panics
    /// On shape mismatch.
    #[track_caller]
    pub fn from_buffers(map: FieldMap, data: Vec<Vec<T>>) -> Self {
        assert_eq!(data.len(), 1usize << map.n());
        for d in &data {
            assert_eq!(d.len(), 1usize << map.vp());
        }
        MappedMatrix { map, data, pool: BufferPool::new() }
    }

    /// Consumes into per-node buffers (node order).
    pub fn into_buffers(self) -> Vec<Vec<T>> {
        self.data
    }

    /// The current role map.
    pub fn map(&self) -> &FieldMap {
        &self.map
    }

    /// The element with matrix address `w`.
    pub fn get(&self, w: u64) -> T {
        let (node, local) = self.map.place(w);
        self.data[node.index()][local as usize]
    }

    /// One node's local array.
    pub fn node(&self, x: NodeId) -> &[T] {
        &self.data[x.index()]
    }

    /// Elements of staging capacity currently held by the buffer pool —
    /// zero until a primitive that needs staging runs; afterwards the
    /// last exchange's message buffers plus one node-sized permutation
    /// scratch (footprint stat for `perfbench`).
    pub fn pool_capacity_elems(&self) -> usize {
        self.pool.capacity_elems()
    }
}

impl<T: Copy + Send + Sync> MappedMatrix<T> {
    /// Swaps real dimension position `i` with virtual position `j`,
    /// moving half of every node's data across cube dimension `i` — one
    /// step of the general exchange algorithm (distance-1 communication,
    /// one-port legal).
    ///
    /// The outgoing elements occupy `2^{vp-j-1}` contiguous runs of `2^j`
    /// elements in the local array; `policy` decides how the runs become
    /// messages (§8.1).
    pub fn exchange_real_virt(
        &mut self,
        net: &mut SimNet<Vec<T>>,
        i: u32,
        j: u32,
        policy: SendPolicy,
    ) {
        assert!(i < self.map.n() && j < self.map.vp());
        let per = 1usize << self.map.vp();
        let run = 1usize << j;
        let num = self.data.len();

        // The vacated half of node x's array: the runs whose local bit j
        // is ¬(node bit i). These are both the send positions and the
        // positions the incoming elements land in.
        let want_of = move |x: usize| (((x as u64 >> i) & 1) ^ 1) as usize;

        let gathered = match policy {
            SendPolicy::Ideal => true,
            SendPolicy::Unbuffered => false,
            SendPolicy::Buffered { min_direct } => run < min_direct,
        };

        if gathered {
            if matches!(policy, SendPolicy::Buffered { .. }) {
                // Gather at the sender; the scatter on arrival is charged
                // symmetrically at the same node (its own gather covers
                // its send; its scatter covers its receive).
                for x in 0..num as u64 {
                    net.local_copy(NodeId(x), per / 2);
                }
            }
            // Stage every outgoing message, then commit the whole round.
            let mut msgs: Vec<Vec<T>> = (0..num).map(|_| self.pool.take()).collect();
            for (x, msg) in msgs.iter_mut().enumerate() {
                gather_half(&self.data[x], run, want_of(x), msg);
            }
            net.send_batch(i, msgs.into_iter().enumerate().map(|(x, m)| (NodeId(x as u64), m)));
            net.finish_round();
            let mut incoming: Vec<(NodeId, Vec<T>)> = Vec::with_capacity(num);
            net.drain_dim(i, &mut incoming);
            debug_assert_eq!(incoming.len(), num);
            for (x, (dst, msg)) in incoming.into_iter().enumerate() {
                debug_assert_eq!(dst.index(), x);
                debug_assert_eq!(msg.len(), per / 2);
                scatter_half(&mut self.data[x], run, want_of(x), &msg);
                self.pool.put(msg);
            }
        } else {
            // One synchronized sub-round per run, streamed: sub-round r
            // reads and writes only run r of every node, so the round's
            // `num` message buffers are filled, sent, drained into place
            // and reused for sub-round r + 1.
            let mut msgs: Vec<Vec<T>> = (0..num).map(|_| self.pool.take()).collect();
            let mut arrivals: Vec<(NodeId, Vec<T>)> = Vec::with_capacity(num);
            for base in (0..per).step_by(run * 2) {
                let at = |x: usize| base + want_of(x) * run;
                for (x, msg) in msgs.iter_mut().enumerate() {
                    msg.extend_from_slice(&self.data[x][at(x)..at(x) + run]);
                }
                net.send_batch(i, msgs.drain(..).enumerate().map(|(x, m)| (NodeId(x as u64), m)));
                net.finish_round();
                net.drain_dim(i, &mut arrivals);
                debug_assert_eq!(arrivals.len(), num);
                for (dst, mut msg) in arrivals.drain(..) {
                    let x = dst.index();
                    self.data[x][at(x)..at(x) + run].copy_from_slice(&msg);
                    msg.clear();
                    msgs.push(msg);
                }
            }
            for msg in msgs {
                self.pool.put(msg);
            }
        }
        std::mem::swap(&mut self.map.real[i as usize], &mut self.map.virt[j as usize]);
    }

    /// Swaps real dimension positions `i1` and `i2`: the nodes whose two
    /// address bits differ relocate their entire local array over a
    /// distance-2 path (first across `i1`, then `i2`) — Lemma 6's
    /// real/real exchange, two one-port rounds.
    pub fn swap_real_real(&mut self, net: &mut SimNet<Vec<T>>, i1: u32, i2: u32) {
        let n = self.map.n();
        assert!(i1 < n && i2 < n && i1 != i2);
        let num = self.data.len();
        let moves = |x: u64| ((x >> i1) & 1) != ((x >> i2) & 1);

        // Hop 1: movers send across i1 to the intermediate node.
        for x in 0..num as u64 {
            if moves(x) {
                let payload = std::mem::take(&mut self.data[x as usize]);
                net.send(NodeId(x), i1, payload);
            }
        }
        net.finish_round();
        // Hop 2: intermediates (bits equal) forward across i2.
        let mut in_transit: Vec<Option<Vec<T>>> = (0..num).map(|_| None).collect();
        for x in 0..num as u64 {
            let node = NodeId(x);
            if net.has_message(node, i1) {
                in_transit[x as usize] = Some(net.recv(node, i1));
            }
        }
        for (x, payload) in in_transit.into_iter().enumerate() {
            if let Some(p) = payload {
                net.send(NodeId(x as u64), i2, p);
            }
        }
        net.finish_round();
        for x in 0..num as u64 {
            let node = NodeId(x);
            if net.has_message(node, i2) {
                debug_assert!(moves(x));
                debug_assert!(self.data[x as usize].is_empty());
                self.data[x as usize] = net.recv(node, i2);
            }
        }
        self.map.real.swap(i1 as usize, i2 as usize);
    }

    /// Re-labels the virtual dimensions without charging any cost: local
    /// bit `j` of the new map reads matrix dimension `virt[perm[j]]` of
    /// the old one.
    ///
    /// This models a change of *storage interpretation* ("implicitly by
    /// indirect addressing", §5): in the *model*, choosing how the local
    /// array is ordered is free — subsequent address arithmetic simply
    /// changes. The host keeps arrays in map order, so unless `perm` is
    /// the identity it moves every element, exactly as
    /// [`MappedMatrix::permute_virt`] does; use that one when the
    /// rearrangement should also be charged as an explicit copy.
    #[track_caller]
    pub fn relabel_virt(&mut self, perm: &[u32]) {
        self.apply_virt_perm(perm);
    }

    /// Applies a permutation of the virtual dimensions: local bit `j` of
    /// the new map reads matrix dimension `virt[perm[j]]` of the old one.
    /// Explicit local data movement; every node is charged a full-array
    /// copy.
    #[track_caller]
    pub fn permute_virt(&mut self, net: &mut SimNet<Vec<T>>, perm: &[u32]) {
        if self.apply_virt_perm(perm) {
            for x in 0..self.data.len() {
                net.local_copy(NodeId(x as u64), self.data[x].len());
            }
        }
    }

    /// Shared implementation: permutes map and data; returns true when the
    /// permutation was not the identity.
    ///
    /// The permutation's realization is node-independent, so one
    /// [`PermPlan`] is computed and applied to every node's array: out
    /// of place into a scratch buffer, which then trades places with the
    /// array — what one node gives up is the next node's scratch.
    #[track_caller]
    fn apply_virt_perm(&mut self, perm: &[u32]) -> bool {
        let vp = self.map.vp();
        assert_eq!(perm.len() as u32, vp);
        if perm.iter().enumerate().all(|(j, &p)| j as u32 == p) {
            return false;
        }
        let plan = PermPlan::build(perm);
        let mut scratch = self.pool.take();
        for d in &mut self.data {
            debug_assert_eq!(d.len(), 1usize << vp);
            plan.apply(d, &mut scratch);
            std::mem::swap(d, &mut scratch);
        }
        self.pool.put(scratch);
        let old_virt = self.map.virt.clone();
        for (jn, &jo) in perm.iter().enumerate() {
            self.map.virt[jn] = old_virt[jo as usize];
        }
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
        policy: SendPolicy,
    ) -> usize {
        assert_eq!(self.map.n(), target.n());
        assert_eq!(self.map.vp(), target.vp());
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

/// Appends to `out` the half of `data` an exchange moves: of every
/// `2·run` elements, the `run` whose local bit `log2(run)` equals
/// `want`. Runs shorter than a cache line are fixed-size array copies
/// ([`gather_runs`]); longer ones are block moves.
fn gather_half<T: Copy>(data: &[T], run: usize, want: usize, out: &mut Vec<T>) {
    out.reserve(data.len() / 2);
    match run {
        1 => gather_runs::<T, 1>(data, want, out),
        2 => gather_runs::<T, 2>(data, want, out),
        4 => gather_runs::<T, 4>(data, want, out),
        8 => gather_runs::<T, 8>(data, want, out),
        _ => {
            for pair in data.chunks_exact(run * 2) {
                out.extend_from_slice(&pair[want * run..][..run]);
            }
        }
    }
}

/// [`gather_half`] for a run length known at compile time, so each run
/// is a few register moves rather than a `memcpy` call.
fn gather_runs<T: Copy, const R: usize>(data: &[T], want: usize, out: &mut Vec<T>) {
    out.extend(data.chunks_exact(R * 2).flat_map(|pair| {
        let half: [T; R] = pair[want * R..][..R].try_into().expect("a run is R elements");
        half
    }));
}

/// Writes `incoming` back into the half of `data` selected by (`run`,
/// `want`): the inverse of [`gather_half`].
fn scatter_half<T: Copy>(data: &mut [T], run: usize, want: usize, incoming: &[T]) {
    match run {
        1 => scatter_runs::<T, 1>(data, want, incoming),
        2 => scatter_runs::<T, 2>(data, want, incoming),
        4 => scatter_runs::<T, 4>(data, want, incoming),
        8 => scatter_runs::<T, 8>(data, want, incoming),
        _ => {
            for (pair, chunk) in data.chunks_exact_mut(run * 2).zip(incoming.chunks_exact(run)) {
                pair[want * run..][..run].copy_from_slice(chunk);
            }
        }
    }
}

/// [`scatter_half`] for a run length known at compile time.
fn scatter_runs<T: Copy, const R: usize>(data: &mut [T], want: usize, incoming: &[T]) {
    for (pair, chunk) in data.chunks_exact_mut(R * 2).zip(incoming.chunks_exact(R)) {
        let half: &mut [T; R] =
            (&mut pair[want * R..][..R]).try_into().expect("a run is R elements");
        *half = chunk.try_into().expect("chunks_exact yields R elements");
    }
}

/// Precomputed, node-independent realization of a virtual-dimension
/// permutation, shared by every node in `apply_virt_perm`.
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
pub fn label_mapped(map: FieldMap) -> MappedMatrix<u64> {
    MappedMatrix::<u64>::from_fn(map, |w| w)
}

/// Asserts that `m`'s stored labels agree with its role map: the element
/// at every (node, local) position is the address the map says lives
/// there. Returns the first mismatch as `(node, local, found)`.
pub fn check_labels(m: &MappedMatrix<u64>) -> Option<(u64, u64, u64)> {
    for x in 0..(1u64 << m.map().n()) {
        for l in 0..(1u64 << m.map().vp()) {
            let want = m.map().element_at(NodeId(x), l);
            let found = m.node(NodeId(x))[l as usize];
            if found != want {
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
        for policy in
            [SendPolicy::Ideal, SendPolicy::Unbuffered, SendPolicy::Buffered { min_direct: 2 }]
        {
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
        m.exchange_real_virt(&mut net, 1, 0, SendPolicy::Ideal);
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
    /// item 3(b)): a permutation stages through one rotating scratch,
    /// not one buffer per node.
    #[test]
    fn permutation_scratch_is_one_buffer() {
        let (vp, per) = (12u32, 1usize << 12);
        let rotation: Vec<u32> = (6..vp).chain(0..6).collect();
        let mut m = label_mapped(FieldMap::new(vec![0, 1, 2], (3..3 + vp).collect()));
        assert_eq!(m.pool_capacity_elems(), 0, "staging held before any primitive ran");
        let mut net = SimNet::new(3, MachineParams::unit(PortMode::OnePort).with_t_copy(0.5));
        m.permute_virt(&mut net, &rotation);
        assert_eq!(check_labels(&m), None);
        let held = m.pool_capacity_elems();
        assert!(held <= per, "{held} elements pooled");
        net.finish_round();
        assert!(net.finalize().copy_time > 0.0, "the model still charges the copy");
    }

    /// Footprint gate, as above: an exchange that sends every run as its
    /// own message holds one run-sized buffer per node (one of them may
    /// be the permutation scratch, reused), not half the matrix.
    #[test]
    fn direct_exchange_holds_one_run_per_node() {
        let (n, vp, j) = (3u32, 12u32, 7u32);
        let (num, per, run) = (1usize << n, 1usize << vp, 1usize << j);
        assert_eq!(per / (2 * run), 16, "runs per node");
        let mut m = label_mapped(FieldMap::new((0..n).collect(), (n..n + vp).collect()));
        let mut net = unit_net(n);
        let rotation: Vec<u32> = (6..vp).chain(0..6).collect();
        m.permute_virt(&mut net, &rotation);
        m.exchange_real_virt(&mut net, 1, j, SendPolicy::Buffered { min_direct: run });
        assert_eq!(check_labels(&m), None);
        let held = m.pool_capacity_elems();
        assert!(held <= num * run + per, "{held} elements pooled");
        assert_eq!(net.finalize().rounds, 16, "one sub-round per run");
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
        let steps = m.rearrange_to(&mut net, &target, SendPolicy::Ideal);
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
        let steps = mm.rearrange_to(&mut net, &target, SendPolicy::Ideal);
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
        let steps = m.rearrange_to(&mut net, &after, SendPolicy::Ideal);
        assert_eq!(steps, 2); // n exchange steps.
        assert_eq!(check_labels(&m), None);
        let r = net.finalize();
        assert_eq!(r.rounds, 2);
        // T = n(M/2·t_c + τ) with M = 4: 2·(2 + 1) = 6.
        assert_eq!(r.time, 6.0);
    }
}
