//! Element-path reference implementation of the [`MappedMatrix`]
//! primitives.
//!
//! `RefMappedMatrix` preserves the original per-element formulation of
//! the exchange engine — index-filter iterators for the exchanged half,
//! a per-element relocation loop for virtual permutations, one `SimNet`
//! send per node in node order, every payload carried through the net —
//! as the executable specification the charged primitives and the
//! composed move of [`crate::fieldmap`] are checked against: the
//! `fieldmap_equivalence` suite drives random schedules through both and
//! requires identical payloads, role maps, and [`cubesim::CommReport`]s.
//!
//! Not part of the public API (`doc(hidden)`); exported only for tests
//! and differential experiments.

use crate::fieldmap::{FieldMap, MappedMatrix, Role};
use cubeaddr::NodeId;
use cubecomm::BufferPolicy;
use cubesim::SimNet;

/// The reference twin of [`MappedMatrix`]: same observable behavior,
/// element-at-a-time data plane.
#[derive(Clone, Debug)]
pub struct RefMappedMatrix<T> {
    map: FieldMap,
    /// `data[node][local]`.
    data: Vec<Vec<T>>,
}

impl<T: Copy> RefMappedMatrix<T> {
    /// Adopts existing per-node buffers (placement must already agree
    /// with `map`).
    #[track_caller]
    pub fn from_buffers(map: FieldMap, data: Vec<Vec<T>>) -> Self {
        assert_eq!(data.len(), 1usize << map.n());
        for d in &data {
            assert_eq!(d.len(), 1usize << map.vp());
        }
        RefMappedMatrix { map, data }
    }

    /// Consumes into per-node buffers (node order).
    pub fn into_buffers(self) -> Vec<Vec<T>> {
        self.data
    }

    /// The current role map.
    pub fn map(&self) -> &FieldMap {
        &self.map
    }

    /// Current role vectors, for rebuilding the map after a primitive
    /// (the map's internals are private to `fieldmap`).
    fn roles(&self) -> (Vec<u32>, Vec<u32>) {
        let real = (0..self.map.n()).map(|i| self.map.real_dim(i)).collect();
        let virt = (0..self.map.vp()).map(|j| self.map.virt_dim(j)).collect();
        (real, virt)
    }

    /// Reference [`MappedMatrix::exchange_real_virt`]: filter-iterator
    /// element gather/scatter, one send per node per (sub-)round.
    pub fn exchange_real_virt(
        &mut self,
        net: &mut SimNet<Vec<T>>,
        i: u32,
        j: u32,
        policy: BufferPolicy,
    ) {
        assert!(i < self.map.n() && j < self.map.vp());
        let per = 1usize << self.map.vp();
        let run = 1usize << j;
        let num = self.data.len();
        let out_indices = move |x: u64| {
            let want = (((x >> i) & 1) ^ 1) as usize;
            (0..per).filter(move |l| (l >> j) & 1 == want)
        };
        let gathered = match policy {
            BufferPolicy::Ideal => true,
            BufferPolicy::Unbuffered => false,
            BufferPolicy::Buffered { min_direct } => run < min_direct,
        };
        if gathered {
            if matches!(policy, BufferPolicy::Buffered { .. }) {
                for x in 0..num as u64 {
                    net.local_copy(NodeId(x), per / 2);
                }
            }
            for x in 0..num as u64 {
                let msg: Vec<T> = out_indices(x).map(|l| self.data[x as usize][l]).collect();
                net.send(NodeId(x), i, msg);
            }
            net.finish_round();
            for x in 0..num as u64 {
                let incoming = net.recv(NodeId(x), i);
                for (l, &v) in out_indices(x).zip(&incoming) {
                    self.data[x as usize][l] = v;
                }
            }
        } else {
            let runs_per_node = per / (run * 2);
            for r in 0..runs_per_node {
                for x in 0..num as u64 {
                    let msg: Vec<T> = out_indices(x)
                        .skip(r * run)
                        .take(run)
                        .map(|l| self.data[x as usize][l])
                        .collect();
                    net.send(NodeId(x), i, msg);
                }
                net.finish_round();
                for x in 0..num as u64 {
                    let incoming = net.recv(NodeId(x), i);
                    for (l, &v) in out_indices(x).skip(r * run).take(run).zip(&incoming) {
                        self.data[x as usize][l] = v;
                    }
                }
            }
        }
        let (mut real, mut virt) = self.roles();
        std::mem::swap(&mut real[i as usize], &mut virt[j as usize]);
        self.map = FieldMap::new(real, virt);
    }

    /// Reference [`MappedMatrix::swap_real_real`].
    pub fn swap_real_real(&mut self, net: &mut SimNet<Vec<T>>, i1: u32, i2: u32) {
        let n = self.map.n();
        assert!(i1 < n && i2 < n && i1 != i2);
        let num = self.data.len();
        let moves = |x: u64| ((x >> i1) & 1) != ((x >> i2) & 1);
        for x in 0..num as u64 {
            if moves(x) {
                let payload = std::mem::take(&mut self.data[x as usize]);
                net.send(NodeId(x), i1, payload);
            }
        }
        net.finish_round();
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
                self.data[x as usize] = net.recv(node, i2);
            }
        }
        let (mut real, virt) = self.roles();
        real.swap(i1 as usize, i2 as usize);
        self.map = FieldMap::new(real, virt);
    }

    /// Reference [`MappedMatrix::relabel_virt`].
    #[track_caller]
    pub fn relabel_virt(&mut self, perm: &[u32]) {
        self.apply_virt_perm(perm);
    }

    /// Reference [`MappedMatrix::permute_virt`].
    #[track_caller]
    pub fn permute_virt(&mut self, net: &mut SimNet<Vec<T>>, perm: &[u32]) {
        if self.apply_virt_perm(perm) {
            for x in 0..self.data.len() {
                net.local_copy(NodeId(x as u64), self.data[x].len());
            }
        }
    }

    #[track_caller]
    fn apply_virt_perm(&mut self, perm: &[u32]) -> bool {
        let vp = self.map.vp();
        assert_eq!(perm.len() as u32, vp);
        let per = 1usize << vp;
        if perm.iter().enumerate().all(|(j, &p)| j as u32 == p) {
            return false;
        }
        let relocate = |old_local: usize| -> usize {
            let mut l = 0usize;
            for (jn, &jo) in perm.iter().enumerate() {
                l |= ((old_local >> jo) & 1) << jn;
            }
            l
        };
        for x in 0..self.data.len() {
            let old = std::mem::take(&mut self.data[x]);
            let mut new = Vec::with_capacity(per);
            new.resize(per, old[0]);
            for (l_old, v) in old.into_iter().enumerate() {
                new[relocate(l_old)] = v;
            }
            self.data[x] = new;
        }
        let (real, virt) = self.roles();
        let new_virt: Vec<u32> = perm.iter().map(|&jo| virt[jo as usize]).collect();
        self.map = FieldMap::new(real, new_virt);
        true
    }

    /// Reference [`MappedMatrix::rearrange_to`] (same greedy plan).
    #[track_caller]
    pub fn rearrange_to(
        &mut self,
        net: &mut SimNet<Vec<T>>,
        target: &FieldMap,
        policy: BufferPolicy,
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

/// Reference twin of a [`MappedMatrix`] with the same contents.
pub fn ref_twin<T: Copy + Default>(m: &MappedMatrix<'_, T>) -> RefMappedMatrix<T> {
    RefMappedMatrix::from_buffers(m.map().clone(), m.to_buffers())
}
