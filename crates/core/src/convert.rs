//! Transposition with change of assignment scheme (§6.2).
//!
//! The worked case of the paper: a matrix stored *consecutively* in both
//! directions (two-dimensional partitioning, `n_r = n_c`, `p, q ≥ 2n_r`)
//! must end up transposed and stored *cyclically* in both directions.
//! Writing the address field as `(u1 u2 u3 v1 v2 v3)` — `u1, u3, v1, v3`
//! of `n_r` dimensions each, `u1, v1` real before, `u3, v3` real after —
//! the paper gives three algorithms:
//!
//! 1. consecutive→cyclic rows (`u1 ↔ u3`), consecutive→cyclic columns
//!    (`v1 ↔ v3`), then transpose globally (swap the real halves) and
//!    locally: `2n` communication steps;
//! 2. local transpose first, then `u1 ↔ v3` and `v1 ↔ u3` exchanges, then
//!    local transposes of the `N` small matrices: `n` communication
//!    steps plus two local rearrangements;
//! 3. exchange `u1 ↔ v3` (within column subcubes) and `v1 ↔ u3` (within
//!    row subcubes) directly, then a local shuffle if `p > 2n_r`: `n`
//!    communication steps, no pre-transpose.
//!
//! All three run on the field-map engine and are verified to produce the
//! same distributed matrix.

use crate::fieldmap::{FieldMap, MappedMatrix, SendPolicy};
use crate::one_dim::fieldmap_after;
use cubeaddr::NodeId;
use cubelayout::{Assignment, DistMatrix, Encoding, Layout, TransposeSpec};
use cubesim::SimNet;

/// The §6.2 problem instance: `2^p × 2^q`, `n_r = n_c` processor
/// dimensions per direction, consecutive before, cyclic after.
#[derive(Clone, Copy, Debug)]
pub struct ConvertSpec {
    /// Row-index bits.
    pub p: u32,
    /// Column-index bits.
    pub q: u32,
    /// Processor dimensions per direction.
    pub n_r: u32,
}

impl ConvertSpec {
    /// Validates `p, q ≥ 2·n_r` (the paper's assumption).
    #[track_caller]
    pub fn new(p: u32, q: u32, n_r: u32) -> Self {
        assert!(p >= 2 * n_r && q >= 2 * n_r, "need p, q ≥ 2·n_r");
        ConvertSpec { p, q, n_r }
    }

    /// The consecutive/consecutive layout of `A`.
    pub fn before(&self) -> Layout {
        Layout::two_dim(
            self.p,
            self.q,
            (self.n_r, Assignment::Consecutive, Encoding::Binary),
            (self.n_r, Assignment::Consecutive, Encoding::Binary),
        )
    }

    /// The cyclic/cyclic layout of `A^T`.
    pub fn after(&self) -> Layout {
        Layout::two_dim(
            self.q,
            self.p,
            (self.n_r, Assignment::Cyclic, Encoding::Binary),
            (self.n_r, Assignment::Cyclic, Encoding::Binary),
        )
    }

    fn spec(&self) -> TransposeSpec {
        TransposeSpec::with_after(self.before(), self.after())
    }

    /// Matrix-address dimensions (in `w = (u‖v)` space) of the four
    /// fields: `(u1, u3, v1, v3)`, each as the list of dims ascending.
    fn fields(&self) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
        let (p, q, nr) = (self.p, self.q, self.n_r);
        let u1 = (q + p - nr..q + p).collect();
        let u3 = (q..q + nr).collect();
        let v1 = (q - nr..q).collect();
        let v3 = (0..nr).collect();
        (u1, u3, v1, v3)
    }
}

fn start<T: Copy>(spec: &ConvertSpec, m: &DistMatrix<T>) -> MappedMatrix<T> {
    let map = FieldMap::from_layout(&spec.before());
    MappedMatrix::from_buffers(map, m.clone().into_buffers())
}

fn finish<T: Copy + Default + Send + Sync>(
    spec: &ConvertSpec,
    mut mapped: MappedMatrix<T>,
) -> DistMatrix<T> {
    let target = fieldmap_after(&spec.spec());
    // The algorithms leave the real roles correct; align the virtual
    // interpretation for free (indirect addressing).
    let perm: Vec<u32> = (0..target.vp())
        .map(|jn| match mapped.map().locate(target.virt_dim(jn)) {
            crate::fieldmap::Role::Virt(jo) => jo,
            crate::fieldmap::Role::Real(_) => panic!("real roles not fixed"),
        })
        .collect();
    mapped.relabel_virt(&perm);
    assert_eq!(mapped.map(), &target);
    DistMatrix::from_buffers(spec.after(), mapped.into_buffers())
}

/// Swaps the data so that the real position currently encoding matrix
/// dimension `from` encodes `to` instead (which must be virtual).
fn bring_in<T: Copy + Send + Sync>(
    mapped: &mut MappedMatrix<T>,
    net: &mut SimNet<Vec<T>>,
    from: u32,
    to: u32,
    policy: SendPolicy,
) {
    let i = match mapped.map().locate(from) {
        crate::fieldmap::Role::Real(i) => i,
        r => panic!("dimension {from} should be real, is {r:?}"),
    };
    let j = match mapped.map().locate(to) {
        crate::fieldmap::Role::Virt(j) => j,
        r => panic!("dimension {to} should be virtual, is {r:?}"),
    };
    mapped.exchange_real_virt(net, i, j, policy);
}

/// Algorithm 1: convert rows, convert columns, then transpose globally
/// and locally (`2n` communication steps: `2·n_r` exchanges plus `n_r`
/// distance-2 swaps).
pub fn convert_algorithm1<T: Copy + Default + Send + Sync>(
    spec: &ConvertSpec,
    m: &DistMatrix<T>,
    net: &mut SimNet<Vec<T>>,
    policy: SendPolicy,
) -> DistMatrix<T> {
    let (u1, u3, v1, v3) = spec.fields();
    let mut mm = start(spec, m);
    // (u1 u2 u3 v1 v2 v3) → (u1 u2 [u3] v1 v2 v3): rows consecutive→cyclic.
    for (&a, &b) in u1.iter().zip(&u3) {
        bring_in(&mut mm, net, a, b, policy);
    }
    // Columns consecutive→cyclic.
    for (&a, &b) in v1.iter().zip(&v3) {
        bring_in(&mut mm, net, a, b, policy);
    }
    // Global transpose: swap the row-real and column-real halves.
    for (&a, &b) in u3.iter().zip(&v3) {
        let i = match mm.map().locate(a) {
            crate::fieldmap::Role::Real(i) => i,
            _ => unreachable!(),
        };
        let i2 = match mm.map().locate(b) {
            crate::fieldmap::Role::Real(i) => i,
            _ => unreachable!(),
        };
        mm.swap_real_real(net, i, i2);
    }
    finish(spec, mm)
}

/// Algorithm 2: local transpose, `u1 ↔ v3` and `v1 ↔ u3` exchanges, local
/// transposes again (`n` communication steps; the local transposes are
/// charged as full-array copies).
pub fn convert_algorithm2<T: Copy + Default + Send + Sync>(
    spec: &ConvertSpec,
    m: &DistMatrix<T>,
    net: &mut SimNet<Vec<T>>,
    policy: SendPolicy,
) -> DistMatrix<T> {
    let (u1, u3, v1, v3) = spec.fields();
    let mut mm = start(spec, m);
    // Local transpose of each node's (row × column) array: swap the
    // u-virtual and v-virtual halves of the local address.
    let vp = mm.map().vp();
    let vcol = spec.q - spec.n_r; // virtual column bits (low part)
    let perm: Vec<u32> = (vcol..vp).chain(0..vcol).collect();
    mm.permute_virt(net, &perm);
    // Exchanges: u1 ↔ v3 and v1 ↔ u3.
    for (&a, &b) in u1.iter().zip(&v3) {
        bring_in(&mut mm, net, a, b, policy);
    }
    for (&a, &b) in v1.iter().zip(&u3) {
        bring_in(&mut mm, net, a, b, policy);
    }
    // Local transposes of the N small matrices: a rotation of the local
    // address by `vp - vcol`, charged as one full-array copy per node.
    // On the host the rotation and `finish`'s free relabel are one
    // permutation, so `finish` writes the arrays into the target's order
    // in a single pass.
    if vcol != 0 && vcol != vp {
        for x in 0..1u64 << mm.map().n() {
            net.local_copy(NodeId(x), 1usize << vp);
        }
    }
    net.finish_round();
    finish(spec, mm)
}

/// Algorithm 3: exchange `u1 ↔ v3` within column subcubes and `v1 ↔ u3`
/// within row subcubes directly (`n` communication steps, no local
/// transpose; only a local shuffle if `p > 2n_r`, folded into the final
/// free relabel).
pub fn convert_algorithm3<T: Copy + Default + Send + Sync>(
    spec: &ConvertSpec,
    m: &DistMatrix<T>,
    net: &mut SimNet<Vec<T>>,
    policy: SendPolicy,
) -> DistMatrix<T> {
    let (u1, u3, v1, v3) = spec.fields();
    let mut mm = start(spec, m);
    for (&a, &b) in u1.iter().zip(&v3) {
        bring_in(&mut mm, net, a, b, policy);
    }
    for (&a, &b) in v1.iter().zip(&u3) {
        bring_in(&mut mm, net, a, b, policy);
    }
    finish(spec, mm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assert_transposed, labels};
    use cubesim::{MachineParams, PortMode};

    fn unit_net(n: u32) -> SimNet<Vec<u64>> {
        SimNet::new(n, MachineParams::unit(PortMode::OnePort))
    }

    #[test]
    fn all_three_algorithms_transpose() {
        let spec = ConvertSpec::new(4, 4, 1);
        let m = labels(spec.before());
        type Alg = fn(
            &ConvertSpec,
            &DistMatrix<u64>,
            &mut SimNet<Vec<u64>>,
            SendPolicy,
        ) -> DistMatrix<u64>;
        let algs: [(&str, Alg); 3] = [
            ("alg1", convert_algorithm1),
            ("alg2", convert_algorithm2),
            ("alg3", convert_algorithm3),
        ];
        for (name, alg) in algs {
            let mut net = unit_net(2 * spec.n_r);
            let out = alg(&spec, &m, &mut net, SendPolicy::Ideal);
            assert_transposed(&spec.before(), &out);
            net.finalize();
            let _ = name;
        }
    }

    #[test]
    fn algorithms_agree_elementwise() {
        let spec = ConvertSpec::new(4, 5, 2);
        let m = labels(spec.before());
        type Alg = fn(
            &ConvertSpec,
            &DistMatrix<u64>,
            &mut SimNet<Vec<u64>>,
            SendPolicy,
        ) -> DistMatrix<u64>;
        let run = |alg: Alg| {
            let mut net = unit_net(2 * spec.n_r);
            alg(&spec, &m, &mut net, SendPolicy::Ideal)
        };
        let a = run(convert_algorithm1);
        let b = run(convert_algorithm2);
        let c = run(convert_algorithm3);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn step_counts_match_paper() {
        // Algorithm 1: 2n rounds; algorithms 2 & 3: n rounds (n = 2n_r).
        let spec = ConvertSpec::new(4, 4, 2);
        let n = 2 * spec.n_r as usize;
        let m = labels(spec.before());

        let mut net1 = unit_net(2 * spec.n_r);
        let _ = convert_algorithm1(&spec, &m, &mut net1, SendPolicy::Ideal);
        assert_eq!(net1.finalize().rounds, 2 * n, "algorithm 1");

        let mut net3 = unit_net(2 * spec.n_r);
        let _ = convert_algorithm3(&spec, &m, &mut net3, SendPolicy::Ideal);
        assert_eq!(net3.finalize().rounds, n, "algorithm 3");
    }

    #[test]
    fn algorithm2_charges_local_transposes() {
        let spec = ConvertSpec::new(4, 4, 1);
        let m = labels(spec.before());
        let params = MachineParams::unit(PortMode::OnePort).with_t_copy(1.0);
        let mut net: SimNet<Vec<u64>> = SimNet::new(2, params);
        let _ = convert_algorithm2(&spec, &m, &mut net, SendPolicy::Ideal);
        let r = net.finalize();
        // Two full-array copies of 2^{8-2} = 64 elements each.
        assert_eq!(r.max_node_copy_elems, 64);
        assert_eq!(r.copy_time, 128.0);
    }

    /// Algorithm 2 charges its second local transpose and moves the data
    /// once, straight into the target's order. The paper's two steps —
    /// rotate the local address, then re-interpret it for free — must
    /// give the same matrix and be charged the same, whatever the shape
    /// and the send policy.
    #[test]
    fn algorithm2_equals_rotation_then_free_relabel() {
        let params = MachineParams::unit(PortMode::OnePort).with_t_copy(0.5);
        for (p, q) in (0..=6).flat_map(|p| (0..=6).map(move |q| (p, q))) {
            for n_r in 0..=p.min(q) / 2 {
                for policy in [SendPolicy::Ideal, SendPolicy::Buffered { min_direct: 4 }] {
                    let spec = ConvertSpec::new(p, q, n_r);
                    let m = labels(spec.before());
                    let mut net: SimNet<Vec<u64>> = SimNet::new(2 * n_r, params.clone());
                    let direct = convert_algorithm2(&spec, &m, &mut net, policy);
                    let direct = (direct, net.finalize());

                    let mut net: SimNet<Vec<u64>> = SimNet::new(2 * n_r, params.clone());
                    let (u1, u3, v1, v3) = spec.fields();
                    let mut mm = start(&spec, &m);
                    let vp = mm.map().vp();
                    let vcol = q - n_r;
                    let transpose: Vec<u32> = (vcol..vp).chain(0..vcol).collect();
                    mm.permute_virt(&mut net, &transpose);
                    for (&a, &b) in u1.iter().zip(&v3).chain(v1.iter().zip(&u3)) {
                        bring_in(&mut mm, &mut net, a, b, policy);
                    }
                    let split = vp - vcol;
                    let small_transposes: Vec<u32> = (split..vp).chain(0..split).collect();
                    mm.permute_virt(&mut net, &small_transposes);
                    net.finish_round();
                    let two_step = (finish(&spec, mm), net.finalize());
                    assert_eq!(direct, two_step, "p={p} q={q} n_r={n_r} {policy:?}");
                }
            }
        }
    }

    #[test]
    fn algorithm3_cheapest_in_rounds_and_copies() {
        let spec = ConvertSpec::new(5, 5, 2);
        let m = labels(spec.before());
        let params = MachineParams::intel_ipsc();
        type Alg = fn(
            &ConvertSpec,
            &DistMatrix<u64>,
            &mut SimNet<Vec<u64>>,
            SendPolicy,
        ) -> DistMatrix<u64>;
        let run = |alg: Alg| {
            let mut net: SimNet<Vec<u64>> = SimNet::new(4, params.clone());
            let _ = alg(&spec, &m, &mut net, SendPolicy::Ideal);
            net.finalize()
        };
        let r1 = run(convert_algorithm1);
        let r2 = run(convert_algorithm2);
        let r3 = run(convert_algorithm3);
        assert!(r3.time <= r2.time, "alg3 {} vs alg2 {}", r3.time, r2.time);
        assert!(r3.time < r1.time, "alg3 {} vs alg1 {}", r3.time, r1.time);
    }

    #[test]
    fn rectangular_case() {
        let spec = ConvertSpec::new(3, 5, 1);
        let m = labels(spec.before());
        let mut net = unit_net(2);
        let out = convert_algorithm3(&spec, &m, &mut net, SendPolicy::Ideal);
        assert_transposed(&spec.before(), &out);
    }

    #[test]
    #[should_panic(expected = "p, q ≥ 2·n_r")]
    fn too_small_matrix_rejected() {
        let _ = ConvertSpec::new(3, 3, 2);
    }
}
