//! End-to-end pin of `driver::execute` on the three perfbench driver
//! configurations and the all-port one-dimensional transpose (SBnT), at
//! reduced size.
//!
//! The layout maps under the driver are table-driven; nothing the driver
//! returns may depend on that. Each configuration is therefore run twice:
//! through `driver::execute`, and "the long way" — inputs and expected
//! output placed element by element with `Layout::place`, the blocks of
//! the one-dimensional paths grown one `push` at a time in `elements()`
//! order, and the engine called directly on a net built the way the
//! driver builds it. Matrix, choice and every field of the report must
//! agree, and the report's counts must equal the values recorded before
//! the change.

use cubeaddr::NodeId;
use cubecomm::exchange::exchange_over_dims;
use cubecomm::sbnt::all_to_all_sbnt;
use cubecomm::{Block, BlockMsg, BufferPolicy};
use cubelayout::{Assignment, Direction, DistMatrix, Encoding, Layout, TransposeSpec};
use cubesim::{CommReport, MachineParams, PortMode, SimNet};
use cubetranspose::driver::{self, Choice};
use cubetranspose::one_dim::{assemble, spec_blocks, Routed};
use cubetranspose::two_dim::{transpose_mpt, transpose_spt_stepwise, Packet};

/// What the simulator reported for one op at the commit before the
/// tables (the SBnT pin: before the values-only block mover):
/// `(rounds, messages, elements, critical start-ups, max link elements,
/// simulated seconds)`.
type Counts = (usize, u64, u64, u64, u64, f64);

fn place_each<T: Copy + Default>(layout: &Layout, f: impl Fn(u64, u64) -> T) -> DistMatrix<T> {
    let mut m = DistMatrix::zeroed(layout.clone());
    for (u, v) in layout.elements() {
        let pl = layout.place(u, v);
        m.node_mut(pl.node)[pl.local as usize] = f(u, v);
    }
    m
}

fn assert_reports_equal(got: &CommReport, want: &CommReport, name: &str) {
    macro_rules! fields {
        ($($f:ident),*) => {$(
            assert_eq!(got.$f, want.$f, "{name}: CommReport::{}", stringify!($f));
        )*};
    }
    fields!(
        rounds,
        time,
        startup_time,
        transfer_time,
        copy_time,
        critical_startups,
        critical_elems,
        total_elems,
        total_packets,
        total_messages,
        max_link_elems,
        max_node_copy_elems,
        history,
        link_history
    );
}

/// `one_dim::spec_blocks` as it was: one walk over the elements, every
/// block a `Vec` grown by `push`.
fn blocks_each(spec: &TransposeSpec, m: &DistMatrix<u64>) -> Vec<Vec<Vec<Routed<u64>>>> {
    let num = spec.before.num_nodes().max(spec.after.num_nodes());
    let mut blocks = vec![vec![Vec::new(); num]; num];
    for (u, v) in spec.before.elements() {
        let (from, to) = (spec.before.place(u, v), spec.after.place(v, u));
        blocks[from.node.index()][to.node.index()]
            .push((to.local, m.node(from.node)[from.local as usize]));
    }
    blocks
}

/// [`blocks_each`], checked against `one_dim::spec_blocks`.
fn checked_blocks(spec: &TransposeSpec, m: &DistMatrix<u64>) -> Vec<Vec<Vec<Routed<u64>>>> {
    let blocks = blocks_each(spec, m);
    assert_eq!(spec_blocks(spec, m), blocks, "block contents or element order changed");
    blocks
}

fn exchange_the_long_way(
    spec: &TransposeSpec,
    m: &DistMatrix<u64>,
    net: &mut SimNet<BlockMsg<Routed<u64>>>,
    min_direct: usize,
) -> DistMatrix<u64> {
    let blocks = checked_blocks(spec, m);
    let mut diff = 0u64;
    let held: Vec<Vec<Block<Routed<u64>>>> = blocks
        .into_iter()
        .enumerate()
        .map(|(s, per_dst)| {
            per_dst
                .into_iter()
                .enumerate()
                .filter(|(_, data)| !data.is_empty())
                .map(|(d, data)| {
                    diff |= (s ^ d) as u64;
                    Block::new(NodeId(s as u64), NodeId(d as u64), data)
                })
                .collect()
        })
        .collect();
    let dims: Vec<u32> = (0..net.n()).rev().filter(|&d| (diff >> d) & 1 == 1).collect();
    let result = exchange_over_dims(net, held, &dims, BufferPolicy::Buffered { min_direct });
    assemble(&spec.after, result)
}

fn sbnt_the_long_way(
    spec: &TransposeSpec,
    m: &DistMatrix<u64>,
    net: &mut SimNet<BlockMsg<Routed<u64>>>,
) -> DistMatrix<u64> {
    assemble(&spec.after, all_to_all_sbnt(net, checked_blocks(spec, m)))
}

fn pin(name: &str, before: Layout, params: MachineParams, expect: Choice, counts: Counts) {
    let after = before.swapped_shape();
    let q = before.q();
    let label = |u: u64, v: u64| (u << q) | v;
    let input = place_each(&before, label);
    assert_eq!(cubetranspose::verify::labels(before.clone()), input, "{name}: label matrix");

    let (out, choice, report) = driver::execute(&input, &after, &params);
    assert_eq!(choice, expect, "{name}");
    assert_eq!(driver::plan(&before, &after, &params), expect, "{name}");
    // a^T(v, u) = a(u, v), placed element by element.
    assert_eq!(out, place_each(&after, |v, u| label(u, v)), "{name}: output matrix");
    cubetranspose::verify::assert_transposed(&before, &out);

    let n = before.n();
    let (long_out, long_report) = match expect {
        Choice::SptStepwise => {
            let mut net: SimNet<Packet<u64>> =
                SimNet::new(n, params.clone().with_ports(PortMode::AllPorts));
            (transpose_spt_stepwise(&input, &after, &mut net), net.finalize())
        }
        Choice::Mpt { k } => {
            let mut net: SimNet<Packet<u64>> = SimNet::new(n, params.clone());
            (transpose_mpt(&input, &after, &mut net, k), net.finalize())
        }
        Choice::ExchangeBuffered { min_direct } => {
            let spec = TransposeSpec::with_after(before.clone(), after.clone());
            let mut net = SimNet::new(n, params.clone());
            (exchange_the_long_way(&spec, &input, &mut net, min_direct), net.finalize())
        }
        Choice::Sbnt => {
            let spec = TransposeSpec::with_after(before.clone(), after.clone());
            let mut net = SimNet::new(n, params.clone());
            (sbnt_the_long_way(&spec, &input, &mut net), net.finalize())
        }
        other => panic!("{name}: no long way for {other:?}"),
    };
    assert_eq!(out, long_out, "{name}: engine output");
    assert_reports_equal(&report, &long_report, name);
    assert_eq!(
        (
            report.rounds,
            report.total_messages,
            report.total_elems,
            report.critical_startups,
            report.max_link_elems,
            report.time
        ),
        counts,
        "{name}: report recorded before the change"
    );
}

#[test]
fn ipsc_2d_spt() {
    pin(
        "ipsc-2d-spt",
        Layout::square(6, 6, 2, Assignment::Consecutive, Encoding::Binary),
        MachineParams::intel_ipsc(),
        Choice::SptStepwise,
        (5, 32, 8192, 4, 256, 0.042528),
    );
}

#[test]
fn ipsc_1d_exchange() {
    pin(
        "ipsc-1d-exchange",
        Layout::one_dim(6, 6, Direction::Rows, 4, Assignment::Cyclic, Encoding::Binary),
        MachineParams::intel_ipsc(),
        Choice::ExchangeBuffered { min_direct: 139 },
        (4, 64, 8192, 4, 128, 0.04048),
    );
}

#[test]
fn cm_2d_mpt() {
    pin(
        "cm-2d-mpt",
        Layout::square(4, 4, 4, Assignment::Consecutive, Encoding::Binary),
        MachineParams::connection_machine(),
        Choice::Mpt { k: 1 },
        (8, 1024, 1024, 8, 1, 5.6000000000000006e-5),
    );
}

#[test]
fn ipsc_1d_sbnt() {
    pin(
        "ipsc-1d-sbnt",
        Layout::one_dim(6, 6, Direction::Rows, 4, Assignment::Cyclic, Encoding::Binary),
        MachineParams::intel_ipsc().with_ports(PortMode::AllPorts),
        Choice::Sbnt,
        (4, 208, 8192, 4, 128, 0.020704),
    );
}
