//! Time-bounded performance smoke test for the block-move exchange
//! engine.
//!
//! Runs a full n = 10, vp = 10 dimension sweep (1024 nodes, 1024
//! elements each — every real dimension exchanged with a virtual one)
//! followed by a virtual rotation and a worst-case scramble, and fails
//! if it takes longer than a generous wall-clock bound. Ignored by
//! default so ordinary debug test runs stay fast; `scripts/ci.sh` runs
//! it in release mode with `--ignored`.

use cubecomm::BufferPolicy;
use cubesim::{MachineParams, PortMode, SimNet};
use cubetranspose::fieldmap::{check_labels, label_mapped};
use cubetranspose::FieldMap;
use std::time::{Duration, Instant};

#[test]
#[ignore = "perf smoke; run in release via scripts/ci.sh"]
fn n10_fieldmap_sweep_completes_within_bound() {
    let n = 10u32;
    let vp = 10u32;
    let map = FieldMap::new((0..n).collect(), (n..n + vp).collect());
    let mut m = label_mapped(map);
    let mut net: SimNet<Vec<u64>> =
        SimNet::new(n, MachineParams::unit(PortMode::OnePort).with_t_copy(0.5));

    let start = Instant::now();
    for i in 0..n {
        m.exchange_real_virt(&mut net, i, i, BufferPolicy::Ideal);
    }
    let rotation: Vec<u32> = (vp / 2..vp).chain(0..vp / 2).collect();
    m.permute_virt(&mut net, &rotation);
    let scramble: Vec<u32> = {
        let mut p: Vec<u32> = (0..vp).collect();
        p.sort_by_key(|&j| (7 * j + 3) % vp);
        p
    };
    m.permute_virt(&mut net, &scramble);
    net.finish_round();
    let elapsed = start.elapsed();

    // 10 exchange rounds + one flush round carrying both permutes' copies.
    assert_eq!(net.finalize().rounds, n as usize + 1);
    assert_eq!(check_labels(&m), None);
    // ~0.1 s on a modest core; the bound only catches order-of-magnitude
    // regressions (e.g. falling back to per-element gathers), not
    // scheduler jitter.
    assert!(elapsed < Duration::from_secs(30), "n=10 fieldmap sweep took {elapsed:?}");
}
