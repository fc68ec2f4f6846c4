//! Topology abstraction for the communication core.
//!
//! The paper's algorithms are stated on the Boolean *n*-cube, but the
//! simulator (`cubesim`-style flat link slabs), the store-and-forward
//! router, the SPMD runtime's inboxes and the static schedule checker only
//! need three facts about the machine graph: how many nodes there are,
//! how many ports a node has, and which node sits at the far end of each
//! port. This crate states those facts once, as the [`Topology`] trait,
//! with two families:
//!
//! * [`Hypercube`] — the Boolean `n`-cube. Port `p` of node `x` is the
//!   dimension-`p` link to `x ^ (1 << p)`; every port is wired and every
//!   link uses the same port number on both ends. This is the zero-cost
//!   reference instance: all its methods inline to the bit arithmetic the
//!   flat data planes used before the abstraction existed.
//! * [`SwappedDragonfly`] — Draper's Swapped Dragonfly `D3(K,M)`
//!   (*Four Algorithms on the Swapped Dragonfly*): `K·M` groups of `M`
//!   routers, each group a complete graph, each router holding `K`
//!   global ports wired by the swap rule (global port `j` of router
//!   `(g, r)` leads to group `r·K + j`, router `g / K`).
//!
//! # Port numbering contract
//!
//! Ports are numbered `0..ports()` uniformly across nodes; a flat link
//! slab indexed `node * ports + port` therefore covers every directed
//! link with a fixed stride. A port may be *unwired*
//! ([`Topology::neighbor`] returns `None` — e.g. the swap fixed point of
//! a Dragonfly group); using it is a routing bug. Wired ports are
//! symmetric: if `neighbor(x, p) == Some(y)` then
//! `reverse_port(x, p) == Some(q)` with `neighbor(y, q) == Some(x)` and
//! `reverse_port(y, q) == Some(p)` — every undirected link is seen from
//! both ends, though (unlike the hypercube) not necessarily under the
//! same port number.

use std::fmt;

/// A machine graph: node count, per-node ordered ports, and port →
/// neighbor resolution. See the crate docs for the port numbering
/// contract every implementation must satisfy.
pub trait Topology: Clone + Send + Sync + 'static {
    /// Number of nodes. Node addresses are `0..num_nodes()` as `u64`.
    fn num_nodes(&self) -> usize;

    /// Uniform per-node port count (the stride of flat link slabs).
    fn ports(&self) -> u32;

    /// The node at the far end of `node`'s port `port`, or `None` when
    /// the port is unwired. Implementations may panic on out-of-range
    /// `node` or `port`.
    fn neighbor(&self, node: u64, port: u32) -> Option<u64>;

    /// The port of `neighbor(node, port)` that leads back to `node`
    /// (`None` exactly when the port is unwired).
    fn reverse_port(&self, node: u64, port: u32) -> Option<u32>;

    /// Human-readable topology name for diagnostics, e.g. `7-cube` or
    /// `D3(4,8)`.
    fn label(&self) -> String;
}

/// The Boolean `n`-cube: `2^n` nodes, port `p` crosses dimension `p`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Hypercube {
    n: u32,
}

impl Hypercube {
    /// An `n`-dimensional cube.
    #[inline]
    #[track_caller]
    pub fn new(n: u32) -> Self {
        cubeaddr::check_dims(n);
        Hypercube { n }
    }

    /// Cube dimension.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }
}

impl Topology for Hypercube {
    #[inline]
    fn num_nodes(&self) -> usize {
        cubeaddr::num_nodes(self.n)
    }

    #[inline]
    fn ports(&self) -> u32 {
        self.n
    }

    #[inline]
    fn neighbor(&self, node: u64, port: u32) -> Option<u64> {
        debug_assert!(port < self.n && node < self.num_nodes() as u64);
        Some(node ^ (1 << port))
    }

    #[inline]
    fn reverse_port(&self, _node: u64, port: u32) -> Option<u32> {
        // A cube link crosses one dimension; both ends call it by that
        // dimension's port number.
        Some(port)
    }

    fn label(&self) -> String {
        format!("{}-cube", self.n)
    }
}

/// Draper's Swapped Dragonfly `D3(K,M)`: `K·M` groups of `M` routers
/// (`K·M²` nodes). Each group is a complete graph on its `M` routers;
/// each router additionally has `K` global ports wired by the swap rule.
///
/// Node `x` encodes `(group, router)` as `x = group · M + router`.
///
/// # Port layout (uniform `M - 1 + K` ports per node)
///
/// * Intra-group ports `p ∈ [0, M-1)` connect router `r` to router
///   `p` if `p < r`, else `p + 1` (the complete graph minus self, in
///   ascending router order).
/// * Global ports `p ∈ [M-1, M-1+K)` with `j = p - (M-1)` connect
///   `(g, r)` to `(g', r') = (r·K + j, g / K)` — the *swap*: the local
///   coordinates of one end are the group coordinates of the other.
///   Each group therefore reaches every group (including itself) over
///   exactly one global link; the one self-loop per group (`g = r·K + j`
///   at router `r = g / K`) is left unwired.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SwappedDragonfly {
    k: u32,
    m: u32,
}

impl SwappedDragonfly {
    /// A `D3(K, M)`: `M` routers per group, `K` global ports per router.
    #[track_caller]
    pub fn new(k: u32, m: u32) -> Self {
        assert!(k >= 1 && m >= 1, "D3(K,M) needs K >= 1 and M >= 1, got D3({k},{m})");
        let ports = (m - 1) as u64 + k as u64;
        assert!(ports <= 64, "D3({k},{m}) has {ports} ports per router; the port masks hold 64");
        let nodes = (k as u128) * (m as u128) * (m as u128);
        assert!(nodes <= u64::MAX as u128 / 2, "D3({k},{m}) node count overflows");
        SwappedDragonfly { k, m }
    }

    /// Global ports per router, `K`.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Routers per group, `M`.
    #[inline]
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Number of groups, `K·M`.
    #[inline]
    pub fn groups(&self) -> u64 {
        u64::from(self.k) * u64::from(self.m)
    }

    /// The `(group, router)` coordinates of node `x`.
    #[inline]
    pub fn coords(&self, x: u64) -> (u64, u64) {
        (x / u64::from(self.m), x % u64::from(self.m))
    }

    /// The node at `(group, router)`.
    #[inline]
    pub fn node_at(&self, group: u64, router: u64) -> u64 {
        debug_assert!(group < self.groups() && router < u64::from(self.m));
        group * u64::from(self.m) + router
    }

    /// The intra-group port of router `from` leading to router `to`
    /// (`from != to`, both in `[0, M)`).
    #[inline]
    pub fn intra_port(&self, from: u64, to: u64) -> u32 {
        debug_assert!(from != to && from < u64::from(self.m) && to < u64::from(self.m));
        if to < from {
            to as u32
        } else {
            to as u32 - 1
        }
    }

    /// The global port of router `(g, r)` whose link leads to group
    /// `target`, if this router owns it (`target ∈ [r·K, r·K + K)`).
    #[inline]
    pub fn global_port_to(&self, router: u64, target_group: u64) -> Option<u32> {
        let base = router * u64::from(self.k);
        (base..base + u64::from(self.k))
            .contains(&target_group)
            .then(|| self.m - 1 + (target_group - base) as u32)
    }

    /// The router of a group owning the global link toward
    /// `target_group`: `target_group / K`.
    #[inline]
    pub fn gateway_router(&self, target_group: u64) -> u64 {
        target_group / u64::from(self.k)
    }
}

impl fmt::Display for SwappedDragonfly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D3({},{})", self.k, self.m)
    }
}

impl Topology for SwappedDragonfly {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.k as usize * self.m as usize * self.m as usize
    }

    #[inline]
    fn ports(&self) -> u32 {
        self.m - 1 + self.k
    }

    #[inline]
    fn neighbor(&self, node: u64, port: u32) -> Option<u64> {
        debug_assert!(node < self.num_nodes() as u64 && port < self.ports());
        let m = u64::from(self.m);
        let (g, r) = self.coords(node);
        if u64::from(port) < m - 1 {
            // Intra-group: complete graph minus self, ascending.
            let nr = if u64::from(port) < r { u64::from(port) } else { u64::from(port) + 1 };
            Some(self.node_at(g, nr))
        } else {
            // Global swap link.
            let j = u64::from(port) - (m - 1);
            let target_group = r * u64::from(self.k) + j;
            if target_group == g {
                return None; // the group's swap fixed point stays unwired
            }
            Some(self.node_at(target_group, g / u64::from(self.k)))
        }
    }

    #[inline]
    fn reverse_port(&self, node: u64, port: u32) -> Option<u32> {
        let m = u64::from(self.m);
        let (g, r) = self.coords(node);
        if u64::from(port) < m - 1 {
            let nr = if u64::from(port) < r { u64::from(port) } else { u64::from(port) + 1 };
            Some(self.intra_port(nr, r))
        } else {
            self.neighbor(node, port)?;
            // The far end's global port back to group `g` is `g mod K`.
            Some(self.m - 1 + (g % u64::from(self.k)) as u32)
        }
    }

    fn label(&self) -> String {
        self.to_string()
    }
}

/// A value-level topology description: the [`Topology`] choice carried
/// by plans, lowered schedules and runtime configuration, where a
/// generic parameter would infect every data structure. Dispatches every
/// trait method to the named family.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TopoSpec {
    /// The Boolean `n`-cube.
    Hypercube {
        /// Cube dimension.
        n: u32,
    },
    /// The Swapped Dragonfly `D3(K,M)`, validated once when the spec is
    /// made, so the methods dispatch to it without re-checking its shape.
    Dragonfly(SwappedDragonfly),
}

impl TopoSpec {
    /// The spec of an `n`-cube.
    pub fn hypercube(n: u32) -> Self {
        TopoSpec::Hypercube { n: Hypercube::new(n).n() }
    }

    /// The spec of a `D3(K,M)` Swapped Dragonfly.
    #[track_caller]
    pub fn dragonfly(k: u32, m: u32) -> Self {
        TopoSpec::Dragonfly(SwappedDragonfly::new(k, m))
    }
}

impl From<Hypercube> for TopoSpec {
    fn from(h: Hypercube) -> Self {
        TopoSpec::Hypercube { n: h.n() }
    }
}

impl From<SwappedDragonfly> for TopoSpec {
    fn from(d: SwappedDragonfly) -> Self {
        TopoSpec::Dragonfly(d)
    }
}

impl Topology for TopoSpec {
    #[inline]
    fn num_nodes(&self) -> usize {
        match *self {
            TopoSpec::Hypercube { n } => Hypercube::new(n).num_nodes(),
            TopoSpec::Dragonfly(d) => d.num_nodes(),
        }
    }

    #[inline]
    fn ports(&self) -> u32 {
        match *self {
            TopoSpec::Hypercube { n } => n,
            TopoSpec::Dragonfly(d) => d.ports(),
        }
    }

    #[inline]
    fn neighbor(&self, node: u64, port: u32) -> Option<u64> {
        match *self {
            TopoSpec::Hypercube { n } => Hypercube::new(n).neighbor(node, port),
            TopoSpec::Dragonfly(d) => d.neighbor(node, port),
        }
    }

    #[inline]
    fn reverse_port(&self, node: u64, port: u32) -> Option<u32> {
        match *self {
            TopoSpec::Hypercube { n } => Hypercube::new(n).reverse_port(node, port),
            TopoSpec::Dragonfly(d) => d.reverse_port(node, port),
        }
    }

    fn label(&self) -> String {
        match *self {
            TopoSpec::Hypercube { n } => Hypercube::new(n).label(),
            TopoSpec::Dragonfly(d) => d.label(),
        }
    }
}

/// A topology with a canonical deterministic shortest-path routing
/// function — what a store-and-forward router needs beyond adjacency.
///
/// The function must be *progressive*: repeatedly stepping
/// `cur = neighbor(cur, next_port(cur, dst))` reaches `dst` in finitely
/// many wired hops. On the cube this is the e-cube order (lowest
/// differing dimension first); on the Swapped Dragonfly it is the
/// minimal local–global–local route through the destination group's
/// gateway router (Draper's *direct* routing).
pub trait MinimalRoute: Topology {
    /// The port `cur` forwards on toward `dst`, or `None` on arrival
    /// (`cur == dst`). The returned port is always wired.
    fn next_port(&self, cur: u64, dst: u64) -> Option<u32>;
}

impl MinimalRoute for Hypercube {
    #[inline]
    fn next_port(&self, cur: u64, dst: u64) -> Option<u32> {
        let diff = cur ^ dst;
        if diff == 0 {
            None
        } else {
            Some(diff.trailing_zeros())
        }
    }
}

impl MinimalRoute for SwappedDragonfly {
    #[inline]
    fn next_port(&self, cur: u64, dst: u64) -> Option<u32> {
        if cur == dst {
            return None;
        }
        let (gc, rc) = self.coords(cur);
        let (gd, rd) = self.coords(dst);
        if gc == gd {
            // Same group: one intra hop.
            return Some(self.intra_port(rc, rd));
        }
        let gw = self.gateway_router(gd);
        if rc == gw {
            // At the gateway: cross the swap link (wired since gd != gc).
            self.global_port_to(rc, gd)
        } else {
            // Walk to the gateway router first.
            Some(self.intra_port(rc, gw))
        }
    }
}

impl MinimalRoute for TopoSpec {
    #[inline]
    fn next_port(&self, cur: u64, dst: u64) -> Option<u32> {
        match *self {
            TopoSpec::Hypercube { n } => Hypercube::new(n).next_port(cur, dst),
            TopoSpec::Dragonfly(d) => d.next_port(cur, dst),
        }
    }
}

/// Checks the port symmetry contract over every `(node, port)` of a
/// topology — test support for new implementations.
pub fn check_symmetry<T: Topology>(topo: &T) {
    for x in 0..topo.num_nodes() as u64 {
        for p in 0..topo.ports() {
            match topo.neighbor(x, p) {
                None => assert_eq!(
                    topo.reverse_port(x, p),
                    None,
                    "{}: unwired port ({x}, {p}) has a reverse port",
                    topo.label()
                ),
                Some(y) => {
                    assert!(
                        (y as usize) < topo.num_nodes(),
                        "{}: neighbor({x}, {p}) = {y} out of range",
                        topo.label()
                    );
                    assert_ne!(y, x, "{}: self-loop at ({x}, {p})", topo.label());
                    let q = topo.reverse_port(x, p).unwrap_or_else(|| {
                        panic!("{}: wired port ({x}, {p}) lacks a reverse port", topo.label())
                    });
                    assert_eq!(
                        topo.neighbor(y, q),
                        Some(x),
                        "{}: reverse of ({x}, {p}) does not lead back",
                        topo.label()
                    );
                    assert_eq!(
                        topo.reverse_port(y, q),
                        Some(p),
                        "{}: reverse_port not involutive at ({x}, {p})",
                        topo.label()
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercube_matches_bit_arithmetic() {
        let h = Hypercube::new(4);
        assert_eq!(h.num_nodes(), 16);
        assert_eq!(h.ports(), 4);
        for x in 0..16u64 {
            for p in 0..4 {
                assert_eq!(h.neighbor(x, p), Some(x ^ (1 << p)));
                assert_eq!(h.reverse_port(x, p), Some(p));
            }
        }
        assert_eq!(h.label(), "4-cube");
        check_symmetry(&h);
    }

    #[test]
    fn dragonfly_shape() {
        let d = SwappedDragonfly::new(2, 4);
        assert_eq!(d.groups(), 8);
        assert_eq!(d.num_nodes(), 32);
        assert_eq!(d.ports(), 3 + 2);
        assert_eq!(d.label(), "D3(2,4)");
        // Intra ports skip self.
        assert_eq!(d.neighbor(d.node_at(3, 2), 0), Some(d.node_at(3, 0)));
        assert_eq!(d.neighbor(d.node_at(3, 2), 1), Some(d.node_at(3, 1)));
        assert_eq!(d.neighbor(d.node_at(3, 2), 2), Some(d.node_at(3, 3)));
        // Global port j of (g, r) reaches (rK + j, g / K).
        assert_eq!(d.neighbor(d.node_at(5, 1), 3), Some(d.node_at(2, 2)));
        assert_eq!(d.neighbor(d.node_at(5, 1), 4), Some(d.node_at(3, 2)));
    }

    #[test]
    fn dragonfly_symmetry_various_shapes() {
        for (k, m) in [(1, 1), (1, 2), (2, 2), (2, 4), (4, 4), (3, 5)] {
            check_symmetry(&SwappedDragonfly::new(k, m));
        }
    }

    #[test]
    fn dragonfly_one_unwired_swap_port_per_group() {
        let d = SwappedDragonfly::new(2, 4);
        let mut unwired = 0usize;
        for x in 0..d.num_nodes() as u64 {
            for p in 0..d.ports() {
                if d.neighbor(x, p).is_none() {
                    let (g, r) = d.coords(x);
                    assert_eq!(r, d.gateway_router(g), "fixed point off the gateway router");
                    unwired += 1;
                }
            }
        }
        assert_eq!(unwired as u64, d.groups());
    }

    #[test]
    fn dragonfly_every_group_pair_has_one_global_link() {
        let d = SwappedDragonfly::new(2, 4);
        for g in 0..d.groups() {
            for target in 0..d.groups() {
                if target == g {
                    continue;
                }
                let r = d.gateway_router(target);
                let p = d.global_port_to(r, target).expect("gateway owns the link");
                let y = d.neighbor(d.node_at(g, r), p).expect("wired inter-group link");
                assert_eq!(d.coords(y).0, target);
            }
        }
    }

    #[test]
    fn gateway_and_global_port_agree_with_neighbor() {
        let d = SwappedDragonfly::new(3, 5);
        for g in 0..d.groups() {
            for target in 0..d.groups() {
                let r = d.gateway_router(target);
                let p = d.global_port_to(r, target).expect("gateway router owns the link");
                match d.neighbor(d.node_at(g, r), p) {
                    Some(y) => assert_eq!(d.coords(y), (target, g / u64::from(d.k()))),
                    None => assert_eq!(target, g, "only the self swap link is unwired"),
                }
            }
        }
    }

    #[test]
    fn spec_dispatch_matches_direct() {
        let spec = TopoSpec::dragonfly(2, 3);
        let d = SwappedDragonfly::new(2, 3);
        assert_eq!(spec.num_nodes(), d.num_nodes());
        assert_eq!(spec.ports(), d.ports());
        for x in 0..d.num_nodes() as u64 {
            for p in 0..d.ports() {
                assert_eq!(spec.neighbor(x, p), d.neighbor(x, p));
                assert_eq!(spec.reverse_port(x, p), d.reverse_port(x, p));
            }
        }
        assert_eq!(TopoSpec::from(Hypercube::new(3)), TopoSpec::hypercube(3));
        assert_eq!(TopoSpec::from(d), spec);
    }

    #[test]
    #[should_panic(expected = "K >= 1")]
    fn zero_k_rejected() {
        let _ = SwappedDragonfly::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "D3(K,M) needs K >= 1 and M >= 1, got D3(0,4)")]
    fn spec_of_zero_k_rejected() {
        let _ = TopoSpec::dragonfly(0, 4);
    }

    /// Walks `next_port` from `src` to `dst`, asserting every hop is
    /// wired, and returns the path length.
    fn walk<T: MinimalRoute>(topo: &T, src: u64, dst: u64) -> u32 {
        let mut cur = src;
        let mut hops = 0;
        while let Some(p) = topo.next_port(cur, dst) {
            cur = topo
                .neighbor(cur, p)
                .unwrap_or_else(|| panic!("{}: route uses unwired ({cur}, {p})", topo.label()));
            hops += 1;
            assert!(hops <= topo.num_nodes() as u32, "{}: route cycles", topo.label());
        }
        assert_eq!(cur, dst);
        hops
    }

    #[test]
    fn hypercube_route_is_ecube() {
        let h = Hypercube::new(5);
        for src in 0..32u64 {
            for dst in 0..32u64 {
                assert_eq!(walk(&h, src, dst), (src ^ dst).count_ones());
                // Lowest differing dimension first.
                if src != dst {
                    assert_eq!(h.next_port(src, dst), Some((src ^ dst).trailing_zeros()));
                }
            }
        }
    }

    #[test]
    fn dragonfly_route_is_minimal_lgl() {
        for (k, m) in [(1, 2), (2, 2), (2, 4), (3, 5)] {
            let d = SwappedDragonfly::new(k, m);
            for src in 0..d.num_nodes() as u64 {
                for dst in 0..d.num_nodes() as u64 {
                    let hops = walk(&d, src, dst);
                    // Local-global-local: at most 3 hops on any D3.
                    assert!(hops <= 3, "{d}: {src} -> {dst} took {hops} hops");
                    let ((gs, rs), (gd, _)) = (d.coords(src), d.coords(dst));
                    if gs == gd {
                        assert!(hops <= 1);
                    } else {
                        // One global hop plus up to one intra hop each side.
                        let gw = d.gateway_router(gd);
                        let expect = 1
                            + u32::from(rs != gw)
                            + u32::from(d.coords(dst).1 != gs / u64::from(d.k()));
                        assert_eq!(hops, expect, "{d}: {src} -> {dst}");
                    }
                }
            }
        }
    }

    #[test]
    fn spec_route_dispatch_matches_direct() {
        let d = SwappedDragonfly::new(2, 3);
        let spec = TopoSpec::from(d);
        for src in 0..d.num_nodes() as u64 {
            for dst in 0..d.num_nodes() as u64 {
                assert_eq!(spec.next_port(src, dst), d.next_port(src, dst));
            }
        }
    }
}
