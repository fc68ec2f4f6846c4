//! Machine parameters: the `(τ, t_c, B_m, t_copy)` cost model and port
//! discipline, with presets for the two machines of the paper's
//! experiments.

/// Port discipline of a node (paper §2, "Implementation issues").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PortMode {
    /// At most one link used per node per communication step. "One-port
    /// communication is a good approximation of the capabilities of the
    /// Intel iPSC." A node may still send and receive concurrently on that
    /// one link (bidirectional exchange).
    OnePort,
    /// Concurrent communication on all `n` ports.
    AllPorts,
}

/// The communication cost model.
///
/// All times are in seconds; sizes in *elements* (one matrix element, e.g.
/// a 4-byte single-precision float on the iPSC or a 32-bit field on the
/// Connection Machine).
#[derive(Clone, Debug, PartialEq)]
pub struct MachineParams {
    /// Human-readable machine name (appears in reports).
    pub name: String,
    /// Communication start-up overhead `τ` per packet per link traversal.
    pub tau: f64,
    /// Transmission time `t_c` per element.
    pub t_c: f64,
    /// Maximum packet size `B_m` in elements; a message of `S` elements
    /// over one link costs `⌈S/B_m⌉·τ + S·t_c`.
    pub max_packet: usize,
    /// Local copy/rearrangement time per element (`t_copy`); on the iPSC
    /// this is large enough to dominate start-ups for big blocks.
    pub t_copy: f64,
    /// Port discipline.
    pub ports: PortMode,
    /// Bit-serial pipelined communication (the Connection Machine): the
    /// start-up "overhead is only incurred once through pipelining" — a
    /// round charges `τ` once per link regardless of packet count, and
    /// `B_m` does not fragment messages.
    pub pipelined: bool,
}

impl MachineParams {
    /// The Intel iPSC as measured in the paper: `τ ≈ 5 ms`,
    /// `t_c ≈ 1 µs/byte` (4 µs per single-precision element),
    /// `B_m = 1 KB` (256 elements), and a copy cost of about 37 ms per
    /// 1024 elements (≈ 36 µs/element, from Figure 9).
    pub fn intel_ipsc() -> Self {
        MachineParams {
            name: "Intel iPSC".to_string(),
            tau: 5e-3,
            t_c: 4e-6,
            max_packet: 256,
            t_copy: 36e-6,
            ports: PortMode::OnePort,
            pipelined: false,
        }
    }

    /// A Connection-Machine-like configuration: bit-serial pipelined
    /// router, all ports concurrently, no packet-size limit, negligible
    /// copy cost (data moves directly from the processor's memory). The
    /// element transfer time covers 32 serial bits; the per-link start-up
    /// is small and incurred once per round.
    ///
    /// With these constants a transpose lands about two orders of
    /// magnitude below the iPSC times, matching the paper's concluding
    /// comparison.
    pub fn connection_machine() -> Self {
        MachineParams {
            name: "Connection Machine".to_string(),
            tau: 5e-6,
            t_c: 2e-6,
            max_packet: usize::MAX,
            t_copy: 0.0,
            ports: PortMode::AllPorts,
            pipelined: true,
        }
    }

    /// Unit-cost model (`τ = 1, t_c = 1, B_m = ∞, t_copy = 0`): convenient
    /// for exact closed-form comparisons in tests, where simulated time
    /// must equal `#start-ups + #elements` along the critical path.
    pub fn unit(ports: PortMode) -> Self {
        MachineParams {
            name: "unit".to_string(),
            tau: 1.0,
            t_c: 1.0,
            max_packet: usize::MAX,
            t_copy: 0.0,
            ports,
            pipelined: false,
        }
    }

    /// Returns a copy with a different port discipline.
    pub fn with_ports(mut self, ports: PortMode) -> Self {
        self.ports = ports;
        self
    }

    /// Returns a copy with a different maximum packet size.
    pub fn with_max_packet(mut self, max_packet: usize) -> Self {
        self.max_packet = max_packet;
        self
    }

    /// Returns a copy with a different copy cost.
    pub fn with_t_copy(mut self, t_copy: f64) -> Self {
        self.t_copy = t_copy;
        self
    }

    /// Number of packets needed for a message of `elems` elements.
    #[inline]
    pub fn packets(&self, elems: usize) -> usize {
        if elems == 0 {
            0
        } else if self.pipelined || self.max_packet == usize::MAX {
            1
        } else {
            elems.div_ceil(self.max_packet)
        }
    }

    /// The block size beyond which sending without buffering beats copying
    /// into a buffer: `B_copy = τ / t_copy` elements (paper §8.1: "the
    /// copy of 64 single-precision floating-point numbers takes
    /// approximately the same time as one communication start-up").
    pub fn b_copy(&self) -> usize {
        if self.t_copy == 0.0 {
            return usize::MAX;
        }
        ((self.tau / self.t_copy).round() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipsc_b_copy_is_about_64() {
        let m = MachineParams::intel_ipsc();
        let b = m.b_copy();
        assert!((60..=180).contains(&b), "B_copy = {b} far from the paper's ≈64–139");
    }

    #[test]
    fn packet_fragmentation() {
        let m = MachineParams::intel_ipsc();
        assert_eq!(m.packets(0), 0);
        assert_eq!(m.packets(1), 1);
        assert_eq!(m.packets(256), 1);
        assert_eq!(m.packets(257), 2);
        assert_eq!(m.packets(1024), 4);
    }

    #[test]
    fn pipelined_never_fragments() {
        let m = MachineParams::connection_machine();
        assert_eq!(m.packets(1 << 20), 1);
    }

    #[test]
    fn builders() {
        let m = MachineParams::intel_ipsc().with_ports(PortMode::AllPorts).with_max_packet(8);
        assert_eq!(m.ports, PortMode::AllPorts);
        assert_eq!(m.packets(17), 3);
    }
}
