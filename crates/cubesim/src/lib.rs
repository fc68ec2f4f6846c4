//! Machine model and communication simulator for Boolean *n*-cube
//! ensembles.
//!
//! The paper's complexity analysis is phrased entirely in terms of a
//! packet-oriented communication model: a start-up overhead `τ` per packet
//! per link, a per-element transfer time `t_c`, a maximum packet size
//! `B_m`, a local copy cost `t_copy`, and either *one-port* (at most one
//! link used per node per step — the Intel iPSC) or *n-port* (all links
//! concurrently — required by the SBnT, DPT and MPT algorithms)
//! communication. Links are bidirectional: an exchange costs the same as a
//! single send.
//!
//! [`SimNet`] executes an algorithm's communication *for real* — payload
//! buffers move between per-node mailboxes, so the final data placement is
//! the algorithm's actual output — while simultaneously charging the cost
//! model and enforcing the model's legality constraints. An executor that
//! moves its data itself along routes fixed in advance
//! ([`SimNet::charge`]) has its messages checked, costed and recorded the
//! same way without handing the net a payload:
//!
//! * transfers only between cube neighbors (by construction of the API),
//! * no directed link carries two messages in the same round,
//! * in one-port mode, no node touches more than one link per round.
//!
//! Time is accounted per synchronous *round*: the round's elapsed time is
//! the maximum over directed links of that link's packet cost, plus the
//! maximum over nodes of local copy/rearrangement work charged in the
//! round. Total time is the sum over rounds, exactly the structure of
//! every `T = Σ(step cost)` expression in the paper. That per-round
//! arithmetic lives once, in [`cost::RoundCost`]: [`SimNet`] and
//! `cubecheck`'s fold over a schedule both close their rounds with it
//! (the frozen `reference` net keeps its own copy, as the oracle).

pub mod cost;
pub mod net;
pub mod par;
pub mod params;
#[doc(hidden)]
pub mod reference;
pub mod report;

pub use cost::{link_slots, LinkTotals, RoundCost};
pub use net::{Payload, SimNet};
pub use params::{MachineParams, PortMode};
pub use report::{CommReport, LinkEvent, RoundDetail};
// The topology vocabulary, re-exported so simulator users need not
// depend on `cubetopo` directly.
pub use cubetopo::{Hypercube, SwappedDragonfly, TopoSpec, Topology};
