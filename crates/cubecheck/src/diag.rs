//! Structured diagnostics: which rule broke, where, and which clause of
//! the paper it contradicts.

use std::fmt;

/// The invariants the checkers prove.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    /// Port-model compliance: under one-port communication a node uses at
    /// most one link per round (counting both endpoints; bidirectional
    /// exchange on the *same* link is allowed), every claim names a
    /// real link of the cube, and every copy is charged at a real node.
    PortModel,
    /// Edge-disjointness within a round: at most one message per directed
    /// link per round.
    LinkExclusive,
    /// Packet budget: every message carries data, at most `u32::MAX`
    /// elements of it, and its declared packet count covers `⌈S/B_m⌉` —
    /// no packet exceeds the machine's maximum packet size.
    PacketBudget,
    /// Element conservation: every block travels from its source to its
    /// destination along a connected chain of claims, each hop claimed
    /// exactly once, and every claim's size is exactly the sum of its
    /// blocks.
    Conservation,
    /// Deadlock freedom: for dimension-ordered schedules, the channel
    /// dependency graph induced by the block paths is acyclic, so the
    /// same schedule runs deadlock-free on an asynchronous machine.
    DeadlockFree,
}

impl Rule {
    /// The paper clause the rule formalizes.
    pub fn paper_ref(self) -> &'static str {
        match self {
            Rule::PortModel => {
                "§2: one-port vs n-port communication — \"communication on all ports \
                 concurrently\" is the n-cube option; one-port uses one link per step"
            }
            Rule::LinkExclusive => {
                "§3/§8.1: the exchange and tree schedules send one message per directed \
                 link per step (edge-disjoint use of the cube's links)"
            }
            Rule::PacketBudget => {
                "§2: a message of S elements over one link takes ⌈S/B_m⌉ start-ups — \
                 packets never exceed the maximum packet size B_m"
            }
            Rule::Conservation => {
                "§3: personalized communication delivers every source element to its \
                 destination exactly once"
            }
            Rule::DeadlockFree => {
                "§7/Figures 14b, 16–18: dimension-ordered (e-cube) routing orders the \
                 channel dependencies, leaving the dependency graph acyclic"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Rule::PortModel => "port-model",
            Rule::LinkExclusive => "link-exclusive",
            Rule::PacketBudget => "packet-budget",
            Rule::Conservation => "conservation",
            Rule::DeadlockFree => "deadlock-free",
        };
        f.write_str(name)
    }
}

/// One violation, located as precisely as the rule allows.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diag {
    /// Name of the offending schedule.
    pub schedule: String,
    /// The broken rule.
    pub rule: Rule,
    /// Round of the violation, when local to a round.
    pub round: Option<usize>,
    /// Node involved (the sender, or the port-constrained node).
    pub node: Option<u64>,
    /// Dimension of the link involved.
    pub dim: Option<u32>,
    /// Block id involved, for per-block rules.
    pub block: Option<u32>,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [{}]", self.schedule, self.rule)?;
        if let Some(r) = self.round {
            write!(f, " round {r}")?;
        }
        if let Some(x) = self.node {
            write!(f, " node {x}")?;
        }
        if let Some(d) = self.dim {
            write!(f, " dim {d}")?;
        }
        if let Some(b) = self.block {
            write!(f, " block {b}")?;
        }
        write!(f, ": {} (violates {})", self.detail, self.rule.paper_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_location_and_paper_ref() {
        let d = Diag {
            schedule: "test/n2".into(),
            rule: Rule::LinkExclusive,
            round: Some(3),
            node: Some(5),
            dim: Some(1),
            block: None,
            detail: "two messages on one link".into(),
        };
        let s = d.to_string();
        assert!(s.contains("test/n2"));
        assert!(s.contains("link-exclusive"));
        assert!(s.contains("round 3"));
        assert!(s.contains("node 5"));
        assert!(s.contains("dim 1"));
        assert!(s.contains("§3/§8.1"));
    }
}
