//! SPMD node programs: the paper's algorithms with real message passing,
//! on the [`cuberun`] runtime — every cube node a virtual node of a fixed
//! worker pool, as an iPSC node program runs (at `n = 16`, 65 536 nodes
//! on a handful of threads). Each runs a round schedule built once on the
//! host, on the round door ([`cuberun::run_rounds`]): each worker loops
//! over its nodes round by round, and no node is ever suspended.
//! [`spmd_transpose_exchange`] is a [`RoundProgram`] of its own, a round
//! per dimension; its elements travel as a one-word destination tag and a
//! value, and a node lands them in place by sorting their tags. A node's
//! holding, which is also its message, is none, one element inline or a
//! vector of several: at one element per node, the paper's Connection
//! Machine configuration, a node that holds at most one element never
//! touches the heap until its output buffer.
//! [`spmd_transpose_spt`] and [`spmd_transpose_combined_gray`] run the
//! simulator's own flight plans through the flight executor's round-door
//! adaptor (`crate::flight`) and land what travelled with the simulator
//! movers' ledger checks. The results are bit-identical to the simulator
//! drivers'. The tests pin the exchange program, message by message, to
//! the triple-carrying one it replaced, run on the thread-per-node oracle
//! runtime ([`cuberun::reference`]).

use crate::flight::{run_flight_rounds, Carried, FlightRounds};
use cubeaddr::NodeId;
use cubelayout::{DistMatrix, Layout, TransposeSpec};
use cuberun::{run_rounds, Outbox, RoundInbox, RoundProgram, RunStats};

/// One element of the exchange program: its destination address as one
/// tag, `dst_node << lg(per_after) | dst_local`, and its value.
type Elem<T> = (u64, T);

/// Every element's destination tag, in source order: entry
/// `x · per_before + l` is where node `x`'s local element `l` goes.
fn exchange_tags(spec: &TransposeSpec) -> Vec<u64> {
    let per = spec.before.elems_per_node();
    let lg = spec.after.elems_per_node().trailing_zeros();
    let mut tags = vec![0; spec.before.num_nodes() * per];
    for mv in spec.moves() {
        tags[mv.src.index() * per + mv.src_local as usize] = mv.dst.bits() << lg | mv.dst_local;
    }
    tags
}

/// What a node of the exchange program holds, and what it sends: no
/// element, one element inline, or several in a vector. A `Many` holds
/// two or more.
#[derive(Default)]
pub(crate) enum Holding<T> {
    #[default]
    None,
    One(Elem<T>),
    Many(Vec<Elem<T>>),
}

impl<T> Holding<T> {
    /// The held elements, in no particular order.
    fn elems_mut(&mut self) -> &mut [Elem<T>] {
        match self {
            Holding::None => &mut [],
            Holding::One(e) => std::slice::from_mut(e),
            Holding::Many(v) => v,
        }
    }
}

/// §5's exchange transpose as a [`RoundProgram`]: round `r` scans
/// dimension `j = n − 1 − r`, highest first, on the larger of the two
/// layouts' cubes. A node's state is the tagged elements it holds.
pub(crate) struct ExchangeRounds<'a, T> {
    n: u32,
    lg: u32,
    after_nodes: u64,
    tags: &'a [u64],
    m: &'a DistMatrix<T>,
}

impl<T: Copy + Default + Send + Sync> RoundProgram<Holding<T>> for ExchangeRounds<'_, T> {
    type State = Holding<T>;
    type Out = Vec<T>;

    fn rounds(&self) -> u32 {
        self.n
    }

    fn init(&self, id: NodeId) -> Holding<T> {
        // A node outside the before-layout's cube starts empty.
        let values = if id.index() < self.m.layout().num_nodes() { self.m.node(id) } else { &[] };
        let tags = &self.tags[id.index() * values.len()..][..values.len()];
        match values {
            [] => Holding::None,
            &[value] => Holding::One((tags[0], value)),
            _ => Holding::Many(tags.iter().copied().zip(values.iter().copied()).collect()),
        }
    }

    fn send(
        &self,
        round: u32,
        id: NodeId,
        held: &mut Holding<T>,
        out: &mut Outbox<'_, Holding<T>>,
    ) {
        let j = self.n - 1 - round;
        let (bit, mine) = (self.lg + j, (id.bits() >> j) & 1);
        let crosses = |&(tag, _): &Elem<T>| (tag >> bit) & 1 != mine;
        // Both partners always send (possibly the empty holding): every
        // node's receive of the round then has exactly one message. A
        // holding that crosses whole travels as it is; a split sends, and
        // keeps, a lone element inline.
        let msg = match held {
            Holding::None => Holding::None,
            Holding::One(e) if crosses(e) => std::mem::take(held),
            Holding::One(_) => Holding::None,
            Holding::Many(v) => {
                let moving = v.iter().filter(|e| crosses(e)).count();
                if moving == v.len() {
                    std::mem::take(held)
                } else if moving == 0 {
                    Holding::None
                } else {
                    let msg = if moving == 1 {
                        let at = v.iter().position(crosses).expect("one element crosses");
                        Holding::One(v.swap_remove(at))
                    } else {
                        let mut msg = Vec::with_capacity(moving);
                        msg.extend(v.extract_if(.., |e| crosses(e)));
                        Holding::Many(msg)
                    };
                    if let [e] = v[..] {
                        *held = Holding::One(e);
                    }
                    msg
                }
            }
        };
        out.send(j, msg);
    }

    fn recv(
        &self,
        round: u32,
        id: NodeId,
        held: &mut Holding<T>,
        inbox: &mut RoundInbox<'_, Holding<T>>,
    ) {
        let j = self.n - 1 - round;
        let incoming = inbox
            .take(j)
            .unwrap_or_else(|| panic!("round {round}: node {} got nothing on dim {j}", id.bits()));
        *held = match (std::mem::take(held), incoming) {
            (Holding::None, h) | (h, Holding::None) => h,
            (Holding::One(a), Holding::One(b)) => {
                // Room for the next merge of two pairs, as `Vec`'s own
                // first growth would leave.
                let mut v = Vec::with_capacity(4);
                v.extend([a, b]);
                Holding::Many(v)
            }
            (Holding::One(e), Holding::Many(mut v)) | (Holding::Many(mut v), Holding::One(e)) => {
                v.push(e);
                Holding::Many(v)
            }
            (Holding::Many(mut v), Holding::Many(w)) => {
                v.extend(w);
                Holding::Many(v)
            }
        };
    }

    /// Round `r` is an exchange on dimension `n − 1 − r`.
    fn exchange_dim(&self, round: u32) -> Option<u32> {
        Some(self.n - 1 - round)
    }

    /// Lands the node's elements in place: sorted by tag they must be
    /// exactly `me << lg .. (me + 1) << lg`, checked in one pass that
    /// tells a stranded, a duplicate and a missing element apart. A node
    /// outside `after`'s cube has no share: anything it holds is stranded.
    /// The values go straight into a buffer as long as the holding.
    fn finish(&self, id: NodeId, mut held: Holding<T>) -> Vec<T> {
        let me = id.bits();
        let share = if me < self.after_nodes { 1 << self.lg } else { 0 };
        let elems = held.elems_mut();
        elems.sort_unstable_by_key(|&(tag, _)| tag);
        let mut values = Vec::with_capacity(elems.len());
        let mut prev = None;
        for &(tag, value) in &*elems {
            let (dst, dst_local) = (tag >> self.lg, tag & ((1 << self.lg) - 1));
            assert_eq!(dst, me, "element for {dst} stranded at {me}");
            assert!(prev != Some(tag), "duplicate at local {dst_local}");
            prev = Some(tag);
            values.push(value);
        }
        assert!(values.len() == share, "node {me} missing elements");
        values
    }
}

/// Runs the standard-exchange transposition as an SPMD program: every
/// node partitions its held elements by the destination's bit in the
/// scanned dimension and exchanges them with its neighbor, one dimension
/// per round, highest first (§5's pseudo-code), on the larger of the two
/// layouts' cubes: every node sends once per round, `2^n · n` messages.
///
/// Returns the transposed matrix and the runtime statistics.
///
/// # Panics
/// If `after`'s shape is not `m`'s transposed, or if a node ends holding
/// an element for another node ("stranded" — a node outside `after`'s
/// cube must end empty), two for one slot ("duplicate") or too few.
pub fn spmd_transpose_exchange<T: Copy + Default + Send + Sync>(
    m: &DistMatrix<T>,
    after: &Layout,
) -> (DistMatrix<T>, RunStats) {
    exchange_on(m, after, |n, program| run_rounds(n, program))
}

/// [`spmd_transpose_exchange`], with `run` running the program on the `n`-cube.
pub(crate) fn exchange_on<T: Copy + Default + Send + Sync>(
    m: &DistMatrix<T>,
    after: &Layout,
    run: impl FnOnce(u32, &ExchangeRounds<'_, T>) -> (Vec<Vec<T>>, RunStats),
) -> (DistMatrix<T>, RunStats) {
    let spec = TransposeSpec::with_after(m.layout().clone(), after.clone());
    let n = after.n().max(spec.before.n());
    let tags = exchange_tags(&spec);
    let lg = after.elems_per_node().trailing_zeros();
    let program = ExchangeRounds { n, lg, after_nodes: after.num_nodes() as u64, tags: &tags, m };
    let (mut results, stats) = run(n, &program);
    results.truncate(after.num_nodes());
    (DistMatrix::from_buffers(after.clone(), results), stats)
}

/// Runs the step-by-step SPT transpose (§6.1.1 / §8.2.1) as an SPMD
/// program: the simulator's SPT plan, each off-diagonal node's whole
/// array one flight, relayed along its path to `tr(x)`, which transposes
/// it in place. Panics as [`crate::two_dim::transpose_spt`] does.
pub fn spmd_transpose_spt<T: Copy + Default + Send + Sync>(
    m: &DistMatrix<T>,
    after: &Layout,
) -> (DistMatrix<T>, RunStats) {
    spt_on(m, after, |n, program| run_rounds(n, program))
}

/// [`spmd_transpose_spt`], with `run` running the program on the `n`-cube.
pub(crate) fn spt_on<T: Copy + Send + Sync>(
    m: &DistMatrix<T>,
    after: &Layout,
    run: impl FnOnce(u32, &FlightRounds<'_, T>) -> (Vec<Vec<Carried<T>>>, RunStats),
) -> (DistMatrix<T>, RunStats) {
    let mut stats = RunStats::default();
    let per = m.layout().elems_per_node();
    let out =
        crate::two_dim::spt(m, after, per, |plan| run_flight_rounds(plan, m, run, &mut stats));
    (out, stats)
}

/// Runs the §6.3 combined conversion-and-transpose algorithm as an SPMD
/// program: the plan of [`crate::gray::transpose_combined`], every block
/// one flight, `n/2` iterations of a row- and a column-dimension round in
/// which a block crosses, holds or is relayed (the paper's case table
/// says which nodes send). Panics as that mover does.
pub fn spmd_transpose_combined_gray<T: Copy + Default + Send + Sync>(
    spec: &crate::gray::MixedSpec,
    m: &DistMatrix<T>,
) -> (DistMatrix<T>, RunStats) {
    let mut stats = RunStats::default();
    let out = crate::gray::combined(spec, m, |plan| {
        run_flight_rounds(plan, m, |n, program| run_rounds(n, program), &mut stats)
    });
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assert_transposed, labels};
    use cubelayout::{Assignment, Direction, Encoding};
    use cubesync::atomic::{AtomicUsize, Ordering};

    /// The exchange program this module's tagged one replaced, kept as
    /// its oracle: every element travels as a `(dst_node, dst_local,
    /// value)` triple, built per element from `spec.moves()`; every
    /// non-empty message is a fresh `Vec`; and `place_held` scatters a
    /// node's elements through a `seen` ledger.
    mod oracle {
        use cubeaddr::NodeId;
        use cubelayout::{DistMatrix, TransposeSpec};
        use cuberun::{Outbox, RoundInbox, RoundProgram};

        /// One routed element in an SPMD message: `(dst_node, dst_local, value)`.
        pub type Elem<T> = (u64, u64, T);

        /// Precomputes each node's initial routed elements for an
        /// exchange transpose on `num` nodes.
        pub fn exchange_initial<T: Copy>(
            m: &DistMatrix<T>,
            spec: &TransposeSpec,
            num: usize,
        ) -> Vec<Vec<Elem<T>>> {
            // Every node of the before-layout starts with exactly its own elements.
            let (holders, per) = (spec.before.num_nodes(), spec.before.elems_per_node());
            let mut initial: Vec<Vec<Elem<T>>> =
                (0..num).map(|x| Vec::with_capacity(if x < holders { per } else { 0 })).collect();
            for mv in spec.moves() {
                let value = m.node(mv.src)[mv.src_local as usize];
                initial[mv.src.index()].push((mv.dst.bits(), mv.dst_local, value));
            }
            initial
        }

        /// Places a node's final held elements into its local buffer,
        /// checking that nothing was misrouted, duplicated or lost.
        pub fn place_held<T: Copy + Default>(
            me: u64,
            held: Vec<Elem<T>>,
            per_after: usize,
        ) -> Vec<T> {
            let mut local = vec![T::default(); per_after];
            let mut seen = vec![false; per_after];
            for (dst, dst_local, value) in held {
                assert_eq!(dst, me, "element for {dst} stranded at {me}");
                assert!(!seen[dst_local as usize], "duplicate at local {dst_local}");
                seen[dst_local as usize] = true;
                local[dst_local as usize] = value;
            }
            assert!(seen.iter().all(|&s| s), "node {me} missing elements");
            local
        }

        /// §5's exchange transpose on triples: round `r` scans dimension
        /// `j = n − 1 − r`; a node outside the after-layout's cube must
        /// end empty.
        pub struct ExchangeRounds<'a, T> {
            pub n: u32,
            pub per_after: usize,
            pub after_nodes: u64,
            pub initial: &'a [Vec<Elem<T>>],
        }

        impl<T: Copy + Default + Send + Sync> RoundProgram<Vec<Elem<T>>> for ExchangeRounds<'_, T> {
            type State = Vec<Elem<T>>;
            type Out = Vec<T>;

            fn rounds(&self) -> u32 {
                self.n
            }

            fn init(&self, id: NodeId) -> Vec<Elem<T>> {
                self.initial[id.index()].clone()
            }

            fn send(
                &self,
                round: u32,
                id: NodeId,
                held: &mut Vec<Elem<T>>,
                out: &mut Outbox<'_, Vec<Elem<T>>>,
            ) {
                let (j, me) = (self.n - 1 - round, id.bits());
                let mut send = Vec::new();
                held.retain(|&elem| {
                    let stays = (elem.0 >> j) & 1 == (me >> j) & 1;
                    if !stays {
                        send.push(elem);
                    }
                    stays
                });
                out.send(j, send);
            }

            fn recv(
                &self,
                round: u32,
                id: NodeId,
                held: &mut Vec<Elem<T>>,
                inbox: &mut RoundInbox<'_, Vec<Elem<T>>>,
            ) {
                let j = self.n - 1 - round;
                let incoming = inbox.take(j).unwrap_or_else(|| {
                    panic!("round {round}: node {} got nothing on dim {j}", id.bits())
                });
                held.extend(incoming);
            }

            fn finish(&self, id: NodeId, held: Vec<Elem<T>>) -> Vec<T> {
                let me = id.bits();
                place_held(me, held, if me < self.after_nodes { self.per_after } else { 0 })
            }
        }
    }

    /// The exchange program of [`spmd_transpose_exchange`] on the
    /// thread-per-node oracle runtime ([`cuberun::reference`], capped at
    /// `n <= 10`): the round door changed the execution substrate, not
    /// the algorithm.
    fn spmd_transpose_exchange_threads<T: Copy + Default + Send + Sync>(
        m: &DistMatrix<T>,
        after: &Layout,
    ) -> (DistMatrix<T>, RunStats) {
        let spec = TransposeSpec::with_after(m.layout().clone(), after.clone());
        let n = after.n();
        let per_after = after.elems_per_node();
        let initial = oracle::exchange_initial(m, &spec, after.num_nodes());

        let (results, stats) =
            cuberun::reference::run_spmd_threads::<Vec<oracle::Elem<T>>, _, _>(n, |ctx| {
                let me = ctx.id().bits();
                let mut held = initial[ctx.id().index()].clone();
                for j in (0..n).rev() {
                    let (keep, send): (Vec<_>, Vec<_>) =
                        held.into_iter().partition(|&(dst, _, _)| (dst >> j) & 1 == (me >> j) & 1);
                    held = keep;
                    held.extend(ctx.exchange(j, send));
                }
                oracle::place_held(me, held, per_after)
            });

        (DistMatrix::from_buffers(after.clone(), results), stats)
    }

    /// A holding as the send log sees it.
    trait Held {
        fn len(&self) -> usize;

        /// Whether the elements are in a vector: the tagged program's
        /// holding keeps a lone element inline.
        fn is_many(&self) -> bool {
            self.len() > 1
        }
    }

    impl<T> Held for Holding<T> {
        fn len(&self) -> usize {
            match self {
                Holding::None => 0,
                Holding::One(_) => 1,
                Holding::Many(v) => v.len(),
            }
        }

        fn is_many(&self) -> bool {
            matches!(self, Holding::Many(_))
        }
    }

    impl<E> Held for Vec<E> {
        fn len(&self) -> usize {
            self.len()
        }
    }

    /// The holding transitions the multi-element arms of the tagged
    /// program handle, as counted by [`Logged`]: each must occur over the
    /// differential test's runs, so the inline one-element path leaves
    /// none of them dead.
    const TRANSITIONS: [&str; 5] = [
        "one + one → many",
        "many + one",
        "many + many",
        "a split of a many",
        "a many that crosses whole",
    ];

    /// One count per entry of [`TRANSITIONS`].
    type Seen = [AtomicUsize; TRANSITIONS.len()];

    /// An exchange program with its sends logged: entry
    /// `round · nodes + node` of `sent` is the length of the one message
    /// that node sent in that round — its holding before its send step
    /// less what it kept. `seen` counts the [`TRANSITIONS`] by length: a
    /// receive reads its message's length from the partner's entry,
    /// written on the same worker or before the partner's worker posted
    /// the message, whose hand-off orders that relaxed write before the
    /// relaxed read. Every step checks that a holding is in a vector
    /// exactly when it holds two or more. With `declared` false the
    /// program's [`RoundProgram::exchange_dim`] is hidden, so the door
    /// runs every round tagged.
    struct Logged<'a, P> {
        program: P,
        declared: bool,
        nodes: usize,
        sent: &'a [AtomicUsize],
        seen: &'a Seen,
    }

    impl<P> Logged<'_, P> {
        fn count(&self, transition: &str) {
            let at = TRANSITIONS.iter().position(|&t| t == transition).expect("a transition");
            self.seen[at].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Panics unless `held` is in a vector exactly when it holds two or
    /// more elements.
    fn check_form<M: Held>(held: &M, step: &str) {
        assert_eq!(held.is_many(), held.len() > 1, "{step}: a holding of {}", held.len());
    }

    impl<M: Held + Send, P: RoundProgram<M, State = M>> RoundProgram<M> for Logged<'_, P> {
        type State = M;
        type Out = P::Out;

        fn rounds(&self) -> u32 {
            self.program.rounds()
        }

        fn init(&self, id: NodeId) -> M {
            let held = self.program.init(id);
            check_form(&held, "init");
            held
        }

        fn send(&self, round: u32, id: NodeId, held: &mut M, out: &mut Outbox<'_, M>) {
            let before = held.len();
            self.program.send(round, id, held, out);
            check_form(held, "send");
            let sent = before - held.len();
            self.sent[round as usize * self.nodes + id.index()].store(sent, Ordering::Relaxed);
            if before > 1 && sent > 0 {
                let whole = sent == before;
                self.count(if whole { "a many that crosses whole" } else { "a split of a many" });
            }
        }

        fn recv(&self, round: u32, id: NodeId, held: &mut M, inbox: &mut RoundInbox<'_, M>) {
            let j = self.program.rounds() - 1 - round;
            let from = round as usize * self.nodes + (id.index() ^ 1 << j);
            let (mine, incoming) = (held.len(), self.sent[from].load(Ordering::Relaxed));
            self.program.recv(round, id, held, inbox);
            check_form(held, "recv");
            match (mine, incoming) {
                (0, _) | (_, 0) => {}
                (1, 1) => self.count("one + one → many"),
                (1, _) | (_, 1) => self.count("many + one"),
                _ => self.count("many + many"),
            }
        }

        fn finish(&self, id: NodeId, held: M) -> P::Out {
            self.program.finish(id, held)
        }

        fn exchange_dim(&self, round: u32) -> Option<u32> {
            self.program.exchange_dim(round).filter(|_| self.declared)
        }
    }

    /// One side of the differential test: the outputs of every node of
    /// the run, the message count and the send log — or the panic text.
    type Side = Result<(Vec<Vec<u64>>, u64, Vec<usize>), String>;

    /// Runs `program` on the `n`-cube at `workers` workers with its
    /// sends logged, counting its transitions into `seen`; `declared`
    /// false hides its declared rounds.
    fn run_logged<M: Held + Send, P>(
        n: u32,
        program: P,
        declared: bool,
        workers: usize,
        seen: &Seen,
    ) -> Side
    where
        P: RoundProgram<M, State = M, Out = Vec<u64>>,
    {
        let nodes = 1usize << n;
        let sent: Vec<AtomicUsize> = (0..nodes * n as usize).map(|_| AtomicUsize::new(0)).collect();
        let logged = Logged { program, declared, nodes, sent: &sent, seen };
        let (outs, stats) =
            cubetest::catch(|| cuberun::with_workers(workers, || run_rounds(n, &logged)))?;
        Ok((outs, stats.messages, sent.iter().map(|s| s.load(Ordering::Relaxed)).collect()))
    }

    /// The tagged program on `tags` and the triple oracle on its own
    /// initial elements, each element where `tags` differs from the clean
    /// table retargeted to the decoded tag, at `workers` workers. The
    /// tagged program's transitions are counted into `seen`.
    fn both_sides(
        m: &DistMatrix<u64>,
        after: &Layout,
        tags: &[u64],
        workers: usize,
        seen: &Seen,
    ) -> [Side; 2] {
        let spec = TransposeSpec::with_after(m.layout().clone(), after.clone());
        let n = after.n().max(spec.before.n());
        let (lg, after_nodes) = (after.elems_per_node().trailing_zeros(), after.num_nodes() as u64);
        let tagged = ExchangeRounds { n, lg, after_nodes, tags, m };
        let decode = |tag: u64| (tag >> lg, tag & ((1 << lg) - 1));
        let per_before = spec.before.elems_per_node();
        let mut initial = oracle::exchange_initial(m, &spec, 1 << n);
        for (i, (&clean, &tag)) in exchange_tags(&spec).iter().zip(tags).enumerate() {
            if clean != tag {
                let held = &mut initial[i / per_before];
                let e = held.iter_mut().find(|e| (e.0, e.1) == decode(clean)).expect("a clean tag");
                (e.0, e.1) = decode(tag);
            }
        }
        let per_after = after.elems_per_node();
        let triples = oracle::ExchangeRounds { n, per_after, after_nodes, initial: &initial };
        let unseen = Default::default();
        [run_logged(n, tagged, true, workers, seen), run_logged(n, triples, true, workers, &unseen)]
    }

    /// Layout pairs for the differential test: binary and Gray, one- and
    /// two-dimensional, consecutive and cyclic, equal and unequal cubes.
    fn differential_pairs() -> Vec<(Layout, Layout)> {
        use Assignment::{Consecutive, Cyclic};
        use Direction::{Cols, Rows};
        use Encoding::{Binary, Gray};
        let square = Layout::square(3, 3, 2, Consecutive, Binary);
        let one_per_node = Layout::square(2, 2, 2, Cyclic, Gray);
        vec![
            (square.clone(), square.swapped_shape()),
            (one_per_node.clone(), one_per_node.swapped_shape()),
            (
                Layout::one_dim(3, 3, Rows, 3, Consecutive, Binary),
                Layout::one_dim(3, 3, Rows, 3, Consecutive, Binary),
            ),
            (
                Layout::one_dim(4, 3, Cols, 3, Cyclic, Gray),
                Layout::one_dim(3, 4, Rows, 2, Cyclic, Gray),
            ),
            (
                Layout::one_dim(3, 4, Rows, 2, Consecutive, Gray),
                Layout::two_dim(4, 3, (2, Cyclic, Binary), (2, Consecutive, Gray)),
            ),
            (
                Layout::two_dim(4, 3, (2, Cyclic, Gray), (1, Consecutive, Binary)),
                Layout::one_dim(3, 4, Cols, 4, Cyclic, Binary),
            ),
            (
                Layout::two_dim(3, 3, (1, Consecutive, Binary), (2, Cyclic, Gray)),
                Layout::one_dim(3, 3, Cols, 1, Consecutive, Binary),
            ),
        ]
    }

    #[test]
    fn tagged_program_matches_the_triple_oracle() {
        let seen = Seen::default();
        for (before, after) in differential_pairs() {
            let m = labels(before.clone());
            let spec = TransposeSpec::with_after(before.clone(), after.clone());
            let tags = exchange_tags(&spec);
            let n = before.n().max(after.n());
            let case = format!("{before:?} -> {after:?}");
            for workers in [1, 2, 5] {
                let [tagged, triples] = both_sides(&m, &after, &tags, workers, &seen);
                assert_eq!(tagged, triples, "{case} at {workers} workers");
                let (outs, messages, _) = tagged.expect("a clean run");
                assert_eq!(messages, (1u64 << n) * u64::from(n), "{case}");
                let outs = outs[..after.num_nodes()].to_vec();
                assert_transposed(&before, &DistMatrix::from_buffers(after.clone(), outs));
            }
            // Every layout pair's map of addresses is affine over GF(2),
            // so the non-empty holdings of a round are all of one size and
            // a one-element holding never meets a longer one. Two entries
            // of the table swapped across nodes are still a bijection but
            // not affine: both programs must land the same permutation.
            let mut swapped = tags.clone();
            swapped.swap(1, 6 * before.elems_per_node() % tags.len());
            let [tagged, triples] = both_sides(&m, &after, &swapped, 1, &seen);
            assert!(tagged.is_ok(), "{case}: swapped tags");
            assert_eq!(tagged, triples, "{case}: swapped tags");
            // Seeded corruptions, at one worker so the first node to fail
            // is the lowest: both programs must fail with the same text.
            for (what, bad) in corruptions(&tags, &after, n) {
                let [tagged, triples] = both_sides(&m, &after, &bad, 1, &seen);
                let text = tagged.expect_err(&format!("{case}: the {what} element went through"));
                assert!(text.contains(what), "{case}: {text}");
                assert_eq!(Err(text), triples, "{case}: {what}");
            }
        }
        for (what, count) in TRANSITIONS.iter().zip(&seen) {
            assert!(count.load(Ordering::Relaxed) > 0, "no pair reaches {what}");
        }
    }

    /// The tag table with one element retargeted to another's slot
    /// ("duplicate") and with one sent off the `n`-cube ("stranded").
    fn corruptions(tags: &[u64], after: &Layout, n: u32) -> [(&'static str, Vec<u64>); 2] {
        let lg = after.elems_per_node().trailing_zeros();
        let at = |tag: u64| tags.iter().position(|&t| t == tag).expect("every slot has a tag");
        let mut duplicate = tags.to_vec();
        duplicate[at(1)] = 0;
        let mut stranded = tags.to_vec();
        stranded[at(1)] |= 1 << (lg + n);
        [("duplicate", duplicate), ("stranded", stranded)]
    }

    /// A declared round runs on slots, and without a batch where every
    /// pair is at home: on every differential pair, clean and corrupted,
    /// at 1, 2 and 5 workers, the program must give what it gives with its
    /// declaration hidden — outputs, messages and send log, or the panic
    /// text.
    #[test]
    fn declared_rounds_match_the_tagged_door() {
        let unseen = Seen::default();
        for (before, after) in differential_pairs() {
            let m = labels(before.clone());
            let spec = TransposeSpec::with_after(before.clone(), after.clone());
            let tags = exchange_tags(&spec);
            let n = before.n().max(after.n());
            let (lg, after_nodes) =
                (after.elems_per_node().trailing_zeros(), after.num_nodes() as u64);
            let case = format!("{before:?} -> {after:?}");
            let tables = [("clean", tags.clone())].into_iter().chain(corruptions(&tags, &after, n));
            for (what, table) in tables {
                for workers in [1, 2, 5] {
                    let [declared, hidden] = [true, false].map(|declared| {
                        let program = ExchangeRounds { n, lg, after_nodes, tags: &table, m: &m };
                        run_logged(n, program, declared, workers, &unseen)
                    });
                    assert_eq!(declared.is_ok(), what == "clean", "{case}: {what}");
                    assert_eq!(declared, hidden, "{case}: {what} at {workers} workers");
                }
            }
        }
    }

    /// A node outside `after`'s cube has no share of the output: any
    /// element it ends with is stranded there, and the panic names it.
    #[test]
    fn a_node_outside_the_after_cube_must_end_empty() {
        let before =
            Layout::one_dim(3, 3, Direction::Rows, 3, Assignment::Consecutive, Encoding::Binary);
        let m = labels(before.clone());
        let program = ExchangeRounds { n: 3, lg: 1, after_nodes: 4, tags: &[], m: &m };
        let caught = cubetest::catch(|| program.finish(NodeId(5), Holding::One((3, 7))));
        let text = caught.expect_err("node 5 held an element");
        assert!(text.contains("element for 1 stranded at 5"), "{text}");
        program.finish(NodeId(5), Holding::None);
    }

    /// At two workers on the 10-cube only round 0's dimension, the top
    /// one, crosses the two home ranges. Every other round is declared
    /// with its pairs at home and skips the batch, so the workers meet
    /// once and at most one of them blocks.
    #[test]
    fn exchange_at_two_workers_blocks_at_most_once() {
        let before = Layout::square(5, 5, 5, Assignment::Consecutive, Encoding::Binary);
        let m = labels(before.clone());
        let (out, stats) =
            cuberun::with_workers(2, || spmd_transpose_exchange(&m, &before.swapped_shape()));
        assert_transposed(&before, &out);
        assert_eq!(stats.messages, 1024 * 10);
        assert!(stats.parks <= 1 && stats.wakes <= stats.parks, "{stats:?}");
    }

    /// `after` on a smaller cube than `m`'s layout: the program runs on
    /// the larger cube, where every node sends once per round, and the
    /// nodes outside `after`'s cube hand everything on.
    #[test]
    fn spmd_exchange_onto_a_smaller_cube() {
        let layout = |n| {
            Layout::one_dim(3, 3, Direction::Rows, n, Assignment::Consecutive, Encoding::Binary)
        };
        let (before, after) = (layout(3), layout(2));
        let m = labels(before.clone());
        let (out, stats) = spmd_transpose_exchange(&m, &after);
        assert_transposed(&before, &out);
        assert_eq!(stats.messages, 8 * 3);
    }

    /// The reverse: `after` on a larger cube, whose extra nodes start
    /// empty.
    #[test]
    fn spmd_exchange_onto_a_larger_cube() {
        let layout = |n| {
            Layout::one_dim(3, 3, Direction::Rows, n, Assignment::Consecutive, Encoding::Binary)
        };
        let (before, after) = (layout(2), layout(3));
        let m = labels(before.clone());
        let (out, stats) = spmd_transpose_exchange(&m, &after);
        assert_transposed(&before, &out);
        assert_eq!(stats.messages, 8 * 3);
    }

    #[test]
    fn spmd_exchange_matches_simulator() {
        let before =
            Layout::one_dim(3, 3, Direction::Rows, 2, Assignment::Consecutive, Encoding::Binary);
        let after =
            Layout::one_dim(3, 3, Direction::Rows, 2, Assignment::Consecutive, Encoding::Binary);
        let m = labels(before.clone());
        let (out, stats) = spmd_transpose_exchange(&m, &after);
        assert_transposed(&before, &out);
        // Every node exchanges once per dimension: N·n messages.
        assert_eq!(stats.messages, 4 * 2);

        // Identical to the simulator path.
        let mut net =
            cubesim::SimNet::new(2, cubesim::MachineParams::unit(cubesim::PortMode::OnePort));
        let sim = crate::one_dim::transpose_1d_exchange(
            &m,
            &after,
            &mut net,
            cubecomm::BufferPolicy::Ideal,
        );
        assert_eq!(out, sim);
    }

    #[test]
    fn spmd_exchange_larger_cube() {
        let before =
            Layout::one_dim(4, 4, Direction::Cols, 3, Assignment::Cyclic, Encoding::Binary);
        let after = Layout::one_dim(4, 4, Direction::Cols, 3, Assignment::Cyclic, Encoding::Binary);
        let m = labels(before.clone());
        let (out, _) = spmd_transpose_exchange(&m, &after);
        assert_transposed(&before, &out);
    }

    #[test]
    fn threads_reference_matches_pool_runtime() {
        // Same exchange program on both runtimes: identical matrices and
        // deterministic counters, regardless of pool size.
        let before =
            Layout::one_dim(4, 4, Direction::Rows, 4, Assignment::Consecutive, Encoding::Binary);
        let m = labels(before.clone());
        let (old, old_stats) = spmd_transpose_exchange_threads(&m, &before);
        let (new, new_stats) = spmd_transpose_exchange(&m, &before);
        assert_eq!(old, new);
        assert_eq!(old_stats.messages, new_stats.messages);
        assert_transposed(&before, &new);
    }

    #[test]
    fn spmd_spt_matches_simulator() {
        let before = Layout::square(3, 3, 1, Assignment::Consecutive, Encoding::Binary);
        let after = before.swapped_shape();
        let m = labels(before.clone());
        let (out, _) = spmd_transpose_spt(&m, &after);
        assert_transposed(&before, &out);

        let mut net: cubesim::SimNet<crate::two_dim::Packet<u64>> =
            cubesim::SimNet::new(2, cubesim::MachineParams::unit(cubesim::PortMode::AllPorts));
        let sim = crate::two_dim::transpose_spt(&m, &after, &mut net, before.elems_per_node());
        assert_eq!(out, sim);
    }

    #[test]
    fn spmd_spt_four_cube() {
        let before = Layout::square(3, 3, 2, Assignment::Consecutive, Encoding::Binary);
        let after = before.swapped_shape();
        let m = labels(before.clone());
        let (out, _) = spmd_transpose_spt(&m, &after);
        assert_transposed(&before, &out);
    }

    #[test]
    fn paper_case_table_matches_semantic_combined_transpose() {
        // The combined plan on the round door and on the simulator give
        // identical results; `gray`'s tests check that the §6.3 case table
        // predicts the plan's senders.
        for (p, half) in [(3u32, 2u32), (4, 2), (4, 3), (5, 2)] {
            let spec = crate::gray::MixedSpec::binary_rows_gray_cols(p, half);
            let m = labels(spec.before());
            let (spmd_out, stats) = spmd_transpose_combined_gray(&spec, &m);
            let mut net: cubesim::SimNet<Vec<u64>> = cubesim::SimNet::new(
                2 * half,
                cubesim::MachineParams::unit(cubesim::PortMode::AllPorts),
            );
            let semantic = crate::gray::transpose_combined(&spec, &m, &mut net);
            assert_eq!(spmd_out.gather(), semantic.gather(), "p={p} half={half}");
            // n/2 iterations, every node sends exactly once per iteration
            // (each of the three patterns has one send) → N·(n/2)
            // messages, i.e. n routing steps spread over the machine.
            assert_eq!(stats.messages, (1u64 << (2 * half)) * half as u64);
        }
    }

    /// Square layouts on the 2-, 4- and 6-cube, binary and Gray, with
    /// four elements per node.
    fn square_layouts() -> impl Iterator<Item = Layout> {
        let encodings = [Encoding::Binary, Encoding::Gray];
        (1..=3).flat_map(move |half| {
            encodings
                .map(|enc| Layout::square(half + 1, half + 1, half, Assignment::Consecutive, enc))
        })
    }

    /// The round door's run of a flight plan lands what the simulator's
    /// run of the same plan lands, with one message per hop it charged,
    /// at any worker count.
    #[test]
    fn spmd_spt_and_combined_match_the_simulator_at_1_2_and_5_workers() {
        use crate::gray::{transpose_combined, MixedSpec};
        let unit = cubesim::MachineParams::unit(cubesim::PortMode::AllPorts);
        for before in square_layouts() {
            let (after, m) = (before.swapped_shape(), labels(before.clone()));
            let mut net = cubesim::SimNet::new(before.n(), unit.clone());
            let sim = crate::two_dim::transpose_spt(&m, &after, &mut net, before.elems_per_node());
            let hops = net.finalize().total_messages;
            for workers in [1, 2, 5] {
                let (out, stats) =
                    cuberun::with_workers(workers, || spmd_transpose_spt(&m, &after));
                assert_eq!((&out, stats.messages), (&sim, hops), "SPT {before:?} at {workers}");
            }
        }
        for half in 1..=3 {
            for (row_enc, col_enc) in [Encoding::Binary, Encoding::Gray]
                .into_iter()
                .flat_map(|r| [(r, Encoding::Binary), (r, Encoding::Gray)])
            {
                let spec = MixedSpec { p: half + 1, half, row_enc, col_enc };
                let m = labels(spec.before());
                let mut net = cubesim::SimNet::new(2 * half, unit.clone());
                let sim = transpose_combined(&spec, &m, &mut net);
                let hops = net.finalize().total_messages;
                for workers in [1, 2, 5] {
                    let (out, stats) =
                        cuberun::with_workers(workers, || spmd_transpose_combined_gray(&spec, &m));
                    assert_eq!((&out, stats.messages), (&sim, hops), "{spec:?} at {workers}");
                }
            }
        }
    }

    /// Unequal row and column processor dimensions are no pairwise
    /// exchange: the program refuses them as the simulator's SPT does.
    #[test]
    #[should_panic(expected = "SPT/DPT/MPT need equally many row and column processor dimensions")]
    fn spmd_spt_refuses_a_one_dimensional_layout() {
        let before =
            Layout::one_dim(2, 2, Direction::Rows, 2, Assignment::Consecutive, Encoding::Binary);
        spmd_transpose_spt(&labels(before.clone()), &before);
    }

    #[test]
    #[should_panic(expected = "matrix laid out as")]
    fn spmd_combined_refuses_a_matrix_not_laid_out_by_the_spec() {
        let spec = crate::gray::MixedSpec::binary_rows_gray_cols(3, 2);
        let m = labels(Layout::square(3, 3, 2, Assignment::Cyclic, Encoding::Binary));
        spmd_transpose_combined_gray(&spec, &m);
    }

    /// A node gets a buffer as long as its share: a node of several
    /// elements neither the slack its holding grew nor the second slot
    /// per element that the 16-byte `(tag, value)` pairs would leave if
    /// collected in place, and a node of one element a buffer of one.
    #[test]
    fn spmd_exchange_returns_buffers_without_slack() {
        for (before, share) in [
            (Layout::square(4, 4, 1, Assignment::Consecutive, Encoding::Binary), 64),
            (Layout::square(3, 3, 3, Assignment::Consecutive, Encoding::Binary), 1),
        ] {
            let m = labels(before.clone());
            let (out, _) = exchange_on(&m, &before.swapped_shape(), |n, program| {
                let (outs, stats) = run_rounds(n, program);
                for (x, buffer) in outs.iter().enumerate() {
                    let got = (buffer.len(), buffer.capacity());
                    assert_eq!(got, (share, share), "node {x} of {before:?}");
                }
                (outs, stats)
            });
            assert_transposed(&before, &out);
        }
    }

    #[test]
    fn spmd_values_roundtrip() {
        // Double transpose through the SPMD path returns the original.
        let before =
            Layout::one_dim(3, 3, Direction::Rows, 2, Assignment::Consecutive, Encoding::Binary);
        let m = DistMatrix::from_fn(before.clone(), |u, v| (u * 31 + v) as f64);
        let (t, _) = spmd_transpose_exchange(&m, &before);
        let (back, _) = spmd_transpose_exchange(&t, &before);
        assert_eq!(m, back);
    }
}
