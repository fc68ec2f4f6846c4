//! SPMD node programs: the paper's algorithms with real message passing.
//!
//! The simulator ([`cubesim`]) charges the cost model; these programs run
//! the same algorithms on the [`cuberun`] runtime — every cube node a
//! virtual node multiplexed onto a fixed worker pool — the way an iPSC
//! node program (or a thin MPI layer) executes them. Every node derives
//! its entire behaviour from its own address, exactly like the paper's
//! pseudo-code: there is no global coordinator, and at `n = 16` the full
//! 65 536-node Connection-Machine configuration runs on a handful of
//! worker threads.
//!
//! `cuberun` has one executor — each worker loops over the nodes it
//! hosts, step by step, trading one batch per other worker between
//! steps — behind two front doors, and the programs here use both. The
//! exchange transpose is "for j := n−1 downto 0: exchange on dimension
//! j" — a round schedule every node knows in advance — so
//! [`spmd_transpose_exchange`] is a [`RoundProgram`] on
//! [`cuberun::run_rounds`], a step per round. Its elements travel as a
//! one-word destination tag and a value, a holding that crosses whole
//! moves without a copy, and a node lands its elements in place by
//! sorting their tags. [`spmd_transpose_spt`] (a
//! node relays arrays it learns of as they arrive) and
//! [`spmd_transpose_combined_gray`] (a relaying node receives before it
//! sends inside one iteration) are free-form `async` programs on
//! [`cuberun::run_spmd`], polled in sweeps until every node has
//! finished.
//!
//! The results are bit-identical to the simulator drivers, which the test
//! suite checks. This module's tests pin the exchange program, message by
//! message, to the triple-carrying one it replaced, and run that on the
//! thread-per-node oracle runtime ([`cuberun::reference`]).

use cubeaddr::NodeId;
use cubelayout::{DistMatrix, Layout, TransposeSpec};
use cuberun::{run_rounds, run_spmd, Outbox, RoundInbox, RoundProgram, RunStats};

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

impl<T: Copy + Default + Send + Sync> RoundProgram<Vec<Elem<T>>> for ExchangeRounds<'_, T> {
    type State = Vec<Elem<T>>;
    type Out = Vec<T>;

    fn rounds(&self) -> u32 {
        self.n
    }

    fn init(&self, id: NodeId) -> Vec<Elem<T>> {
        // A node outside the before-layout's cube starts empty.
        let values = if id.index() < self.m.layout().num_nodes() { self.m.node(id) } else { &[] };
        let tags = &self.tags[id.index() * values.len()..][..values.len()];
        tags.iter().copied().zip(values.iter().copied()).collect()
    }

    fn send(
        &self,
        round: u32,
        id: NodeId,
        held: &mut Vec<Elem<T>>,
        out: &mut Outbox<'_, Vec<Elem<T>>>,
    ) {
        let j = self.n - 1 - round;
        let (bit, mine) = (self.lg + j, (id.bits() >> j) & 1);
        let crosses = |&(tag, _): &Elem<T>| (tag >> bit) & 1 != mine;
        let moving = held.iter().filter(|e| crosses(e)).count();
        // Both partners always send (possibly an empty vector): every
        // node's receive of the round then has exactly one message. A
        // holding that crosses whole travels as it is.
        let msg = if moving == held.len() {
            std::mem::take(held)
        } else if moving == 0 {
            Vec::new()
        } else {
            let mut msg = Vec::with_capacity(moving);
            msg.extend(held.extract_if(.., |e| crosses(e)));
            msg
        };
        out.send(j, msg);
    }

    fn recv(
        &self,
        round: u32,
        id: NodeId,
        held: &mut Vec<Elem<T>>,
        inbox: &mut RoundInbox<'_, Vec<Elem<T>>>,
    ) {
        let j = self.n - 1 - round;
        let incoming = inbox
            .take(j)
            .unwrap_or_else(|| panic!("round {round}: node {} got nothing on dim {j}", id.bits()));
        if held.is_empty() {
            *held = incoming;
        } else {
            held.extend(incoming);
        }
    }

    /// Lands the node's elements in place: sorted by tag they must be
    /// exactly `me << lg .. (me + 1) << lg`, checked in one pass that
    /// tells a stranded, a duplicate and a missing element apart. A node
    /// outside `after`'s cube has no share: anything it holds is stranded.
    fn finish(&self, id: NodeId, mut held: Vec<Elem<T>>) -> Vec<T> {
        let me = id.bits();
        let share = if me < self.after_nodes { 1 << self.lg } else { 0 };
        held.sort_unstable_by_key(|&(tag, _)| tag);
        let mut prev = None;
        for &(tag, _) in &held {
            let (dst, dst_local) = (tag >> self.lg, tag & ((1 << self.lg) - 1));
            assert_eq!(dst, me, "element for {dst} stranded at {me}");
            assert!(prev != Some(tag), "duplicate at local {dst_local}");
            prev = Some(tag);
        }
        assert!(held.len() == share, "node {me} missing elements");
        held.into_iter().map(|(_, value)| value).collect()
    }
}

/// Runs the standard-exchange transposition as an SPMD program: every
/// node partitions its held elements by the destination's bit in the
/// scanned dimension and exchanges them with its neighbor, one dimension
/// per round, highest first (§5's pseudo-code). The round schedule is
/// fixed, so the program runs through `cuberun`'s round door: each
/// worker loops over the nodes it hosts, round by round, and no node is
/// ever suspended. It runs on the larger of the two layouts' cubes, so
/// every node of the run sends once per round: `2^n · n` messages.
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

/// One event of a node's part in the SPT schedule.
enum Hop {
    /// Forward source `src`'s array across `dim`.
    Send { src: u64, dim: u32 },
    /// Receive an array across `dim`.
    Recv { dim: u32 },
}

/// Every node's part in the SPT schedule, in order: source `x`'s array
/// takes hop `s` of `spt_path(x)` in routing step `s`, and within a step
/// a node does its sends before its receives. Each path is built once
/// and walked once, so the whole schedule costs O(N·n).
fn spt_hops(n: u32, half: u32) -> Vec<Vec<Hop>> {
    let num = 1usize << n;
    let paths: Vec<Vec<u32>> = (0..num as u64).map(|x| crate::two_dim::spt_path(x, half)).collect();
    // Where each source's array is at the start of the current step.
    let mut pos: Vec<u64> = (0..num as u64).collect();
    let mut hops: Vec<Vec<Hop>> = (0..num).map(|_| Vec::new()).collect();
    for step in 0..n as usize {
        let moving = || (0..num).filter_map(|x| Some((x, *paths[x].get(step)?)));
        for (x, dim) in moving() {
            hops[pos[x] as usize].push(Hop::Send { src: x as u64, dim });
        }
        for (x, dim) in moving() {
            pos[x] ^= 1 << dim;
            hops[pos[x] as usize].push(Hop::Recv { dim });
        }
    }
    hops
}

/// Runs the step-by-step SPT two-dimensional transpose as an SPMD
/// program: every node's whole array travels hop by hop along its SPT
/// path (§6.1.1 / §8.2.1). The schedule is known in advance and built
/// once: each node originates, relays or absorbs arrays in the order
/// its part of the schedule lists.
pub fn spmd_transpose_spt<T: Copy + Default + Send + Sync>(
    m: &DistMatrix<T>,
    after: &Layout,
) -> (DistMatrix<T>, RunStats) {
    let before = m.layout().clone();
    let n = before.n();
    assert!(n.is_multiple_of(2), "SPT needs an even cube dimension");
    let half = n / 2;
    let lr = before.local_rows();
    let lc = before.local_cols();
    let num = before.num_nodes();

    let buffers: Vec<Vec<T>> =
        (0..num).map(|x| m.node(cubeaddr::NodeId(x as u64)).to_vec()).collect();
    let hops = spt_hops(n, half);

    // Messages are source-tagged: a node may relay several arrays at once
    // (paths are edge-disjoint, not node-disjoint).
    let (results, stats) = run_spmd::<(u64, Vec<T>), _, _, _>(n, |ctx| {
        let (buffers, hops) = (&buffers, &hops);
        async move {
            let me = ctx.id().bits();
            let mut held: std::collections::HashMap<u64, Vec<T>> = std::collections::HashMap::new();
            if crate::two_dim::h_of(me, half) > 0 {
                held.insert(me, buffers[me as usize].clone());
            }
            for hop in &hops[me as usize] {
                match *hop {
                    Hop::Send { src, dim } => {
                        let arr = held.remove(&src).expect("schedule expects src's array here");
                        ctx.send(dim, (src, arr));
                    }
                    Hop::Recv { dim } => {
                        let (x, arr) = ctx.recv(dim).await;
                        held.insert(x, arr);
                    }
                }
            }
            // The unique source ending here is tr(me) (me itself when H = 0).
            let src = crate::two_dim::tr(me, half);
            let mut arr = if src == me {
                buffers[me as usize].clone()
            } else {
                held.remove(&src).expect("destination array missing")
            };
            assert!(held.is_empty(), "node {me} ended holding stray arrays");
            // In place, serial: the node program already runs inside the
            // worker pool, and the O(mn) staging copy per virtual node is
            // exactly the footprint this kernel exists to avoid.
            crate::inplace::transpose(&mut arr, lr, lc);
            arr
        }
    });

    (DistMatrix::from_buffers(after.clone(), results), stats)
}

/// The §6.3 combined conversion-and-transpose algorithm, transcribed
/// *verbatim* from the paper's pseudo-code, as an SPMD node program:
/// rows binary-encoded, columns Gray-encoded, every node deriving its
/// send/receive/relay role in each iteration from its own address bits
/// and the two running control flags:
///
/// ```text
/// even-block-row := true; even-parity-block-column := true;
/// for j := n/2-1 downto 0 do
///   case (ebr, epbc, bit j+n/2, bit j) of
///     (TT00),(TT11),(FF01),(FF10): recv(tmp, j+n/2); send(tmp, j);
///     (TT01),(TT10),(FF00),(FF11),
///     (TF01),(TF10),(FT00),(FT11): send(buf, j+n/2); recv(buf, j);
///     (TF00),(TF11),(FT01),(FT10): send(buf, j); recv(buf, j+n/2);
///   endcase
///   even-block-row := (bit j+n/2 = 0);
///   if (bit j = 1) then even-parity-block-column := not epbc;
/// endfor
/// ```
///
/// The relay case means a node can hold a transiting block while its own
/// block stays put for the iteration. The test suite checks the result
/// equals the data-driven [`crate::gray::transpose_combined`] exactly —
/// i.e. the paper's control table computes the same moves.
pub fn spmd_transpose_combined_gray<T: Copy + Default + Send + Sync>(
    spec: &crate::gray::MixedSpec,
    m: &DistMatrix<T>,
) -> (DistMatrix<T>, RunStats) {
    use cubelayout::Encoding;
    assert_eq!(spec.row_enc, Encoding::Binary, "the pseudo-code assumes binary rows");
    assert_eq!(spec.col_enc, Encoding::Gray, "the pseudo-code assumes Gray columns");
    let half = spec.half;
    let n = 2 * half;
    let before = spec.before();
    let after = spec.after();
    let (lr, lc) = (before.local_rows(), before.local_cols());
    let num = before.num_nodes();
    let buffers: Vec<Vec<T>> =
        (0..num).map(|x| m.node(cubeaddr::NodeId(x as u64)).to_vec()).collect();

    let (results, stats) = run_spmd::<Vec<T>, _, _, _>(n, |ctx| {
        let buffers = &buffers;
        async move {
            let me = ctx.id().bits();
            let bit = |pos: u32| (me >> pos) & 1 == 1;
            let mut buf = buffers[ctx.id().index()].clone();
            let mut ebr = true; // even-block-row
            let mut epbc = true; // even-parity-block-column
            for j in (0..half).rev() {
                let (hi, lo) = (bit(j + half), bit(j));
                // The three action patterns of the case table.
                enum Action {
                    Relay,
                    RowFirst,
                    ColFirst,
                }
                let action = match (ebr, epbc) {
                    // (TT00),(TT11) relay; (TT01),(TT10) row-first.
                    (true, true) => {
                        if hi == lo {
                            Action::Relay
                        } else {
                            Action::RowFirst
                        }
                    }
                    // (FF01),(FF10) relay; (FF00),(FF11) row-first.
                    (false, false) => {
                        if hi != lo {
                            Action::Relay
                        } else {
                            Action::RowFirst
                        }
                    }
                    // (TF00),(TF11) col-first; (TF01),(TF10) row-first.
                    (true, false) => {
                        if hi == lo {
                            Action::ColFirst
                        } else {
                            Action::RowFirst
                        }
                    }
                    // (FT01),(FT10) col-first; (FT00),(FT11) row-first.
                    (false, true) => {
                        if hi != lo {
                            Action::ColFirst
                        } else {
                            Action::RowFirst
                        }
                    }
                };
                match action {
                    Action::Relay => {
                        let tmp = ctx.recv(j + half).await;
                        ctx.send(j, tmp);
                    }
                    Action::RowFirst => {
                        ctx.send(j + half, std::mem::take(&mut buf));
                        buf = ctx.recv(j).await;
                    }
                    Action::ColFirst => {
                        ctx.send(j, std::mem::take(&mut buf));
                        buf = ctx.recv(j + half).await;
                    }
                }
                ebr = !bit(j + half);
                if bit(j) {
                    epbc = !epbc;
                }
            }
            crate::inplace::transpose(&mut buf, lr, lc);
            buf
        }
    });

    (DistMatrix::from_buffers(after, results), stats)
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

    /// An exchange program with its sends logged: entry
    /// `round · nodes + node` of `sent` is the length of the one message
    /// that node sent in that round — its holding before its send step
    /// less what it kept.
    struct Logged<'a, P> {
        program: P,
        nodes: usize,
        sent: &'a [AtomicUsize],
    }

    impl<E: Send, P: RoundProgram<Vec<E>, State = Vec<E>>> RoundProgram<Vec<E>> for Logged<'_, P> {
        type State = Vec<E>;
        type Out = P::Out;

        fn rounds(&self) -> u32 {
            self.program.rounds()
        }

        fn init(&self, id: NodeId) -> Vec<E> {
            self.program.init(id)
        }

        fn send(&self, round: u32, id: NodeId, held: &mut Vec<E>, out: &mut Outbox<'_, Vec<E>>) {
            let before = held.len();
            self.program.send(round, id, held, out);
            let at = round as usize * self.nodes + id.index();
            self.sent[at].store(before - held.len(), Ordering::Relaxed);
        }

        fn recv(
            &self,
            round: u32,
            id: NodeId,
            held: &mut Vec<E>,
            inbox: &mut RoundInbox<'_, Vec<E>>,
        ) {
            self.program.recv(round, id, held, inbox);
        }

        fn finish(&self, id: NodeId, held: Vec<E>) -> P::Out {
            self.program.finish(id, held)
        }
    }

    /// One side of the differential test: the outputs of every node of
    /// the run, the message count and the send log — or the panic text.
    type Side = Result<(Vec<Vec<u64>>, u64, Vec<usize>), String>;

    /// Runs `program` on the `n`-cube at `workers` workers with its
    /// sends logged.
    fn run_logged<E: Send, P>(n: u32, program: P, workers: usize) -> Side
    where
        P: RoundProgram<Vec<E>, State = Vec<E>, Out = Vec<u64>>,
    {
        let nodes = 1usize << n;
        let sent: Vec<AtomicUsize> = (0..nodes * n as usize).map(|_| AtomicUsize::new(0)).collect();
        let logged = Logged { program, nodes, sent: &sent };
        let run = std::panic::AssertUnwindSafe(|| {
            cuberun::with_workers(workers, || run_rounds(n, &logged))
        });
        let (outs, stats) = std::panic::catch_unwind(run).map_err(|payload| {
            let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
            text.or_else(|| payload.downcast_ref::<String>().cloned()).expect("a text panic")
        })?;
        Ok((outs, stats.messages, sent.iter().map(|s| s.load(Ordering::Relaxed)).collect()))
    }

    /// The tagged program on `tags` and the triple oracle on its own
    /// initial elements, each element where `tags` differs from the clean
    /// table retargeted to the decoded tag, at `workers` workers.
    fn both_sides(m: &DistMatrix<u64>, after: &Layout, tags: &[u64], workers: usize) -> [Side; 2] {
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
        [run_logged(n, tagged, workers), run_logged(n, triples, workers)]
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
        for (before, after) in differential_pairs() {
            let m = labels(before.clone());
            let spec = TransposeSpec::with_after(before.clone(), after.clone());
            let tags = exchange_tags(&spec);
            let n = before.n().max(after.n());
            let case = format!("{before:?} -> {after:?}");
            for workers in [1, 2, 5] {
                let [tagged, triples] = both_sides(&m, &after, &tags, workers);
                assert_eq!(tagged, triples, "{case} at {workers} workers");
                let (outs, messages, _) = tagged.expect("a clean run");
                assert_eq!(messages, (1u64 << n) * u64::from(n), "{case}");
                let outs = outs[..after.num_nodes()].to_vec();
                assert_transposed(&before, &DistMatrix::from_buffers(after.clone(), outs));
            }
            // Seeded corruptions, at one worker so the first node to fail
            // is the lowest: both programs must fail with the same text.
            let lg = after.elems_per_node().trailing_zeros();
            let at = |tag: u64| tags.iter().position(|&t| t == tag).expect("every slot has a tag");
            let mut duplicate = tags.clone();
            duplicate[at(1)] = 0;
            let mut stranded = tags.clone();
            stranded[at(1)] |= 1 << (lg + n);
            for (what, bad) in [("duplicate", duplicate), ("stranded", stranded)] {
                let [tagged, triples] = both_sides(&m, &after, &bad, 1);
                let text = tagged.expect_err(&format!("{case}: the {what} element went through"));
                assert!(text.contains(what), "{case}: {text}");
                assert_eq!(Err(text), triples, "{case}: {what}");
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
        let caught = std::panic::catch_unwind(|| program.finish(NodeId(5), vec![(3, 7)]));
        let payload = caught.expect_err("node 5 held an element");
        let text = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(text.contains("element for 1 stranded at 5"), "{text}");
        program.finish(NodeId(5), Vec::new());
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
        // The literal §6.3 pseudo-code (control-flag case table, on the
        // virtual-node runtime) and the data-driven implementation compute
        // identical results — validating the paper's case analysis.
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
