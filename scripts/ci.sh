#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, formatting, static schedule
# analysis, perf smoke.
#
# Usage: scripts/ci.sh
#
# Everything runs offline against the vendored shims (see README.md);
# no network or extra tooling beyond the Rust toolchain is required.

set -euo pipefail
cd "$(dirname "$0")/.."

# Name every step so a failure reports *which* gate broke, not just a
# bare nonzero exit from somewhere in the script.
CURRENT_STEP="startup"
begin() {
    CURRENT_STEP="$1"
    echo "==> $1"
}
fig_tmp="$(mktemp -d)"
trap 'rm -rf "$fig_tmp"' EXIT
trap 'echo "FAIL: CI step \"$CURRENT_STEP\" failed" >&2' ERR

begin "tier-1: release build"
cargo build --release

begin "tier-1: workspace tests"
cargo test -q --workspace

begin "clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

begin "rustfmt check"
cargo fmt --check

begin "rustdoc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

begin "lint policy: no new code outside the allowlisted kernel module and the test kit's allocator; each test-kit fixture exists once"
# The workspace denies the corresponding rustc lint ([workspace.lints]);
# this grep additionally pins the module-level allow carve-outs to
# crates/core/src/local.rs and the test kit's counting allocator
# (crates/cubetest/src/alloc.rs), so a new allow attribute elsewhere
# fails even before clippy sees it.
violations="$(grep -rln 'uns[a]fe' \
    --include='*.rs' crates shims src tests examples 2>/dev/null \
    | grep -v -e '^crates/core/src/local.rs$' -e '^crates/cubetest/src/alloc.rs$' || true)"
if [ -n "$violations" ]; then
    echo "FAIL: non-allowlisted files mention the denied keyword:" >&2
    echo "$violations" >&2
    false
fi
# One test kit: the seeded SplitMix64 stream and the counting allocator
# exist once, in crates/cubetest. Another copy's step constant or
# allocator impl anywhere else fails. The model checker's schedule
# scatter (crates/cubesync/src/model/engine.rs) is library code, which a
# dev-only crate cannot serve.
violations="$(grep -rliE 'wrapping_add\(0x9e37|uns[a]fe impl GlobalAlloc' \
    --include='*.rs' crates src tests examples 2>/dev/null \
    | grep -v -e '^crates/cubetest/' -e '^crates/cubesync/src/model/engine.rs$' || true)"
if [ -n "$violations" ]; then
    echo "FAIL: files outside crates/cubetest copy a test-kit fixture:" >&2
    echo "$violations" >&2
    false
fi

begin "lint policy: no raw std::sync / std::thread / crossbeam outside cubesync"
# Every crate synchronizes through the cubesync facade so the model
# checker can see (and exhaustively interleave) every visible operation.
# A raw std::sync mutex or spawned thread is invisible to the explorer —
# catch it at review time, not when a heisenbug ships. Allowlisted:
# cubesync itself (the facade's two backends genuinely need the real
# primitives) and the vendored shims.
violations="$(grep -rln -E 'std::sync|std::thread|crossbeam' \
    --include='*.rs' crates src tests examples 2>/dev/null \
    | grep -v '^crates/cubesync/' || true)"
if [ -n "$violations" ]; then
    echo "FAIL: files bypass the cubesync facade with raw sync/thread primitives:" >&2
    echo "$violations" >&2
    false
fi

begin "lint policy: one round loop per substrate in cubecomm (finish_round only in exec.rs, graph.rs, ecube/reference.rs)"
# The block engines run their plans through cubecomm::exec and the router
# runs the planner's hop log; RefRouter is the preserved oracle. Another
# hand-written round loop would be a second copy of a schedule's control
# flow, unpinned by any equivalence test.
violations="$(grep -rl 'finish_round' --include='*.rs' crates/cubecomm/src 2>/dev/null \
    | grep -v -x -e 'crates/cubecomm/src/exec.rs' -e 'crates/cubecomm/src/graph.rs' \
        -e 'crates/cubecomm/src/ecube/reference.rs' || true)"
if [ -n "$violations" ]; then
    echo "FAIL: hand-written round loops outside the executor and the router:" >&2
    echo "$violations" >&2
    false
fi

begin "lint policy: each cubecomm algorithm exists once, as its planner (skeleton:: only in plan.rs, plan/, exchange.rs, graph.rs)"
# The planners build every schedule from plan::skeleton and the
# executor runs them; exchange_over_dims (the exchange on blocks from
# wherever they are held) and the router call the same skeleton
# functions. A skeleton call anywhere else in the crate would be a
# second copy of an algorithm's control flow beside its planner, which
# the compiler cannot see.
violations="$(grep -rl 'skeleton::' --include='*.rs' crates/cubecomm/src 2>/dev/null \
    | grep -v -x -e 'crates/cubecomm/src/plan.rs' -e 'crates/cubecomm/src/exchange.rs' \
        -e 'crates/cubecomm/src/graph.rs' \
    | grep -v '^crates/cubecomm/src/plan/' || true)"
if [ -n "$violations" ]; then
    echo "FAIL: cubecomm files outside the planners build schedules from plan::skeleton:" >&2
    echo "$violations" >&2
    false
fi

begin "lint policy: one round loop per substrate in cubetranspose (finish_round only in flight.rs, fieldmap.rs, two_dim.rs, convert.rs, reference.rs)"
# Every mover that carries whole arrays along dimension paths (§6.1's
# SPT/DPT/MPT, §6.3's mixed-encoding transposes, Lemma 6's relocations)
# plans flights and runs them on flight.rs's executor. The other sites
# are fieldmap's charged primitives (the exchange's rounds and sub-rounds,
# the real/real swap's two rounds — they move no data), two_dim's
# stepwise copy-charge round, algorithm 2's copy-charge round in
# convert.rs, and RefMappedMatrix, the oracle. The §6.3 block payload type is deleted and must not come back.
# (Bracketed so this script does not match itself.)
violations="$(grep -rl 'finish_round' --include='*.rs' crates/core/src 2>/dev/null \
    | grep -v -x -e 'crates/core/src/flight.rs' -e 'crates/core/src/fieldmap.rs' \
        -e 'crates/core/src/two_dim.rs' -e 'crates/core/src/convert.rs' \
        -e 'crates/core/src/reference.rs' || true)"
if [ -n "$violations" ]; then
    echo "FAIL: hand-written round loops outside the flight executor:" >&2
    echo "$violations" >&2
    false
fi
violations="$(grep -rlw 'BlockFligh[t]' crates src tests examples 2>/dev/null || true)"
if [ -n "$violations" ]; then
    echo "FAIL: files mention the deleted block payload type:" >&2
    echo "$violations" >&2
    false
fi

begin "lint policy: cubecheck folds schedules, it runs no round loop (finish_round nowhere in crates/cubecheck/src)"
# run_schedule computes a schedule's CommReport in one pass and closes
# its rounds through cubesim::RoundCost, the arithmetic SimNet's
# finish_round shares. A SimNet round loop here would be the replay the
# fold replaced; fold_vs_replay.rs keeps that replay as its test oracle.
violations="$(grep -rl 'finish_round' --include='*.rs' crates/cubecheck/src 2>/dev/null || true)"
if [ -n "$violations" ]; then
    echo "FAIL: round loops in the static checker:" >&2
    echo "$violations" >&2
    false
fi

begin "examples: every root example runs to completion in release"
# cargo test only builds examples/*.rs; their own assertions (placement
# checks in permutations.rs, the SPT/DPT/MPT self-check in quickstart.rs,
# ...) run here.
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    started="$(date +%s%N)"
    cargo run --release -q --example "$name" >/dev/null
    echo "    $name: $(( ($(date +%s%N) - started) / 1000000 )) ms"
done

begin "lint policy: the fieldmap in-place knob stays deleted"
# MappedMatrix moves its data once, by the composed move through one
# scratch, and has no prefaulted pool; the threshold, its environment
# variable and the warm-up that chose between the old forks must not
# come back. (Bracketed so this script does not match itself.)
violations="$(grep -rln -E 'inplace_mi[n]|INPLACE_MI[N]|ensure_war[m]' \
    crates src tests examples 2>/dev/null || true)"
if [ -n "$violations" ]; then
    echo "FAIL: files mention the deleted in-place threshold or pool warm-up:" >&2
    echo "$violations" >&2
    false
fi

begin "lint policy: fieldmap and the movers charge the net and carry no payload (no send, recv or drain; no buffer pool)"
# MappedMatrix's primitives make their claims with SimNet::charge and
# local_copy and move no element; the data moves once, when it is read
# out. The block executor (exec.rs), the router (graph.rs), the flight
# movers (two_dim.rs, gray.rs, permute.rs) and the block movers
# (one_dim.rs, relayout.rs, permute.rs) likewise charge every hop and
# land each block or array once. A payload send or receive, or the
# deleted drain of delivered messages, in any of them would bring back
# the carried data plane; a buffer pool in fieldmap.rs the deleted
# message-buffer pool. RefMappedMatrix (reference.rs) still sends
# payloads: it is the oracle, as are the test-only executors in flight.rs
# and crates/cubecomm/tests/exec_oracle.rs. (Bracketed so this script
# does not match itself.)
violations="$(grep -n -E '[.]sen[d][(]|drain_all_wit[h]|BufferPoo[l]' crates/core/src/fieldmap.rs || true)"
if [ -n "$violations" ]; then
    echo "FAIL: fieldmap.rs carries payloads through the net again:" >&2
    echo "$violations" >&2
    false
fi
violations="$(grep -n -E '[.]sen[d][(]|[.]rec[v][(]|drain_all_wit[h]' \
    crates/cubecomm/src/exec.rs crates/cubecomm/src/graph.rs crates/core/src/two_dim.rs \
    crates/core/src/gray.rs crates/core/src/permute.rs crates/core/src/one_dim.rs \
    crates/core/src/relayout.rs || true)"
if [ -n "$violations" ]; then
    echo "FAIL: a mover carries payloads through the net again:" >&2
    echo "$violations" >&2
    false
fi
violations="$(grep -rln 'drain_all_wit[h]' crates src tests examples 2>/dev/null || true)"
if [ -n "$violations" ]; then
    echo "FAIL: files mention the deleted SimNet drain:" >&2
    echo "$violations" >&2
    false
fi
# The one-dimensional transposes, relayout and arbitrary permutation
# plan their blocks, charge the plan with exec::run and copy their data
# once; a cubecomm payload engine in them would bring back the per-block
# buffers, and the deleted ledger that checked what the engine delivered.
violations="$(grep -n -E 'exchange_over_dim[s]|route_sbn[t]|all_to_all_exchang[e]([^_]|$)' \
    crates/core/src/one_dim.rs crates/core/src/relayout.rs crates/core/src/permute.rs || true)"
if [ -n "$violations" ]; then
    echo "FAIL: a core block mover ships payload blocks through a cubecomm engine again:" >&2
    echo "$violations" >&2
    false
fi
violations="$(grep -rln 'place_block[s]' crates src tests examples 2>/dev/null || true)"
if [ -n "$violations" ]; then
    echo "FAIL: files mention the deleted block ledger:" >&2
    echo "$violations" >&2
    false
fi
violations="$(grep -rln -E 'BufferPoo[l]|mod poo[l]' --include='*.rs' crates src tests examples 2>/dev/null || true)"
if [ -n "$violations" ]; then
    echo "FAIL: files mention the deleted message-buffer pool:" >&2
    echo "$violations" >&2
    false
fi

begin "lint policy: threads at one level only (no fan-out inside a unit of work)"
# cubesim::par has one consumer, the figure sweep, and a par_map worker
# runs its items at count one. The static-chunk fan-out and the threaded
# in-place kernel are deleted and must not come back; the planners, the
# fieldmap data plane and the local kernels must not reach for the sweep
# helper (cuberun reads num_threads as its default pool size). This gate
# replaces the "ignores the thread count" tests those forks had.
# (Bracketed so this script does not match itself.)
violations="$(grep -rln -E 'par_for_each_mu[t]|transpose_wit[h]|run_paralle[l]' \
    crates src tests examples 2>/dev/null || true)"
if [ -n "$violations" ]; then
    echo "FAIL: files mention a deleted nested fan-out:" >&2
    echo "$violations" >&2
    false
fi
violations="$(grep -rl -E 'par::par_ma[p]|cubesim::pa[r]' --include='*.rs' crates/*/src 2>/dev/null \
    | grep -v -e '^crates/cubesim/src/par.rs$' -e '^crates/cuberun/src/runtime.rs$' \
        -e '^crates/bench/src/' || true)"
if [ -n "$violations" ]; then
    echo "FAIL: library code outside the figure sweep calls into the sweep's thread helper:" >&2
    echo "$violations" >&2
    false
fi

begin "lint policy: the tagged (dst_local, value) element stays a loan (one_dim.rs and the driver pins only)"
# The one-dimensional engines and relayout plan node-pair blocks and copy
# their values once (cubelayout::BlockMoves). The tagged type survives only for perfbench's
# per-layer decomposition of ipsc6-1d-exchange and driver_pin.rs's long
# way; no other code may route elements through it again.
# (Bracketed so this script does not match itself.)
violations="$(grep -rlw 'Route[d]' --include='*.rs' crates src tests examples 2>/dev/null \
    | grep -v -x -e 'crates/core/src/one_dim.rs' -e 'crates/core/tests/driver_pin.rs' || true)"
if [ -n "$violations" ]; then
    echo "FAIL: files use the tagged element type outside its loan:" >&2
    echo "$violations" >&2
    false
fi

begin "lint policy: cuberun has one executor (condvar waits only in rounds.rs; the cooperative scheduler stays deleted)"
# Both doors run on the worker loop in rounds.rs, whose batch mailbox is
# the only thing cuberun's workers share; the async door decides
# finished / deadlock from the batches' headers. The sleeper
# condvar, the per-worker counter blocks, the drain budget and the want
# cells of the cooperative scheduler must not come back.
# (Bracketed so this script does not match itself.)
violations="$(grep -rl -E 'Condva[r]|wait_timeou[t]' --include='*.rs' crates/cuberun/src 2>/dev/null \
    | grep -v -x 'crates/cuberun/src/rounds.rs' || true)"
if [ -n "$violations" ]; then
    echo "FAIL: cuberun waits on a condvar outside the worker loop:" >&2
    echo "$violations" >&2
    false
fi
violations="$(grep -rln -E 'notify_sleeper[s]|WorkerBloc[k]|DRAIN_EVER[Y]|WANT_BARRIE[R]' \
    crates src tests examples 2>/dev/null || true)"
if [ -n "$violations" ]; then
    echo "FAIL: files mention the deleted cooperative scheduler:" >&2
    echo "$violations" >&2
    false
fi

begin "lint policy: the async door's barrier, all-reduce and topology entry point stay deleted"
# The async door synchronises only through send / recv on the cube; a
# program on another topology is a round program on run_rounds_on. The
# applications ADI and FACR live once, in their examples, so cubeapps
# keeps only the FFT. (Bracketed so this script does not match itself.)
violations="$(grep -rln -E 'all_reduc[e]|BarrierWai[t]|run_spmd_o[n]' \
    crates src tests examples 2>/dev/null || true)"
if [ -n "$violations" ]; then
    echo "FAIL: files mention a deleted async-door item:" >&2
    echo "$violations" >&2
    false
fi
violations="$(find crates/cubeapps/src -type f \
    | grep -v -x -e 'crates/cubeapps/src/lib.rs' -e 'crates/cubeapps/src/cplx.rs' \
        -e 'crates/cubeapps/src/fft.rs' || true)"
if [ -n "$violations" ]; then
    echo "FAIL: cubeapps holds more than the FFT:" >&2
    echo "$violations" >&2
    false
fi

begin "lint policy: the test-only public items and the unset environment knobs stay deleted"
# Nothing but their own tests called these: the plan cache has one key
# shape and three front doors, cuberun no collectives and no environment
# knobs (the pool size is with_workers or CUBEBENCH_THREADS), the field
# map's send policy is cubecomm's BufferPolicy, and the address and
# topology utilities below are gone. (Bracketed so this script does not
# match itself.)
violations="$(grep -rln -E 'MachineKe[y]|(all_to_all_|[^_a-z])exchange_plan_cache[d]|some_to_all_plan_cache[d]|one_to_all_(sbt|trees)_plan_cache[d]|all_to_all_sbnt_plan_cache[d]|[.]with_(shape|layout|machine|fingerprint)[(]|CUBERUN_WORKER[S]|CUBERUN_STALL_TIMEOUT_M[S]|CUBERUN_RECV_TIMEOUT_M[S]|parse_(worker_count|stall_timeout)[(]|collective[s]::|mod collective[s]|enum SendPolic[y]|cubeaddr::embe[d]|mod embe[d]|ring_nod[e]|mesh_nod[e]|[.]dim_t[o][(]|[.]translat[e][(]|cube_siz[e]|differing_dim[s]|gray_[m][(]|gray_sequenc[e]|gray_transition_di[m]|is_palindrom[e]|is_hypercub[e]|place_[w][(]' \
    crates src tests examples 2>/dev/null || true)"
if [ -n "$violations" ]; then
    echo "FAIL: files mention a deleted test-only item or environment knob:" >&2
    echo "$violations" >&2
    false
fi

begin "model-check: exhaustive interleaving of the real concurrency protocols (time-bounded)"
# Rebuilds the facade's dependents against the model backend and
# enumerates schedules of cubesim::par, cuberun's batch mailbox (six
# programs on the async door's sweeps: an exchange on two workers and
# on one, a cross-worker send to a parked receiver, a delivery on a port
# its node is not parked on, a dimension scan with an empty home range,
# and a cross-worker relay chain only the summed headers keep alive;
# two on the round door), and the plan cache. The bound is generous — the suite runs in seconds —
# and exists to turn an exploration blow-up into a failure, not a hang.
timeout 300 env RUSTFLAGS="--cfg cubesync_model" \
    cargo test -q -p cubesync --test real_protocols

begin "model-check: seeded-mutation detection suite"
# The checker's own coverage gate: eight concurrency bugs re-introduced
# into protocol miniatures must each be *caught*. Two mirror cuberun's
# batch mailbox (a later-round batch counted for the current round, a
# look at the mailbox separated from the wait); the others are bug
# classes the checker must keep catching — a mailbox hint, a sleeper's
# register-then-re-check order, a barrier report, a Relaxed Dekker
# pair, a cache re-check — in protocols no longer shipped or elsewhere.
timeout 300 cargo test -q -p cubesync --test mutations

begin "cubecheck: static invariants of the figure schedules"
# Each cubecheck run's stdout is diffed against its committed golden, so
# a schedule change that moves a claim count or the cache tally fails
# here instead of passing by eye.
cargo run --release -q -p cubecheck -- --all-figures >"$fig_tmp/cubecheck-all-figures.txt"
diff -u results/golden/cubecheck-all-figures.txt "$fig_tmp/cubecheck-all-figures.txt"

begin "cubecheck: plan/execution equivalence"
cargo test --release -q -p cubecheck --test equivalence

begin "cubecheck: the schedule fold equals the SimNet replay (reports, time bits, panic text)"
cargo test --release -q -p cubecheck --test fold_vs_replay

begin "cubecheck: every rule fires on its corruption (n = 2 … 14)"
# The precision side of the equivalence step: each corrupted schedule
# fires exactly its own rule at its own round / node / dim, including
# the ignored paper-scale case on the n = 14 router lowering.
cargo test --release -q -p cubecheck --test corruption -- --include-ignored

begin "cubesim: flat SimNet vs ReferenceNet (reports, payloads, receive order, panic text)"
# With the equivalence suite above, the simulator's regression net. The
# workspace test step already ran it; running it by name makes a
# simulator regression fail under the simulator's name.
cargo test --release -q -p cubesim --test flat_vs_reference

begin "fieldmap: the composed move vs the per-element placement oracle"
# MappedMatrix's primitives only charge the net; reading the data out runs
# one bit permutation from the map the arrays were built under to the
# current one. Random map pairs (n <= 6, vp <= 12) and the special shapes
# (identity, local-only, node-only, a node bit feeding local bit 0, no
# node or no local dimensions) must place every element where
# FieldMap::place / element_at say.
cargo test --release -q -p cubetranspose --test composed_move

begin "flights: the charged executor vs the hop-by-hop oracle (ledgers, reports, panic text)"
# run_flights charges each hop to the net and never moves a payload; the
# executor it replaced, which carried every payload through SimNet hop by
# hop, survives in flight.rs's tests as the oracle. Random plans (holds,
# staggered injections, one-port and all-port, history and link history
# recorded) must give identical ledgers and reports, or identical panics.
cargo test --release -q -p cubetranspose --lib flight::tests::differential

begin "exec: the charged block executor vs the send-and-receive oracle (held blocks, reports, panic text)"
# cubecomm::exec::execute charges each planned message and lands each
# block once; the executor it replaced, which carried every block through
# SimNet in BlockMsg payloads and received them with recv, survives in
# exec_oracle.rs as the oracle. Every engine's plans (exchange under the
# three policies, SBT, rotated and reflected trees, SBnT, some-to-all,
# all-to-some) and seeded corruptions of them (dropped round, retargeted
# sender, duplicated id) must give identical held blocks and reports, or
# identical panics.
cargo test --release -q -p cubecomm --test exec_oracle

begin "spmd: the tagged exchange program vs the triple oracle (outputs, messages, send log, panic text), and after-layouts on a smaller and a larger cube"
# spmd_transpose_exchange carries one-word destination tags, keeps a
# lone element inline (a holding is none, one, or a Vec of several),
# sends a holding that crosses whole without copying it and lands each
# node by sorting its tags; the (dst_node, dst_local, value) program it
# replaced survives in spmd.rs's tests as the oracle. Binary and Gray,
# one- and two-dimensional, consecutive and cyclic layout pairs on equal
# and unequal cubes, at 1, 2 and 5 workers, must give identical outputs,
# message counts and per-(round, node) message lengths, and a seeded
# duplicate or stranded tag the same panic; a tag table with two entries
# swapped must land the same permutation. The test also counts every
# merge and split transition of the Vec form and fails if one never
# occurs. The two cube-size tests run the program on the larger cube in
# each direction.
cargo test --release -q -p cubetranspose --lib -- --exact \
    spmd::tests::tagged_program_matches_the_triple_oracle \
    spmd::tests::spmd_exchange_onto_a_smaller_cube \
    spmd::tests::spmd_exchange_onto_a_larger_cube

begin "spmd: one flight plan, two substrates (the SPT and combined plans on the round door vs the simulator, the §6.3 case table as the combined plan's oracle)"
# spmd_transpose_spt and spmd_transpose_combined_gray run the simulator's
# own flight plans through flight.rs's round-door adaptor. At 1, 2 and 5
# workers, on square layouts of the 2-, 4- and 6-cube, binary and Gray,
# their outputs must equal the simulator movers' byte for byte and their
# message counts the hops the simulator charged. The paper's §6.3 case
# table, once a hand-written node program, is gray.rs's test oracle: per
# iteration, the sorted (sender, dim) lists it makes must equal the
# combined plan's. The bug tests: the SPT refuses unequal row and column
# processor dimensions, and both §6.3 substrates a matrix not laid out by
# the spec; the exchange program returns buffers without slack.
cargo test --release -q -p cubetranspose --lib -- --exact \
    gray::tests::case_table_predicts_the_combined_plans_senders \
    gray::tests::combined_refuses_a_matrix_not_laid_out_by_the_spec \
    spmd::tests::spmd_spt_and_combined_match_the_simulator_at_1_2_and_5_workers \
    spmd::tests::spmd_spt_refuses_a_one_dimensional_layout \
    spmd::tests::spmd_combined_refuses_a_matrix_not_laid_out_by_the_spec \
    spmd::tests::spmd_exchange_returns_buffers_without_slack \
    spmd::tests::paper_case_table_matches_semantic_combined_transpose \
    local::alloc_gate_tests::spmd_spt_allocates_one_node_sized_buffer_per_node
# core runs no program on the async door: spmd.rs's programs are round
# schedules built once on the host. (Word-bounded, so the tests' oracle
# runtime, cuberun::reference::run_spmd_threads, does not match; bracketed
# so this script does not match itself.)
violations="$(grep -n -E '\brun_spm[d]\b|asyn[c]|[.]awai[t]' crates/core/src/spmd.rs || true)"
if [ -n "$violations" ]; then
    echo "FAIL: spmd.rs is back on the async door:" >&2
    echo "$violations" >&2
    false
fi

begin "perf smoke: n=10 all-to-all schedule (time-bounded)"
timeout 300 cargo test --release -q -p cubecomm --test perf_smoke -- --ignored \
    n10_all_to_all_completes_within_bound

begin "perf smoke: n=12 router transpose (time-bounded)"
timeout 300 cargo test --release -q -p cubecomm --test perf_smoke -- --ignored \
    n12_router_transpose_completes_within_bound

begin "perf smoke: n=12 warm plan-cache fetch >= 10x cold build"
timeout 300 cargo test --release -q -p cubecomm --test perf_smoke -- --ignored \
    n12_warm_cache_fetch_beats_cold_build_10x

begin "perf smoke: n=10 fieldmap exchange sweep (time-bounded)"
timeout 300 cargo test --release -q -p cubetranspose --test perf_smoke -- --ignored

begin "local-kernels smoke: in-place transpose no slower than scratch gather"
timeout 300 cargo test --release -q -p cubetranspose --test local_kernels_smoke -- --ignored

begin "allocation gates: no O(mn)-sized scratch in place; fieldmap's exchange and permute_virt allocate nothing node-sized and a constant count, convert_algorithm2 only its outputs and one scratch; run_spmd O(1) per node, MPT at most 1.4 per node and no link-sized table, run_rounds O(1) per run, the SPMD exchange transpose at most 3 per node, the SPMD SPT one node-sized buffer per node"
# The counting global allocator is the test kit's
# (crates/cubetest/src/alloc.rs), installed once in cubetranspose's
# unit-test binary; the gates live in crates/core/src/local.rs's test
# module. One gate arms it around a warmed in-place transpose and fails
# on any matrix-sized allocation;
# one counts a fieldmap exchange that sends 16 runs per node as separate
# messages plus a permute_virt, at 8 and at 64 nodes, and fails on any
# node-sized allocation or on a count that grows with the nodes (the
# primitives charge the net and move no data); one arms the size counter
# around convert_algorithm2 at a reduced shape and fails above one
# half-node-or-larger allocation per node plus one (an input clone or the
# exchanges' message buffers would double it);
# one counts every allocation of one transpose_mpt at the reduced
# cm16-2d-mpt shape and fails above 1.4 per node (a delivery list per
# node, or anything allocated per path); one arms the size counter
# around the same transpose, net construction included, and fails on an
# allocation of 16 bytes per directed link (the payload table a net
# that is only charged never builds); one
# counts an all-dimensions exchange on run_spmd(10) — on the calling
# thread and on the worker, which allocates its own inboxes and slots —
# and fails if anything is allocated per directed link (a queue per link
# was 10 per node); one counts the same exchange on run_rounds(10) and
# fails if the count depends on nodes or rounds at all; one counts
# spmd_transpose_exchange of a one-element-per-node square layout on the
# 10-cube, tag table and output included, and fails above 2.25 per node
# (measured 2.21: the output buffer, merge and split vectors; a lone
# element stays inline. A heap holding per node from init made 2.71, the
# triple-carrying program 6.9: per-node lists cloned in init, a fresh Vec
# per message, two ledgers per node to land); one counts the
# node-sized allocations of spmd_transpose_spt on 64 nodes, on the caller
# and the worker, and fails above one per node (the async program it
# replaced copied every array twice).
cargo test --release -q -p cubetranspose --lib alloc_gate_tests

begin "perf smoke: n=14 schedule construction + rule sweep (time-bounded)"
timeout 300 cargo test --release -q -p cubecheck --test perf_smoke -- --ignored \
    planning_and_checking_stay_fast

begin "allocation gate: cubecheck's lower allocates the same few vectors at n = 8 and n = 10, nothing per claim"
# Its own test binary with the test kit's counting allocator: the claims'
# block ids go into one arena, so a Vec per claim (one allocation each
# of 1 024 and 5 120 claims) fails it.
cargo test --release -q -p cubecheck --test lower_alloc lowering_allocates_a_constant_count

begin "allocation gate: ecube_route_plan allocates the same count at n = 8 and n = 10 past one list per round, nothing per message"
# The same binary: every message's block ids are appended to the plan's
# one arena, so a Vec per message (1 024 and 5 120 of them) fails it.
cargo test --release -q -p cubecheck --test lower_alloc \
    ecube_plan_build_allocates_a_constant_count_past_its_rounds

begin "perf smoke: D3(4,8) Dragonfly planning + replay loop (time-bounded)"
timeout 300 cargo test --release -q -p cubecheck --test perf_smoke -- --ignored \
    dragonfly_planning_and_replay_stay_fast

begin "perf smoke: n=12 SPMD transpose on the virtual-node scheduler (time-bounded)"
timeout 300 cargo test --release -q -p boolcube --test spmd_perf_smoke -- --ignored \
    n12_spmd_transpose_completes_within_bound

begin "SPMD smoke: n=10 SPT transpose on the round door equals the simulator's (time-bounded)"
timeout 300 cargo test --release -q -p boolcube --test spmd_perf_smoke -- --ignored \
    n10_spmd_spt_matches_the_simulator

begin "SPMD smoke: n=16 (65536 virtual nodes), byte-identical at 1/2/5 workers"
timeout 300 cargo test --release -q -p boolcube --test spmd_perf_smoke -- --ignored \
    n16_virtual_nodes_full_transpose

begin "cubecheck: n=16 plan lint smoke (time-bounded)"
# 65 536-node flight plan, feasible since factored construction; the
# bound catches a return to per-node recomputation.
timeout 300 cargo run --release -q -p cubecheck -- n16-smoke >"$fig_tmp/cubecheck-n16-smoke.txt"
diff -u results/golden/cubecheck-n16-smoke.txt "$fig_tmp/cubecheck-n16-smoke.txt"

begin "cubecheck: Swapped Dragonfly planner lint smoke (time-bounded)"
# Both Draper planner variants on a D3(4,8) through the same five rule
# families the cube schedules pass — the topology-generic checker path.
timeout 300 cargo run --release -q -p cubecheck -- dragonfly-smoke \
    >"$fig_tmp/cubecheck-dragonfly-smoke.txt"
diff -u results/golden/cubecheck-dragonfly-smoke.txt "$fig_tmp/cubecheck-dragonfly-smoke.txt"

begin "perfbench: the harness's own unit tests"
# perfbench/ is its own workspace root, so `cargo test --workspace` above
# never reaches these.
cargo test --offline -q --manifest-path perfbench/Cargo.toml

begin "perfbench smoke: one round of each of the eight workloads must be correct"
# Paper-scale ops with every check on (output labels, chosen algorithm,
# router twin agreement, plan lint and replay, pinned simulated time,
# the SPMD run's message count). No time bound: timing is
# BENCHMARK.json's job.
for workload in ipsc6-2d-spt ipsc6-1d-exchange cm16-2d-mpt cm16-spmd-exchange \
    ipsc6-convert-alg2 cm14-router cm14-plan-cold cm14-plan-warm; do
    verdict="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --rounds 1 | tail -n 1)"
    case "$verdict" in
        *'"correct": true'*) ;;
        *) echo "FAIL: perfbench $workload: $verdict" >&2; false ;;
    esac
done

begin "perfbench smoke: the traced ipsc6-1d-exchange and cm16-2d-mpt passes (decomposition = driver::execute)"
# Each traced pass re-runs the op through perfbench's decomposition and
# fails unless its matrix and CommReport equal driver::execute's: for
# ipsc6-1d-exchange one_dim's tagged loan path against the planned,
# copied blocks, for cm16-2d-mpt a direct transpose_mpt call against the
# driver's — the flight ledger and SimNet's charged claims at paper scale.
for workload in ipsc6-1d-exchange cm16-2d-mpt; do
    verdict="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --rounds 1 --trace 1 | tail -n 1)"
    case "$verdict" in
        *'"correct": true'*) ;;
        *) echo "FAIL: perfbench $workload --trace 1: $verdict" >&2; false ;;
    esac
done

begin "router figures: CSVs must match committed baselines at every thread count"
# The sweep's par_map is the one parallel path in the tree; this diff at
# one thread and at the default count is what guards it.
for threads in 1 default; do
    rm -rf "$fig_tmp"/*
    if [ "$threads" = default ]; then
        env -u CUBEBENCH_THREADS cargo run --release -q -p cubebench --bin figures -- \
            --csv "$fig_tmp" fig14b fig16 fig17 fig18 >/dev/null
    else
        CUBEBENCH_THREADS="$threads" cargo run --release -q -p cubebench --bin figures -- \
            --csv "$fig_tmp" fig14b fig16 fig17 fig18 >/dev/null
    fi
    for fig in fig14b fig16 fig17 fig18; do
        diff -u "results/$fig.csv" "$fig_tmp/$fig.csv" \
            || { echo "FAIL: $fig.csv diverges from baseline (CUBEBENCH_THREADS=$threads)"; exit 1; }
    done
done

echo "CI gate passed."
