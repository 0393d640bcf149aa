"""Golden digests for a small matrix of design cells.

Each cell runs ~200 transactions through ``run_experiment`` and pins:

- ``row``: SHA-256 of the cell's ``run_row`` CSV bytes followed by the state
  fingerprint (the observer replica's ``state_fingerprint`` on pipeline
  cells, every shard store on sharded cells);
- ``trace``: SHA-256 of the trace TSV written through ``trace_path``;
- ``untimed``: SHA-256 of the same trace without its timer firings (lines
  whose kind ends in ``timer`` or ``timeout``) and without its seq column.
  Cancelling a timer that would have fired unheeded removes its line and
  can shift later seqs, but must leave every other delivery as it was.
  Removing a same-machine hand-off that its handler ignored (say, an
  ``OpApplied`` to a replica that serves no transaction) moves the
  ``untimed`` digest too, since the hand-off is not a timer.

Such a change re-records ``trace`` and ``untimed`` digests and is justified
line by line.  A behaviour change may re-record ``row`` too, but only with
its moved columns named.  ``python tests/test_golden.py NEW_DIR --against
OLD_DIR`` runs every cell, writes its trace TSV and CSV row to ``NEW_DIR``,
prints the digests as ``GOLDEN`` entries, each CSV column whose value moved
as ``# row moved: COLUMN old -> new``, and each (kind, target) whose count
of deliveries moved as ``# delivered KIND at TARGET old -> new``.  It exits
1 unless every new trace, seqs aside, is the old trace minus some lines; a
cell whose trace is not is marked so, and its moved counts show how a
re-timed run differs.  ``OLD_DIR`` is written by the same command run on
the parent's sources (``PYTHONPATH`` set to its ``src``).

The matrix covers every concurrency mode, every index, both failure models,
every ordering approach, both 2PC coordinators and one sharded run with
reconfiguration pauses.  A change that moves any virtual-time output, event
seq or delivery order changes a digest here, so a host-time optimisation must
leave them all as they are.
"""

import argparse
import csv
import hashlib
import io
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

from txsim.core import ConcurrencyMode, DesignConfig, IndexKind
from txsim.core.encoding import Writer, digest
from txsim.core.types import (
    FailureModel, ReplicationApproach, ReplicationModel, ShardingMode, TxnOutcome,
)
from txsim.harness import Metrics, emit_csv, run_experiment, run_row
from txsim.pipeline import Arrival
from txsim.pipeline.base import PipelineBase
from txsim.pipeline.storage import StorageReplicatedPipeline
from txsim.sharding import ShardedRun
from txsim.workload import WorkloadKind, WorkloadSpec

TXNS = 200
CFT5 = dict(failure_model=FailureModel.CFT, node_count=5, tolerated_failures=2)
BFT4 = dict(failure_model=FailureModel.BFT, node_count=4, tolerated_failures=1)
STORAGE = dict(replication_model=ReplicationModel.STORAGE_BASED)
YCSB = WorkloadSpec(kind=WorkloadKind.YCSB_UPDATE, record_count=200, record_size_bytes=100,
                    txn_count=TXNS, seed=3)
SKEWED = WorkloadSpec(kind=WorkloadKind.YCSB_UPDATE, record_count=100, theta=0.6,
                      record_size_bytes=100, txn_count=TXNS, seed=5)
SMALLBANK = WorkloadSpec(kind=WorkloadKind.SMALLBANK, record_count=200, txn_count=TXNS, seed=7)
HOT_SMALLBANK = WorkloadSpec(kind=WorkloadKind.SMALLBANK, record_count=20, theta=0.9,
                             txn_count=TXNS, seed=7)
TWO_OPS = WorkloadSpec(kind=WorkloadKind.YCSB_UPDATE, ops_per_txn=2, record_count=200,
                       record_size_bytes=100, txn_count=TXNS, seed=11)

# name -> (config, workload, arrival, simulator seed)
CELLS = {
    "oe_raft_mpt": (
        DesignConfig(concurrency_mode=ConcurrencyMode.ORDER_EXECUTE, index=IndexKind.MPT, **CFT5),
        YCSB, Arrival.closed_loop(16), 1),
    "oe_pbft_mbt": (
        DesignConfig(concurrency_mode=ConcurrencyMode.ORDER_EXECUTE, index=IndexKind.MBT, **BFT4),
        YCSB, Arrival.closed_loop(16), 2),
    "oe_sharedlog_plain": (
        DesignConfig(concurrency_mode=ConcurrencyMode.ORDER_EXECUTE,
                     replication_approach=ReplicationApproach.SHARED_LOG, **CFT5),
        YCSB, Arrival.open_loop(1500), 3),
    "serial_raft_plain": (
        DesignConfig(concurrency_mode=ConcurrencyMode.SERIAL, ledger_enabled=False, **CFT5),
        SMALLBANK, Arrival.closed_loop(8), 4),
    "eov_raft_plain": (
        DesignConfig(concurrency_mode=ConcurrencyMode.EXECUTE_ORDER_VALIDATE, **CFT5),
        SKEWED, Arrival.open_loop(2500), 5),
    "eov_pbft_mpt": (
        DesignConfig(concurrency_mode=ConcurrencyMode.EXECUTE_ORDER_VALIDATE, index=IndexKind.MPT,
                     **BFT4),
        SKEWED, Arrival.closed_loop(16), 6),
    "occ_pbft_plain": (
        DesignConfig(concurrency_mode=ConcurrencyMode.CONCURRENT_OCC, ledger_enabled=False,
                     **STORAGE, **BFT4),
        SMALLBANK, Arrival.closed_loop(16), 7),
    "occ_raft_mbt": (
        DesignConfig(concurrency_mode=ConcurrencyMode.CONCURRENT_OCC, index=IndexKind.MBT,
                     **STORAGE, **CFT5),
        SKEWED, Arrival.closed_loop(16), 8),
    "locking_pb_mpt": (
        DesignConfig(concurrency_mode=ConcurrencyMode.CONCURRENT_LOCKING, index=IndexKind.MPT,
                     replication_approach=ReplicationApproach.PRIMARY_BACKUP, **STORAGE, **CFT5),
        SKEWED, Arrival.closed_loop(16), 9),
    # hot keys: read-only, application-abort and timed-out latch acquisitions
    "locking_raft_smallbank": (
        DesignConfig(concurrency_mode=ConcurrencyMode.CONCURRENT_LOCKING, ledger_enabled=False,
                     **STORAGE, **CFT5),
        HOT_SMALLBANK, Arrival.closed_loop(16), 15),
    "eov_sharedlog_plain": (
        DesignConfig(concurrency_mode=ConcurrencyMode.EXECUTE_ORDER_VALIDATE,
                     replication_approach=ReplicationApproach.SHARED_LOG, **CFT5),
        SKEWED, Arrival.closed_loop(8), 12),
    "occ_sharedlog_mbt": (
        DesignConfig(concurrency_mode=ConcurrencyMode.CONCURRENT_OCC, index=IndexKind.MBT,
                     replication_approach=ReplicationApproach.SHARED_LOG, **STORAGE, **CFT5),
        SMALLBANK, Arrival.closed_loop(16), 13),
    "sharded_trusted2pc": (
        DesignConfig(sharding_mode=ShardingMode.TRUSTED_2PC, node_count=12, tolerated_failures=1),
        TWO_OPS, Arrival.open_loop(2000), 10),
    # every 30 ms the shards drain in-flight 2PC and pause; the row pins the interval
    "sharded_trusted2pc_reconfig": (
        DesignConfig(sharding_mode=ShardingMode.TRUSTED_2PC, node_count=12, tolerated_failures=1,
                     reconfiguration_interval=30_000),
        TWO_OPS, Arrival.open_loop(2000), 14),
    "sharded_bft2pc": (
        DesignConfig(sharding_mode=ShardingMode.BFT_COORDINATED_2PC, node_count=12,
                     tolerated_failures=1),
        TWO_OPS, Arrival.open_loop(2000), 11),
}

GOLDEN = {
    "eov_pbft_mpt": {
        "row": "f8015365b79b76653ca055bd73422d37c7b3898af3a66d0f18fd7c0a2f9593af",
        "trace": "890e24310f3757e44a7e5a7f0543fbc4fc16cdef083840d458df3a5cde1f4078",
        "untimed": "c1b788b8b0d76032d8b8153eb9a6a79f27e99890c9d61e5948e2821b0b7d431a",
    },
    "eov_raft_plain": {
        "row": "22edabedc542e04b76891ebf2129d9ce0801e889f0a7122fea9f974c7059abbc",
        "trace": "56befb037e2dd149bec67f8d15a4ec27fd7e1e5f9b635c5f582c19b8a19122f3",
        "untimed": "9cf2370f0d2bf66b288f0b655c246d4bdf8ca9ea5998bcffd39abc21f47ecc58",
    },
    "eov_sharedlog_plain": {
        "row": "a0a2b7f7f2abe0a733399086e97464525e98e793f8662b03860c58da3ce5cac9",
        "trace": "fe0ed6aac0afbb443b5e095d64fa95b44298f075dfd64acbd928835dd7b7b53d",
        "untimed": "a432ef9a231208f4b437726fff79b319575b7f84ff123f0b36c033158707f457",
    },
    "locking_pb_mpt": {
        "row": "b41d6e0bf15160c5e73c8ccb94621bf3dc34a9aa70a07b6aacc5b5ae7fd49c03",
        "trace": "2503d44753fbd9e1cb5b4f4cf59ed86203dc28ddf47b3244ee3a3df19615edd0",
        "untimed": "d9a1a47776b0042a72956dae671c7ab7574dd5bbe130ff81ee0ba8a5e4d6f336",
    },
    "locking_raft_smallbank": {
        "row": "b788308a005ae204d306c62b23347b142dbbcd6e0f1f159a26dbf733bf27d8c9",
        "trace": "df3262caa16db41f4819d385f2726c3b5c25f51d52a98b2e72c4471bec4e3d4e",
        "untimed": "d03ae9d6dc3f280ed833c8677c26b445d60eeb9be78f31608e8c81cb776b350d",
    },
    "occ_pbft_plain": {
        "row": "e69b0867d7e7facb3608e0edc50dea8e0fdb30a117ef24dc33c82e4872101827",
        "trace": "30b20145e51bb63f6678d8ff5b6014040c0014813b853d45c81da606a283e4ab",
        "untimed": "676561e9a41804f8d11e396dc2f10823038f0498949ab160f74d95c91647d0e5",
    },
    "occ_sharedlog_mbt": {
        "row": "2f7bf21f77e60dc82789e73decc96b3b6fbdbff0d4b909aea53941d237df45cc",
        "trace": "b38b57912fb07dfa7b799522aef2b41288be33e978223cfb3011f2cfebc4fb92",
        "untimed": "49867b24bcaff0ccb085c5de533acc98ef6a6718bedafd62c7a8325af61748e9",
    },
    "occ_raft_mbt": {
        "row": "e626cf746f90922a036ebae3111474ba21ee3cc5419582220705d52f91b7058c",
        "trace": "0dad8d107697420f23f1438e9a32faec134bc03d2e224a2df8c3cea9e4db60c9",
        "untimed": "711c0004fd940279a4f2db8050efbd41ad0b4a412c54514ceb0358a0dce45e86",
    },
    "oe_pbft_mbt": {
        "row": "66f9bcaa8360269c0fe40c5f60c93971b4e63c90de75356905a0f70fbd8f739c",
        "trace": "c89bc7c57e4c067afe71d79778af771e036fa8e62443965dd4c41580a50a0a87",
        "untimed": "4688a43430a28984b10e1b8985b54b08dbdac1140ec487168e7bbf344bd7f0a3",
    },
    "oe_raft_mpt": {
        "row": "b9147129dcdff698299b45d1a3570c4e71a3c47ab5aa569e0d7f6c93643840dc",
        "trace": "725961000f60e0fb5131146c88808e1b213bf260f632273b92b0ce6b43d92d23",
        "untimed": "34801b4e86223eb0165c594ed3349313ec002c89f6bde2494a0eed10d032a492",
    },
    "oe_sharedlog_plain": {
        "row": "f27623b817ef67eed83c294614c270b3e8af1a4c034664cd523a6b1256fd4445",
        "trace": "f6e166eca3382d48f59c1e0ff7b292f242fb3281cc1d38cd45166a4d1a88ea2b",
        "untimed": "f87ad045600d9822cf3d57d540317e7c2bc20dcfd35df9f41c387c2cda7b1d19",
    },
    "serial_raft_plain": {
        "row": "c76726d5a53220e00f91e9917891f6f6f0c175c88880117a39307109f2ec577c",
        "trace": "2b6ddf862bcae24622b5a693f505baca28bfbdb68b11e35c5bf1e31222f86fde",
        "untimed": "392fff092521a18d7621cae1be1b1b47624032f194a18376959bb4a3d0a6f699",
    },
    "sharded_bft2pc": {
        "row": "2b3e82de0341693a295afa2e5f18c2fa831ffe26b0cfa9f356c9339988f415b5",
        "trace": "7bd74899376888ec5f37c8c982f4655aff4a625a63754b7416841a090a5752e3",
        "untimed": "f3e844462b8fc273b7b1fcbbbdb5fd98a7ae1884847f9bc0e1f459b7d7eadfa2",
    },
    "sharded_trusted2pc_reconfig": {
        "row": "1e008474569226e4359320ddb8514d3a61aa6494f793d192fdae99c6697bfba0",
        "trace": "5ebbefa8289596a4c05f6fbff43a1756e13ab56f8ec0270c1c5f3ac4102dc013",
        "untimed": "faf6a9cc86d20b55cfe063b9cfa85d8044c891fb041e3700e0be7ab49e093cc5",
    },
    "sharded_trusted2pc": {
        "row": "c516770eb524846415b1d239f345b3fd4856a22ae5ca9b7cfc6e8c3926ddaeb5",
        "trace": "da05dcc5696d0b5fd5445815f1b66156677be5d761841a3ffd29d44cc3cff865",
        "untimed": "95bb402558ae7a31151ec33a258195debef7ba86e01c4e43ad42636603ab3777",
    },
}


def _shard_fingerprint(runner) -> bytes:
    w = Writer()
    for shard in runner.shards:
        w.u32(shard.shard_id).u32(len(shard.store))
        for key in sorted(shard.store):
            w.bytes(key).bytes(shard.store[key])
    return digest(w.getvalue())


class CellRun(NamedTuple):
    digests: dict  # {"row": hex, "trace": hex, "untimed": hex}
    trace: bytes
    metrics: Metrics
    owner: object  # the cell's pipeline, or its ``ShardedRun``


def run_cell(name, out_dir) -> CellRun:
    """Run one cell, writing its trace TSV and CSV row to ``out_dir/<name>.tsv`` and ``.csv``."""
    cfg, spec, arrival, seed = CELLS[name]
    seen = {}

    def keep(attr, original):
        def hooked(owner, *args, **kwargs):
            seen[attr] = owner
            return original(owner, *args, **kwargs)

        return hooked

    trace_path = Path(out_dir) / f"{name}.tsv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PipelineBase, "drive", keep("pipeline", PipelineBase.drive))
        mp.setattr(ShardedRun, "run", keep("runner", ShardedRun.run))
        metrics = run_experiment(cfg, spec, arrival, seed=seed, trace_path=trace_path)
    if cfg.sharding_mode is not ShardingMode.NONE:
        owner = seen["runner"]
        fingerprint = _shard_fingerprint(owner)
    else:
        owner = seen["pipeline"]
        fingerprint = owner.peers[owner.observer_id].state.kv.state_fingerprint()
    csv_path = Path(out_dir) / f"{name}.csv"
    emit_csv([run_row(cfg, spec, arrival, seed, metrics)], csv_path)
    trace = trace_path.read_bytes()
    digests = {"row": hashlib.sha256(csv_path.read_bytes() + fingerprint).hexdigest(),
               "trace": hashlib.sha256(trace).hexdigest(),
               "untimed": hashlib.sha256(b"".join(
                   line for line in _unseq(trace) if not _is_timer(line))).hexdigest()}
    return CellRun(digests, trace, metrics, owner)


def _unseq(trace: bytes) -> list:
    """The trace TSV's lines without their seq column."""
    out = []
    for line in trace.splitlines(keepends=True):
        t, _seq, rest = line.split(b"\t", 2)
        out.append(t + b"\t" + rest)
    return out


def _is_timer(line: bytes) -> bool:
    return line.rstrip().endswith((b"timer", b"timeout"))


def lost_lines(old: bytes, new: bytes) -> Optional[list]:
    """The lines of trace ``old`` that trace ``new`` lacks, seq columns aside.

    None unless ``new`` is ``old`` with exactly those lines taken out, every
    other line in its place and none added.
    """
    kept, lost, j = _unseq(new), [], 0
    for line in _unseq(old):
        if j < len(kept) and kept[j] == line:
            j += 1
        else:
            lost.append(line)
    return lost if j == len(kept) else None


def moved_deliveries(old: bytes, new: bytes) -> list:
    """(kind, target, old count, new count) for each (kind, target) whose
    number of deliveries differs between two trace TSVs."""
    before, after = (
        Counter((kind, dst) for _t, _seq, _src, dst, kind in
                (line.split("\t") for line in trace.decode().splitlines()))
        for trace in (old, new)
    )
    return [(kind, target, before[kind, target], after[kind, target])
            for kind, target in sorted(before.keys() | after.keys())
            if before[kind, target] != after[kind, target]]


def moved_columns(old: bytes, new: bytes) -> list:
    """(column, old value, new value) for each column whose value differs
    between two one-row CSVs; a column that one of them lacks reads None."""
    old_row, new_row = (next(csv.DictReader(io.StringIO(text.decode()))) for text in (old, new))
    return [(column, old_row.get(column), new_row.get(column))
            for column in dict.fromkeys([*old_row, *new_row])
            if old_row.get(column) != new_row.get(column)]


@pytest.fixture(scope="module")
def cell_runs(tmp_path_factory):
    """``cell_runs(name)``: the cell's ``CellRun``, run once per module."""
    out_dir, runs = tmp_path_factory.mktemp("golden"), {}

    def get(name):
        if name not in runs:
            runs[name] = run_cell(name, out_dir)
        return runs[name]

    return get


@pytest.mark.parametrize("name", sorted(CELLS))
def test_golden_cell(name, cell_runs):
    assert cell_runs(name).digests == GOLDEN[name]


def _deliveries(trace: bytes, kind: str) -> list:
    """(src, target) of every delivery of ``kind`` in a trace TSV."""
    out = []
    for line in trace.decode().splitlines():
        _t, _seq, src, dst, k = line.split("\t")
        if k == kind:
            out.append((src, dst))
    return out


FLAT = sorted(n for n, (cfg, *_rest) in CELLS.items() if cfg.sharding_mode is ShardingMode.NONE)


@pytest.mark.parametrize("name", FLAT)
def test_applied_hand_offs_reach_only_the_peer_that_waits(name, cell_runs):
    """``oe:applied`` reaches only the proposer, ``db:op_applied`` only the serving peer.

    The matrix never moves leadership, so the peer that waits is the
    bootstrapped leader: it hears one ``oe:applied`` per block it proposed,
    and one ``db:op_applied`` per op its own worker applied.
    """
    run = cell_runs(name)
    pipeline, trace = run.owner, run.trace
    leader = str(pipeline.leader().node_id)
    proposed = _deliveries(trace, "oe:propose")
    applied = _deliveries(trace, "oe:applied")
    assert {dst for _, dst in proposed + applied} <= {leader}
    assert len(applied) == len(proposed)
    op_applied = _deliveries(trace, "db:op_applied")
    assert {dst for _, dst in op_applied} <= {leader}
    if isinstance(pipeline, StorageReplicatedPipeline) and not pipeline.chained:
        worker = str(pipeline.leader().worker.node_id)
        leader_applies = [d for d in _deliveries(trace, "dbx:apply") if d[1] == worker]
        assert len(op_applied) == len(leader_applies) > 0


@pytest.mark.parametrize("name", [n for n in FLAT if n.startswith("locking")])
def test_every_lock_timeout_aborts_its_transaction(name, cell_runs):
    """A lock timeout is delivered only while its transaction still acquires latches."""
    run = cell_runs(name)
    assert len(_deliveries(run.trace, "cl:lock_timeout")) == run.metrics.aborted_blocked > 0


@pytest.mark.parametrize("name", [n for n in FLAT if n.startswith("locking")])
def test_peers_remember_only_lock_timeout_cancels(name, cell_runs):
    """Only a lock-timeout abort can still have a ``DbLock`` on the way, so
    no peer remembers more cancelled transactions than there were such aborts."""
    run = cell_runs(name)
    for peer in run.owner.peers:
        assert len(peer.cancelled) <= run.metrics.aborted_blocked


@pytest.mark.parametrize("name", [n for n in FLAT if n.startswith("eov")])
def test_every_endorsement_leaves_the_table(name, cell_runs):
    """Each endorsement ends ordered, dropped or as an inconsistent read, and
    each ending removes its entry from the client's endorsement table."""
    assert cell_runs(name).owner._endorsing == {}


def test_lost_lines_are_the_old_trace_minus_the_new_one():
    old = b"1\t1\ta\tb\tx\n2\t2\ta\tc\ty\n3\t3\tb\ta\tz\n"
    assert lost_lines(old, b"1\t1\ta\tb\tx\n3\t2\tb\ta\tz\n") == [b"2\ta\tc\ty\n"]
    assert lost_lines(old, old) == []
    assert lost_lines(old, old + b"4\t4\ta\tb\tx\n") is None  # a line added
    assert lost_lines(old, b"3\t1\tb\ta\tz\n1\t2\ta\tb\tx\n") is None  # lines reordered


def test_moved_deliveries_are_the_counts_that_differ():
    old = b"1\t1\ta\tb\tx\n2\t2\ta\tc\ty\n3\t3\tb\tc\ty\n"
    assert moved_deliveries(old, old) == []
    # the lines one trace lacks, counted, as the old trace minus them
    assert moved_deliveries(old, b"1\t1\ta\tb\tx\n") == [("y", "c", 2, 0)]
    # a re-timed trace: one delivery gone and another added elsewhere
    retimed = b"1\t1\ta\tb\tx\n4\t2\tc\tb\tx\n5\t3\ta\ta\tz\n6\t4\tb\tc\ty\n"
    assert moved_deliveries(old, retimed) == [("x", "b", 1, 2), ("y", "c", 2, 1), ("z", "a", 0, 1)]


def test_moved_columns_are_the_row_values_that_differ():
    old = b"a,b,c\n1,2,3\n"
    assert moved_columns(old, b"a,b,c\n1,5,3\n") == [("b", "2", "5")]
    assert moved_columns(old, b"a,b,c\n0,2,4\n") == [("a", "1", "0"), ("c", "3", "4")]
    assert moved_columns(old, old) == []
    assert moved_columns(old, b"a,b,c,d\n1,2,3,4\n") == [("d", None, "4")]  # a column added


@pytest.mark.parametrize("name", sorted(CELLS))
def test_phases_partition_latency(name, cell_runs):
    """Every committed record's three phases are non-negative and sum to its latency."""
    records = cell_runs(name).owner.records.values()
    committed = [r for r in records if r.outcome is TxnOutcome.COMMITTED]
    assert committed
    for r in committed:
        phases = (r.execute_us, r.order_us, r.validate_us)
        assert min(phases) >= 0 and sum(phases) == r.latency, (r.txn.id, phases, r.latency)


def test_golden_cells_do_not_depend_on_the_hash_seed():
    """The whole matrix passes in two child processes with different string hashing.

    This process runs under one random ``PYTHONHASHSEED``; an output that
    followed set or dict order over hashed keys could pass here by chance.
    """
    root = Path(__file__).resolve().parents[1]
    children = [
        subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "tests/test_golden.py::test_golden_cell"],
            cwd=root, env={**os.environ, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for seed in ("0", "1")
    ]
    for child in children:
        out, _ = child.communicate(timeout=600)
        assert child.returncode == 0, out
        assert f"{len(CELLS)} passed" in out


def main(argv=None) -> int:
    """Re-record the golden digests; see ``python tests/test_golden.py --help``."""
    parser = argparse.ArgumentParser(
        description="Run every golden cell, write its trace TSV and CSV row to DIR and print "
        "its digests as GOLDEN entries, each marked with the digests that moved.")
    parser.add_argument("dir", type=Path, help="where each cell's trace TSV and CSV row are written")
    parser.add_argument(
        "--against", type=Path, metavar="OLD_DIR",
        help="also print each CSV column that moved against the rows in OLD_DIR, and each "
        "(kind, target) whose delivery count moved against the traces there; exit 1 unless "
        "every new trace, without seqs, is the old trace minus some lines")
    args = parser.parse_args(argv)
    args.dir.mkdir(parents=True, exist_ok=True)
    ok = True
    for name in sorted(CELLS):
        run = run_cell(name, args.dir)
        moved = [k for k, v in run.digests.items() if v != GOLDEN[name][k]]
        print(f'    "{name}": {{' + (f"  # moved: {', '.join(moved)}" if moved else ""))
        for key, value in run.digests.items():
            print(f'        "{key}": "{value}",')
        print("    },")
        if args.against is not None:
            old_csv = (args.against / f"{name}.csv").read_bytes()
            new_csv = (args.dir / f"{name}.csv").read_bytes()
            for column, old, new in moved_columns(old_csv, new_csv):
                print(f"    # row moved: {column} {old} -> {new}")
            old_trace = (args.against / f"{name}.tsv").read_bytes()
            if lost_lines(old_trace, run.trace) is None:
                ok = False
                print("    # NOT the old trace minus some lines")
            for kind, target, old, new in moved_deliveries(old_trace, run.trace):
                print(f"    # delivered {kind} at {target} {old} -> {new}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
