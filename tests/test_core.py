"""Core types: digests, canonical encoding, config validation, seeded streams."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txsim.core import (
    Block,
    ConcurrencyMode,
    CostModel,
    DesignConfig,
    FailureModel,
    IndexKind,
    ReplicationApproach,
    ReplicationModel,
    ShardingMode,
    Transaction,
    config_from_text,
    config_to_dict,
    decode_block,
    decode_transaction,
    digest,
    encode_block,
    encode_transaction,
    seeded_rng,
    validate_config,
)
from txsim.core.rng import int_drawer
from txsim.pipeline.eov import decode_entries, encode_entries
from txsim.pipeline.storage import decode_op, encode_op

# Published SHA-256 test vector for the empty message (FIPS 180-4 / NIST CAVP).
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


class TestDigest:
    def test_empty_input_matches_published_vector(self):
        assert digest(b"").hex() == SHA256_EMPTY

    def test_deterministic(self):
        assert digest(b"hello") == digest(b"hello")

    def test_no_collisions_over_random_inputs(self):
        rng = random.Random(1)
        seen = {}
        for _ in range(10**5):
            data = rng.getrandbits(128).to_bytes(16, "big")
            d = digest(data)
            assert seen.setdefault(d, data) == data
        assert len(seen) > 10**5 * 0.99


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = [seeded_rng(42, "x").randint(0, 10**9) for _ in range(20)]
        b = [seeded_rng(42, "x").randint(0, 10**9) for _ in range(20)]
        assert a == b

    def test_labels_separate_streams(self):
        a = [seeded_rng(42, "workload").randint(0, 10**9) for _ in range(5)]
        b = [seeded_rng(42, "net").randint(0, 10**9) for _ in range(5)]
        assert a != b

    def test_golden_draws(self):
        # frozen once from the implementation; any change to stream derivation
        # would silently break every recorded trace, so pin the first draws
        r = seeded_rng(42, "workload")
        assert [r.randint(0, 10**9) for _ in range(5)] == [
            338935114,
            125239581,
            179691464,
            652607623,
            88986347,
        ]
        r = seeded_rng(42, "net")
        assert [r.randint(0, 10**9) for _ in range(5)] == [
            699227442,
            634806305,
            271881282,
            754962557,
            964279999,
        ]


class TestIntDrawer:
    """``int_drawer`` draws exactly what ``Random.randint`` draws, and leaves the same state."""

    # one-value ranges; draw widths of 2, 8, 128 and 1024 and one either side;
    # negative ranges; the bounds the callers use (latency defaults, election
    # timeouts, Smallbank amounts); and a 2**40 span
    @pytest.mark.parametrize("lo, hi", [
        (0, 0), (7, 7), (300, 300), (-5, -5),
        (0, 1), (0, 2), (10, 16), (10, 17), (5, 13), (100, 226), (100, 227), (100, 228),
        (0, 1022), (0, 1023), (0, 1024),
        (-10, -3), (-500_00, 500_00),
        (200, 800), (5_000, 10_000), (0, 500_00), (1, 800_00), (1, 300_00),
        (1, 2**40), (-(2**40), 0),
    ])
    def test_draws_equal_randint(self, lo, hi):
        for seed in (0, 1, 7, 42):
            ours, theirs = seeded_rng(seed, "draw"), seeded_rng(seed, "draw")
            draw = int_drawer(ours, lo, hi)
            assert [draw() for _ in range(300)] == [theirs.randint(lo, hi) for _ in range(300)]
            assert ours.getstate() == theirs.getstate()

    def test_empty_range_is_refused(self):
        with pytest.raises(ValueError, match="empty range"):
            int_drawer(seeded_rng(0, "draw"), 5, 4)

    @pytest.mark.parametrize("lo, mean", [(200, 500), (300, 300), (0, 1)])
    def test_latency_drawer_spans_min_to_twice_the_mean(self, lo, mean):
        cm = CostModel(net_latency_min=lo, net_latency_mean=mean)
        for seed in range(5):
            draw, twin = cm.latency_drawer(seeded_rng(seed, "net")), seeded_rng(seed, "net")
            assert [draw() for _ in range(50)] == [twin.randint(lo, 2 * mean - lo) for _ in range(50)]


def _random_txn(rng: random.Random) -> Transaction:
    keys = [f"k{rng.randint(0, 99):03d}".encode() for _ in range(rng.randint(0, 4))]
    write_set = tuple(
        (f"w{rng.randint(0, 99):03d}".encode(), rng.getrandbits(64).to_bytes(8, "big"))
        for _ in range(rng.randint(0, 4))
    )
    return Transaction(
        id=rng.randint(0, 2**40),
        read_keys=tuple(keys),
        write_set=write_set,
        app_abort=rng.random() < 0.5,
    )


_u64 = st.integers(0, 2**64 - 1)
_txns = st.builds(
    Transaction,
    id=_u64,
    read_keys=st.lists(st.binary(max_size=6), max_size=3).map(tuple),
    write_set=st.lists(st.tuples(st.binary(max_size=6), st.binary(max_size=10)), max_size=3).map(
        tuple
    ),
    op_count=st.integers(0, 2**32 - 1),
    app_abort=st.booleans(),
)


class TestCanonicalEncoding:
    def test_transaction_round_trip(self):
        rng = random.Random(7)
        for _ in range(300):
            txn = _random_txn(rng)
            assert decode_transaction(encode_transaction(txn)) == txn

    def test_block_round_trip(self):
        rng = random.Random(8)
        parent = digest(b"genesis")
        for _ in range(100):
            block = Block(
                height=rng.randint(1, 1000),
                parent_digest=parent,
                txn_list=tuple(_random_txn(rng) for _ in range(rng.randint(0, 5))),
                proposer=rng.randint(0, 6),
                state_root=rng.choice([None, digest(b"root")]),
            )
            assert decode_block(encode_block(block)) == block
            parent = digest(encode_block(block))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.builds(
        Block,
        height=_u64,
        parent_digest=st.binary(min_size=32, max_size=32),
        txn_list=st.lists(_txns, max_size=4).map(tuple),
        proposer=_u64,
        state_root=st.none() | st.binary(min_size=32, max_size=32),
    ))
    def test_encoded_block_survives_decode_and_encode(self, block):
        # replicas hand the ordered bytes to the ledger in place of re-encoding
        # the decoded block, so the two must be the same bytes
        enc = encode_block(block)
        assert encode_block(decode_block(enc)) == enc

    def test_injective_on_distinct_values(self):
        rng = random.Random(9)
        seen = {}
        for _ in range(500):
            txn = _random_txn(rng)
            enc = encode_transaction(txn)
            assert seen.setdefault(enc, txn) == txn


# Fixed blocks over the encoder's cases: an empty key and an empty value,
# empty read and write sets, both ``app_abort`` values, derived and explicit
# ``op_count``, with and without a state root.
_PINNED_TXNS = (
    Transaction(id=0),
    Transaction(id=1, read_keys=(b"a", b"b"), write_set=((b"a", b"v1"),)),
    Transaction(
        id=2**40 + 3,
        read_keys=(b"k",),
        write_set=((b"k", b""), (b"z", bytes(range(20)))),
        op_count=9,
        app_abort=True,
    ),
    Transaction(id=5, write_set=((b"w", b"x" * 100),), op_count=1),
    Transaction(id=6, read_keys=(b"",), app_abort=True),
)
_PINNED_BLOCKS = (
    Block(height=0, parent_digest=bytes(32)),
    Block(height=1, parent_digest=digest(b"genesis"), txn_list=_PINNED_TXNS[:3], proposer=3),
    Block(
        height=2**33,
        parent_digest=digest(b"parent"),
        txn_list=_PINNED_TXNS[3:],
        state_root=digest(b"root"),
    ),
)


class TestWireBytes:
    """The encoded bytes feed ledger digests and hash costs, so they are pinned."""

    def test_transaction_bytes(self):
        txn = Transaction(id=1, read_keys=(b"a",), app_abort=True)
        assert encode_transaction(txn).hex() == (
            "0000000000000001" "00000001" "00000001" "61" "00000000" "00000001" "01"
        )

    def test_block_digests(self):
        # recorded once transactions carried read keys only, without versions
        # or reserved bytes; the empty block's digest is older than both
        assert [digest(encode_block(b)).hex() for b in _PINNED_BLOCKS] == [
            "353fd628b7f6e7d426e5d6a27d1bc3ac22fa7f812e7594cf2ec5ca1175785b50",
            "57f03a6593b804ce8662f625f321cbd0aaa41cd7447a416183ceae776c57165a",
            "cc4078a141e9ab0e54c12954ea7622ef925aeeafd7c12453c80d679c44719893",
        ]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_txns)
    def test_transaction_carries_the_request_only(self, txn):
        # id, read keys, writes, op count and the app_abort flag: no other byte
        assert len(encode_transaction(txn)) == (
            8
            + 4 + sum(4 + len(k) for k in txn.read_keys)
            + 4 + sum(8 + len(k) + len(v) for k, v in txn.write_set)
            + 4 + 1
        )


class TestCanonicalDecoding:
    """A decoder accepts only bytes its encoder writes, so each re-encodes to itself."""

    @pytest.mark.parametrize("byte", [2, 255])
    def test_transaction_flag_other_than_0_or_1_is_refused(self, byte):
        enc = bytearray(encode_transaction(Transaction(id=1, read_keys=(b"a",), app_abort=True)))
        assert enc[-1] == 1  # ``app_abort``
        enc[-1] = byte
        with pytest.raises(ValueError, match="flag"):
            decode_transaction(bytes(enc))

    def test_state_root_flag_other_than_0_or_1_is_refused(self):
        enc = bytearray(encode_block(_PINNED_BLOCKS[2]))
        assert enc[48] == 1  # after height, parent digest and proposer
        enc[48] = 2
        with pytest.raises(ValueError, match="flag"):
            decode_block(bytes(enc))

    _ENCODINGS = pytest.mark.parametrize("decode, enc", [
        (decode_transaction, encode_transaction(_PINNED_TXNS[1])),
        (decode_block, encode_block(_PINNED_BLOCKS[1])),
        (decode_entries, encode_entries([(1, ((b"k", 3),)), (2, ())])),
        (decode_op, encode_op(1, b"k", b"v")),
    ], ids=["transaction", "block", "eov_entries", "storage_op"])

    @_ENCODINGS
    def test_trailing_bytes_are_refused(self, decode, enc):
        decode(enc)
        with pytest.raises(ValueError, match="trailing"):
            decode(enc + b"junk")

    @_ENCODINGS
    def test_truncated_encodings_are_refused(self, decode, enc):
        # every proper prefix runs out of bytes before its last field
        for end in range(len(enc)):
            with pytest.raises(ValueError, match="truncated"):
                decode(enc[:end])


class TestTransactionInvariants:
    def test_op_count_is_distinct_keys_touched(self):
        txn = Transaction(
            id=1,
            read_keys=(b"a", b"b"),
            write_set=((b"a", b"v"), (b"c", b"v")),
        )
        assert txn.op_count == 3


class TestValidateConfig:
    def test_cft_five_nodes_two_failures_ok(self):
        cfg = DesignConfig(failure_model=FailureModel.CFT, node_count=5, tolerated_failures=2)
        assert validate_config(cfg) == []

    def test_bft_four_nodes_two_failures_rejected(self):
        cfg = DesignConfig(failure_model=FailureModel.BFT, node_count=4, tolerated_failures=2)
        violations = validate_config(cfg)
        assert any("3f+1" in v for v in violations)

    def test_pipeline_model_mismatch(self):
        cfg = DesignConfig(
            replication_model=ReplicationModel.STORAGE_BASED,
            concurrency_mode=ConcurrencyMode.ORDER_EXECUTE,
            node_count=5,
            tolerated_failures=2,
        )
        violations = validate_config(cfg)
        assert any("pipeline/model mismatch" in v for v in violations)

    def test_every_violation_is_named(self):
        cfg = DesignConfig(
            replication_model=ReplicationModel.STORAGE_BASED,
            concurrency_mode=ConcurrencyMode.SERIAL,
            failure_model=FailureModel.BFT,
            node_count=3,
            tolerated_failures=1,
            cost_model=CostModel(block_size_limit=0),
        )
        violations = validate_config(cfg)
        assert len(violations) == 3  # quorum bound, mode mismatch, block size

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_hash_time_per_byte_rejected(self, value):
        cfg = DesignConfig(cost_model=CostModel(hash_time_per_byte=value))
        assert validate_config(cfg) == ["cost_model.hash_time_per_byte must be finite"]

    @pytest.mark.parametrize(
        "setting",
        [
            {"index": IndexKind.MPT},
            {"index": IndexKind.MBT},
            {"replication_approach": ReplicationApproach.SHARED_LOG},
            {"replication_approach": ReplicationApproach.PRIMARY_BACKUP},
        ],
        ids=["mpt", "mbt", "shared_log", "primary_backup"],
    )
    def test_sharded_config_rejects_settings_the_runner_ignores(self, setting):
        # storage-based, where every one of these settings is valid unsharded
        cfg = DesignConfig(
            replication_model=ReplicationModel.STORAGE_BASED,
            concurrency_mode=ConcurrencyMode.CONCURRENT_OCC,
            sharding_mode=ShardingMode.TRUSTED_2PC,
            node_count=12,
            tolerated_failures=1,
        )
        assert validate_config(cfg) == []
        assert validate_config(replace(cfg, sharding_mode=ShardingMode.NONE, **setting)) == []
        violations = validate_config(replace(cfg, **setting))
        assert len(violations) == 1 and "sharded runs" in violations[0]

    def test_valid_storage_config(self):
        cfg = DesignConfig(
            replication_model=ReplicationModel.STORAGE_BASED,
            concurrency_mode=ConcurrencyMode.CONCURRENT_OCC,
            ledger_enabled=False,
            node_count=5,
            tolerated_failures=2,
        )
        assert validate_config(cfg) == []


INI_TEXT = """
[design]
replication_model = storage_based
replication_approach = consensus
failure_model = cft
concurrency_mode = concurrent_occ
ledger_enabled = false
index = plain
sharding_mode = none
node_count = 5
tolerated_failures = 2

[cost_model]
net_latency_mean = 700
exec_time_per_op = 30
"""

JSON_TEXT = """
{
  "replication_model": "storage_based",
  "replication_approach": "consensus",
  "failure_model": "cft",
  "concurrency_mode": "concurrent_occ",
  "ledger_enabled": false,
  "index": "plain",
  "sharding_mode": "none",
  "node_count": 5,
  "tolerated_failures": 2,
  "cost_model": {"net_latency_mean": 700, "exec_time_per_op": 30}
}
"""


class TestConfigFiles:
    def test_ini_and_json_parse_to_same_config(self):
        assert config_from_text(INI_TEXT) == config_from_text(JSON_TEXT)

    def test_parsed_fields(self):
        cfg = config_from_text(INI_TEXT)
        assert cfg.replication_model is ReplicationModel.STORAGE_BASED
        assert cfg.cost_model.net_latency_mean == 700
        assert cfg.cost_model.exec_time_per_op == 30
        assert cfg.ledger_enabled is False

    def test_round_trip_through_dict(self):
        import json

        cfg = config_from_text(INI_TEXT)
        again = config_from_text(json.dumps(config_to_dict(cfg)))
        assert again == cfg

    def test_bad_enum_value_reports_options(self):
        with pytest.raises(ValueError, match="transaction_based"):
            config_from_text("[design]\nreplication_model = sideways\n")
