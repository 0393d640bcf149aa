"""Authenticated storage: versioned KV, MPT, MBT, hash-chained ledger."""

import dataclasses
import gc
import hashlib
import random
import struct
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpt_reference import (
    assert_stored_round_trip,
    encode_node,
    max_path_nibbles,
    reachable_digests,
    reachable_nodes,
    reference_encode_node,
)
from txsim.authstore import (
    EMPTY_ROOT,
    GENESIS_PARENT,
    LedgerStore,
    MerkleBucketTree,
    MerklePatriciaTrie,
    StateStore,
    TransitionMemo,
    VersionedKV,
)
from txsim.authstore import mbt as mbt_mod
from txsim.authstore import mpt as mpt_mod
from txsim.authstore.kv import state_fingerprints
from txsim.authstore.ledger import LedgerError
from txsim.core import Block, IndexKind, Transaction, digest, encode_block
from txsim.core.encoding import Writer


class TestVersionedKV:
    def test_put_then_get_is_version_one(self):
        kv = VersionedKV()
        kv.put_batch([(b"k", b"v")])
        assert kv.get(b"k") == (b"v", 1)

    def test_absent_key(self):
        assert VersionedKV().get(b"nope") is None
        assert VersionedKV().version(b"nope") == 0

    def test_batch_is_last_write_wins_single_version_bump(self):
        kv = VersionedKV()
        versions = kv.put_batch([(b"k", b"v1"), (b"k", b"v2")])
        assert kv.get(b"k") == (b"v2", 1)
        assert versions == {b"k": 1}

    def test_versions_count_committed_batches(self):
        kv = VersionedKV()
        for i in range(5):
            kv.put_batch([(b"k", f"v{i}".encode())])
        assert kv.get(b"k") == (b"v4", 5)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(st.tuples(st.binary(max_size=6), st.binary(max_size=12)), max_size=8),
                    max_size=4))
    @example([])
    def test_fingerprint_is_sha256_of_the_records_in_key_order(self, batches):
        kv = VersionedKV()
        for batch in batches:
            kv.put_batch(batch)
        # the reference definition: every record's canonical encoding, in key order
        w = Writer()
        for key in sorted(kv._data):
            value, version = kv._data[key]
            w.bytes(key).bytes(value).u64(version)
        assert kv.state_fingerprint() == hashlib.sha256(w.getvalue()).digest()

    def test_a_fork_of_a_written_fork_reads_its_writes_over_the_base(self):
        kv = VersionedKV()
        kv.put_batch([(b"a", b"1"), (b"b", b"2")])
        first = kv.fork()
        first.put_batch([(b"b", b"3"), (b"c", b"4")])
        second = first.fork()
        kv.put_batch([(b"a", b"5")])
        first.put_batch([(b"c", b"6")])
        assert dict(second.items()) == {b"a": (b"1", 1), b"b": (b"3", 2), b"c": (b"4", 1)}
        assert dict(first.items()) == {b"a": (b"1", 1), b"b": (b"3", 2), b"c": (b"6", 2)}
        assert dict(kv.items()) == {b"a": (b"5", 2), b"b": (b"2", 1)}
        assert (len(kv), len(first), len(second)) == (2, 3, 3)
        assert (second.raw_bytes(), second.version(b"b"), second.get(b"d")) == (6, 2, None)
        assert state_fingerprints([first, second]) == [
            first.state_fingerprint(), second.state_fingerprint()
        ]

    def test_equal_stores_share_one_fingerprint_and_a_different_one_gets_its_own(self, monkeypatch):
        stores = [VersionedKV() for _ in range(4)]
        for kv in stores:
            kv.put_batch([(b"a", b"1"), (b"b", b"2")])
        stores[2].put_batch([(b"c", b"3")])
        calls = []
        fingerprint = VersionedKV.state_fingerprint
        monkeypatch.setattr(VersionedKV, "state_fingerprint",
                            lambda kv: calls.append(kv) or fingerprint(kv))
        prints = state_fingerprints(stores)
        assert prints == [fingerprint(kv) for kv in stores]
        assert prints[0] == prints[1] == prints[3] != prints[2]
        assert calls == [stores[0], stores[2]]


class TestMpt:
    def test_empty_root_constant(self):
        assert MerklePatriciaTrie().root == EMPTY_ROOT == digest(b"")

    def test_single_leaf_root_matches_hand_computation(self):
        # Independent construction of the leaf encoding for {"a": "1"}:
        # tag 0, nibble count 2, nibbles (6, 1), value length 1, value "1".
        hand = (
            struct.pack(">B", 0)
            + struct.pack(">I", 2)
            + bytes([6, 1])
            + struct.pack(">I", 1)
            + b"1"
        )
        expected = hashlib.sha256(hand).digest()
        trie = MerklePatriciaTrie()
        trie.put(b"a", b"1")
        assert trie.root == expected

    def test_a_nibble_path_is_bytes_one_per_nibble(self):
        nibbles = mpt_mod.key_nibbles(b"\x1a\xf0")
        assert type(nibbles) is bytes and nibbles == bytes([1, 10, 15, 0])
        assert mpt_mod.key_nibbles(b"") == b""

    def test_agrees_with_dict_oracle(self):
        rng = random.Random(21)
        trie = MerklePatriciaTrie()
        oracle = {}
        for _ in range(2000):
            key = f"k{rng.randint(0, 300):04d}".encode()
            value = rng.getrandbits(64).to_bytes(8, "big")
            trie.put(key, value)
            oracle[key] = value
        for key, value in oracle.items():
            assert trie.get(key) == value
        assert trie.get(b"absent") is None

    def test_root_is_insertion_order_independent(self):
        rng = random.Random(22)
        for _ in range(200):
            n = rng.randint(1, 12)
            items = {
                rng.getrandbits(48).to_bytes(6, "big"): rng.getrandbits(32).to_bytes(4, "big")
                for _ in range(n)
            }
            orders = [list(items.items()) for _ in range(2)]
            rng.shuffle(orders[0])
            rng.shuffle(orders[1])
            roots = set()
            for order in orders:
                trie = MerklePatriciaTrie()
                trie.put_batch(order)
                roots.add(trie.root)
            assert len(roots) == 1

    def test_proof_round_trip_and_tampering(self):
        rng = random.Random(23)
        trie = MerklePatriciaTrie()
        items = {}
        for i in range(50):
            key = f"key{i:02d}".encode()
            value = rng.getrandbits(64).to_bytes(8, "big")
            trie.put(key, value)
            items[key] = value
        for key, value in items.items():
            proof = trie.prove(key)
            assert mpt_mod.verify(trie.root, key, value, proof)
            # flip one byte of the value
            bad_value = bytes([value[0] ^ 1]) + value[1:]
            assert not mpt_mod.verify(trie.root, key, bad_value, proof)
        # flip one byte of the root
        key, value = next(iter(items.items()))
        proof = trie.prove(key)
        bad_root = bytes([trie.root[0] ^ 0x80]) + trie.root[1:]
        assert not mpt_mod.verify(bad_root, key, value, proof)
        # flip one byte inside the proof
        node = bytearray(proof.nodes[-1])
        node[-1] ^= 1
        tampered = mpt_mod.MptProof(proof.nodes[:-1] + (bytes(node),))
        assert not mpt_mod.verify(trie.root, key, value, tampered)

    def test_prove_absent_key_signals(self):
        trie = MerklePatriciaTrie()
        trie.put(b"here", b"x")
        with pytest.raises(KeyError):
            trie.prove(b"gone")

    def test_path_bound_for_16_byte_keys(self):
        rng = random.Random(24)
        trie = MerklePatriciaTrie()
        for _ in range(3000):
            trie.put(rng.getrandbits(128).to_bytes(16, "big"), b"v")
        # 16-byte keys are 32 nibbles; every internal node consumes >= 1
        assert max_path_nibbles(trie) <= 32

    def test_overwrite_changes_root_back_and_forth(self):
        trie = MerklePatriciaTrie()
        r1 = trie.put(b"k", b"v1")
        r2 = trie.put(b"k", b"v2")
        r3 = trie.put(b"k", b"v1")
        assert r1 != r2 and r1 == r3

    def test_golden_root_meter_sizes_and_proofs(self):
        # Each put below takes one insert path; the hash-meter totals are what
        # pipelines charge as virtual hash time, so they are pinned exactly.
        trie = MerklePatriciaTrie()
        for key, value in [
            (b"\x12\x34", b"v1"),  # empty trie: a lone leaf
            (b"\x12\x34", b"v2"),  # leaf overwritten in place
            (b"\x12\x56", b"v3"),  # leaf split under a common prefix
            (b"\x12", b"v4"),  # prefix key: the branch carries a value
            (b"\x1f\x00", b"v5"),  # extension split, 1-nibble rest
            (b"\xab\xcd\xef\x01", b"v6"),  # extension split with no common prefix
            (b"\xab\xcd\xef\x02", b"v7"),
            (b"\xab\xc0\x00\x00", b"v8"),  # extension split, longer rest
            (b"\x1f\x10", b"v9"),  # leaf split with no common prefix
            (b"\xab\xcd\xef\x01\x23", b"v10"),  # leaf split, old leaf becomes the value
            (b"\xab", b"v11"),  # extension split ending on the new key
            (b"\x12\x56", b"v12"),  # deep leaf overwritten
        ]:
            trie.put(key, value)
        rng = random.Random(41)
        batch = []
        for _ in range(30):
            key = b"\x7e" + bytes(rng.choice(b"\x00\x01\x10\xff") for _ in range(rng.randint(0, 3)))
            batch.append((key, bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 6)))))
        trie.put_batch(batch)

        assert trie.root.hex() == "d5b4d41b5e86dc79486c11b63db60f47ec8cc936e83807a76dacca1336631975"
        assert (trie.meter.ops, trie.meter.bytes) == (173, 10356)
        assert trie.reachable_bytes() == 1542
        assert max_path_nibbles(trie) == 10
        root_node = (
            "0200000482091e7e3a125154c4a4f47df836c711bbec3629894f702d76f5bfcc29df60a4"
            "7a224448abe20b8c04dd0717b431e0f1294ebc02dace95d9050096f9f17f64f18c6137"
            "8575d7374036b93f457b2673b15b7278e728b3db417d11eca205412a57b800"
        )
        branch_1 = (
            "0200008004de716c53efd477b285933c7f50aec555ec6cb4ab5b1b92d64e5063232c0ed2"
            "44250c6d945f4a8c7b4964ed09ac67421bc6ef4c2d199d8fe4cc26b94adcb9885700"
        )
        expected = {
            b"\x12": (
                root_node,
                branch_1,
                "02000000287bafefa5d647c8f34c504282687a41dab950dcab2b3531f2265c1f69d85b7e"
                "2d01ce89448bb6f9b762e8eb2e328be316bfa11c1960b4c4d8a46dde2138ddde4101"
                "000000027634",
            ),
            b"\xab": (
                root_node,
                "01000000010b8cae77d6e84742ec25aaa5458143d7bbbd2cdbc209fdc6894517da243da675a0",
                "0200001000eb53bc5167b57946f2d8496a5990d3060fb18429c14ccb562272599e6014cbad"
                "0100000003763131",
            ),
            b"\x1f\x10": (
                root_node,
                branch_1,
                "020000000322d4dac628efb0ed02e1217af4b8aa0d8931ee0bfef162fc051b88686c3c2535"
                "4fcfdf5b647fcfe925e88372ed3c95f7052672dd2974308db3fc5d10270584f300",
                "000000000100000000027639",
            ),
        }
        for key, nodes in expected.items():
            assert tuple(n.hex() for n in trie.prove(key).nodes) == nodes


# Few distinct bytes, so keys share prefixes, are prefixes of each other
# (including the empty key) and split nodes at every nibble position.
_mpt_keys = st.lists(st.sampled_from([0x00, 0x01, 0x10, 0x11, 0xF0, 0xFF]), max_size=4).map(bytes)
_mpt_writes = st.tuples(_mpt_keys, st.binary(max_size=8))
# a tuple is one put, a list one put_batch
_mpt_ops = st.lists(st.one_of(_mpt_writes, st.lists(_mpt_writes, max_size=6)), max_size=20)
_digests = st.binary(min_size=32, max_size=32)
_nibble_paths = st.lists(st.integers(0, 15), max_size=40).map(bytes)
_mpt_nodes = st.one_of(
    st.builds(mpt_mod.Leaf, _nibble_paths, st.binary(max_size=64)),
    st.builds(mpt_mod.Extension, _nibble_paths.filter(len), _digests),
    st.builds(
        mpt_mod.Branch,
        st.lists(st.none() | _digests, min_size=16, max_size=16).map(tuple),
        st.none() | st.binary(max_size=64),
    ),
)


def _assert_round_trip(node):
    enc = encode_node(node)
    assert enc == reference_encode_node(node)
    decoded = mpt_mod.decode_node(enc)
    assert type(decoded) is type(node) and decoded == node
    return enc


class TestMptProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_mpt_ops)
    @example(  # two equal subtries, then puts that rewrite one of them and not the other
        [
            [(b"\x01\x00", b"v"), (b"\x01\x01", b"v"), (b"\x11\x00", b"v"), (b"\x11\x01", b"v")],
            (b"\x01\x00", b"w"),
            [(b"\x11\x00", b"w"), (b"\x01\x01", b"w")],
            (b"\x11\x00", b"v"),
        ]
    )
    def test_store_roots_and_proofs_match_a_fresh_trie(self, ops):
        trie = MerklePatriciaTrie()
        final = {}
        for op in ops:
            if isinstance(op, list):
                trie.put_batch(op)
                final.update(op)
            else:
                trie.put(*op)
                final[op[0]] = op[1]
        for node in reachable_nodes(trie):
            assert_stored_round_trip(node)
        fresh = MerklePatriciaTrie()
        fresh.put_batch(sorted(final.items()))
        assert trie.root == fresh.root
        for key, value in final.items():
            assert trie.get(key) == value
            assert mpt_mod.verify(trie.root, key, value, trie.prove(key))

    def test_a_put_frees_what_it_replaced(self):
        # 100 keys, so every key is overwritten early and later writes only replace
        keys = [hashlib.sha256(struct.pack(">I", i)).digest()[:8] for i in range(100)]
        source = MerklePatriciaTrie()
        source.load((key, bytes(32)) for key in keys)
        memo, forks = TransitionMemo(), [MerklePatriciaTrie() for _ in range(5)]
        for fork in forks:
            source.share(fork, memo)
        rng, written = random.Random(19), 0

        def overwrite(count):
            nonlocal written
            for _ in range(count // 4):
                batch = []
                for _ in range(4):
                    written += 1
                    batch.append((rng.choice(keys), written.to_bytes(32, "big")))
                for fork in forks:
                    fork.put_batch(batch)

        tracemalloc.start()
        try:
            overwrite(400)
            gc.collect()
            after_first = tracemalloc.get_traced_memory()[0]
            overwrite(4000)
            gc.collect()
            after_second = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert memo.entries == {}
        assert len({id(fork._root) for fork in forks}) == 1  # one node graph
        # the trie's shape is fixed and replaced nodes are freed, so memory is flat
        assert after_second - after_first < 16 * 1024

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(_mpt_writes, max_size=24))
    @example([])
    @example([(b"", b"only the empty key")])
    @example([(b"\x01", b"first"), (b"\x01\x10", b"longer"), (b"\x01", b"last wins")])
    def test_bulk_load_equals_sequential_puts(self, writes):
        loaded, sequential = MerklePatriciaTrie(), MerklePatriciaTrie()
        assert loaded.load(writes) == sequential.put_batch(writes)
        assert loaded.reachable_bytes() == sequential.reachable_bytes()
        assert max_path_nibbles(loaded) == max_path_nibbles(sequential)
        # each node the load creates is reachable: it replaces none
        nodes = reachable_nodes(loaded)
        assert loaded.meter.ops == len(nodes)
        assert reachable_digests(loaded) == reachable_digests(sequential)
        for node in nodes:
            assert_stored_round_trip(node)
        for key, value in dict(writes).items():
            assert loaded.get(key) == value
            assert loaded.prove(key).nodes == sequential.prove(key).nodes
            assert mpt_mod.verify(loaded.root, key, value, loaded.prove(key))

    def test_bulk_load_needs_an_empty_trie(self):
        trie = MerklePatriciaTrie()
        trie.put(b"k", b"v")
        with pytest.raises(ValueError, match="empty trie"):
            trie.load([(b"j", b"w")])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_mpt_nodes)
    def test_encoder_matches_the_reference_on_any_node(self, node):
        _assert_round_trip(node)


class TestMbt:
    def test_default_depth_is_five(self):
        tree = MerkleBucketTree()
        assert (mbt_mod.BUCKET_COUNT, mbt_mod.FANOUT) == (1000, 4)
        assert tree.depth == 5

    def test_root_is_insertion_order_independent(self):
        rng = random.Random(31)
        items = {
            f"key{i}".encode(): rng.getrandbits(32).to_bytes(4, "big") for i in range(200)
        }
        orders = [list(items.items()), list(items.items())]
        rng.shuffle(orders[0])
        rng.shuffle(orders[1])
        roots = set()
        for order in orders:
            tree = MerkleBucketTree()
            tree.put_batch(order)
            roots.add(tree.root)
        assert len(roots) == 1

    def test_one_write_recomputes_depth_plus_one_digests(self):
        tree = MerkleBucketTree()
        tree.put(b"warm", b"x")
        before = tree.meter.ops
        tree.put(b"key", b"value")
        assert tree.meter.ops - before == tree.depth + 1

    def test_proof_path_length_is_depth_plus_bucket_position(self):
        tree = MerkleBucketTree()
        rng = random.Random(32)
        keys = [f"key{i}".encode() for i in range(300)]
        for key in keys:
            tree.put(key, rng.getrandbits(32).to_bytes(4, "big"))
        for key in keys[:50]:
            proof = tree.prove(key)
            position = [k for k, _ in tree.buckets[proof.bucket_index]].index(key)
            assert (len(proof.path), proof.position) == (5, position)

    def test_proof_round_trip_and_tampering(self):
        tree = MerkleBucketTree()
        rng = random.Random(33)
        items = {}
        for i in range(100):
            key = f"key{i}".encode()
            value = rng.getrandbits(64).to_bytes(8, "big")
            tree.put(key, value)
            items[key] = value
        for key, value in list(items.items())[:40]:
            proof = tree.prove(key)
            assert mbt_mod.verify(tree.root, key, value, proof)
            bad = bytes([value[0] ^ 4]) + value[1:]
            assert not mbt_mod.verify(tree.root, key, bad, proof)
            bad_root = tree.root[:-1] + bytes([tree.root[-1] ^ 1])
            assert not mbt_mod.verify(bad_root, key, value, proof)
        # tamper a sibling digest inside the proof
        key, value = next(iter(items.items()))
        proof = tree.prove(key)
        pos, sibs = proof.path[0]
        if sibs:
            bad_sib = bytes([sibs[0][0] ^ 1]) + sibs[0][1:]
            bad_path = ((pos, (bad_sib,) + sibs[1:]),) + proof.path[1:]
            tampered = dataclasses.replace(proof, path=bad_path)
            assert not mbt_mod.verify(tree.root, key, value, tampered)

    def test_updates_are_in_place(self):
        tree = MerkleBucketTree()
        tree.put(b"k", b"v1")
        r1 = tree.root
        tree.put(b"k", b"v2")
        assert tree.root != r1
        assert tree.get(b"k") == b"v2"
        assert sum(len(b) for b in tree.buckets) == 1


def _block(height, parent, n_txns=2, rng=None):
    rng = rng or random.Random(height)
    txns = tuple(
        Transaction(
            id=height * 100 + i,
            write_set=((f"k{i}".encode(), rng.getrandbits(32).to_bytes(4, "big")),),
        )
        for i in range(n_txns)
    )
    return Block(height=height, parent_digest=parent, txn_list=txns, proposer=0)


class TestLedger:
    def test_genesis_then_next_block_verifies(self):
        ledger = LedgerStore()
        b0 = _block(0, GENESIS_PARENT)
        d0, _ = ledger.append(b0)
        ledger.append(_block(1, d0))
        assert ledger.verify_chain() is None

    def test_wrong_parent_rejected(self):
        ledger = LedgerStore()
        ledger.append(_block(0, GENESIS_PARENT))
        with pytest.raises(LedgerError, match="parent digest"):
            ledger.append(_block(1, digest(b"wrong")))

    def test_mutating_block_breaks_chain_at_next_height(self):
        ledger = LedgerStore()
        d = GENESIS_PARENT
        for h in range(3):
            d, _ = ledger.append(_block(h, d))
        mutated = dataclasses.replace(ledger.blocks[1], proposer=9)
        ledger.blocks[1] = mutated
        assert ledger.verify_chain() == 2

    def test_tip_mutation_detected(self):
        ledger = LedgerStore()
        d = GENESIS_PARENT
        for h in range(3):
            d, _ = ledger.append(_block(h, d))
        ledger.blocks[2] = dataclasses.replace(ledger.blocks[2], proposer=9)
        assert ledger.verify_chain() == 2

    def test_hundred_random_blocks_verify(self):
        rng = random.Random(44)
        ledger = LedgerStore()
        d = GENESIS_PARENT
        for h in range(100):
            d, _ = ledger.append(_block(h, d, n_txns=rng.randint(0, 4), rng=rng))
        assert ledger.verify_chain() is None
        assert ledger.block_bytes > 0

    def test_append_of_the_encoded_bytes_matches_append_of_the_block(self):
        rng = random.Random(45)
        encoding, reusing = LedgerStore(), LedgerStore()
        d = GENESIS_PARENT
        for h in range(20):
            block = _block(h, d, n_txns=rng.randint(0, 4), rng=rng)
            d, size = encoding.append(block)
            assert reusing.append(block, encode_block(block)) == (d, size)
            assert size == len(encode_block(block))
        assert reusing.tip_digest == encoding.tip_digest
        assert reusing.block_bytes == encoding.block_bytes
        assert reusing.verify_chain() is None

    def test_every_single_byte_mutation_is_located(self):
        ledger = LedgerStore()
        d = GENESIS_PARENT
        for h in range(5):
            d, _ = ledger.append(_block(h, d))
        # corrupt one value byte in each block in turn
        for h in range(5):
            original = ledger.blocks[h]
            txn = original.txn_list[0]
            key, value = txn.write_set[0]
            bad_txn = dataclasses.replace(
                txn, write_set=((key, bytes([value[0] ^ 1]) + value[1:]),)
            )
            ledger.blocks[h] = dataclasses.replace(
                original, txn_list=(bad_txn,) + original.txn_list[1:]
            )
            broken = ledger.verify_chain()
            assert broken is not None and broken in (h, h + 1)
            ledger.blocks[h] = original
        assert ledger.verify_chain() is None


class TestStateStore:
    def test_apply_batch_updates_kv_and_root(self):
        store = StateStore(index=IndexKind.MPT, ledger_enabled=False)
        versions, ops, nbytes = store.apply_batch([(b"a", b"1"), (b"b", b"2")])
        assert versions == {b"a": 1, b"b": 1}
        assert ops > 0 and nbytes > 0
        root_before = store.index_root()
        store.apply_batch([(b"a", b"3")])
        assert store.index_root() != root_before

    def test_index_root_requires_authenticated_index(self):
        store = StateStore(index=IndexKind.PLAIN, ledger_enabled=False)
        with pytest.raises(ValueError, match="authenticated index"):
            store.index_root()

    def test_breakdown_ledger_disabled_has_zero_block_bytes(self):
        store = StateStore(index=IndexKind.PLAIN, ledger_enabled=False)
        store.apply_batch([(b"a", b"x" * 100)])
        report = store.storage_breakdown()
        assert report["block_bytes"] == 0
        assert report["state_bytes"] == 101
        assert report["index_overhead_per_record"] == 0.0

    def test_mbt_overhead_below_mpt_overhead(self):
        rng = random.Random(55)
        writes = [
            (f"rec{i:06d}".encode()[:16].ljust(16, b"0"), rng.getrandbits(64).to_bytes(8, "big"))
            for i in range(2000)
        ]
        mpt_store = StateStore(index=IndexKind.MPT, ledger_enabled=False)
        mbt_store = StateStore(index=IndexKind.MBT, ledger_enabled=False)
        mpt_store.apply_batch(writes)
        mbt_store.apply_batch(writes)
        mpt_overhead = mpt_store.storage_breakdown()["index_overhead_per_record"]
        mbt_overhead = mbt_store.storage_breakdown()["index_overhead_per_record"]
        assert mbt_overhead < mpt_overhead


_store_writes = st.lists(st.tuples(_mpt_keys.filter(len), st.binary(max_size=8)), max_size=24)


def _index_containers(store):
    """The index's contents, copied, for the aliasing checks."""
    index = store.index
    if isinstance(index, MerklePatriciaTrie):
        return [(node.digest, node.encode()) for node in reachable_nodes(index)], index.root
    if isinstance(index, MerkleBucketTree):
        return [list(b) for b in index.buckets], [list(level) for level in index.levels]
    return None


def _contents(store, keys):
    return (
        store.kv.state_fingerprint(),
        store.index_root() if store.index is not None else None,
        store.storage_breakdown(),
        {key: store.get(key) for key in keys},
        dict(store.kv.items()),
        _index_containers(store),
        (store.meter.ops, store.meter.bytes),
    )


class TestStateStoreLoad:
    @pytest.mark.parametrize("index", list(IndexKind))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(writes=_store_writes)
    def test_load_equals_apply_batch_without_metering(self, index, writes):
        loaded = StateStore(index=index, ledger_enabled=True)
        applied = StateStore(index=index, ledger_enabled=True)
        loaded.load(writes)
        applied.apply_batch(writes)
        assert loaded.meter.snapshot() == (0, 0)
        assert dict(loaded.kv.items()) == dict(applied.kv.items())
        assert loaded.storage_breakdown() == applied.storage_breakdown()
        if index is not IndexKind.PLAIN:
            assert loaded.index_root() == applied.index_root()
        if index is IndexKind.MPT:
            assert reachable_digests(loaded.index) == reachable_digests(applied.index)
            for node in reachable_nodes(loaded.index):
                assert_stored_round_trip(node)

    def test_load_needs_an_empty_store(self):
        store = StateStore(index=IndexKind.PLAIN, ledger_enabled=False)
        store.load([(b"a", b"1")])
        with pytest.raises(ValueError, match="empty store"):
            store.load([(b"b", b"2")])


class TestStateStoreFork:
    @pytest.mark.parametrize("index", list(IndexKind))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(initial=_store_writes, later=st.lists(_store_writes, max_size=4))
    def test_fork_equals_a_fresh_store_and_stays_independent(self, index, initial, later):
        def preloaded():
            store = StateStore(index=index, ledger_enabled=True)
            store.load(initial)
            return store

        source, fresh = preloaded(), preloaded()
        fork = source.fork(TransitionMemo())
        assert fork.index_kind is index and fork.meter.snapshot() == (0, 0)
        assert fork.ledger is not source.ledger and len(fork.ledger) == 0
        if fork.index is not None:
            assert fork.index.meter is fork.meter
        keys = {key for key, _ in initial} | {key for batch in later for key, _ in batch}
        assert _contents(fork, keys) == _contents(fresh, keys)

        source_before = _contents(source, keys)
        for batch in later:
            assert fork.apply_batch(batch) == fresh.apply_batch(batch)
            assert _contents(fork, keys) == _contents(fresh, keys)
        # writes to the fork leave the source alone
        assert _contents(source, keys) == source_before

        fork_before = _contents(fork, keys)
        for batch in later:
            source.apply_batch(batch)
        source.apply_batch([(b"\xee", b"source only")])
        # and writes to the source leave the fork alone
        assert _contents(fork, keys) == fork_before


    @pytest.mark.parametrize("index", [IndexKind.PLAIN, IndexKind.MPT])
    def test_a_fork_allocates_the_same_whatever_the_record_count(self, index):
        # the forks share the source's records and trie nodes, so none is copied
        def allocated_by_forks(record_count):
            source = StateStore(index=index, ledger_enabled=True)
            source.load((struct.pack(">Q", i), bytes(100)) for i in range(record_count))
            memo = TransitionMemo()
            gc.collect()
            tracemalloc.start()
            try:
                forks = [source.fork(memo) for _ in range(5)]
                allocated = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert all(len(fork.kv) == record_count for fork in forks)
            return allocated

        # interpreter free lists make the count drift by a few hundred bytes
        # between calls; a copy of 1,000 records would be about 36 KiB per fork
        allocated_by_forks(10)
        small, large = allocated_by_forks(10), allocated_by_forks(1000)
        assert small < 8 * 1024 and abs(large - small) < 1024


# few keys and values, so batches repeat and tries meet at the same roots
_shared_writes = st.lists(
    st.tuples(st.sampled_from([b"\x01", b"\x01\x10", b"\x01\x11", b"\x10", b"\xf0\xff"]),
              st.sampled_from([b"", b"a", b"b" * 40])),
    max_size=4,
)
_DIVERGED = [(b"\xff\xfe", b"only one replica writes this")]


class TestMptTransitionSharing:
    def test_a_lone_sharer_holds_no_transitions(self):
        # a one-replica cell: no other trie would ever take the entry
        store = StateStore(index=IndexKind.MPT, ledger_enabled=False)
        store.load([(b"\x01", b"a")])
        lone = store.fork(TransitionMemo())
        for i in range(5):
            lone.apply_batch([(b"\x01", bytes([i]))])
        assert lone.index.memo.sharers == 1 and lone.index.memo.entries == {}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        initial=_shared_writes,
        batches=st.lists(_shared_writes, min_size=1, max_size=6),
        replicas=st.integers(3, 5),
        order=st.lists(st.integers(0, 4), max_size=40),
        diverge=st.none() | st.tuples(st.integers(0, 4), st.integers(0, 6)),
    )
    def test_shared_forks_match_unshared_tries(self, initial, batches, replicas, order, diverge):
        def preloaded():
            store = StateStore(index=IndexKind.MPT, ledger_enabled=False)
            store.load(initial)
            return store

        # one replica (the diverged one) takes a batch of its own mid-way
        plans = [list(batches) for _ in range(replicas)]
        if diverge is not None:
            victim, at = diverge[0] % replicas, min(diverge[1], len(batches))
            plans[victim][at:at] = [_DIVERGED]
        # forks of one pristine store with one memo, as ``preload`` builds them
        built, memo = preloaded(), TransitionMemo()
        stores = [built.fork(memo) for _ in range(replicas)]
        unshared = [preloaded() for _ in range(replicas)]
        assert unshared[0].index.memo is None

        # interleave the replicas, each applying its own plan in order
        done = [0] * replicas
        picks = [i % replicas for i in order] + [i for i in range(replicas) for _ in plans[i]]
        for i in picks:
            if done[i] < len(plans[i]):
                batch = plans[i][done[i]]
                assert stores[i].apply_batch(batch) == unshared[i].apply_batch(batch)
                done[i] += 1

        for store, alone in zip(stores, unshared):
            trie, fresh = store.index, alone.index
            assert trie.root == fresh.root
            assert reachable_digests(trie) == reachable_digests(fresh)
            assert trie.meter.snapshot() == fresh.meter.snapshot()
            for key, (value, _) in alone.kv.items():
                assert trie.prove(key).nodes == fresh.prove(key).nodes
                assert mpt_mod.verify(trie.root, key, value, trie.prove(key))

        assert built.index.memo is None  # the pristine store stays out of the memo
        assert memo.sharers == replicas and all(s.index.memo is memo for s in stores)
        if diverge is None:
            assert memo.entries == {}
        else:
            # only transitions the diverged replica skipped or took alone are left
            common = preloaded()
            for batch in batches[:at]:
                common.apply_batch(batch)
            skipped, own = set(), set()
            for batch in batches[at:]:
                skipped.add(common.index_root())
                common.apply_batch(batch)
            diverged = preloaded()
            for i, batch in enumerate(plans[victim]):
                if i >= at:
                    own.add(diverged.index_root())
                diverged.apply_batch(batch)
            assert {root for root, _ in memo.entries} <= skipped | own
