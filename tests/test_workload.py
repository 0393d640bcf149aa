"""Workload generators: Zipfian distribution, YCSB streams, Smallbank."""

import dataclasses
import hashlib
import math

import pytest

from txsim.core import seeded_rng
from txsim.workload import (
    SMALLBANK_PROCEDURES,
    WorkloadKind,
    WorkloadSpec,
    ZipfianSampler,
    dump_stream,
    gen_smallbank,
    gen_ycsb,
    generate,
    initial_state,
    initial_state_key,
    scramble_rank,
    workload_from_text,
)
from txsim.workload.smallbank import (
    INITIAL_CHECKING,
    INITIAL_SAVINGS,
    procedure_picker,
)

# chi-squared critical values at the 0.1% significance level (upper tail
# 0.999 quantile), standard table values for the degrees of freedom we use
CHI2_CRIT = {9: 27.877165, 99: 148.230359, 999: 1142.847984}


def pmf(sampler, i: int) -> float:
    """The analytic probability of rank ``i`` under ``sampler``'s n and theta."""
    norm = sum(1.0 / j**sampler.theta for j in range(1, sampler.n + 1))
    return (1.0 / i**sampler.theta) / norm


def decode_balance(value: bytes) -> int:
    """A Smallbank balance in cents, as ``encode_balance`` wrote it."""
    return int.from_bytes(value, "big", signed=True)


class TestZipfianDistribution:
    @pytest.mark.parametrize("n", [10, 100, 1000])
    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    def test_goodness_of_fit(self, n, theta):
        draws = 10**6
        sampler = ZipfianSampler(n, theta)
        rng = seeded_rng(2024, f"gof-{n}-{theta}")
        counts = [0] * (n + 1)
        draw = sampler.drawer(rng)
        for _ in range(draws):
            counts[draw()] += 1
        norm = sum(1.0 / j**theta for j in range(1, n + 1))
        stat = 0.0
        for i in range(1, n + 1):
            expected = draws * (1.0 / i**theta) / norm
            stat += (counts[i] - expected) ** 2 / expected
        assert stat < CHI2_CRIT[n - 1], f"chi2={stat:.1f} for n={n}, theta={theta}"

    def test_exact_pmf_three_ranks_theta_one(self):
        # normalizer 1 + 1/2 + 1/3 = 11/6, so p = (6/11, 3/11, 2/11)
        sampler = ZipfianSampler(3, 1.0)
        assert abs(pmf(sampler, 1) - 6 / 11) < 1e-12
        assert abs(pmf(sampler, 2) - 3 / 11) < 1e-12
        assert abs(pmf(sampler, 3) - 2 / 11) < 1e-12
        draws = 10**5
        rng = seeded_rng(7, "pmf3")
        counts = [0] * 4
        draw = sampler.drawer(rng)
        for _ in range(draws):
            counts[draw()] += 1
        for i, p in ((1, 6 / 11), (2, 3 / 11), (3, 2 / 11)):
            sigma = math.sqrt(draws * p * (1 - p))
            assert abs(counts[i] - draws * p) < 3 * sigma

    def test_theta_zero_is_uniform_within_three_sigma(self):
        n, draws = 20, 10**5
        sampler = ZipfianSampler(n, 0.0)
        rng = seeded_rng(8, "uniform")
        counts = [0] * (n + 1)
        draw = sampler.drawer(rng)
        for _ in range(draws):
            counts[draw()] += 1
        p = 1.0 / n
        sigma = math.sqrt(draws * p * (1 - p))
        for i in range(1, n + 1):
            assert abs(counts[i] - draws * p) < 3 * sigma

    def test_single_rank(self):
        rng = seeded_rng(9, "one")
        draw = ZipfianSampler(1, 1.0).drawer(rng)
        assert all(draw() == 1 for _ in range(100))

    def test_handles_million_ranks(self):
        sampler = ZipfianSampler(10**6, 0.99)
        rng = seeded_rng(10, "big")
        draw = sampler.drawer(rng)
        draws = [draw() for _ in range(2000)]
        assert all(1 <= d <= 10**6 for d in draws)
        assert min(draws) < 100  # skew concentrates at the head

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 10**6])
    @pytest.mark.parametrize("theta", [0.0, 0.5, 0.99, 1.0, 1.5, 3.0])
    def test_inline_draw_matches_the_scheme_step_by_step(self, n, theta):
        sampler = ZipfianSampler(n, theta)

        def reference(rng):  # rejection inversion through the sampler's helper methods
            if n == 1:
                return 1
            while True:
                u = sampler._h_n + rng.random() * (sampler._h_x1 - sampler._h_n)
                x = sampler._h_integral_inverse(u)
                k = min(max(int(x + 0.5), 1), n)
                if k - x <= sampler._s or u >= sampler._h_integral(k + 0.5) - sampler._h(k):
                    return k

        rng, twin = seeded_rng(3, "zipf"), seeded_rng(3, "zipf")
        draw = sampler.drawer(rng)
        assert [draw() for _ in range(2000)] == [reference(twin) for _ in range(2000)]
        assert rng.random() == twin.random()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ZipfianSampler(0, 1.0)
        with pytest.raises(ValueError):
            ZipfianSampler(10, -0.5)


class TestScramble:
    @pytest.mark.parametrize("n", [10, 97, 1000, 4096])
    def test_is_a_permutation(self, n):
        assert sorted(scramble_rank(r, n) for r in range(1, n + 1)) == list(range(n))

    def test_adjacent_hot_ranks_scatter(self):
        n = 1000
        images = [scramble_rank(r, n) for r in (1, 2, 3)]
        gaps = [abs(a - b) for a, b in zip(images, images[1:])]
        assert min(gaps) > 10


class TestYcsb:
    def test_query_only_has_empty_write_sets(self):
        spec = WorkloadSpec(kind=WorkloadKind.YCSB_QUERY, txn_count=50, seed=3)
        txns = gen_ycsb(spec)
        assert len(txns) == 50
        assert all(txn.write_set == () for txn in txns)
        assert all(txn.read_keys for txn in txns)

    def test_update_reads_then_writes_same_keys(self):
        spec = WorkloadSpec(kind=WorkloadKind.YCSB_UPDATE, txn_count=50, ops_per_txn=3, seed=4)
        for txn in gen_ycsb(spec):
            write_keys = tuple(k for k, _ in txn.write_set)
            assert txn.read_keys == write_keys
            assert len(set(txn.read_keys)) == 3 == txn.op_count

    def test_constant_total_splits_record_size(self):
        spec = WorkloadSpec(
            kind=WorkloadKind.YCSB_UPDATE,
            ops_per_txn=10,
            constant_total_bytes=1000,
            txn_count=5,
            seed=5,
        )
        assert spec.effective_record_size == 100
        for txn in gen_ycsb(spec):
            assert all(len(v) == 100 for _, v in txn.write_set)

    def test_mixed_respects_read_fraction(self):
        spec = WorkloadSpec(
            kind=WorkloadKind.YCSB_MIXED, read_fraction=0.7, txn_count=2000, seed=6
        )
        txns = gen_ycsb(spec)
        reads = sum(1 for t in txns if not t.write_set)
        assert abs(reads / len(txns) - 0.7) < 0.05

    @pytest.mark.parametrize(
        "theta, ops, expected",
        [
            (0.0, 1, "fc1e130bfa489e16d38188b881892a957e2e73aa4109d7608edec30214e13e93"),
            (0.0, 2, "d037177160c4732ae50dd717347ac5e1c287a1338da313b45b340f78b7480bbf"),
            (0.6, 1, "1f5231bd03579912b8a8c0ae47c60fb423202568aed23d7443e8e603a9947246"),
            (0.6, 2, "b807f217bf1ebc62e74e68a486586ce1db276646ef08f9e2a1555d60af725142"),
            (1.0, 1, "c0b2ada1da4c2601d571d05d36670b6ce5a14391ca2b5e22d51d14551b1e8a3a"),
            (1.0, 2, "7cb8078ab41581e9b766ecd185f736bbcc70b1985b86e69fd0b30de6d45a55b7"),
        ],
    )
    def test_stream_matches_its_pinned_digest(self, theta, ops, expected):
        # a change to key drawing, scrambling or transaction building moves these
        spec = WorkloadSpec(
            kind=WorkloadKind.YCSB_MIXED, record_count=100, theta=theta, ops_per_txn=ops,
            txn_count=300, seed=11,
        )
        assert hashlib.sha256(dump_stream(gen_ycsb(spec)).encode()).hexdigest() == expected

    def test_stream_is_deterministic(self):
        spec = WorkloadSpec(kind=WorkloadKind.YCSB_UPDATE, theta=0.8, txn_count=200, seed=7)
        assert dump_stream(gen_ycsb(spec)) == dump_stream(gen_ycsb(spec))
        other = WorkloadSpec(kind=WorkloadKind.YCSB_UPDATE, theta=0.8, txn_count=200, seed=8)
        assert dump_stream(gen_ycsb(spec)) != dump_stream(gen_ycsb(other))

    def test_initial_state_covers_key_space(self):
        spec = WorkloadSpec(kind=WorkloadKind.YCSB_UPDATE, record_count=100, seed=1)
        writes = initial_state(spec)
        assert len(writes) == 100
        assert all(len(v) == spec.record_size_bytes for _, v in writes)


def _stream_digest(specs):
    """SHA-256 over every field a generator sets, of every transaction of every spec."""
    h = hashlib.sha256()
    for spec in specs:
        for txn in generate(spec):
            # read keys hashed as the (key, None) pairs they once were, so the
            # digests recorded before read versions left Transaction still hold
            pairs = tuple((k, None) for k in txn.read_keys)
            fields = (txn.id, pairs, txn.write_set, txn.op_count, txn.app_abort)
            h.update(repr(fields).encode())
    return h.hexdigest()


class TestFullStreamDigests:
    """Every generated stream, byte for byte: ids, keys, value bytes, op counts, app aborts.

    Record sizes around 16 straddle the value prefix; one record and one op
    cover the degenerate key spaces.
    """

    MIXES = {
        "uniform": (),
        "transfers": (("send_payment", 2.0), ("amalgamate", 1.0), ("balance", 0.0)),
        "single": (("write_check", 0.5), ("transact_savings", 1.5), ("deposit_checking", 0.25)),
    }

    @pytest.mark.parametrize(
        "kind, theta, expected",
        [
            ("ycsb_update", 0.0, "8b2dadf5a01ec1534f9809dc882812e5981824d36f07451199affb17fbd95f19"),
            ("ycsb_update", 0.6, "6deef540cdb6373595ad95129a186310d07d1b53603d566fb8d88b6324bf54a8"),
            ("ycsb_update", 1.0, "9e9feeb00cd0e7b6bce002760477dfcbc3b13c772a636f8ee7e998157bd1f160"),
            ("ycsb_update", 1.5, "75bdf4975bbfc79978067bfaed18cd9bd4b130558dc0a8784d6e79d4c83e852a"),
            ("ycsb_query", 0.0, "a1fe843deb10151e9249b588eab0cb9e881f51a7be2a99ed7ba1aa0f5950faee"),
            ("ycsb_query", 0.6, "889303d49178a92129889589b053f43f1dd14653f6084b530329e42d837504cb"),
            ("ycsb_query", 1.0, "0677a79e973cc8e3d03d7f2bf0a0296af7cb17320ea4c67e82412f94f6f15f9e"),
            ("ycsb_query", 1.5, "6599b7d1d930f3f0e65bff3e26f06f85be56ea846384c5da90d438db89100c00"),
            ("ycsb_mixed", 0.0, "eb30b94bb071c8b00b4f37ad82fe8e0f42843163c3a554ef52cb713c6b40f2a8"),
            ("ycsb_mixed", 0.6, "c0a1f41f87ef616e8dff5be229ca2f7f1b9c1d63a86e0ba1afc4a1fe4d1b478f"),
            ("ycsb_mixed", 1.0, "f83d4a23beb6384e02b3dae6d8d8d5f84ffcdcf80723277599b8e5b1493f5986"),
            ("ycsb_mixed", 1.5, "f57c229d4ae78f1bf9d84875f4b4053c3a4ee57bd505c1e8090249b2da640d17"),
        ],
    )
    def test_ycsb_grid(self, kind, theta, expected):
        specs = [
            WorkloadSpec(kind=WorkloadKind(kind), theta=theta, record_count=records,
                         ops_per_txn=ops, record_size_bytes=size, txn_count=40, seed=21)
            for records in (1, 2, 100)
            for ops in (1, 2, 10)
            for size in (1, 15, 16, 17, 1000)
        ]
        assert _stream_digest(specs) == expected

    @pytest.mark.parametrize(
        "mix, theta, expected",
        [
            ("uniform", 0.0, "112da1b855e4282f19b54703151d6a3d28d82e80d930537b55dba6023d1c1da4"),
            ("uniform", 1.0, "32215f1ee24999b8f5143750f1eb8ade08c84a0a0ded19b508ac98d59ee720a8"),
            ("transfers", 0.0, "95379982dfed53d97bc03612cae893fd2d032772f35a484efdc702e768ee7099"),
            ("transfers", 1.0, "16a749caffaaa976ff83fb15c8276b8bdd82b412077ccaba6f2549284c50a894"),
            ("single", 0.0, "ed1dd227238f77e96c5492ee1b8d276cad969684ceea2ad5b451b617532e3e8c"),
            ("single", 1.0, "5166922ca2225e7d53bc35471bfc809acd6644036933fd2d7d87d13a934984b7"),
        ],
    )
    def test_smallbank_grid(self, mix, theta, expected):
        specs = [
            WorkloadSpec(kind=WorkloadKind.SMALLBANK, smallbank_mix=self.MIXES[mix],
                         theta=theta, record_count=records, txn_count=300, seed=22)
            for records in (2, 3, 50)
        ]
        assert _stream_digest(specs) == expected


# every field of WorkloadSpec -> values to put in its place, one at a time
_PERTURBATIONS = {
    "kind": list(WorkloadKind),
    "record_count": [1, 29, 31],
    "record_size_bytes": [1, 7, 120],
    "theta": [0.0, 0.9],
    "ops_per_txn": [1, 2, 4],
    "txn_count": [1, 500],
    "seed": [0, 9],
    "read_fraction": [0.0, 1.0],
    "constant_total_bytes": [0, 60, 121],
    "smallbank_mix": [(), (("balance", 1.0),)],
}


class TestInitialStateKey:
    """Preloaded stores are shared by ``initial_state_key``: equal keys must mean equal records."""

    @pytest.mark.parametrize("base", [
        WorkloadSpec(kind=WorkloadKind.YCSB_UPDATE, record_count=30, record_size_bytes=20),
        WorkloadSpec(kind=WorkloadKind.YCSB_MIXED, record_count=30, ops_per_txn=3,
                     constant_total_bytes=90),
        WorkloadSpec(kind=WorkloadKind.SMALLBANK, record_count=30),
    ], ids=["ycsb", "ycsb_constant_total", "smallbank"])
    def test_a_field_moves_the_key_or_leaves_the_records(self, base):
        names = {f.name for f in dataclasses.fields(WorkloadSpec)}
        assert names == set(_PERTURBATIONS)
        records, key = initial_state(base), initial_state_key(base)
        for name in sorted(names):
            for value in _PERTURBATIONS[name]:
                try:
                    spec = dataclasses.replace(base, **{name: value})
                except ValueError:  # Smallbank refuses one customer
                    continue
                if initial_state_key(spec) == key:
                    assert initial_state(spec) == records, (name, value)

    def test_the_key_ignores_the_stream(self):
        spec = WorkloadSpec(kind=WorkloadKind.YCSB_UPDATE, record_count=30)
        for name, value in (("seed", 4), ("theta", 0.9), ("ops_per_txn", 3), ("txn_count", 7)):
            other = dataclasses.replace(spec, **{name: value})
            assert initial_state_key(other) == initial_state_key(spec)


def _replay(spec, txns):
    state = dict(initial_state(spec))
    for txn in txns:
        if txn.app_abort:
            assert txn.write_set == ()
            continue
        for key, value in txn.write_set:
            state[key] = value
    return state


class TestSmallbank:
    def test_send_payment_touches_exactly_two_accounts(self):
        spec = WorkloadSpec(
            kind=WorkloadKind.SMALLBANK,
            record_count=50,
            theta=1.0,
            txn_count=300,
            seed=11,
            smallbank_mix=(("send_payment", 1.0),),
        )
        for txn in gen_smallbank(spec):
            custs = {k[3:] for k in txn.read_keys}
            assert len(custs) == 2

    def test_deposits_never_abort_and_never_shrink_balances(self):
        spec = WorkloadSpec(
            kind=WorkloadKind.SMALLBANK,
            record_count=20,
            txn_count=400,
            seed=12,
            smallbank_mix=(("deposit_checking", 1.0),),
        )
        txns = gen_smallbank(spec)
        assert all(not t.app_abort for t in txns)
        state = _replay(spec, txns)
        for key, value in state.items():
            if key.startswith(b"chk"):
                assert decode_balance(value) >= INITIAL_CHECKING

    def test_transfer_only_mix_conserves_total_money(self):
        spec = WorkloadSpec(
            kind=WorkloadKind.SMALLBANK,
            record_count=30,
            theta=1.0,
            txn_count=1000,
            seed=13,
            smallbank_mix=(("send_payment", 0.6), ("amalgamate", 0.4)),
        )
        txns = gen_smallbank(spec)
        state = _replay(spec, txns)
        total = sum(decode_balance(v) for v in state.values())
        expected = spec.record_count * (INITIAL_CHECKING + INITIAL_SAVINGS)
        assert total == expected

    @pytest.mark.parametrize(
        "mix",
        [
            (("balance", -1), ("deposit_checking", 3)),
            (("amalgamate", math.nan),),
            (("amalgamate", math.inf),),
            (("nosuch", 1),),
            (("balance", 0), ("amalgamate", 0.0)),
        ],
    )
    def test_invalid_mix_is_refused(self, mix):
        with pytest.raises(ValueError, match="smallbank"):
            WorkloadSpec(kind=WorkloadKind.SMALLBANK, smallbank_mix=mix)

    def test_constraint_violations_become_application_aborts(self):
        spec = WorkloadSpec(
            kind=WorkloadKind.SMALLBANK,
            record_count=5,
            theta=1.0,
            txn_count=2000,
            seed=14,
        )
        txns = gen_smallbank(spec)
        aborted = [t for t in txns if t.app_abort]
        assert aborted, "a long skewed run must hit insufficient funds"
        assert all(t.write_set == () for t in aborted)

    def test_uniform_mix_hits_all_procedures(self):
        spec = WorkloadSpec(kind=WorkloadKind.SMALLBANK, record_count=20, txn_count=600, seed=15)
        txns = gen_smallbank(spec)
        sizes = {len(t.read_keys) for t in txns}
        assert {1, 2, 3}.issubset(sizes)

    def test_stream_is_deterministic(self):
        spec = WorkloadSpec(kind=WorkloadKind.SMALLBANK, record_count=20, txn_count=200, seed=16)
        assert dump_stream(gen_smallbank(spec)) == dump_stream(gen_smallbank(spec))


class TestRandomDraws:
    """Smallbank's procedure picks draw exactly what ``choices`` draws."""

    @pytest.mark.parametrize(
        "weights",
        [
            [1.0] * 6,
            [0.0, 2.0, 0.0, 0.5, 3.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            [1, 0, 2, 0, 0, 7],
        ],
        ids=["uniform", "zeros", "one-nonzero", "integers"],
    )
    def test_procedure_pick_matches_choices(self, weights):
        names = list(SMALLBANK_PROCEDURES)
        for seed in range(5):
            rng, twin = seeded_rng(seed, "workload"), seeded_rng(seed, "workload")
            pick = procedure_picker(rng, names, weights)
            picks = [pick() for _ in range(300)]
            assert picks == [twin.choices(names, weights=weights, k=1)[0] for _ in range(300)]
            assert rng.random() == twin.random()


class TestSpecParsing:
    def test_ini_and_json_equivalent(self):
        ini = (
            "[workload]\nkind = ycsb_update\nrecord_count = 500\n"
            "record_size_bytes = 100\ntheta = 0.8\nops_per_txn = 2\n"
            "txn_count = 50\nseed = 9\n"
        )
        js = (
            '{"kind": "ycsb_update", "record_count": 500, "record_size_bytes": 100,'
            ' "theta": 0.8, "ops_per_txn": 2, "txn_count": 50, "seed": 9}'
        )
        assert workload_from_text(ini) == workload_from_text(js)

    def test_generate_dispatches_on_kind(self):
        spec = WorkloadSpec(kind=WorkloadKind.SMALLBANK, record_count=10, txn_count=10, seed=1)
        assert generate(spec)[0].read_keys
        spec = WorkloadSpec(kind=WorkloadKind.YCSB_QUERY, txn_count=10, seed=1)
        assert generate(spec)[0].write_set == ()

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(ops_per_txn=11)
        with pytest.raises(ValueError):
            WorkloadSpec(txn_count=0)
        with pytest.raises(ValueError):
            WorkloadSpec(theta=-1.0)
        with pytest.raises(ValueError, match="constant_total_bytes"):
            WorkloadSpec(constant_total_bytes=-5)
        with pytest.raises(ValueError, match="constant_total_bytes"):
            WorkloadSpec(constant_total_bytes=-5, record_size_bytes=0)
        with pytest.raises(ValueError, match="record_count"):
            WorkloadSpec(kind=WorkloadKind.SMALLBANK, record_count=1)
        WorkloadSpec(kind=WorkloadKind.SMALLBANK, record_count=2)

    @pytest.mark.parametrize("theta", [float("nan"), float("inf")])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(ValueError, match="theta"):
            WorkloadSpec(theta=theta)
