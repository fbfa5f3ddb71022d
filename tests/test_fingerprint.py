"""Smoke test of tools/fingerprint.py on a reduced call set."""

from itertools import chain, islice

import fingerprint as fp
import numpy as np

from expmkit import LowRankPair, Matrix, SuiteConfig


def _digests():
    """The digests of a reduced call set, checked to repeat."""
    config = SuiteConfig(eps=1e-8, sizes=(4, 8), kinds=("diag", "random_dense"),
                         schemes=("baseline", "ps", "sastre"), norm_min=1e-3,
                         norm_max=50.0, norm_count=3, base_seed=5)
    # ||V||_1 = 1e3 admits no unscaled low-rank order: a raised type.
    too_big = LowRankPair(np.full((2, 1), 1e3), np.full((1, 2), 0.5))

    def calls(eps=1e-8):
        return chain(islice(fp.workload_calls("flow_small", 13), 0, None, 40),
                     fp.suite_calls(config),
                     [(too_big, "lowrank", 1e-8), (Matrix([[0.5]]), "sastre", eps)])

    first = fp.fingerprint(calls())
    assert first == fp.fingerprint(calls())
    assert first["calls"] == 40 + 2 * 2 * 3 * 3 + 2
    # A changed outcome changes the digests.
    changed = fp.fingerprint(calls(eps=1e-12))
    assert changed["sha256"] != first["sha256"]
    assert changed["plan_sha256"] != first["plan_sha256"] != first["sha256"]
    return first


def test_fingerprint_repeats_within_one_process():
    _digests()


def test_the_plan_digest_follows_plans_and_counts_not_values(monkeypatch):
    first = _digests()
    call = fp.workloads._call

    def shifted(W, scheme, eps, values, counts):
        res = call(W, scheme, eps)
        if values:
            res = res._replace(value=Matrix(np.nextafter(res.value.a, np.inf)))
        return res._replace(mults=res.mults + counts)

    for values, counts, same_plans in ((True, 0, True), (False, 1, False)):
        monkeypatch.setattr(fp.workloads, "_call", lambda W, scheme, eps: shifted(
            W, scheme, eps, values, counts))
        moved = _digests()
        assert moved["sha256"] != first["sha256"]
        assert (moved["plan_sha256"] == first["plan_sha256"]) is same_plans


def test_oracle_fingerprint_repeats_within_one_process():
    config = SuiteConfig(eps=1e-8, sizes=(4, 8), kinds=("diag", "rotation_block"),
                         schemes=("ps",), norm_min=1e-3, norm_max=50.0, norm_count=2,
                         base_seed=5)
    # A 1-norm above 2^64 is refused by the reference path: a raised type.
    too_big = Matrix([[2.0 ** 65]])

    def matrices(last=0.5):
        return chain(fp.suite_matrices(config), [too_big, Matrix([[last]])])

    first = fp.oracle_fingerprint(matrices())
    assert first == fp.oracle_fingerprint(matrices())
    assert first["oracle_matrices"] == 2 * 2 * 2 + 2
    # A changed matrix changes both digests; they digest different bytes.
    second = fp.oracle_fingerprint(matrices(last=0.25))
    assert second["oracle_sha256"] != first["oracle_sha256"]
    assert second["oracle_pair_sha256"] != first["oracle_pair_sha256"]
    assert first["oracle_sha256"] != first["oracle_pair_sha256"]
