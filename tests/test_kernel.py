"""Kernel closure, DFAO synthesis, and rank profiles."""

import numpy as np
import pytest

from pdseq import catalog
from pdseq.automata import evaluate_range, minimize
from pdseq.kernel import HorizonError, compute_kernel, rank_profile, synthesize_dfao


class TestComputeKernel:
    def test_inverse_pd_kernel_generators(self):
        analysis = compute_kernel(catalog.sequence("u").prefix, 2, horizon=512)
        assert analysis.closed
        pairs = {(c.scale, c.residue) for c in analysis.classes}
        assert pairs == {(0, 0), (1, 0), (1, 1), (2, 1), (3, 1)}

    def test_pd_kernel_four_classes(self):
        analysis = compute_kernel(catalog.sequence("d").prefix, 2, horizon=512)
        assert analysis.closed
        assert analysis.class_count() == 4

    def test_constant_sequence(self):
        analysis = compute_kernel(lambda n: np.zeros(n, dtype=np.int64), 2, horizon=64)
        assert analysis.closed and analysis.class_count() == 1

    def test_depth_cap_reports_open(self):
        analysis = compute_kernel(catalog.sequence("p").prefix, 2, max_depth=3, horizon=64)
        assert not analysis.closed and analysis.closed_depth is None

    def test_closure_stable_under_doubled_horizon(self):
        # sequences with genuinely closing kernels merge identically at both
        # fingerprint horizons
        for name, k in (("u", 2), ("d", 2), ("t", 2), ("tp3", 3)):
            a = compute_kernel(catalog.sequence(name).prefix, k, horizon=512)
            b = compute_kernel(catalog.sequence(name).prefix, k, horizon=1024)
            assert a.closed and b.closed
            assert [(c.scale, c.residue) for c in a.classes] == [
                (c.scale, c.residue) for c in b.classes
            ]
            assert a.transitions == b.transitions

    def test_fingerprint_collision_raises(self):
        # the even subsequence agrees with the whole sequence on the first
        # H terms but differs inside the 4H verification window
        def tricky(n):
            s = np.zeros(n, dtype=np.int64)
            if n > 400:
                s[400] = 1
            return s

        with pytest.raises(HorizonError):
            compute_kernel(tricky, 2, horizon=128)


class TestSynthesis:
    def test_inverse_pd_five_states(self):
        analysis = compute_kernel(catalog.sequence("u").prefix, 2, horizon=512)
        machine = minimize(synthesize_dfao(analysis))
        assert machine.num_states == 5
        assert machine.same_up_to_renaming(catalog.inverse_pd_dfao())

    def test_pd_synthesis_is_minimal_lsd_machine(self):
        # reading least significant digit first, the trailing-run parity
        # needs four states (the two-state machine only works MSD-first)
        analysis = compute_kernel(catalog.sequence("d").prefix, 2, horizon=512)
        machine = minimize(synthesize_dfao(analysis))
        assert machine.read_order == "lsd"
        assert machine.num_states == 4
        limit = 1 << 16
        assert np.array_equal(evaluate_range(machine, limit), catalog.sequence("d").prefix(limit))

    def test_constant_sequence_single_state(self):
        analysis = compute_kernel(lambda n: np.full(n, 7, dtype=np.int64), 2, horizon=64)
        machine = synthesize_dfao(analysis)
        assert machine.num_states == 1
        assert machine.output((0, 1, 1, 0)) == 7

    def test_open_kernel_cannot_synthesize(self):
        analysis = compute_kernel(catalog.sequence("p").prefix, 2, max_depth=3, horizon=64)
        with pytest.raises(ValueError, match="closed"):
            synthesize_dfao(analysis)


class TestRankProfile:
    def test_identity_sequence_rank_two(self):
        # every kernel row of the identity is an integer combination of
        # the index sequence and the all-ones sequence
        prof = rank_profile(lambda n: np.arange(n, dtype=np.int64), 2, max_depth=6, horizon=128)
        assert prof.ranks()[0] == 1
        assert set(prof.ranks()[1:]) == {2}

    def test_inverse_pd_profile_stabilizes(self):
        prof = rank_profile(catalog.sequence("u").prefix, 2, max_depth=8, horizon=512)
        assert prof.class_counts() == [1, 3, 4, 5, 5, 5, 5, 5, 5]
        assert prof.ranks() == [1, 2, 3, 4, 4, 4, 4, 4, 4]
        assert prof.stabilized("class_count") and prof.stabilized("rank")

    def test_positions_profile_is_full_rank(self):
        prof = rank_profile(catalog.sequence("a").prefix, 2, max_depth=6, horizon=256)
        assert prof.ranks() == [1, 3, 7, 15, 31, 63, 127]
        assert prof.class_counts() == prof.ranks()

    def test_json_report_shape(self):
        prof = rank_profile(catalog.sequence("u").prefix, 2, max_depth=3, horizon=64)
        report = prof.to_json_dict()
        assert report["k"] == 2 and report["horizon"] == 64
        assert [d["depth"] for d in report["depths"]] == [0, 1, 2, 3]
        reps = report["depths"][0]["representatives"]
        assert reps[0]["scale"] == 0 and reps[0]["residue"] == 0
        assert len(reps[0]["fingerprint"]) == 32

    def test_class_counts_nondecreasing_in_horizon(self):
        # a longer fingerprint can only split classes, never merge them
        for name in ("p", "z", "u"):
            seq = catalog.sequence(name).prefix
            small = rank_profile(seq, 2, max_depth=6, horizon=128).class_counts()
            large = rank_profile(seq, 2, max_depth=6, horizon=256).class_counts()
            assert all(s <= l for s, l in zip(small, large))
