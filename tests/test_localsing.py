"""cA_n classification and the ADE catalog."""

import pytest

from kminusone.errors import InputError
from kminusone.germs import branch_count
from kminusone.localsing import (
    LocalSingularity,
    ade_germ,
    ade_labels,
    ade_lookup,
    classify_cAn,
    from_branch_number,
    ordinary_double_point,
)
from kminusone.parsing import parse_polynomial as poly


class TestClassify:
    def test_a1(self):
        s = classify_cAn(poly("z^2 + w^2"))
        assert (s.n, s.br, s.cl_rank) == (1, 2, 1)

    def test_d4(self):
        s = classify_cAn(poly("z^2*w + w^3"))
        assert (s.n, s.br, s.cl_rank) == (2, 3, 2)

    def test_node_germ(self):
        s = classify_cAn(poly("z*w"))
        assert (s.n, s.br, s.cl_rank) == (1, 2, 1)
        assert s.is_node

    def test_smooth_germ_is_cA0(self):
        s = classify_cAn(poly("z"))
        assert (s.n, s.br, s.cl_rank) == (0, 1, 0)


class TestCatalog:
    def test_spec_rows(self):
        assert (ade_lookup("A", 4).br, ade_lookup("A", 4).cl_rank) == (1, 0)
        assert (ade_lookup("D", 5).br, ade_lookup("D", 5).cl_rank) == (2, 1)
        assert (ade_lookup("E", 8).br, ade_lookup("E", 8).cl_rank) == (1, 0)

    def test_unknown_labels(self):
        for family, index in [("A", 0), ("D", 3), ("E", 5), ("E", 9), ("F", 4)]:
            message = f"no ADE threefold singularity {family}{index}"
            with pytest.raises(InputError, match=message):
                ade_lookup(family, index)
            with pytest.raises(InputError, match=message):
                ade_germ(family, index)

    def test_classification_reproduces_catalog(self):
        # every parameterized row, instantiated beyond the acceptance range
        for family, index in ade_labels(range(1, 5)):
            got = classify_cAn(ade_germ(family, index))
            want = ade_lookup(family, index)
            assert (got.n, got.br, got.cl_rank) == (want.n, want.br, want.cl_rank), \
                (family, index)

    def test_labels_respect_validity_ranges(self):
        labels = ade_labels((1, 2, 3))
        assert ("D", 2) not in labels and ("D", 3) not in labels
        assert ("D", 4) in labels and ("D", 5) in labels and ("D", 6) in labels
        assert labels[-3:] == [("E", 6), ("E", 7), ("E", 8)]


class TestKnorrerConsistency:
    def test_threefold_cl_rank_is_curve_branches_minus_one(self):
        # the local class group of xy + g equals Z^(br(g) - 1)
        for family, index in ade_labels((1, 2, 3)):
            germ = ade_germ(family, index)
            assert classify_cAn(germ).cl_rank == branch_count(germ).branch_count - 1


class TestConstruction:
    def test_invariant_enforced(self):
        # the local class group rank is br - 1 by construction
        assert LocalSingularity(n=1, br=2).cl_rank == 1
        with pytest.raises(ValueError):
            LocalSingularity(n=1, br=0)
        with pytest.raises(ValueError):
            LocalSingularity(n=-1, br=2)

    def test_raw_branch_number(self):
        s = from_branch_number(3)
        assert s.br == 3 and s.cl_rank == 2 and s.n is None
        assert not s.is_node

    def test_node(self):
        assert ordinary_double_point().is_node
