"""The six text formats: dump then parse gives the instance back, and the
shared reader rejects every departure from the header's promises."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge import (ClusteringInstance, CodeInstance, CoverageInstance,
                      LatticeInstance, MonotoneDnf, SetSystem,
                      clustering_to_text, code_to_text, coverage_to_text,
                      dnf_to_text, lattice_to_text, parse_clustering,
                      parse_code, parse_coverage, parse_dnf, parse_lattice,
                      parse_setsys, setsys_to_text)

small = settings(max_examples=40, deadline=None)


@st.composite
def set_lists(draw, max_sets=5):
    u = draw(st.integers(0, 6))
    subsets = st.lists(st.integers(0, u - 1), unique=True).map(sorted) if u else st.just([])
    return u, tuple(tuple(s) for s in draw(st.lists(subsets, max_size=max_sets)))


@st.composite
def coverages(draw):
    u, sets = draw(set_lists())
    return CoverageInstance(u, sets, k=draw(st.integers(1, 4)))


@st.composite
def dnfs(draw):
    k = draw(st.integers(0, 5))
    if k == 0:
        return MonotoneDnf(0, ())
    terms = draw(st.sets(st.frozensets(st.integers(0, k - 1), min_size=1), max_size=5))
    return MonotoneDnf(k, tuple(tuple(sorted(t)) for t in terms))


@st.composite
def clusterings(draw):
    # points on a line with rational coordinates always form a metric
    nc, nf = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    where = draw(st.lists(st.fractions(0, 4, max_denominator=3), min_size=nc + nf,
                          max_size=nc + nf))
    dist = tuple(tuple(abs(a - b) for b in where) for a in where)
    return ClusteringInstance(nc, nf, dist, k=draw(st.integers(1, nf)),
                              exponent=draw(st.sampled_from((1, 2))))


@st.composite
def matrices(draw, entries):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    matrix = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    target = draw(st.lists(entries, min_size=rows, max_size=rows))
    return tuple(map(tuple, matrix)), tuple(target)


@given(coverages())
@small
def test_coverage_round_trip(cov):
    assert parse_coverage(coverage_to_text(cov)) == cov


@given(set_lists())
@small
def test_setsys_round_trip(shape):
    system = SetSystem(*shape)
    assert parse_setsys(setsys_to_text(system)) == system


@given(dnfs())
@small
def test_dnf_round_trip(f):
    assert parse_dnf(dnf_to_text(f)) == f


@given(clusterings())
@small
def test_clustering_round_trip(inst):
    assert parse_clustering(clustering_to_text(inst)) == inst


@given(matrices(st.integers(0, 1)), st.integers(0, 4))
@small
def test_code_round_trip(matrix, k):
    code = CodeInstance(*matrix, k=k)
    assert parse_code(code_to_text(code)) == code


@given(matrices(st.integers(-3, 3)), st.integers(0, 4), st.integers(1, 3))
@small
def test_lattice_round_trip(matrix, k, p):
    lattice = LatticeInstance(*matrix, p=p, k=k)
    assert parse_lattice(lattice_to_text(lattice)) == lattice


SAMPLES = {
    "cov": (parse_coverage, "cov 3 2 1\n0 1\n2\n"),
    "setsys": (parse_setsys, "setsys 3 2\n0 1\n2\n"),
    "dnf": (parse_dnf, "dnf 3 2\n0\n1 2\n"),
    "clustering": (parse_clustering, "clustering 1 1 1 1\n0 1\n1 0\n"),
    "ncp": (parse_code, "ncp 2 1 1\n1\n0\n1 0\n"),
    "cvp": (parse_lattice, "cvp 2 1 1 2\n1\n0\n1 0\n"),
}


@pytest.mark.parametrize("tag", sorted(SAMPLES))
def test_reader_rejects_broken_promises(tag):
    parse, text = SAMPLES[tag]
    parse(text)
    parse(text + "\n \n")  # trailing blank lines are fine
    header, *body = text.splitlines()
    fields = header.split()
    broken = {
        "extra body line": text + "0\n",
        "missing body line": "\n".join([header, *body[:-1]]) + "\n",
        "extra header field": "\n".join([header + " 1", *body]) + "\n",
        "missing header field": "\n".join([" ".join(fields[:-1]), *body]) + "\n",
        "negative count": "\n".join([" ".join([tag, "-1", *fields[2:]]), *body]) + "\n",
        "suffixed tag": tag + "x" + text[len(tag):],
    }
    for what, bad in broken.items():
        with pytest.raises(ValueError):
            parse(bad)
            pytest.fail(f"{tag}: {what} was accepted")


def test_dnf_header_counts_terms():
    assert dnf_to_text(MonotoneDnf(4, ((0,), (1, 3)))) == "dnf 4 2\n0\n1 3\n"
    with pytest.raises(ValueError, match="empty term"):
        parse_dnf("dnf 2 2\n0\n\n")


def test_clustering_rows_must_be_square():
    with pytest.raises(ValueError, match="row width"):
        parse_clustering("clustering 1 1 1 1\n0 1 1\n1 0\n")


def test_clustering_keeps_rational_triangles_exact():
    half = Fraction(1, 2)
    # 1/2 + 1/2 >= 1 holds; truncating the entries to integers would not
    ClusteringInstance(2, 1, ((0, half, 1), (half, 0, half), (1, half, 0)), k=1)
    far, near = Fraction(5, 2), Fraction(6, 5)
    with pytest.raises(ValueError, match="triangle"):
        ClusteringInstance(2, 1, ((0, near, far), (near, 0, near), (far, near, 0)), k=1)
