"""Instance families."""

import pytest

from tricover import InstanceSpec, enumerate_triangles, generate, nu_exact
from tricover.errors import InputError
from tricover.generators import (
    MAX_PAIRS,
    bowtie,
    complete_graph,
    glued_k4,
    gnp,
    lend_chain,
)
from tricover.graph import MAX_VERTICES


def test_complete_graph():
    g = generate(InstanceSpec("complete", n=6))
    assert g.n == 6 and g.m == 15
    assert len(enumerate_triangles(g)) == 20


def test_bowtie_shape():
    g = bowtie()
    assert g.n == 5 and g.m == 6
    assert len(enumerate_triangles(g)) == 2
    assert nu_exact(g).value == 2


def test_gnp_deterministic():
    a = generate(InstanceSpec("gnp", n=10, p=0.5, seed=7))
    b = gnp(10, 0.5, 7)
    assert a.edges == b.edges
    c = gnp(10, 0.5, 8)
    assert a.edges != c.edges


def test_glued_k4_shape():
    for L in (1, 2, 4):
        g = glued_k4(L)
        assert g.n == 3 * L + 1
        assert g.m == 6 * L
        assert nu_exact(g).value == L


def test_lend_chain_shapes():
    g1 = lend_chain(1)
    assert g1.n == 6 and g1.m == 11
    for L in (1, 2, 3, 4):
        g = lend_chain(L)
        assert g.n == 2 * L + 4
        assert g.m == 5 * L + 6
        assert nu_exact(g).value == L + 1


def test_bad_params():
    with pytest.raises(InputError, match="complete needs n"):
        generate(InstanceSpec("complete"))
    with pytest.raises(InputError, match="gnp needs n, p, seed"):
        generate(InstanceSpec("gnp", n=5))
    with pytest.raises(InputError, match="unknown family 'nosuch'"):
        generate(InstanceSpec("nosuch"))
    with pytest.raises(InputError, match="lend_chain needs length >= 1"):
        lend_chain(0)
    with pytest.raises(InputError, match="bad gnp parameters n=5, p=1.5"):
        gnp(5, 1.5, 0)


def test_spec_labels():
    assert InstanceSpec("gnp", n=5, p=0.5, seed=1).label() == "gnp,n=5,p=0.5,seed=1"


def test_sizes_above_the_caps_are_rejected():
    # each call would exhaust memory if it built its edge list first
    for make in (
        lambda: complete_graph(MAX_VERTICES + 1),
        lambda: gnp(10**9, 0.5, 0),
        lambda: glued_k4(MAX_VERTICES // 3 + 1),  # 3L+1 vertices
        lambda: lend_chain(MAX_VERTICES // 2 - 1),  # 2L+4 vertices
        lambda: generate(InstanceSpec("glued_k4", length=10**12)),
    ):
        with pytest.raises(InputError, match="cap"):
            make()
    # complete and gnp scan every vertex pair: at most MAX_PAIRS of them
    assert 1414 * 1413 // 2 <= MAX_PAIRS < 1415 * 1414 // 2
    with pytest.raises(InputError, match="pairs"):
        complete_graph(1415)
    with pytest.raises(InputError, match="pairs"):
        generate(InstanceSpec("gnp", n=1415, p=0.5, seed=1))
    assert gnp(1414, 0.0, 0).n == 1414
